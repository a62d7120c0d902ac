//! Criterion micro-benchmarks for the hot paths of the hybrid tree:
//! metric evaluation, kd navigation, node splitting, insertion, and the
//! three query kinds. These complement the figure benches (which measure
//! whole experiments) by tracking per-operation regressions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hybrid_tree::{bipartition_1d, HybridTree, HybridTreeConfig};
use hyt_data::{colhist, uniform, BoxWorkload};
use hyt_eval::{run_batch, BatchPolicy};
use hyt_geom::{Metric, Point, Rect, L1, L2};
use hyt_index::{MultidimIndex, Query, QueryContext};
use rand::prelude::*;
use rand::rngs::StdRng;

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metric");
    for dim in [16usize, 64] {
        let a = Point::new(vec![0.25; dim]);
        let b = Point::new(vec![0.75; dim]);
        let r = Rect::new(vec![0.4; dim], vec![0.6; dim]);
        g.bench_with_input(BenchmarkId::new("l2_distance", dim), &dim, |bch, _| {
            bch.iter(|| L2.distance(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("l1_mindist_rect", dim), &dim, |bch, _| {
            bch.iter(|| L1.min_dist_rect(black_box(&a), black_box(&r)))
        });
    }
    g.finish();
}

fn bench_bipartition(c: &mut Criterion) {
    let mut g = c.benchmark_group("split");
    for n in [16usize, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let segs: Vec<(f32, f32)> = (0..n)
            .map(|_| {
                let lo: f32 = rng.gen();
                (lo, lo + rng.gen::<f32>() * 0.2)
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("bipartition_1d", n), &n, |bch, _| {
            bch.iter(|| bipartition_1d(black_box(&segs), n / 3))
        });
    }
    g.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("insert");
    g.sample_size(10);
    for dim in [16usize, 64] {
        let data = colhist(5_000, dim, 7);
        g.bench_with_input(BenchmarkId::new("hybrid_5k", dim), &dim, |bch, _| {
            bch.iter(|| {
                let mut t = HybridTree::new(dim, HybridTreeConfig::default()).unwrap();
                for (i, p) in data.iter().enumerate() {
                    t.insert(p.clone(), i as u64).unwrap();
                }
                black_box(t.len())
            })
        });
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    let dim = 16usize;
    let data = uniform(20_000, dim, 11);
    let wl = BoxWorkload::calibrated(&data, 16, 0.002, 12);
    let mut tree = HybridTree::new(dim, HybridTreeConfig::default()).unwrap();
    for (i, p) in data.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let q = data[42].clone();

    g.bench_function("box_query_16d_20k", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % wl.queries.len();
            black_box(tree.box_query(&wl.queries[i]).unwrap().len())
        })
    });
    g.bench_function("knn10_l2_16d_20k", |b| {
        b.iter(|| black_box(tree.knn(&q, 10, &L2).unwrap().len()))
    });
    g.bench_function("range_l1_16d_20k", |b| {
        b.iter(|| black_box(tree.distance_range(&q, 0.3, &L1).unwrap().len()))
    });
    g.finish();
}

/// Batch-query throughput: the same kNN batch over one shared tree,
/// scheduled on 1/2/4 worker threads. The decoded-leaf cache is sized to
/// hold every data page (each holds at least one entry, so the point
/// count bounds them), so its sharded table serves warm hits
/// concurrently and this tracks the scalability of the concurrent query
/// engine.
fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch");
    g.sample_size(10);
    let dim = 16usize;
    let data = uniform(20_000, dim, 19);
    let mut tree = HybridTree::new(
        dim,
        HybridTreeConfig {
            node_cache_entries: data.len(),
            ..HybridTreeConfig::default()
        },
    )
    .unwrap();
    for (i, p) in data.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let queries: Vec<Query> = data
        .iter()
        .step_by(250)
        .take(64)
        .map(|p| Query::Knn {
            q: p.clone(),
            k: 10,
            epsilon: 0.0,
        })
        .collect();
    g.throughput(Throughput::Elements(queries.len() as u64));
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("knn10_16d_20k", threads),
            &threads,
            |b, &t| {
                let policy = BatchPolicy::default();
                b.iter(|| {
                    black_box(
                        run_batch(&tree, &L2, &queries, t, &policy, None)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
    }
    g.finish();
}

/// Decoded-node cache effect on the kNN hot path: the same warm query
/// stream with the cache off (each data page decoded per visit) and on
/// (once per page epoch); directory pages are walked in place either
/// way. Wall-clock deltas are modest on small trees; end-to-end latency
/// is measured by `perfbench`.
fn bench_decoded_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("decoded_cache");
    let dim = 16usize;
    let data = uniform(20_000, dim, 23);
    for entries in [0usize, 4096] {
        let mut tree = HybridTree::new(
            dim,
            HybridTreeConfig {
                node_cache_entries: entries,
                ..HybridTreeConfig::default()
            },
        )
        .unwrap();
        for (i, p) in data.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        let q = data[42].clone();
        let label = if entries == 0 { "off" } else { "on" };
        g.bench_function(format!("knn10_16d_20k/{label}"), |b| {
            b.iter(|| black_box(tree.knn(&q, 10, &L2).unwrap().len()))
        });
    }
    g.finish();
}

/// Unified-executor group: pins the refactored kNN hot loop (now the
/// shared `hyt-exec` best-first cursor, bounded by k) against the `query/knn10_l2_16d_20k`
/// trajectory, and measures the incremental cursor draining the same k —
/// the executor refactor must not make either slower than the engine-local
/// loops it replaced.
fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    let dim = 16usize;
    let data = uniform(20_000, dim, 11);
    let mut tree = HybridTree::new(dim, HybridTreeConfig::default()).unwrap();
    for (i, p) in data.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let q = data[42].clone();

    g.bench_function("knn10_l2_16d_20k", |b| {
        b.iter(|| black_box(tree.knn(&q, 10, &L2).unwrap().len()))
    });
    g.bench_function("knn10_cursor_l2_16d_20k", |b| {
        b.iter(|| {
            let mut cursor = tree.knn_stream(&q, &L2, QueryContext::unlimited()).unwrap();
            let mut n = 0usize;
            while n < 10 && cursor.next().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_metrics,
    bench_bipartition,
    bench_insert,
    bench_queries,
    bench_batch,
    bench_decoded_cache,
    bench_executor
);
criterion_main!(benches);
