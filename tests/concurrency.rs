//! Concurrency smoke tests: a built index shared across threads must
//! answer every query identically to a serial run, and per-query I/O
//! attribution must be schedule-independent.

use hybridtree_repro::eval::{build_engine, run_batch, total_io, Engine};
use hybridtree_repro::prelude::*;
use std::sync::Arc;

fn build_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

fn mixed_queries(data: &[Point], n: usize) -> Vec<Query> {
    data.iter()
        .take(n)
        .enumerate()
        .map(|(i, p)| match i % 3 {
            0 => {
                let lo: Vec<f32> = p.coords().iter().map(|c| (c - 0.2).max(0.0)).collect();
                let hi: Vec<f32> = p.coords().iter().map(|c| (c + 0.2).min(1.0)).collect();
                Query::Box(Rect::new(lo, hi))
            }
            1 => Query::Range {
                q: p.clone(),
                radius: 0.35,
            },
            _ => Query::Knn {
                q: p.clone(),
                k: 7,
                epsilon: 0.0,
            },
        })
        .collect()
}

/// Runs `queries` with no limits on `threads` workers.
fn unlimited(
    idx: &dyn MultidimIndex,
    queries: &[Query],
    threads: usize,
) -> Vec<(QueryOutcome<Answer>, IoStats)> {
    run_batch(idx, &L1, queries, threads, QueryContext::unlimited()).unwrap()
}

/// N worker threads × M queries each over one shared tree: every answer
/// and every per-query logical-read count must equal the serial run's,
/// and the summed per-query I/O must match on the schedule-independent
/// counters.
#[test]
fn parallel_batches_match_serial_across_engines() {
    let data = build_points(4000, 6, 1);
    for engine in [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan] {
        let (idx, _) = build_engine(engine, &data).unwrap();
        let queries = mixed_queries(&data, 24);
        let serial = unlimited(idx.as_ref(), &queries, 1);
        assert!(serial.iter().all(|(o, _)| o.is_complete()));
        for threads in [2, 4, 8] {
            let parallel = unlimited(idx.as_ref(), &queries, threads);
            assert_eq!(
                serial, parallel,
                "{engine:?} parallel batch at {threads} threads differs from serial"
            );
            let s = total_io(&serial);
            let p = total_io(&parallel);
            assert_eq!(
                s.logical_reads, p.logical_reads,
                "{engine:?} summed reads differ"
            );
            assert_eq!(
                s.seq_reads, p.seq_reads,
                "{engine:?} summed seq reads differ"
            );
        }
    }
}

/// A hybrid tree over `data` whose decoded-node cache holds
/// `node_cache_entries` data pages (0: no cache).
fn hybrid(data: &[Point], node_cache_entries: usize) -> HybridTree {
    let cfg = HybridTreeConfig {
        node_cache_entries,
        ..HybridTreeConfig::default()
    };
    let mut tree = HybridTree::new(data[0].dim(), cfg).unwrap();
    for (i, p) in data.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

/// A cache of 8 entries, far fewer than the trees' data pages, so
/// concurrent queries churn its LRU.
const SMALL_CACHE: usize = 8;

/// The smallest cache whose table is split into shards (the decoded-node
/// cache shards from 128 entries on), so concurrent queries hit warm
/// entries behind several shard locks.
const SHARDED_CACHE: usize = 128;

/// Raw `std::thread` sharing (no runner): concurrent queries straight on
/// a `HybridTree` behind an `Arc`, interleaved with a nearest-neighbor
/// cursor, all agreeing with the single-threaded answers of a tree
/// without the decoded-node cache — also when a small cache churns and
/// when a sharded one serves warm hits.
#[test]
fn hybrid_tree_is_shareable_across_threads() {
    let data = build_points(3000, 4, 2);
    let centers: Vec<Point> = data.iter().step_by(300).cloned().collect();
    let expected: Vec<Vec<(u64, f64)>> = {
        let tree = hybrid(&data, 0);
        centers
            .iter()
            .map(|c| tree.knn(c, 5, &L2).unwrap())
            .collect()
    };
    for cache in [0, SMALL_CACHE, SHARDED_CACHE] {
        let tree = Arc::new(hybrid(&data, cache));
        assert!(tree.structure_stats().unwrap().data_nodes > 2 * SMALL_CACHE);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tree = Arc::clone(&tree);
            let centers = centers.clone();
            handles.push(std::thread::spawn(move || {
                let mut answers = Vec::new();
                for c in &centers {
                    answers.push(tree.knn(c, 5, &L2).unwrap());
                }
                // A streaming cursor shares the tree with the other threads.
                let mut cursor = tree
                    .knn_stream(&centers[0], &L2, QueryContext::unlimited())
                    .unwrap();
                let first = cursor.next().unwrap();
                (answers, first)
            }));
        }
        for h in handles {
            let (answers, first) = h.join().unwrap();
            assert_eq!(answers, expected, "cache {cache}");
            assert_eq!(first.0, expected[0][0].0);
            assert!((first.1 - expected[0][0].1).abs() < 1e-12);
        }
        let s = tree.cache_stats();
        assert_eq!(s.hits > 0, cache > 0, "cache {cache}: {s:?}");
        if cache == SMALL_CACHE {
            assert!(s.evictions > 0, "cache {cache}: {s:?}");
        }
    }
}

/// Per-query `logical_reads` summed over a parallel run equals the
/// pool-global counter delta: nothing double-counted, nothing dropped,
/// also when a small decoded-node cache serves some of the visits.
#[test]
fn per_query_io_sums_to_global_counters() {
    let data = build_points(5000, 5, 3);
    let queries = mixed_queries(&data, 32);
    let mut uncached_reads = None;
    for cache in [0, SMALL_CACHE, SHARDED_CACHE] {
        let tree = hybrid(&data, cache);
        tree.reset_io_stats();
        let answers = unlimited(&tree, &queries, 4);
        let per_query = total_io(&answers);
        let global = tree.io_stats();
        assert_eq!(
            per_query.logical_reads, global.logical_reads,
            "cache {cache}"
        );
        assert_eq!(per_query.seq_reads, global.seq_reads, "cache {cache}");
        assert!(per_query.logical_reads > 0);
        // A visit the cache serves still counts as a page read.
        assert_eq!(
            *uncached_reads.get_or_insert(per_query.logical_reads),
            per_query.logical_reads,
            "cache {cache}"
        );
        if cache > 0 {
            assert!(
                tree.cache_stats().hits > 0,
                "cache {cache}: no visit was cached"
            );
        }
    }
}
