//! Streaming-kNN cursor vs. batch kNN: on every engine that supports
//! distance search, draining the cursor `k` yields must reproduce the
//! batch kNN answer of `execute` *exactly* — same oids in the same order, same
//! tie-breaks, same distances — because both run the same executor
//! kernel over the same page reads. The equivalence must also survive
//! governance: under a read budget the cursor's yields form a prefix of
//! the batch query's (equally degraded) partial answer.

use hybridtree_repro::data::{clustered, colhist, uniform};
use hybridtree_repro::eval::{build_engine, run_knn_stream, Engine};
use hybridtree_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const STREAMING_ENGINES: [Engine; 4] = [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan];

/// The prefix equivalences also run on the hybrid tree with ELS off,
/// whose distance search bounds children by kd-region instead of by the
/// quantized live box.
const PREFIX_ENGINES: [Engine; 5] = [
    Engine::Hybrid,
    Engine::HybridEls(0),
    Engine::Sr,
    Engine::Kdb,
    Engine::Scan,
];

fn datasets() -> Vec<(&'static str, Vec<Point>)> {
    vec![
        ("uniform-4d", uniform(1_200, 4, 71)),
        ("clustered-6d", clustered(1_200, 6, 5, 0.02, 72)),
        ("colhist-16d", colhist(900, 16, 73)),
    ]
}

/// An exact governed kNN query through `execute`, as `(oid, distance)`
/// pairs.
fn batch_knn(
    idx: &dyn MultidimIndex,
    q: &Point,
    k: usize,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> (QueryOutcome<Vec<(u64, f64)>>, IoStats) {
    let query = Query::Knn {
        q: q.clone(),
        k,
        epsilon: 0.0,
    };
    let (outcome, io) = idx.execute(&query, metric, ctx).unwrap();
    (outcome.map(Answer::into_hits), io)
}

fn query_points(data: &[Point], n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| data[rng.gen_range(0..data.len())].clone())
        .collect()
}

#[test]
fn cursor_prefixes_equal_batch_knn_on_all_engines() {
    for (name, data) in datasets() {
        let queries = query_points(&data, 8, 81);
        for engine in PREFIX_ENGINES {
            let (idx, _) = build_engine(engine, &data).unwrap();
            // k = the whole index: the cursor browses every entry once,
            // in ascending distance.
            for (metric, k) in [(&L1 as &dyn Metric, 10), (&L2, 10), (&L2, data.len())] {
                for q in &queries {
                    let (outcome, batch_io) =
                        batch_knn(&*idx, q, k, metric, QueryContext::unlimited());
                    let batch = outcome.into_results();
                    // Full drain reproduces the batch answer bit for bit:
                    // same oids, same order (ties broken identically),
                    // reading exactly the pages the batch query reads.
                    let (stream, stream_io, reason) =
                        run_knn_stream(&*idx, q, k, metric, QueryContext::unlimited()).unwrap();
                    assert_eq!(reason, None, "{} on {name}", engine.name());
                    assert_eq!(stream, batch, "{} on {name}", engine.name());
                    assert_eq!(
                        (stream_io.logical_reads, stream_io.seq_reads),
                        (batch_io.logical_reads, batch_io.seq_reads),
                        "{} on {name} (k={k}): cursor vs batch reads",
                        engine.name()
                    );
                    // Every shorter drain is a strict prefix — the cursor
                    // never reorders later knowledge into earlier yields.
                    for prefix_len in [1usize, 3, 7] {
                        let (prefix, prefix_io, _) =
                            run_knn_stream(&*idx, q, prefix_len, metric, QueryContext::unlimited())
                                .unwrap();
                        assert_eq!(
                            prefix,
                            batch[..prefix_len.min(batch.len())].to_vec(),
                            "{} on {name} (k={prefix_len})",
                            engine.name()
                        );
                        let (_, short_io) =
                            batch_knn(&*idx, q, prefix_len, metric, QueryContext::unlimited());
                        assert_eq!(
                            (prefix_io.logical_reads, prefix_io.seq_reads),
                            (short_io.logical_reads, short_io.seq_reads),
                            "{} on {name} (k={prefix_len}): cursor vs batch reads",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn degraded_cursor_prefixes_equal_degraded_batch_answers() {
    for (name, data) in datasets() {
        let queries = query_points(&data, 4, 91);
        for engine in PREFIX_ENGINES {
            let (idx, _) = build_engine(engine, &data).unwrap();
            for q in &queries {
                // Find the I/O a complete k=10 search needs, then starve
                // the budget below it so both paths degrade mid-search.
                let (_, full_io) = batch_knn(&*idx, q, 10, &L2, QueryContext::unlimited());
                let full_reads = full_io.logical_reads + full_io.seq_reads;
                assert!(full_reads > 1, "{} on {name}", engine.name());
                for budget in [full_reads / 2, full_reads - 1] {
                    let ctx = QueryContext {
                        max_logical_reads: Some(budget),
                        ..QueryContext::default()
                    };
                    let (outcome, _) = batch_knn(&*idx, q, 10, &L2, &ctx);
                    assert_eq!(
                        outcome.degrade_reason(),
                        Some(DegradeReason::BudgetExhausted),
                        "{} on {name}",
                        engine.name()
                    );
                    let batch = outcome.into_results();
                    let (stream, _, reason) = run_knn_stream(&*idx, q, 10, &L2, &ctx).unwrap();
                    // The cursor reads pages in the same order, so it hits
                    // the same budget wall; its yields are a prefix of the
                    // batch's settled partial answer (the batch settles
                    // *all* candidates found so far, the cursor only what
                    // it had proven when the budget ran out).
                    assert_eq!(
                        reason,
                        Some(DegradeReason::BudgetExhausted),
                        "{} on {name}",
                        engine.name()
                    );
                    assert!(stream.len() <= batch.len(), "{} on {name}", engine.name());
                    assert_eq!(
                        stream,
                        batch[..stream.len()].to_vec(),
                        "{} on {name} (budget={budget})",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hb_tree_reports_streaming_unsupported() {
    let data = uniform(400, 4, 99);
    let (idx, _) = build_engine(Engine::Hb, &data).unwrap();
    let q = data[0].clone();
    let err = idx
        .knn_stream(&q, &L2, QueryContext::unlimited())
        .err()
        .expect("hB-tree must refuse to open a kNN cursor");
    assert!(matches!(err, IndexError::Unsupported(_)), "got {err}");
}

/// The cursor is lazy: pulling the 3 nearest reads fewer than half the
/// pages (the scan must read its whole file before it can yield, so it
/// is exempt), and an index emptied by deletes yields nothing.
#[test]
fn cursor_reads_lazily_and_ends_on_empty_index() {
    let data = uniform(10_000, 4, 103);
    let q = Point::new(vec![0.5; 4]);
    for engine in STREAMING_ENGINES {
        if engine != Engine::Scan {
            let (idx, _) = build_engine(engine, &data).unwrap();
            let (first, io, _) =
                run_knn_stream(&*idx, &q, 3, &L2, QueryContext::unlimited()).unwrap();
            assert_eq!(first.len(), 3);
            let pulled = io.logical_reads;
            let total_pages = idx.structure_stats().unwrap().total_nodes as u64;
            assert!(
                pulled < total_pages / 2,
                "{}: 3-NN pull read {pulled} of {total_pages} pages",
                engine.name()
            );
        }
        let (mut one, _) = build_engine(engine, &data[..1]).unwrap();
        assert!(one.delete(&data[0], 0).unwrap());
        let mut cursor = one.knn_stream(&q, &L2, QueryContext::unlimited()).unwrap();
        assert_eq!(cursor.next(), None, "{}", engine.name());
        assert_eq!(cursor.degrade_reason(), None, "{}", engine.name());
    }
}
