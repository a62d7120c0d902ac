//! Resource-governance contracts, checked end to end:
//!
//! * every engine observes its read budget at page-fetch granularity;
//! * a budget expiring mid-traversal degrades only that query — the
//!   index stays fully usable;
//! * cancellation and deadlines land within one (possibly slow) page
//!   fetch, verified against a storage layer with a read-latency hook.

use hybridtree_repro::core::{HybridTree, HybridTreeConfig};
use hybridtree_repro::eval::{build_engine, Engine};
use hybridtree_repro::geom::{Point, Rect, L2};
use hybridtree_repro::index::{
    Answer, CancelToken, DegradeReason, MultidimIndex, Query, QueryContext, QueryOutcome,
};
use hybridtree_repro::page::{FaultScript, FaultStorage, MemStorage};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 4;

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..DIM).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

fn everything() -> Rect {
    Rect::new(vec![-1.0; DIM], vec![2.0; DIM])
}

/// A small-page hybrid tree over fault-injectable storage, so tests can
/// add per-read latency.
fn faulted_tree(pts: &[Point]) -> (HybridTree<FaultStorage<MemStorage>>, Arc<FaultScript>) {
    let cfg = HybridTreeConfig {
        page_size: 512,
        ..HybridTreeConfig::default()
    };
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(cfg.page_size));
    let mut tree = HybridTree::with_storage(DIM, cfg, storage).unwrap();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    (tree, script)
}

/// A read budget expiring mid-traversal degrades only that query: the
/// next (unbudgeted) query must return the full, correct answer —
/// degradation is per-query, never sticky.
#[test]
fn budget_mid_traversal_releases_pins_and_recovers() {
    let pts = points(2_000, 7);
    let (tree, _script) = faulted_tree(&pts);

    let ctx = QueryContext::default().with_max_reads(3);
    let (outcome, io) = tree.execute(&Query::Box(everything()), &L2, &ctx).unwrap();
    assert_eq!(
        outcome.degrade_reason(),
        Some(DegradeReason::BudgetExhausted),
        "a 3-read budget cannot cover a 2000-point tree"
    );
    assert!(
        io.logical_reads + io.seq_reads <= 3,
        "budget overshot: {io:?}"
    );

    // The same index, unbudgeted, still answers completely and correctly.
    let mut full = tree.box_query(&everything()).unwrap();
    full.sort_unstable();
    let expect: Vec<u64> = (0..pts.len() as u64).collect();
    assert_eq!(full, expect, "post-degradation query is wrong");
}

/// Acceptance: every engine observes `max_logical_reads` at page-fetch
/// granularity — no engine exceeds the budget by even one page.
#[test]
fn every_engine_observes_read_budget_at_page_granularity() {
    let data = points(2_500, 11);
    for engine in [
        Engine::Hybrid,
        Engine::Hb,
        Engine::Sr,
        Engine::Kdb,
        Engine::Scan,
    ] {
        let (idx, _) = build_engine(engine, &data).unwrap();
        for budget in [1u64, 2, 5] {
            let ctx = QueryContext::default().with_max_reads(budget);
            let (outcome, io) = idx.execute(&Query::Box(everything()), &L2, &ctx).unwrap();
            assert!(
                io.logical_reads + io.seq_reads <= budget,
                "{} spent {} reads against a budget of {budget}",
                engine.name(),
                io.logical_reads + io.seq_reads,
            );
            assert_eq!(
                outcome.degrade_reason(),
                Some(DegradeReason::BudgetExhausted),
                "{}: whole-space query cannot finish in {budget} reads",
                engine.name()
            );
        }
    }
}

/// Acceptance: the distance-capable engines observe budgets on the
/// distance and kNN paths too, and degraded box/range answers are true
/// subsets of the full answer.
#[test]
fn distance_paths_observe_budget_and_stay_subsets() {
    let data = points(2_500, 13);
    let center = data[0].clone();
    for engine in [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan] {
        let (idx, _) = build_engine(engine, &data).unwrap();
        let full = {
            let mut v = idx.distance_range(&center, 0.6, &L2).unwrap();
            v.sort_unstable();
            v
        };
        let ctx = QueryContext::default().with_max_reads(4);
        let range = Query::Range {
            q: center.clone(),
            radius: 0.6,
        };
        let (outcome, io) = idx.execute(&range, &L2, &ctx).unwrap();
        assert!(io.logical_reads + io.seq_reads <= 4, "{}", engine.name());
        let partial = outcome.into_results().oids;
        assert!(
            partial.iter().all(|o| full.binary_search(o).is_ok()),
            "{}: degraded range answer is not a subset",
            engine.name()
        );
        let knn = Query::Knn {
            q: center.clone(),
            k: 10,
            epsilon: 0.0,
        };
        let (outcome, io) = idx.execute(&knn, &L2, &ctx).unwrap();
        assert!(io.logical_reads + io.seq_reads <= 4, "{}", engine.name());
        assert!(outcome.into_results().oids.len() <= 10, "{}", engine.name());
    }
}

/// Acceptance: with the fault layer's read-latency hook making every
/// page fetch slow, a cancel raised mid-query surfaces as `Degraded`
/// within a bounded number of further fetches — the traversal never
/// runs to completion first.
#[test]
fn cancel_mid_query_returns_degraded_in_bounded_time() {
    let pts = points(3_000, 17);
    let (tree, script) = faulted_tree(&pts);
    let total_pages = tree.structure_stats().unwrap().total_nodes;
    assert!(total_pages > 60, "tree too small to measure cancellation");

    const READ_DELAY: Duration = Duration::from_millis(3);
    script.delay_reads(READ_DELAY.as_micros() as u64);
    let token = CancelToken::new();
    let ctx = QueryContext::default().with_cancel(token.clone());

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            token.cancel();
        })
    };
    let reads_before = script.reads_seen();
    let start = Instant::now();
    let (outcome, _) = tree.execute(&Query::Box(everything()), &L2, &ctx).unwrap();
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    script.disarm();

    assert_eq!(outcome.degrade_reason(), Some(DegradeReason::Cancelled));
    // Far less than the ~total_pages * READ_DELAY a full traversal costs.
    let full_cost = READ_DELAY * total_pages as u32;
    assert!(
        elapsed < full_cost / 2,
        "cancel took {elapsed:?}; full traversal ≈ {full_cost:?}"
    );
    let reads = script.reads_seen() - reads_before;
    assert!(
        (reads as usize) < total_pages,
        "query read all {total_pages} pages despite the cancel"
    );
}

/// Acceptance: a deadline is observed within one page fetch even when
/// fetches are slow — the traversal stops at the first fetch past the
/// deadline instead of finishing the tree.
#[test]
fn deadline_observed_within_one_page_fetch() {
    let pts = points(3_000, 19);
    let (tree, script) = faulted_tree(&pts);
    let total_pages = tree.structure_stats().unwrap().total_nodes;
    script.delay_reads(3_000);

    let ctx = QueryContext::default().with_timeout(Duration::from_millis(12));
    let start = Instant::now();
    let (outcome, io) = tree.execute(&Query::Box(everything()), &L2, &ctx).unwrap();
    let elapsed = start.elapsed();
    script.disarm();

    assert_eq!(
        outcome.degrade_reason(),
        Some(DegradeReason::DeadlineExceeded)
    );
    assert!(
        (io.logical_reads + io.seq_reads) < total_pages as u64,
        "deadline ignored: all pages read"
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "deadline overshot by {elapsed:?}"
    );
}

/// Degraded kNN answers are the best-so-far: every reported distance is
/// at least as small as the true k-th distance's upper bound would
/// allow, and the list stays sorted.
#[test]
fn degraded_knn_is_sorted_best_so_far() {
    let pts = points(2_000, 23);
    let (tree, _script) = faulted_tree(&pts);
    let q = pts[42].clone();
    let ctx = QueryContext::default().with_max_reads(3);
    let knn = Query::Knn {
        q,
        k: 8,
        epsilon: 0.0,
    };
    let (outcome, _) = tree.execute(&knn, &L2, &ctx).unwrap();
    let hits = match outcome.map(Answer::into_hits) {
        QueryOutcome::Degraded { partial, reason } => {
            assert_eq!(reason, DegradeReason::BudgetExhausted);
            partial
        }
        QueryOutcome::Complete(_) => panic!("3 reads cannot complete an 8-NN search"),
    };
    assert!(
        hits.windows(2).all(|w| w[0].1 <= w[1].1),
        "partial kNN answer is not sorted by distance: {hits:?}"
    );
    assert!(hits.len() <= 8);
}
