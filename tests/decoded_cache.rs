//! Decoded-node cache: invalidation regression tests and the
//! cache-on ≡ cache-off equivalence property across the hybrid tree's
//! variants, the only engine with the cache.
//!
//! The cache keeps *decoded* data pages keyed by page id and is dropped
//! page by page by the tree's own writes and frees; enabling it must be
//! invisible in every observable except decode counts — same answers,
//! same logical read accounting, same degradation points under read
//! budgets. These tests pin that contract, plus the invalidation rules
//! (a rewrite drops the entry, a freed and reallocated page is decoded
//! afresh).

use hybridtree_repro::eval::{run_batch, Engine};
use hybridtree_repro::page::MemStorage;
use hybridtree_repro::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const ENGINES: [Engine; 4] = [
    Engine::Hybrid,
    Engine::HybridVam,
    Engine::HybridEls(0),
    Engine::HybridBulk,
];

/// Builds a hybrid variant with a decoded-node cache of
/// `node_cache_entries` entries (0 disables it).
fn build(engine: Engine, data: &[Point], node_cache_entries: usize) -> HybridTree {
    let mut cfg = HybridTreeConfig {
        node_cache_entries,
        ..HybridTreeConfig::default()
    };
    match engine {
        Engine::HybridVam => cfg.split_policy = SplitPolicy::Vam,
        Engine::HybridEls(bits) => cfg.els_bits = bits,
        _ => {}
    }
    let entries = data.iter().cloned().zip(0u64..);
    if engine == Engine::HybridBulk {
        return HybridTree::bulk_load(entries.collect(), cfg).unwrap();
    }
    let mut tree = HybridTree::new(data[0].dim(), cfg).unwrap();
    for (p, oid) in entries {
        tree.insert(p, oid).unwrap();
    }
    tree
}

// ---------------------------------------------------------------------
// Tree-level invalidation: page rewrites and frees
// ---------------------------------------------------------------------

/// Small pages (about 15 two-dimensional entries each) and a cache that
/// holds every data page of the trees below.
fn small_pages(node_cache_entries: usize) -> HybridTreeConfig {
    HybridTreeConfig {
        page_size: 256,
        node_cache_entries,
        ..HybridTreeConfig::default()
    }
}

#[test]
fn rewrite_invalidates_cached_decode() {
    let mut tree = HybridTree::new(2, small_pages(16)).unwrap();
    tree.insert(Point::new(vec![0.1, 0.1]), 1).unwrap();
    tree.insert(Point::new(vec![0.9, 0.9]), 2).unwrap();
    let q = Point::new(vec![0.5, 0.5]);
    // The root is the only data page: the first kNN decodes it, the
    // second is served from the cache.
    let before = tree.knn(&q, 1, &L2).unwrap();
    assert_eq!(tree.knn(&q, 1, &L2).unwrap(), before);
    assert_eq!(tree.cache_stats().hits, 1, "the leaf was cached");
    tree.reset_io_stats();
    // Inserting rewrites the cached leaf, which must drop its decode...
    tree.insert(q.clone(), 3).unwrap();
    assert_eq!(
        tree.cache_stats().invalidations,
        1,
        "rewrite evicts the entry"
    );
    // ...so the next query decodes the new bytes and sees the new entry.
    assert_eq!(
        tree.knn(&q, 1, &L2).unwrap(),
        vec![(3, 0.0)],
        "stale decode served"
    );
    let s = tree.cache_stats();
    assert_eq!((s.hits, s.misses), (0, 1));
}

#[test]
fn free_evicts_and_reallocation_cannot_alias() {
    let data = hybridtree_repro::data::uniform(400, 2, 7);
    let mut cached = HybridTree::new(2, small_pages(64)).unwrap();
    let mut plain = HybridTree::new(2, small_pages(0)).unwrap();
    for (i, p) in data.iter().enumerate() {
        cached.insert(p.clone(), i as u64).unwrap();
        plain.insert(p.clone(), i as u64).unwrap();
    }
    let probe = |t: &HybridTree<MemStorage>, c: &Point| {
        let mut hits = t.distance_range(c, 0.15, &L2).unwrap();
        hits.sort_unstable();
        (hits, t.knn(c, 10, &L2).unwrap())
    };
    // Queries around every 7th point keep every data page decoded in the
    // cache, and check the cached tree against its cache-off twin.
    let warm_and_compare = |cached: &HybridTree<MemStorage>, plain: &HybridTree<MemStorage>| {
        for c in data.iter().step_by(7) {
            assert_eq!(probe(cached, c), probe(plain, c));
        }
    };
    let pages = |t: &HybridTree<MemStorage>| t.structure_stats().unwrap().total_nodes;
    warm_and_compare(&cached, &plain);
    let full = pages(&cached);
    // Emptying the left half of the space dissolves cached leaves: their
    // pages are freed while their decodes sit in the cache.
    for (i, p) in data.iter().enumerate().filter(|(_, p)| p.coord(0) < 0.5) {
        assert!(cached.delete(p, i as u64).unwrap());
        assert!(plain.delete(p, i as u64).unwrap());
        if i % 10 == 0 {
            warm_and_compare(&cached, &plain);
        }
    }
    let shrunk = pages(&cached);
    assert!(shrunk < full, "deletes freed no page ({full} -> {shrunk})");
    warm_and_compare(&cached, &plain);
    // New points in the emptied half split pages again, and the store
    // hands freed page ids out first: each reused id must be decoded
    // from its new bytes, never served from the freed page's decode.
    let fresh = hybridtree_repro::data::uniform(200, 2, 8);
    for (i, p) in fresh.iter().enumerate() {
        let p = Point::new(vec![p.coord(0) * 0.5, p.coord(1)]);
        let oid = 1_000 + i as u64;
        cached.insert(p.clone(), oid).unwrap();
        plain.insert(p, oid).unwrap();
        if i % 10 == 0 {
            warm_and_compare(&cached, &plain);
        }
    }
    assert!(pages(&cached) > shrunk, "inserts reallocated no page");
    warm_and_compare(&cached, &plain);
    assert!(cached.cache_stats().invalidations > 0);
    cached.check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Tree-level invalidation through splits and deletes
// ---------------------------------------------------------------------

/// Grows a cached tree past several splits with queries interleaved, so
/// cached decodes of pre-split nodes are repeatedly superseded; a twin
/// without the cache is the oracle.
#[test]
fn hybrid_tree_cache_survives_splits_and_deletes() {
    let dim = 6;
    let data = hybridtree_repro::data::uniform(3_000, dim, 99);
    let mut cached = HybridTree::new(
        dim,
        HybridTreeConfig {
            node_cache_entries: 64, // small: forces LRU churn too
            ..HybridTreeConfig::default()
        },
    )
    .unwrap();
    let mut plain = HybridTree::new(dim, HybridTreeConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let probe = |t: &HybridTree<MemStorage>, c: &Point| {
        let mut hits = t.distance_range(c, 0.35, &L2).unwrap();
        hits.sort_unstable();
        let knn: Vec<(u64, f64)> = t.knn(c, 8, &L2).unwrap();
        (hits, knn)
    };
    for (i, p) in data.iter().enumerate() {
        cached.insert(p.clone(), i as u64).unwrap();
        plain.insert(p.clone(), i as u64).unwrap();
        // Query mid-growth every so often: any stale cached node (split
        // pages are rewritten, siblings freed on merge) would diverge.
        if i % 257 == 0 {
            let c = &data[rng.gen_range(0..=i)];
            assert_eq!(probe(&cached, c), probe(&plain, c), "after insert {i}");
        }
    }
    for i in (0..data.len()).step_by(3) {
        assert!(cached.delete(&data[i], i as u64).unwrap());
        assert!(plain.delete(&data[i], i as u64).unwrap());
        if i % 300 == 0 {
            let c = &data[rng.gen_range(0..data.len())];
            assert_eq!(probe(&cached, c), probe(&plain, c), "after delete {i}");
        }
    }
    assert!(
        cached.cache_stats().invalidations > 0,
        "splits/deletes must have invalidated cached decodes"
    );
}

// ---------------------------------------------------------------------
// Cache-on ≡ cache-off equivalence property, every hybrid variant
// ---------------------------------------------------------------------

/// Strips the fields a decoded-node cache hit may legitimately change
/// (physical reads / hit counters); everything else must be
/// bit-identical.
fn observable((outcome, io): &(QueryOutcome<Answer>, IoStats)) -> impl PartialEq + std::fmt::Debug {
    (
        outcome.results().oids.clone(),
        outcome.results().distances.clone(),
        io.logical_reads,
        io.seq_reads,
        outcome.degrade_reason(),
    )
}

fn mixed_queries(data: &[Point], seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..10)
        .map(|i| {
            let c = data[rng.gen_range(0..data.len())].clone();
            if i % 3 == 0 {
                let h = rng.gen_range(0.05..0.4f32);
                Query::Box(Rect::new(
                    c.coords().iter().map(|x| x - h).collect(),
                    c.coords().iter().map(|x| (x + h).min(2.0)).collect(),
                ))
            } else if i % 3 == 1 {
                Query::Knn {
                    q: c,
                    k: 1 + i % 7,
                    epsilon: 0.0,
                }
            } else {
                Query::Range {
                    q: c,
                    radius: 0.1 + 0.05 * i as f64,
                }
            }
        })
        .collect()
}

/// Runs the same governed batch cache-on and cache-off and demands
/// identical observables — including the *degradation points* under a
/// read budget, since cache hits still charge logical reads. Returns
/// whether any query degraded (so callers that picked a budget to force
/// partials can verify it actually bit).
fn assert_cache_transparent(data: &[Point], seed: u64, max_reads: Option<u64>) -> bool {
    let ctx = QueryContext {
        max_logical_reads: max_reads,
        ..QueryContext::default()
    };
    let mut any_degraded = false;
    for engine in ENGINES {
        let queries = mixed_queries(data, seed);
        let off = build(engine, data, 0);
        let on = build(engine, data, 512);
        let base = run_batch(&off, &L2, &queries, 1, &ctx).unwrap();
        // Two passes over the cached build: the second runs against a
        // warm cache, where hits actually happen.
        for pass in 0..2 {
            let got = run_batch(&on, &L2, &queries, 1, &ctx).unwrap();
            assert_eq!(base.len(), got.len());
            for (i, (b, g)) in base.iter().zip(&got).enumerate() {
                assert_eq!(
                    observable(b),
                    observable(g),
                    "{} query {i} pass {pass} (max_reads {max_reads:?})",
                    engine.name()
                );
            }
        }
        any_degraded |= base.iter().any(|(o, _)| !o.is_complete());
    }
    any_degraded
}

#[test]
fn cache_is_transparent_on_complete_queries() {
    let data = hybridtree_repro::data::clustered(2_000, 5, 4, 0.03, 17);
    assert_cache_transparent(&data, 23, None);
}

#[test]
fn cache_is_transparent_on_degraded_partials() {
    let data = hybridtree_repro::data::uniform(2_500, 4, 31);
    // A tight per-query read budget: many queries stop mid-traversal.
    // Cache hits charge the budget exactly like decoded reads, so the
    // partial answers truncate at the same node in both modes.
    let degraded = assert_cache_transparent(&data, 29, Some(6));
    assert!(degraded, "budget chosen to force degradation did not");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Randomized datasets, query mixes, and budgets: enabling the
    /// decoded-node cache never changes any observable on any hybrid
    /// variant.
    #[test]
    fn cache_equivalence_holds_for_arbitrary_workloads(
        seed in 0u64..1_000,
        n in 400usize..1_200,
        dim in 2usize..6,
        budget in prop_oneof![Just(None), (4u64..40).prop_map(Some)],
    ) {
        let data = hybridtree_repro::data::uniform(n, dim, seed);
        assert_cache_transparent(&data, seed ^ 0xC0FFEE, budget);
    }
}
