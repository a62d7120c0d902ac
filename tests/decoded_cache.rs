//! Decoded-node cache: invalidation regression tests and the
//! cache-on ≡ cache-off equivalence property across the hybrid tree's
//! variants, the only engine with the cache.
//!
//! The cache memoizes *decoded* nodes keyed by `(page, write epoch)`;
//! enabling it must be invisible in every observable except decode
//! counts — same answers, same logical read accounting, same
//! degradation points under read budgets. These tests pin that
//! contract, plus the invalidation rules (rewrite bumps the epoch, free
//! evicts, stale-epoch inserts are discarded).

use hybridtree_repro::eval::{run_batch, BatchPolicy, BatchQuery, Engine};
use hybridtree_repro::page::{BufferPool, IoStats, MemStorage, NodeCache, PageId};
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
// Pool-level invalidation regression
// ---------------------------------------------------------------------

fn decoded_first_byte(pool: &BufferPool<MemStorage>, id: PageId) -> u8 {
    let mut io = IoStats::default();
    let node: std::sync::Arc<u8> = pool
        .read_decoded(id, &mut io, QueryContext::unlimited(), |buf| {
            Ok::<_, hybridtree_repro::page::PageError>(buf[0])
        })
        .unwrap();
    *node
}

#[test]
fn rewrite_invalidates_cached_decode() {
    let pool = BufferPool::with_node_cache(MemStorage::new(), 8, 16);
    let id = pool.allocate().unwrap();
    pool.write(id, &[1u8; 8]).unwrap();
    assert_eq!(decoded_first_byte(&pool, id), 1);
    assert!(pool.node_cache().contains(id), "decode populated the cache");
    // Rewriting the page must drop the decoded form; the next read
    // decodes the *new* bytes, never the memoized old ones.
    pool.write(id, &[2u8; 8]).unwrap();
    assert!(!pool.node_cache().contains(id), "rewrite evicts the entry");
    assert_eq!(decoded_first_byte(&pool, id), 2, "stale decode served");
    let s = pool.node_cache_stats();
    assert!(s.invalidations >= 1);
}

#[test]
fn free_evicts_and_reallocation_cannot_alias() {
    let pool = BufferPool::with_node_cache(MemStorage::new(), 8, 16);
    let id = pool.allocate().unwrap();
    pool.write(id, &[7u8; 8]).unwrap();
    assert_eq!(decoded_first_byte(&pool, id), 7);
    let epoch_before = pool.node_cache().epoch(id);
    pool.free(id).unwrap();
    assert!(!pool.node_cache().contains(id), "free evicts the entry");
    assert!(
        pool.node_cache().epoch(id) > epoch_before,
        "free advances the page epoch so a reallocated id cannot alias"
    );
    // Reallocate the same slot and write different content: the decode
    // must see the new bytes.
    let id2 = pool.allocate().unwrap();
    pool.write(id2, &[9u8; 8]).unwrap();
    assert_eq!(decoded_first_byte(&pool, id2), 9);
}

#[test]
fn stale_epoch_insert_never_publishes() {
    let cache = NodeCache::new(8);
    let id = PageId(3);
    let observed = cache.epoch(id);
    // A writer intervenes between the epoch snapshot and the insert.
    cache.invalidate(id);
    cache.insert(id, observed, std::sync::Arc::new(41u32));
    assert!(
        cache.get_as::<u32>(id).is_none(),
        "insert carrying a superseded epoch must be discarded"
    );
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
/// (physical reads / pool hit counters); everything else must be
/// bit-identical.
fn observable(a: &hybridtree_repro::eval::GovernedAnswer) -> impl PartialEq + std::fmt::Debug {
    (
        a.answer.oids.clone(),
        a.answer.distances.clone(),
        a.answer.io.logical_reads,
        a.answer.io.seq_reads,
        a.status.clone(),
        a.retries,
    )
}

fn mixed_queries(data: &[Point], seed: u64) -> Vec<BatchQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..10)
        .map(|i| {
            let c = data[rng.gen_range(0..data.len())].clone();
            if i % 3 == 0 {
                let h = rng.gen_range(0.05..0.4f32);
                BatchQuery::Box(Rect::new(
                    c.coords().iter().map(|x| x - h).collect(),
                    c.coords().iter().map(|x| (x + h).min(2.0)).collect(),
                ))
            } else if i % 3 == 1 {
                BatchQuery::Knn(c, 1 + i % 7)
            } else {
                BatchQuery::Distance(c, 0.1 + 0.05 * i as f64)
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
    let policy = BatchPolicy {
        max_reads,
        ..BatchPolicy::default()
    };
    let mut any_degraded = false;
    for engine in ENGINES {
        let queries = mixed_queries(data, seed);
        let off = build(engine, data, 0);
        let on = build(engine, data, 512);
        let base = run_batch(&off, &L2, &queries, 1, &policy, None).unwrap();
        // Two passes over the cached build: the second runs against a
        // warm cache, where hits actually happen.
        for pass in 0..2 {
            let got = run_batch(&on, &L2, &queries, 1, &policy, None).unwrap();
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
        any_degraded |= base.iter().any(|a| !a.status.is_complete());
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
