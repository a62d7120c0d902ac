//! Decoded data-page cache: shares decoded leaf entries across queries.
//!
//! This is the only cache in the workspace: the buffer pool reads every
//! page from storage, and a distance query decodes every data page it
//! visits, because the metric takes each entry as a `&Point`. This cache
//! keeps the decoded entries behind an `Arc`, so concurrent queries share
//! one decode without copying.
//!
//! It is owned by the [`HybridTree`](crate::HybridTree) and needs no
//! version stamps: every page write and free of the tree runs under
//! `&mut self` and drops the page's entry through
//! [`invalidate`](LeafCache::invalidate), while lookups and inserts run
//! under `&self`. The borrow checker thus keeps a decode from ever racing
//! a rewrite of the same page (DESIGN §7, §11).
//!
//! The table is sharded behind mutexes from [`SHARDING_THRESHOLD`]
//! entries on and bounded by entry count with per-shard LRU eviction.
//! Capacity `0` stores nothing; every lookup is then a miss, so `misses`
//! equals the decode count in both modes.

use crate::node::DataEntry;
use hyt_index::NodeCacheStats;
use hyt_page::PageId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Decoded entries of one data page, shared by every query that reads it.
pub(crate) type Leaf = Arc<Vec<DataEntry>>;

/// Caches at least this large split their table into `NUM_SHARDS`
/// shards; smaller caches keep one shard and exact LRU.
const SHARDING_THRESHOLD: usize = 128;

/// Shard count for large caches (power of two; ids map by bitmask).
const NUM_SHARDS: usize = 16;

struct Entry {
    leaf: Leaf,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<PageId, Entry>,
    /// Per-shard LRU clock; monotone under the shard lock.
    tick: u64,
    /// This shard's slice of the entry capacity.
    capacity: usize,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Sharded LRU of decoded data pages, keyed by page id (see module docs).
pub(crate) struct LeafCache {
    shards: Box<[Mutex<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl LeafCache {
    /// A cache bounded to `capacity` decoded pages; `0` stores nothing.
    pub(crate) fn new(capacity: usize) -> Self {
        let n = if capacity == 0 {
            0
        } else if capacity < SHARDING_THRESHOLD {
            1
        } else {
            NUM_SHARDS
        };
        let shards = (0..n)
            .map(|i| {
                // Spread the capacity so the shard slices sum exactly.
                let cap = capacity / n + usize::from(i < capacity % n);
                Mutex::new(Shard {
                    capacity: cap,
                    ..Shard::default()
                })
            })
            .collect();
        Self {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Index of the shard holding `id`, or `None` when the cache stores
    /// nothing.
    fn slot(&self, id: PageId) -> Option<usize> {
        let n = self.shards.len();
        (n > 0).then(|| id.0 as usize & (n - 1))
    }

    /// The locked shard holding `id`. Every update leaves the table
    /// valid (entries are whole, ticks monotone), so a lock poisoned by a
    /// panicking thread is recovered.
    fn shard(&self, id: PageId) -> Option<MutexGuard<'_, Shard>> {
        let i = self.slot(id)?;
        Some(
            self.shards[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// The decoded entries of page `id`, counting a hit; `None` counts a
    /// miss (the caller decodes).
    pub(crate) fn get(&self, id: PageId) -> Option<Leaf> {
        let hit = self.shard(id).and_then(|mut shard| {
            let tick = shard.next_tick();
            let e = shard.entries.get_mut(&id)?;
            e.last_used = tick;
            Some(Arc::clone(&e.leaf))
        });
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Relaxed);
        hit
    }

    /// Keeps the decoded entries of page `id`, evicting the shard's least
    /// recently used pages first so the new entry cannot evict itself.
    pub(crate) fn insert(&self, id: PageId, leaf: Leaf) {
        let Some(mut shard) = self.shard(id) else {
            return;
        };
        let tick = shard.next_tick();
        let mut evicted = 0u64;
        while shard.entries.len() >= shard.capacity && !shard.entries.contains_key(&id) {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id);
            let Some(victim) = victim else { break };
            shard.entries.remove(&victim);
            evicted += 1;
        }
        shard.entries.insert(
            id,
            Entry {
                leaf,
                last_used: tick,
            },
        );
        drop(shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
        }
    }

    /// Drops page `id`'s entry, if any. The tree calls this on every page
    /// write and free, which hold `&mut` on the tree, so no query can be
    /// reading the page meanwhile.
    pub(crate) fn invalidate(&mut self, id: PageId) {
        let Some(i) = self.slot(id) else {
            return;
        };
        let shard = self.shards[i]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.entries.remove(&id).is_some() {
            *self.invalidations.get_mut() += 1;
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> NodeCacheStats {
        NodeCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
        }
    }

    /// Resets the counters; resident entries are kept.
    pub(crate) fn reset_stats(&self) {
        self.hits.store(0, Relaxed);
        self.misses.store(0, Relaxed);
        self.evictions.store(0, Relaxed);
        self.invalidations.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::Point;

    fn leaf(oid: u64) -> Leaf {
        Arc::new(vec![DataEntry {
            point: Point::new(vec![0.5]),
            oid,
        }])
    }

    fn resident(c: &LeafCache) -> usize {
        c.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    #[test]
    fn capacity_zero_stores_nothing_but_counts_misses() {
        let c = LeafCache::new(0);
        c.insert(PageId(1), leaf(7));
        assert!(c.get(PageId(1)).is_none());
        assert!(c.get(PageId(1)).is_none());
        assert_eq!(resident(&c), 0);
        // Misses double as the decode count, comparable across cache-off
        // and cache-on runs.
        assert_eq!(
            c.stats(),
            NodeCacheStats {
                misses: 2,
                ..NodeCacheStats::default()
            }
        );
    }

    #[test]
    fn lru_bounds_entries_and_counts_evictions() {
        let c = LeafCache::new(2);
        c.insert(PageId(1), leaf(1));
        c.insert(PageId(2), leaf(2));
        assert!(c.get(PageId(1)).is_some()); // page 1 is now the MRU
        c.insert(PageId(3), leaf(3));
        assert_eq!(resident(&c), 2);
        assert!(c.get(PageId(2)).is_none(), "the LRU entry was evicted");
        assert_eq!(c.get(PageId(1)).unwrap()[0].oid, 1);
        assert_eq!(c.get(PageId(3)).unwrap()[0].oid, 3);
        // Re-inserting a resident page replaces it without evicting.
        c.insert(PageId(3), leaf(4));
        assert_eq!(c.get(PageId(3)).unwrap()[0].oid, 4);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn large_caches_shard_and_keep_their_total_capacity() {
        let cap = SHARDING_THRESHOLD + 5;
        let c = LeafCache::new(cap);
        assert_eq!(c.shards.len(), NUM_SHARDS);
        for i in 0..2 * cap as u32 {
            c.insert(PageId(i), leaf(u64::from(i)));
        }
        assert_eq!(resident(&c), cap);
        assert_eq!(c.stats().evictions, cap as u64);
    }

    #[test]
    fn invalidate_drops_the_entry_and_counts_it() {
        let mut c = LeafCache::new(8);
        c.insert(PageId(9), leaf(1));
        c.invalidate(PageId(9));
        c.invalidate(PageId(10)); // never cached: nothing to count
        assert!(c.get(PageId(9)).is_none(), "entry dropped on rewrite");
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(resident(&c), 0);
    }

    #[test]
    fn hit_rate_reports_and_reset_clears_counters() {
        let c = LeafCache::new(4);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(PageId(1), leaf(1));
        let a = c.get(PageId(1)).unwrap();
        let b = c.get(PageId(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share one decode");
        assert!(c.get(PageId(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats(), NodeCacheStats::default());
        assert_eq!(resident(&c), 1, "reset keeps resident entries");
    }
}
