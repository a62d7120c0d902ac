//! Bottom-up bulk loading.
//!
//! Building by repeated insertion (the paper's dynamic setting) costs a
//! root-to-leaf traversal per object. When the collection is known up
//! front — the common case when re-indexing a feature database — a bulk
//! load is much faster and packs pages tighter:
//!
//! 1. **Data pages** come from recursive EDA-style partitioning: split
//!    the (sub)collection on its maximum-extent dimension at the median
//!    until a chunk fits a page. Every split is clean, so the leaf level
//!    has zero overlap, exactly like the incremental tree's data level.
//! 2. **Index levels** are built bottom-up: consecutive children (the
//!    partition order preserves locality) are grouped into maximal
//!    page-sized nodes whose intra-node kd-tree is constructed over the
//!    children's live bounding boxes with the same EDA-scored recursive
//!    bipartition used by node splits.
//!
//! The result is a valid hybrid tree — it passes the full invariant
//! checker and answers queries identically to an insertion-built tree —
//! with leaf fill around the packing target instead of the post-split
//! average.

use crate::config::HybridTreeConfig;
use crate::els::ElsTable;
use crate::kdtree::{INTERNAL_BYTES, LEAF_BYTES};
use crate::node::{data_capacity, DataEntry, Node, INDEX_HEADER_BYTES};
use crate::split::build_kd;
use crate::tree::HybridTree;
use hyt_geom::{Point, Rect};
use hyt_index::{IndexError, IndexResult};
use hyt_page::{BufferPool, MemStorage, PageId, Storage};

impl HybridTree<MemStorage> {
    /// Bulk-loads a collection into a fresh in-memory tree.
    ///
    /// Entries are `(point, oid)` pairs; duplicates are allowed. See the
    /// `bulk` module docs for the algorithm.
    pub fn bulk_load(entries: Vec<(Point, u64)>, cfg: HybridTreeConfig) -> IndexResult<Self> {
        let storage = MemStorage::with_page_size(cfg.page_size);
        Self::bulk_load_into(storage, cfg, entries)
    }
}

impl<S: Storage> HybridTree<S> {
    /// Bulk-loads a collection into a fresh tree over `storage`.
    pub fn bulk_load_into(
        storage: S,
        cfg: HybridTreeConfig,
        entries: Vec<(Point, u64)>,
    ) -> IndexResult<Self> {
        let Some((first, _)) = entries.first() else {
            return Err(IndexError::Internal(
                "bulk_load of an empty collection has no dimensionality; \
                 use HybridTree::new instead"
                    .into(),
            ));
        };
        let dim = first.dim();
        if entries.iter().any(|(p, _)| p.dim() != dim) {
            return Err(IndexError::DimensionMismatch {
                expected: dim,
                got: entries
                    .iter()
                    .find(|(p, _)| p.dim() != dim)
                    .map(|(p, _)| p.dim())
                    .unwrap_or(dim),
            });
        }
        cfg.validate().map_err(IndexError::Internal)?;
        if storage.page_size() != cfg.page_size {
            return Err(IndexError::Internal(
                "storage/config page size mismatch".into(),
            ));
        }
        let data_cap = data_capacity(cfg.page_size, dim);
        if data_cap < 2 {
            return Err(IndexError::Internal(format!(
                "page size {} cannot hold 2 entries of dimension {dim}",
                cfg.page_size
            )));
        }
        let len = entries.len();
        let global_br = Rect::bounding(&entries.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());

        let els = ElsTable::new(dim, cfg.els_bits);
        let mut tree = Self::assemble(
            storage,
            PageId::INVALID,
            1,
            dim,
            len,
            cfg,
            Some(global_br),
            els,
        );

        // ---- 1. leaf level: recursive clean partitioning ----------------
        let mut data_entries: Vec<DataEntry> = entries
            .into_iter()
            .map(|(point, oid)| DataEntry { point, oid })
            .collect();
        let mut leaves: Vec<(PageId, Rect)> = Vec::new();
        build_leaves(
            &tree.pool,
            &mut tree.els,
            dim,
            data_cap,
            &mut data_entries,
            &mut leaves,
        )?;

        // ---- 2. index levels: pack consecutive children -----------------
        // Fanout F costs INDEX_HEADER + (F-1) internals + F leaves.
        let max_fanout = ((tree.cfg.page_size - INDEX_HEADER_BYTES + INTERNAL_BYTES)
            / (INTERNAL_BYTES + LEAF_BYTES))
            .max(2);
        let mut level: u16 = 0;
        let mut current = leaves;
        while current.len() > 1 {
            level += 1;
            let mut next: Vec<(PageId, Rect)> = Vec::new();
            let n = current.len();
            let groups = n.div_ceil(max_fanout);
            let base = n / groups;
            let mut extra = n % groups;
            let mut start = 0;
            while start < n {
                let mut take = base + usize::from(extra > 0);
                extra = extra.saturating_sub(1);
                // A one-child group is invalid (fanout >= 2); borrow from
                // the neighbor (group sizes >= 2 whenever n >= 2).
                if n - start - take == 1 {
                    take = n - start;
                }
                let group = &current[start..start + take];
                start += take;
                if group.len() == 1 {
                    next.push(group[0].clone());
                    continue;
                }
                let kd = build_kd(group)?;
                let pid = tree.pool.allocate()?;
                let node = Node::Index { level, kd };
                let buf = node.encode(dim);
                if buf.len() > tree.cfg.page_size {
                    return Err(IndexError::Internal(format!(
                        "bulk-load packed an oversized index node ({} bytes)",
                        buf.len()
                    )));
                }
                tree.pool.write(pid, &buf)?;
                let mut live = group[0].1.clone();
                for (_, r) in &group[1..] {
                    live.extend_to_rect(r);
                }
                tree.els.set_from_rects(pid, [live.clone()].iter(), &live);
                next.push((pid, live));
            }
            current = next;
        }

        let Some((root, _)) = current.pop() else {
            return Err(IndexError::Internal("bulk load produced no root".into()));
        };
        tree.root = root;
        tree.height = level as usize + 1;
        Ok(tree)
    }
}

/// Recursively partitions entries into clean page-sized chunks and
/// writes them as data nodes, appending `(pid, live BR)` to `leaves` in
/// partition order.
fn build_leaves<S: Storage>(
    pool: &BufferPool<S>,
    els: &mut ElsTable,
    dim: usize,
    data_cap: usize,
    entries: &mut Vec<DataEntry>,
    leaves: &mut Vec<(PageId, Rect)>,
) -> IndexResult<()> {
    if entries.len() <= data_cap {
        let live = Rect::bounding(&entries.iter().map(|e| e.point.clone()).collect::<Vec<_>>());
        let pid = pool.allocate()?;
        els.set_from_points(pid, entries.iter().map(|e| &e.point), &live);
        pool.write(pid, &Node::Data(std::mem::take(entries)).encode(dim))?;
        leaves.push((pid, live));
        return Ok(());
    }
    let live = Rect::bounding(&entries.iter().map(|e| e.point.clone()).collect::<Vec<_>>());
    let d = live.max_extent_dim();
    entries.sort_by(|a, b| a.point.coord(d).total_cmp(&b.point.coord(d)));
    let mut right = entries.split_off(entries.len() / 2);
    build_leaves(pool, els, dim, data_cap, entries, leaves)?;
    build_leaves(pool, els, dim, data_cap, &mut right, leaves)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::{L1, L2};
    use hyt_index::MultidimIndex;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<(Point, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()),
                    i as u64,
                )
            })
            .collect()
    }

    fn cfg() -> HybridTreeConfig {
        HybridTreeConfig {
            page_size: 256,
            ..HybridTreeConfig::default()
        }
    }

    #[test]
    fn bulk_tree_passes_invariants() {
        let t = HybridTree::bulk_load(points(2000, 3, 1), cfg()).unwrap();
        assert_eq!(t.len(), 2000);
        assert!(t.height() > 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_tree_answers_like_inserted_tree() {
        let pts = points(1500, 4, 2);
        let bulk = HybridTree::bulk_load(pts.clone(), cfg()).unwrap();
        let mut inc = HybridTree::new(4, cfg()).unwrap();
        for (p, oid) in &pts {
            inc.insert(p.clone(), *oid).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            let lo: Vec<f32> = (0..4).map(|_| rng.gen::<f32>() * 0.7).collect();
            let hi: Vec<f32> = lo.iter().map(|l| l + 0.3).collect();
            let rect = Rect::new(lo, hi);
            let mut a = bulk.box_query(&rect).unwrap();
            let mut b = inc.box_query(&rect).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Distance + kNN agree as well.
        let q = Point::new(vec![0.5; 4]);
        let mut a = bulk.distance_range(&q, 0.4, &L1).unwrap();
        let mut b = inc.distance_range(&q, 0.4, &L1).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let ka = bulk.knn(&q, 9, &L2).unwrap();
        let kb = inc.knn(&q, 9, &L2).unwrap();
        for (x, y) in ka.iter().zip(&kb) {
            assert!((x.1 - y.1).abs() < 1e-12);
        }
    }

    #[test]
    fn bulk_tree_remains_fully_dynamic() {
        let pts = points(800, 3, 4);
        let mut t = HybridTree::bulk_load(pts.clone(), cfg()).unwrap();
        // Inserts and deletes keep working after a bulk load.
        t.insert(Point::new(vec![0.5, 0.5, 0.5]), 9999).unwrap();
        assert!(t.delete(&pts[10].0, 10).unwrap());
        assert_eq!(t.len(), 800);
        t.check_invariants().unwrap();
        let hits = t
            .box_query(&Rect::from_point(&Point::new(vec![0.5, 0.5, 0.5])))
            .unwrap();
        assert_eq!(hits, vec![9999]);
    }

    #[test]
    fn bulk_packs_leaves_tighter_than_insertion() {
        let pts = points(5000, 4, 5);
        let bulk = HybridTree::bulk_load(pts.clone(), cfg()).unwrap();
        let mut inc = HybridTree::new(4, cfg()).unwrap();
        for (p, oid) in &pts {
            inc.insert(p.clone(), *oid).unwrap();
        }
        let ub = bulk.structure_stats().unwrap().avg_leaf_utilization;
        let ui = inc.structure_stats().unwrap().avg_leaf_utilization;
        assert!(
            ub >= ui - 0.05,
            "bulk fill {ub:.2} should not be below insertion fill {ui:.2}"
        );
    }

    #[test]
    fn bulk_handles_single_page_collection() {
        let t = HybridTree::bulk_load(points(5, 2, 6), cfg()).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 5);
        t.check_invariants().unwrap();
        assert_eq!(t.box_query(&Rect::unit(2)).unwrap().len(), 5);
    }

    #[test]
    fn bulk_handles_duplicates() {
        let entries: Vec<(Point, u64)> = (0..500)
            .map(|i| (Point::new(vec![0.25, 0.75]), i))
            .collect();
        let t = HybridTree::bulk_load(entries, cfg()).unwrap();
        assert_eq!(t.len(), 500);
        t.check_invariants().unwrap();
        let hits = t
            .box_query(&Rect::from_point(&Point::new(vec![0.25, 0.75])))
            .unwrap();
        assert_eq!(hits.len(), 500);
    }

    #[test]
    fn bulk_rejects_mixed_dimensionality() {
        let entries = vec![
            (Point::new(vec![0.1, 0.2]), 0),
            (Point::new(vec![0.1, 0.2, 0.3]), 1),
        ];
        assert!(matches!(
            HybridTree::bulk_load(entries, cfg()),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bulk_is_much_faster_than_insertion_at_scale() {
        let pts = points(20_000, 8, 7);
        let t0 = std::time::Instant::now();
        let bulk = HybridTree::bulk_load(pts.clone(), HybridTreeConfig::default()).unwrap();
        let bulk_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let mut inc = HybridTree::new(8, HybridTreeConfig::default()).unwrap();
        for (p, oid) in &pts {
            inc.insert(p.clone(), *oid).unwrap();
        }
        let inc_time = t1.elapsed();
        assert_eq!(bulk.len(), inc.len());
        // Don't assert a specific ratio (CI noise), but bulk must not be
        // slower than insertion.
        assert!(
            bulk_time <= inc_time,
            "bulk {bulk_time:?} slower than insertion {inc_time:?}"
        );
    }
}
