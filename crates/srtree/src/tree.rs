//! SR-tree operations.

use crate::node::{data_capacity, index_capacity, ChildEntry, SrNode, DATA_HEADER_BYTES};
use hyt_exec::{Child, EntrySink, KnnCursor, NearQuery, NodeExpand};
use hyt_geom::{Metric, Point, Rect, L2};
use hyt_index::{
    check_dim, Answer, IndexError, IndexResult, KnnStream, MultidimIndex, Query, QueryContext,
    QueryOutcome, StatsTally, StructureStats,
};
use hyt_page::{BufferPool, IoStats, MemStorage, PageError, PageId, Storage};

/// Minimum fill fraction of a node's capacity guaranteed by splits.
const MIN_FILL: f64 = 0.4;

enum InsertResult {
    /// Child absorbed the point; its (recomputed) entry follows.
    Updated(ChildEntry),
    /// Child split into two; both entries follow.
    Split(ChildEntry, ChildEntry),
}

enum DelOutcome {
    NotFound,
    Done(ChildEntry, Vec<(Point, u64)>),
    Eliminated(Vec<(Point, u64)>),
}

/// A disk-based SR-tree over k-dimensional `f32` points.
pub struct SrTree<S: Storage = MemStorage> {
    pool: BufferPool<S>,
    root: PageId,
    height: usize,
    dim: usize,
    len: usize,
    data_cap: usize,
    data_min: usize,
    index_cap: usize,
    index_min: usize,
}

impl SrTree<MemStorage> {
    /// Creates an empty SR-tree over in-memory pages of `page_size` bytes
    /// (the paper's is [`hyt_page::DEFAULT_PAGE_SIZE`]).
    pub fn new(dim: usize, page_size: usize) -> IndexResult<Self> {
        Self::with_storage(dim, MemStorage::with_page_size(page_size))
    }
}

impl<S: Storage> SrTree<S> {
    /// Creates an empty SR-tree over the given page store.
    pub fn with_storage(dim: usize, storage: S) -> IndexResult<Self> {
        let page_size = storage.page_size();
        let data_cap = data_capacity(page_size, dim);
        let index_cap = index_capacity(page_size, dim);
        if data_cap < 2 || index_cap < 2 {
            return Err(IndexError::Internal(format!(
                "page size {} cannot hold an SR-tree of dimension {dim} \
                 (data cap {data_cap}, index cap {index_cap})",
                page_size
            )));
        }
        let data_min = ((MIN_FILL * data_cap as f64).floor() as usize).max(1);
        let index_min = ((MIN_FILL * index_cap as f64).floor() as usize).max(1);
        let pool = BufferPool::new(storage);
        let root = pool.allocate()?;
        pool.write(root, &SrNode::Data(Vec::new()).encode(dim))?;
        Ok(Self {
            pool,
            root,
            height: 1,
            dim,
            len: 0,
            data_cap,
            data_min,
            index_cap,
            index_min,
        })
    }

    /// Height in levels (1 = root is a data node).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Index-node fanout limit — `O(page / k)`, the DP bottleneck.
    pub fn index_capacity(&self) -> usize {
        self.index_cap
    }

    fn read_node(&self, pid: PageId) -> IndexResult<SrNode> {
        self.read_node_ctx(pid, &mut IoStats::default(), QueryContext::unlimited())
    }

    /// Governed node read: `ctx` admits the fetch, `io` is charged one
    /// logical read, and the page is decoded in place from the pool.
    fn read_node_ctx(
        &self,
        pid: PageId,
        io: &mut IoStats,
        ctx: &QueryContext,
    ) -> IndexResult<SrNode> {
        Ok(self
            .pool
            .read_with(pid, false, io, ctx, |buf| SrNode::decode(buf, self.dim))??)
    }

    fn write_node(&mut self, pid: PageId, node: &SrNode) -> IndexResult<()> {
        let buf = node.encode(self.dim);
        if buf.len() > self.pool.page_size() {
            return Err(IndexError::Internal(format!(
                "SR node for {pid} overflows page ({} bytes)",
                buf.len()
            )));
        }
        self.pool.write(pid, &buf)?;
        Ok(())
    }

    /// Entry metadata for a data node.
    fn entry_for_data(&self, pid: PageId, entries: &[(Point, u64)]) -> ChildEntry {
        debug_assert!(!entries.is_empty());
        let n = entries.len() as f64;
        let centroid = Point::new(
            (0..self.dim)
                .map(|d| {
                    (entries
                        .iter()
                        .map(|(p, _)| f64::from(p.coord(d)))
                        .sum::<f64>()
                        / n) as f32
                })
                .collect(),
        );
        let radius = entries
            .iter()
            .map(|(p, _)| L2.distance(&centroid, p))
            .fold(0.0, f64::max) as f32;
        let rect = Rect::bounding(&entries.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
        ChildEntry {
            pid,
            weight: entries.len() as u32,
            radius,
            centroid,
            rect,
        }
    }

    /// Entry metadata for an index node, from its child entries
    /// (the SR-tree radius rule: min of the children-based bound and the
    /// farthest-rectangle-corner distance).
    fn entry_for_index(&self, pid: PageId, entries: &[ChildEntry]) -> ChildEntry {
        debug_assert!(!entries.is_empty());
        let total: u64 = entries.iter().map(|e| u64::from(e.weight)).sum();
        let centroid = Point::new(
            (0..self.dim)
                .map(|d| {
                    (entries
                        .iter()
                        .map(|e| f64::from(e.weight) * f64::from(e.centroid.coord(d)))
                        .sum::<f64>()
                        / total as f64) as f32
                })
                .collect(),
        );
        let mut rect = entries[0].rect.clone();
        for e in &entries[1..] {
            rect.extend_to_rect(&e.rect);
        }
        let by_children = entries
            .iter()
            .map(|e| L2.distance(&centroid, &e.centroid) + f64::from(e.radius))
            .fold(0.0, f64::max);
        let by_corner = (0..self.dim)
            .map(|d| {
                let c = f64::from(centroid.coord(d));
                let lo = (c - f64::from(rect.lo(d))).abs();
                let hi = (f64::from(rect.hi(d)) - c).abs();
                let m = lo.max(hi);
                m * m
            })
            .sum::<f64>()
            .sqrt();
        ChildEntry {
            pid,
            weight: total as u32,
            radius: by_children.min(by_corner) as f32,
            centroid,
            rect,
        }
    }

    fn insert_rec(&mut self, pid: PageId, p: &Point, oid: u64) -> IndexResult<InsertResult> {
        match self.read_node(pid)? {
            SrNode::Data(mut entries) => {
                entries.push((p.clone(), oid));
                if entries.len() > self.data_cap {
                    let (left, right) = split_points(entries, self.data_min, self.dim);
                    let new_pid = self.pool.allocate()?;
                    let le = self.entry_for_data(pid, &left);
                    let re = self.entry_for_data(new_pid, &right);
                    self.write_node(pid, &SrNode::Data(left))?;
                    self.write_node(new_pid, &SrNode::Data(right))?;
                    Ok(InsertResult::Split(le, re))
                } else {
                    let e = self.entry_for_data(pid, &entries);
                    self.write_node(pid, &SrNode::Data(entries))?;
                    Ok(InsertResult::Updated(e))
                }
            }
            SrNode::Index { level, mut entries } => {
                // SS-tree descent: nearest centroid (ties: smaller radius).
                let Some((best, _)) = entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, L2.distance(&e.centroid, p)))
                    .min_by(|a, b| {
                        a.1.total_cmp(&b.1)
                            .then(entries[a.0].radius.total_cmp(&entries[b.0].radius))
                    })
                else {
                    return Err(
                        PageError::Corrupt(format!("SR index node {pid} has no entries")).into(),
                    );
                };
                let child = entries[best].pid;
                match self.insert_rec(child, p, oid)? {
                    InsertResult::Updated(e) => {
                        entries[best] = e;
                        let my = self.entry_for_index(pid, &entries);
                        self.write_node(pid, &SrNode::Index { level, entries })?;
                        Ok(InsertResult::Updated(my))
                    }
                    InsertResult::Split(a, b) => {
                        entries[best] = a;
                        entries.push(b);
                        if entries.len() > self.index_cap {
                            let (l, r) = split_entries(entries, self.index_min, self.dim);
                            let new_pid = self.pool.allocate()?;
                            let le = self.entry_for_index(pid, &l);
                            let re = self.entry_for_index(new_pid, &r);
                            self.write_node(pid, &SrNode::Index { level, entries: l })?;
                            self.write_node(new_pid, &SrNode::Index { level, entries: r })?;
                            Ok(InsertResult::Split(le, re))
                        } else {
                            let my = self.entry_for_index(pid, &entries);
                            self.write_node(pid, &SrNode::Index { level, entries })?;
                            Ok(InsertResult::Updated(my))
                        }
                    }
                }
            }
        }
    }

    fn insert_entry(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        match self.insert_rec(self.root, &point, oid)? {
            InsertResult::Updated(_) => Ok(()),
            InsertResult::Split(a, b) => {
                let new_root = self.pool.allocate()?;
                let level = self.height as u16;
                self.write_node(
                    new_root,
                    &SrNode::Index {
                        level,
                        entries: vec![a, b],
                    },
                )?;
                self.root = new_root;
                self.height += 1;
                Ok(())
            }
        }
    }

    fn delete_rec(
        &mut self,
        pid: PageId,
        p: &Point,
        oid: u64,
        is_root: bool,
    ) -> IndexResult<DelOutcome> {
        match self.read_node(pid)? {
            SrNode::Data(mut entries) => {
                let Some(i) = entries
                    .iter()
                    .position(|(q, o)| *o == oid && q.same_coords(p))
                else {
                    return Ok(DelOutcome::NotFound);
                };
                entries.swap_remove(i);
                if !is_root && entries.len() < self.data_min {
                    return Ok(DelOutcome::Eliminated(entries));
                }
                if entries.is_empty() {
                    // Empty root data node.
                    self.write_node(pid, &SrNode::Data(entries))?;
                    return Ok(DelOutcome::Done(
                        ChildEntry {
                            pid,
                            weight: 0,
                            radius: 0.0,
                            centroid: Point::origin(self.dim),
                            rect: Rect::from_point(&Point::origin(self.dim)),
                        },
                        Vec::new(),
                    ));
                }
                let e = self.entry_for_data(pid, &entries);
                self.write_node(pid, &SrNode::Data(entries))?;
                Ok(DelOutcome::Done(e, Vec::new()))
            }
            SrNode::Index { level, mut entries } => {
                for i in 0..entries.len() {
                    if !entries[i].rect.contains_point(p) {
                        continue;
                    }
                    let child = entries[i].pid;
                    match self.delete_rec(child, p, oid, false)? {
                        DelOutcome::NotFound => continue,
                        DelOutcome::Done(updated, orphans) => {
                            entries[i] = updated;
                            let my = self.entry_for_index(pid, &entries);
                            self.write_node(pid, &SrNode::Index { level, entries })?;
                            return Ok(DelOutcome::Done(my, orphans));
                        }
                        DelOutcome::Eliminated(mut orphans) => {
                            self.pool.free(child)?;
                            entries.swap_remove(i);
                            if entries.is_empty() {
                                return Ok(DelOutcome::Eliminated(orphans));
                            }
                            if entries.len() < 2 && !is_root {
                                for e in entries {
                                    orphans.extend(self.collect_and_free(e.pid)?);
                                }
                                return Ok(DelOutcome::Eliminated(orphans));
                            }
                            let my = self.entry_for_index(pid, &entries);
                            self.write_node(pid, &SrNode::Index { level, entries })?;
                            return Ok(DelOutcome::Done(my, orphans));
                        }
                    }
                }
                Ok(DelOutcome::NotFound)
            }
        }
    }

    fn collect_and_free(&mut self, pid: PageId) -> IndexResult<Vec<(Point, u64)>> {
        let mut out = Vec::new();
        let mut stack = vec![pid];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid)? {
                SrNode::Data(entries) => out.extend(entries),
                SrNode::Index { entries, .. } => stack.extend(entries.iter().map(|e| e.pid)),
            }
            self.pool.free(pid)?;
        }
        Ok(out)
    }

    fn maybe_shrink_root(&mut self) -> IndexResult<()> {
        while self.height > 1 {
            match self.read_node(self.root)? {
                SrNode::Index { entries, .. } if entries.len() == 1 => {
                    let child = entries[0].pid;
                    self.pool.free(self.root)?;
                    self.root = child;
                    self.height -= 1;
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Comparator-space lower bound on the distance from `q` to anything
    /// inside the entry's region (sphere ∩ rectangle): the max of the
    /// rectangle bound (computed natively in comparator space) and the
    /// sphere bound (actual-space, pushed through
    /// [`Metric::distance_to_sq`] — monotone, so the max is preserved).
    fn min_dist_entry_sq(&self, q: &Point, e: &ChildEntry, metric: &dyn Metric) -> f64 {
        let rect = metric.min_dist_rect_sq(q, &e.rect);
        let sphere =
            metric.distance_to_sq(metric.min_dist_sphere(q, &e.centroid, f64::from(e.radius)));
        rect.max(sphere)
    }
}

/// Splits data points: maximum-variance dimension, position minimizing
/// the sum of the two groups' variances along that dimension (SS-tree).
/// Two groups of `(point, oid)` entries produced by a node split.
type PointSplit = (Vec<(Point, u64)>, Vec<(Point, u64)>);

fn split_points(mut entries: Vec<(Point, u64)>, min_fill: usize, dim: usize) -> PointSplit {
    let n = entries.len();
    let m = min_fill.clamp(1, n / 2);
    let d = max_variance_dim(entries.iter().map(|(p, _)| p), n, dim);
    entries.sort_by(|a, b| a.0.coord(d).total_cmp(&b.0.coord(d)));
    let vals: Vec<f64> = entries.iter().map(|(p, _)| f64::from(p.coord(d))).collect();
    let j = best_variance_split(&vals, m);
    let right = entries.split_off(j);
    (entries, right)
}

/// Splits index entries by centroid, same rule as [`split_points`].
fn split_entries(
    mut entries: Vec<ChildEntry>,
    min_fill: usize,
    dim: usize,
) -> (Vec<ChildEntry>, Vec<ChildEntry>) {
    let n = entries.len();
    let m = min_fill.clamp(1, n / 2);
    let d = max_variance_dim(entries.iter().map(|e| &e.centroid), n, dim);
    entries.sort_by(|a, b| a.centroid.coord(d).total_cmp(&b.centroid.coord(d)));
    let vals: Vec<f64> = entries
        .iter()
        .map(|e| f64::from(e.centroid.coord(d)))
        .collect();
    let j = best_variance_split(&vals, m);
    let right = entries.split_off(j);
    (entries, right)
}

fn max_variance_dim<'a, I: Iterator<Item = &'a Point> + Clone>(
    points: I,
    n: usize,
    dim: usize,
) -> usize {
    let nf = n as f64;
    let mut best = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..dim {
        let mean: f64 = points.clone().map(|p| f64::from(p.coord(d))).sum::<f64>() / nf;
        let var: f64 = points
            .clone()
            .map(|p| {
                let x = f64::from(p.coord(d)) - mean;
                x * x
            })
            .sum::<f64>()
            / nf;
        if var > best_var {
            best_var = var;
            best = d;
        }
    }
    best
}

/// Given sorted values, returns the split index in `[m, n-m]` minimizing
/// the sum of the two sides' variances (computed with prefix sums).
fn best_variance_split(vals: &[f64], m: usize) -> usize {
    let n = vals.len();
    let mut prefix = vec![0.0; n + 1];
    let mut prefix2 = vec![0.0; n + 1];
    for (i, v) in vals.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
        prefix2[i + 1] = prefix2[i] + v * v;
    }
    let var = |a: usize, b: usize| -> f64 {
        // Variance of vals[a..b].
        let cnt = (b - a) as f64;
        let s = prefix[b] - prefix[a];
        let s2 = prefix2[b] - prefix2[a];
        (s2 / cnt - (s / cnt) * (s / cnt)).max(0.0)
    };
    let mut best_j = m;
    let mut best_cost = f64::INFINITY;
    for j in m..=(n - m) {
        let cost = var(0, j) + var(j, n);
        if cost < best_cost {
            best_cost = cost;
            best_j = j;
        }
    }
    best_j
}

/// [`NodeExpand`] adapter: one SR-tree node reference is a page id; all
/// reads go through the decoded-node path, and children are bounded by
/// the sphere-and-rectangle `min_dist_entry_sq`.
struct SrExpand<'t, S: Storage> {
    tree: &'t SrTree<S>,
}

impl<S: Storage> NodeExpand for SrExpand<'_, S> {
    type Ref = PageId;

    fn node_id(&self, r: &PageId) -> u64 {
        u64::from(r.0)
    }

    fn roots(&self) -> Vec<PageId> {
        if self.tree.len == 0 {
            Vec::new()
        } else {
            vec![self.tree.root]
        }
    }

    fn expand_box(
        &self,
        pid: PageId,
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        children: &mut Vec<PageId>,
    ) -> IndexResult<()> {
        match &self.tree.read_node_ctx(pid, io, ctx)? {
            SrNode::Data(entries) => {
                out.extend(
                    entries
                        .iter()
                        .filter(|(p, _)| rect.contains_point(p))
                        .map(|(_, oid)| *oid),
                );
                Ok(())
            }
            SrNode::Index { entries, .. } => {
                children.extend(
                    entries
                        .iter()
                        .filter(|e| e.rect.intersects(rect))
                        .map(|e| e.pid),
                );
                Ok(())
            }
        }
    }

    fn expand_near(
        &self,
        pid: PageId,
        nq: NearQuery<'_>,
        io: &mut IoStats,
        ctx: &QueryContext,
        sink: &mut dyn EntrySink,
        children: &mut Vec<Child<PageId>>,
    ) -> IndexResult<()> {
        match &self.tree.read_node_ctx(pid, io, ctx)? {
            SrNode::Data(entries) => {
                for (p, oid) in entries {
                    sink.offer(*oid, p);
                }
                Ok(())
            }
            SrNode::Index { entries, .. } => {
                children.extend(entries.iter().map(|e| Child {
                    bound: self.tree.min_dist_entry_sq(nq.q, e, nq.metric),
                    provisional: false,
                    node: e.pid,
                }));
                Ok(())
            }
        }
    }
}

impl<S: Storage> MultidimIndex for SrTree<S> {
    fn name(&self) -> &'static str {
        "sr-tree"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        check_dim(self.dim, point.dim())?;
        self.insert_entry(point, oid)?;
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool> {
        check_dim(self.dim, point.dim())?;
        if self.len == 0 {
            return Ok(false);
        }
        match self.delete_rec(self.root, point, oid, true)? {
            DelOutcome::NotFound => Ok(false),
            DelOutcome::Done(_, orphans) => {
                self.len -= 1;
                self.maybe_shrink_root()?;
                for (p, oid) in orphans {
                    self.insert_entry(p, oid)?;
                }
                Ok(true)
            }
            DelOutcome::Eliminated(orphans) => {
                // The root index node lost everything below; rebuild from
                // scratch with the orphans.
                self.write_node(self.root, &SrNode::Data(Vec::new()))?;
                self.height = 1;
                self.len -= 1;
                for (p, oid) in orphans {
                    self.insert_entry(p, oid)?;
                }
                Ok(true)
            }
        }
    }

    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
        check_dim(self.dim, query.dim())?;
        hyt_exec::execute(SrExpand { tree: self }, query, metric, ctx)
    }

    fn knn_stream<'a>(
        &'a self,
        q: &Point,
        metric: &'a dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<Box<dyn KnnStream + 'a>> {
        check_dim(self.dim, q.dim())?;
        Ok(Box::new(KnnCursor::new(
            SrExpand { tree: self },
            q.clone(),
            metric,
            ctx.clone(),
        )))
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    fn structure_stats(&self) -> IndexResult<StructureStats> {
        let mut tally = StatsTally::new(self.height, self.pool.page_size(), self.dim);
        if self.len == 0 {
            return Ok(tally.finish());
        }
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid)? {
                SrNode::Data(entries) => tally.data_node(DATA_HEADER_BYTES, entries.len()),
                SrNode::Index { entries, .. } => {
                    tally.index_node(entries.len());
                    stack.extend(entries.iter().map(|e| e.pid));
                }
            }
        }
        Ok(StructureStats {
            // Every dimension participates in every BR: no implicit
            // reduction.
            distinct_split_dims: self.dim,
            ..tally.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::L1;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    const PAGE: usize = 512;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    fn build(pts: &[Point]) -> SrTree {
        let mut t = SrTree::new(pts[0].dim(), PAGE).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    #[test]
    fn box_query_matches_brute_force() {
        let pts = points(600, 3, 1);
        let t = build(&pts);
        assert!(t.height() > 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let lo: Vec<f32> = (0..3).map(|_| rng.gen::<f32>() * 0.7).collect();
            let hi: Vec<f32> = lo.iter().map(|l| l + 0.25).collect();
            let rect = Rect::new(lo, hi);
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| rect.contains_point(p))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn knn_matches_brute_force_multiple_metrics() {
        let pts = points(400, 4, 3);
        let t = build(&pts);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..15 {
            let q = Point::new((0..4).map(|_| rng.gen::<f32>()).collect());
            for metric in [&L1 as &dyn Metric, &L2] {
                let got = t.knn(&q, 7, metric).unwrap();
                let mut want: Vec<f64> = pts.iter().map(|p| metric.distance(&q, p)).collect();
                want.sort_by(f64::total_cmp);
                for (i, (_, d)) in got.iter().enumerate() {
                    assert!(
                        (d - want[i]).abs() < 1e-9,
                        "{}: {d} vs {}",
                        metric.name(),
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn distance_range_l1_matches_brute_force() {
        // The paper's Fig 7(c,d) setting: L1 queries over an SR-tree.
        let pts = points(500, 4, 5);
        let t = build(&pts);
        let q = Point::new(vec![0.5; 4]);
        let mut got = t.distance_range(&q, 0.6, &L1).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| L1.distance(&q, p) <= 0.6)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn deletes_preserve_query_correctness() {
        let pts = points(300, 2, 6);
        let mut t = build(&pts);
        let mut live = vec![true; pts.len()];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..150 {
            let i = rng.gen_range(0..pts.len());
            if live[i] {
                assert!(t.delete(&pts[i], i as u64).unwrap());
                live[i] = false;
            }
        }
        assert_eq!(t.len(), live.iter().filter(|x| **x).count());
        let rect = Rect::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| live[*i] && rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything() {
        let pts = points(200, 2, 8);
        let mut t = build(&pts);
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(p, i as u64).unwrap(), "delete {i}");
        }
        assert!(t.is_empty());
        t.insert(Point::new(vec![0.5, 0.5]), 9).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.box_query(&Rect::unit(2)).unwrap(), vec![9]);
    }

    #[test]
    fn sphere_and_rect_bounds_prune_consistently() {
        // Build and check that no query ever misses results when pruning
        // with the combined bound, under a non-L2 metric.
        let pts = points(300, 3, 9);
        let t = build(&pts);
        let q = Point::new(vec![0.1, 0.9, 0.5]);
        let got = t.distance_range(&q, 0.8, &L1).unwrap();
        let want = pts.iter().filter(|p| L1.distance(&q, p) <= 0.8).count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn rejects_impossible_geometry() {
        // 64-d entries cannot fit two to a 512-byte page.
        assert!(SrTree::new(64, PAGE).is_err());
    }

    #[test]
    fn structure_stats_reflect_low_fanout_in_high_dim() {
        let pts = points(2000, 16, 10);
        let mut t = SrTree::new(16, hyt_page::DEFAULT_PAGE_SIZE).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        let st = t.structure_stats().unwrap();
        assert!(st.index_nodes >= 1);
        // 16-d: index capacity is (4096-7)/204 = 20.
        assert!(st.avg_fanout <= 20.0 + 1e-9);
        assert_eq!(st.distinct_split_dims, 16);
    }
}
