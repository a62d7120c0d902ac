//! kDB-tree baseline (Robinson, SIGMOD 1981).
//!
//! The kDB-tree is the only disk-based predecessor of the hybrid tree
//! with a strict 1-d split policy (paper Table 1). Its node splits must be
//! *clean*: the two resulting subspaces are disjoint. When an overflowing
//! region page is cut by a hyperplane, every child page straddling the
//! hyperplane must itself be split — the **cascading splits** that create
//! underfull (even empty) pages and void any utilization guarantee. The
//! hybrid tree exists precisely to avoid this: it relaxes cleanliness
//! (allowing `lsp > rsp`) whenever a clean split would cascade.
//!
//! This implementation is faithful to that behaviour:
//!
//! * data pages split at the median of the maximum-extent dimension;
//! * region pages prefer an existing kd hyperplane when one yields an
//!   acceptable balance, and otherwise force a median hyperplane through
//!   the node, recursively (and honestly) splitting every straddling
//!   descendant;
//! * deletion removes entries without merging pages (the structure has no
//!   utilization guarantee to restore).
//!
//! Split convention: a split at `pos` sends `x < pos` left and `x >= pos`
//! right, everywhere, so clean partitions stay clean under cascades.

// Page bytes are untrusted: a damaged page must surface as an error on
// every path, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hyt_exec::{Child, EntrySink, KnnCursor, NearQuery, NodeExpand};
use hyt_geom::{Coord, Metric, Point, Rect};
use hyt_index::{
    check_dim, leaf, Answer, IndexError, IndexResult, KnnStream, MultidimIndex, Query,
    QueryContext, QueryOutcome, StatsTally, StructureStats,
};
use hyt_page::{
    BufferPool, ByteReader, ByteWriter, IoStats, MemStorage, PageError, PageId, PageResult, Storage,
};
use std::cmp::Ordering;

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;
/// Header bytes of a data node (tag + entry count).
const DATA_HEADER_BYTES: usize = 1 + 4;
const KD_LEAF: u8 = 0;
const KD_INTERNAL: u8 = 1;

/// Intra-node kd-tree with a single (clean) split position per node.
#[derive(Clone, Debug, PartialEq)]
enum Kd {
    Leaf(PageId),
    Internal {
        dim: u16,
        pos: Coord,
        left: Box<Kd>,
        right: Box<Kd>,
    },
}

impl Kd {
    fn fanout(&self) -> usize {
        match self {
            Kd::Leaf(_) => 1,
            Kd::Internal { left, right, .. } => left.fanout() + right.fanout(),
        }
    }

    fn encoded_size(&self) -> usize {
        match self {
            Kd::Leaf(_) => 5,
            Kd::Internal { left, right, .. } => 7 + left.encoded_size() + right.encoded_size(),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Kd::Leaf(pid) => {
                w.put_u8(KD_LEAF);
                w.put_u32(pid.0);
            }
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                w.put_u8(KD_INTERNAL);
                w.put_u16(*dim);
                w.put_f32(*pos);
                left.encode(w);
                right.encode(w);
            }
        }
    }

    /// Decodes the kd-tree of a `dims`-dimensional tree's index page: a
    /// split dimension past it or a non-finite position is corruption.
    fn decode(r: &mut ByteReader<'_>, dims: usize) -> PageResult<Self> {
        match r.get_u8()? {
            KD_LEAF => Ok(Kd::Leaf(PageId(r.get_u32()?))),
            KD_INTERNAL => {
                let dim = r.get_u16()?;
                let pos = r.get_f32()?;
                if usize::from(dim) >= dims || !pos.is_finite() {
                    return Err(PageError::Corrupt(format!(
                        "kdb split on dim {dim} at {pos} in a {dims}-d tree"
                    )));
                }
                let left = Box::new(Kd::decode(r, dims)?);
                let right = Box::new(Kd::decode(r, dims)?);
                Ok(Kd::Internal {
                    dim,
                    pos,
                    left,
                    right,
                })
            }
            t => Err(PageError::Corrupt(format!("bad kdb kd tag {t}"))),
        }
    }

    fn children_with_regions(&self, region: &Rect, out: &mut Vec<(PageId, Rect)>) {
        match self {
            Kd::Leaf(pid) => out.push((*pid, region.clone())),
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                let d = *dim as usize;
                left.children_with_regions(&region.clamp_above(d, *pos), out);
                right.children_with_regions(&region.clamp_below(d, *pos), out);
            }
        }
    }

    fn child_ids(&self, out: &mut Vec<PageId>) {
        match self {
            Kd::Leaf(pid) => out.push(*pid),
            Kd::Internal { left, right, .. } => {
                left.child_ids(out);
                right.child_ids(out);
            }
        }
    }

    /// The unique child for a point under the `x < pos` convention.
    fn descend(&self, p: &Point) -> PageId {
        match self {
            Kd::Leaf(pid) => *pid,
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                if p.coord(*dim as usize) < *pos {
                    left.descend(p)
                } else {
                    right.descend(p)
                }
            }
        }
    }

    fn replace_leaf(&mut self, child: PageId, replacement: Kd) -> bool {
        match self {
            Kd::Leaf(c) if *c == child => {
                *self = replacement;
                true
            }
            Kd::Leaf(_) => false,
            Kd::Internal { left, right, .. } => {
                left.replace_leaf(child, replacement.clone())
                    || right.replace_leaf(child, replacement)
            }
        }
    }

    /// Collects distinct hyperplanes present in the tree.
    fn hyperplanes(&self, out: &mut Vec<(u16, Coord)>) {
        if let Kd::Internal {
            dim,
            pos,
            left,
            right,
        } = self
        {
            out.push((*dim, *pos));
            left.hyperplanes(out);
            right.hyperplanes(out);
        }
    }

    fn split_dims(&self, out: &mut Vec<u16>) {
        if let Kd::Internal {
            dim, left, right, ..
        } = self
        {
            out.push(*dim);
            left.split_dims(out);
            right.split_dims(out);
        }
    }
}

/// A deserialized kDB-tree node.
#[derive(Clone, Debug)]
enum KdbNode {
    Data(Vec<(Point, u64)>),
    Index { level: u16, kd: Kd },
}

impl KdbNode {
    fn encoded_size(&self, dim: usize) -> usize {
        match self {
            KdbNode::Data(e) => DATA_HEADER_BYTES + e.len() * leaf::entry_bytes(dim),
            KdbNode::Index { kd, .. } => 3 + kd.encoded_size(),
        }
    }

    fn encode(&self, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size(dim));
        match self {
            KdbNode::Data(entries) => {
                w.put_u8(TAG_DATA);
                leaf::encode(&mut w, dim, entries.iter().map(|(p, oid)| (p, *oid)));
            }
            KdbNode::Index { level, kd } => {
                w.put_u8(TAG_INDEX);
                w.put_u16(*level);
                kd.encode(&mut w);
            }
        }
        w.into_inner()
    }

    fn decode(buf: &[u8], dim: usize) -> PageResult<Self> {
        let mut r = ByteReader::new(buf);
        match r.get_u8()? {
            TAG_DATA => Ok(KdbNode::Data(leaf::decode(&mut r, dim, |p, oid| (p, oid))?)),
            TAG_INDEX => {
                let level = r.get_u16()?;
                let kd = Kd::decode(&mut r, dim)?;
                Ok(KdbNode::Index { level, kd })
            }
            t => Err(PageError::Corrupt(format!("bad kdb node tag {t}"))),
        }
    }
}

/// Split statistics — the kDB-tree's pathology, measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct KdbSplitStats {
    /// Total node splits performed.
    pub total_splits: u64,
    /// Splits forced onto a page by a hyperplane from above (cascades).
    pub forced_splits: u64,
    /// Pages that were left empty by a forced split.
    pub empty_pages_created: u64,
}

/// A disk-based kDB-tree over k-dimensional `f32` points.
pub struct KdbTree<S: Storage = MemStorage> {
    pool: BufferPool<S>,
    root: PageId,
    height: usize,
    dim: usize,
    len: usize,
    data_cap: usize,
    global_br: Option<Rect>,
    split_stats: KdbSplitStats,
}

impl KdbTree<MemStorage> {
    /// Creates an empty kDB-tree over in-memory pages of `page_size`
    /// bytes (the paper's is [`hyt_page::DEFAULT_PAGE_SIZE`]).
    pub fn new(dim: usize, page_size: usize) -> IndexResult<Self> {
        Self::with_storage(dim, MemStorage::with_page_size(page_size))
    }
}

impl<S: Storage> KdbTree<S> {
    /// Creates an empty kDB-tree over the given page store.
    pub fn with_storage(dim: usize, storage: S) -> IndexResult<Self> {
        let page_size = storage.page_size();
        let data_cap = (page_size - DATA_HEADER_BYTES) / leaf::entry_bytes(dim);
        if data_cap < 2 {
            return Err(IndexError::Internal(format!(
                "page size {page_size} too small for dimension {dim}"
            )));
        }
        let pool = BufferPool::new(storage);
        let root = pool.allocate()?;
        pool.write(root, &KdbNode::Data(Vec::new()).encode(dim))?;
        Ok(Self {
            pool,
            root,
            height: 1,
            dim,
            len: 0,
            data_cap,
            global_br: None,
            split_stats: KdbSplitStats::default(),
        })
    }

    /// Height in levels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cascade / empty-page counters.
    pub fn split_stats(&self) -> KdbSplitStats {
        self.split_stats
    }

    fn read_node(&self, pid: PageId) -> IndexResult<KdbNode> {
        self.read_node_ctx(pid, &mut IoStats::default(), QueryContext::unlimited())
    }

    /// Governed node read: `ctx` admits the fetch, `io` is charged one
    /// logical read, and the page is decoded in place from the pool.
    fn read_node_ctx(
        &self,
        pid: PageId,
        io: &mut IoStats,
        ctx: &QueryContext,
    ) -> IndexResult<KdbNode> {
        Ok(self
            .pool
            .read_with(pid, false, io, ctx, |buf| KdbNode::decode(buf, self.dim))??)
    }

    fn write_node(&mut self, pid: PageId, node: &KdbNode) -> IndexResult<()> {
        let buf = node.encode(self.dim);
        if buf.len() > self.pool.page_size() {
            return Err(IndexError::Internal(format!(
                "kdb node for {pid} overflows page"
            )));
        }
        self.pool.write(pid, &buf)?;
        Ok(())
    }

    fn root_region(&self) -> Rect {
        self.global_br
            .clone()
            .unwrap_or_else(|| Rect::from_point(&Point::origin(self.dim)))
    }

    /// An empty data page used when a forced cut leaves one side of an
    /// index node with no children — the kDB-tree's empty-page pathology.
    fn empty_data_leaf(&mut self) -> IndexResult<Kd> {
        let p = self.pool.allocate()?;
        self.write_node(p, &KdbNode::Data(Vec::new()))?;
        Ok(Kd::Leaf(p))
    }

    /// Splits page `pid` cleanly by hyperplane `(dim, pos)`, creating a new
    /// right page; recursively cascades into straddling children. Region
    /// is `pid`'s region (needed to classify grandchildren).
    fn force_split(
        &mut self,
        pid: PageId,
        dim: u16,
        pos: Coord,
        region: &Rect,
        forced: bool,
    ) -> IndexResult<PageId> {
        self.split_stats.total_splits += 1;
        if forced {
            self.split_stats.forced_splits += 1;
        }
        let d = dim as usize;
        match self.read_node(pid)? {
            KdbNode::Data(entries) => {
                let (left, right): (Vec<_>, Vec<_>) =
                    entries.into_iter().partition(|(p, _)| p.coord(d) < pos);
                if left.is_empty() || right.is_empty() {
                    self.split_stats.empty_pages_created += 1;
                }
                let new_pid = self.pool.allocate()?;
                self.write_node(pid, &KdbNode::Data(left))?;
                self.write_node(new_pid, &KdbNode::Data(right))?;
                Ok(new_pid)
            }
            KdbNode::Index { level, kd } => {
                let (lkd, rkd) = self.cut_kd(kd, dim, pos, region)?;
                if lkd.is_none() || rkd.is_none() {
                    self.split_stats.empty_pages_created += 1;
                }
                let new_pid = self.pool.allocate()?;
                let lkd = match lkd {
                    Some(k) => k,
                    None => self.empty_data_leaf()?,
                };
                let rkd = match rkd {
                    Some(k) => k,
                    None => self.empty_data_leaf()?,
                };
                self.write_node(pid, &KdbNode::Index { level, kd: lkd })?;
                self.write_node(new_pid, &KdbNode::Index { level, kd: rkd })?;
                Ok(new_pid)
            }
        }
    }

    /// Cuts a kd-tree by a hyperplane; children regions that straddle it
    /// are force-split (the cascade).
    fn cut_kd(
        &mut self,
        kd: Kd,
        dim: u16,
        pos: Coord,
        region: &Rect,
    ) -> IndexResult<(Option<Kd>, Option<Kd>)> {
        let d = dim as usize;
        match kd {
            Kd::Leaf(child) => {
                if region.hi(d) <= pos {
                    Ok((Some(Kd::Leaf(child)), None))
                } else if region.lo(d) >= pos {
                    Ok((None, Some(Kd::Leaf(child))))
                } else {
                    // Cascade into the child.
                    let new_pid = self.force_split(child, dim, pos, region, true)?;
                    Ok((Some(Kd::Leaf(child)), Some(Kd::Leaf(new_pid))))
                }
            }
            Kd::Internal {
                dim: kdim,
                pos: kpos,
                left,
                right,
            } => {
                if kdim == dim {
                    match kpos.total_cmp(&pos) {
                        Ordering::Equal => Ok((Some(*left), Some(*right))),
                        Ordering::Less => {
                            let (rl, rr) =
                                self.cut_kd(*right, dim, pos, &region.clamp_below(d, kpos))?;
                            let l = match rl {
                                Some(rl) => Some(Kd::Internal {
                                    dim: kdim,
                                    pos: kpos,
                                    left,
                                    right: Box::new(rl),
                                }),
                                None => Some(*left),
                            };
                            Ok((l, rr))
                        }
                        Ordering::Greater => {
                            let (ll, lr) =
                                self.cut_kd(*left, dim, pos, &region.clamp_above(d, kpos))?;
                            let r = match lr {
                                Some(lr) => Some(Kd::Internal {
                                    dim: kdim,
                                    pos: kpos,
                                    left: Box::new(lr),
                                    right,
                                }),
                                None => Some(*right),
                            };
                            Ok((ll, r))
                        }
                    }
                } else {
                    let kd_us = kdim as usize;
                    let (ll, lr) =
                        self.cut_kd(*left, dim, pos, &region.clamp_above(kd_us, kpos))?;
                    let (rl, rr) =
                        self.cut_kd(*right, dim, pos, &region.clamp_below(kd_us, kpos))?;
                    let combine = |a: Option<Kd>, b: Option<Kd>| -> Option<Kd> {
                        match (a, b) {
                            (Some(a), Some(b)) => Some(Kd::Internal {
                                dim: kdim,
                                pos: kpos,
                                left: Box::new(a),
                                right: Box::new(b),
                            }),
                            (Some(a), None) => Some(a),
                            (None, Some(b)) => Some(b),
                            (None, None) => None,
                        }
                    };
                    Ok((combine(ll, rl), combine(lr, rr)))
                }
            }
        }
    }

    /// Picks a hyperplane to split an overflowing index node: prefer an
    /// existing kd hyperplane with acceptable balance (no cascade there),
    /// otherwise the median of child-region midpoints along the region's
    /// max-extent dimension (cascading).
    fn choose_index_hyperplane(&self, kd: &Kd, region: &Rect) -> (u16, Coord) {
        let mut children = Vec::new();
        kd.children_with_regions(region, &mut children);
        let n = children.len();
        let mut planes = Vec::new();
        kd.hyperplanes(&mut planes);
        planes.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        planes.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

        let score = |dim: u16, pos: Coord| -> (f64, usize, usize, usize) {
            let d = dim as usize;
            let mut l = 0usize;
            let mut r = 0usize;
            let mut straddle = 0usize;
            for (_, cr) in &children {
                if cr.hi(d) <= pos {
                    l += 1;
                } else if cr.lo(d) >= pos {
                    r += 1;
                } else {
                    straddle += 1;
                }
            }
            let balance = (l.max(r) + straddle) as f64 / n as f64;
            (balance + straddle as f64 * 0.25, l, r, straddle)
        };

        let mut best: Option<(f64, u16, Coord)> = None;
        for &(dim, pos) in &planes {
            let (cost, l, r, straddle) = score(dim, pos);
            if l + straddle == 0 || r + straddle == 0 {
                continue; // a side would be empty
            }
            if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                best = Some((cost, dim, pos));
            }
        }
        // Median hyperplane as challenger (balanced but may cascade).
        let d = region.max_extent_dim();
        let mut mids: Vec<Coord> = children
            .iter()
            .map(|(_, r)| (r.lo(d) + r.hi(d)) * 0.5)
            .collect();
        mids.sort_by(Coord::total_cmp);
        let med = mids[n / 2];
        if med > region.lo(d) && med < region.hi(d) {
            let (cost, l, r, straddle) = score(d as u16, med);
            if (l + straddle > 0 && r + straddle > 0)
                && best.as_ref().is_none_or(|(c, ..)| cost < *c)
            {
                best = Some((cost, d as u16, med));
            }
        }
        best.map(|(_, dim, pos)| (dim, pos)).unwrap_or_else(|| {
            // Degenerate: everything identical. Cut at the region middle.
            let d = region.max_extent_dim();
            (d as u16, (region.lo(d) + region.hi(d)) * 0.5)
        })
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        region: &Rect,
        p: &Point,
        oid: u64,
    ) -> IndexResult<Option<(u16, Coord, PageId)>> {
        match self.read_node(pid)? {
            KdbNode::Data(mut entries) => {
                entries.push((p.clone(), oid));
                if entries.len() > self.data_cap {
                    // Median split along the max-extent dimension, done in
                    // memory (the oversized node never touches a page).
                    self.split_stats.total_splits += 1;
                    let pts: Vec<Point> = entries.iter().map(|(p, _)| p.clone()).collect();
                    let live = Rect::bounding(&pts);
                    let d = live.max_extent_dim();
                    entries.sort_by(|a, b| a.0.coord(d).total_cmp(&b.0.coord(d)));
                    let n = entries.len();
                    let mut pos = entries[n / 2].0.coord(d);
                    let mut left: Vec<(Point, u64)>;
                    let right: Vec<(Point, u64)>;
                    if entries[0].0.coord(d) < pos {
                        // Clean strict split at the median value.
                        let j = entries.partition_point(|(p, _)| p.coord(d) < pos);
                        left = entries;
                        let r = left.split_off(j);
                        right = r;
                    } else {
                        // Duplicate-heavy page: rank split at the shared
                        // value; closed regions keep queries correct.
                        pos = entries[n / 2].0.coord(d);
                        left = entries;
                        right = left.split_off(n / 2);
                    }
                    let new_pid = self.pool.allocate()?;
                    self.write_node(pid, &KdbNode::Data(left))?;
                    self.write_node(new_pid, &KdbNode::Data(right))?;
                    Ok(Some((d as u16, pos, new_pid)))
                } else {
                    self.write_node(pid, &KdbNode::Data(entries))?;
                    Ok(None)
                }
            }
            KdbNode::Index { level, mut kd } => {
                let child = kd.descend(p);
                // Compute the child's region for potential cascades.
                let mut kids = Vec::new();
                kd.children_with_regions(region, &mut kids);
                let child_region = kids
                    .iter()
                    .find(|(c, _)| *c == child)
                    .map(|(_, r)| r.clone())
                    .ok_or_else(|| IndexError::Internal("descend() child missing".into()))?;
                if let Some((sdim, spos, new_pid)) =
                    self.insert_rec(child, &child_region, p, oid)?
                {
                    let replaced = kd.replace_leaf(
                        child,
                        Kd::Internal {
                            dim: sdim,
                            pos: spos,
                            left: Box::new(Kd::Leaf(child)),
                            right: Box::new(Kd::Leaf(new_pid)),
                        },
                    );
                    debug_assert!(replaced);
                    let node = KdbNode::Index { level, kd };
                    if node.encoded_size(self.dim) > self.pool.page_size() {
                        let KdbNode::Index { level, kd } = node else {
                            unreachable!()
                        };
                        // Split in memory; straddling children cascade.
                        self.split_stats.total_splits += 1;
                        let (hdim, hpos) = self.choose_index_hyperplane(&kd, region);
                        let (lkd, rkd) = self.cut_kd(kd, hdim, hpos, region)?;
                        if lkd.is_none() || rkd.is_none() {
                            self.split_stats.empty_pages_created += 1;
                        }
                        let new_pid = self.pool.allocate()?;
                        let lkd = match lkd {
                            Some(k) => k,
                            None => self.empty_data_leaf()?,
                        };
                        let rkd = match rkd {
                            Some(k) => k,
                            None => self.empty_data_leaf()?,
                        };
                        self.write_node(pid, &KdbNode::Index { level, kd: lkd })?;
                        self.write_node(new_pid, &KdbNode::Index { level, kd: rkd })?;
                        Ok(Some((hdim, hpos, new_pid)))
                    } else {
                        self.write_node(pid, &node)?;
                        Ok(None)
                    }
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// [`NodeExpand`] adapter for the kDB-tree. Regions are not stored on
/// disk — each node's subspace is reconstructed from the split
/// hyperplanes on the way down, so the node reference carries the page
/// id together with its (clean, disjoint) region.
struct KdbExpand<'t, S: Storage> {
    tree: &'t KdbTree<S>,
}

impl<S: Storage> NodeExpand for KdbExpand<'_, S> {
    type Ref = (PageId, Rect);

    fn node_id(&self, r: &(PageId, Rect)) -> u64 {
        u64::from(r.0 .0)
    }

    fn roots(&self) -> Vec<(PageId, Rect)> {
        if self.tree.len == 0 {
            return Vec::new();
        }
        vec![(self.tree.root, self.tree.root_region())]
    }

    fn expand_box(
        &self,
        (pid, region): (PageId, Rect),
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        children: &mut Vec<(PageId, Rect)>,
    ) -> IndexResult<()> {
        match &self.tree.read_node_ctx(pid, io, ctx)? {
            KdbNode::Data(entries) => {
                out.extend(
                    entries
                        .iter()
                        .filter(|(p, _)| rect.contains_point(p))
                        .map(|(_, oid)| *oid),
                );
                Ok(())
            }
            KdbNode::Index { kd, .. } => {
                let mut kids = Vec::new();
                kd.children_with_regions(&region, &mut kids);
                children.extend(kids.into_iter().filter(|(_, creg)| creg.intersects(rect)));
                Ok(())
            }
        }
    }

    fn expand_near(
        &self,
        (pid, region): (PageId, Rect),
        nq: NearQuery<'_>,
        io: &mut IoStats,
        ctx: &QueryContext,
        sink: &mut dyn EntrySink,
        children: &mut Vec<Child<(PageId, Rect)>>,
    ) -> IndexResult<()> {
        match &self.tree.read_node_ctx(pid, io, ctx)? {
            KdbNode::Data(entries) => {
                for (p, oid) in entries {
                    sink.offer(*oid, p);
                }
                Ok(())
            }
            KdbNode::Index { kd, .. } => {
                let mut kids = Vec::new();
                kd.children_with_regions(&region, &mut kids);
                children.extend(kids.into_iter().map(|(child, creg)| Child {
                    bound: nq.metric.min_dist_rect_sq(nq.q, &creg),
                    provisional: false,
                    node: (child, creg),
                }));
                Ok(())
            }
        }
    }
}

impl<S: Storage> MultidimIndex for KdbTree<S> {
    fn name(&self) -> &'static str {
        "kdb-tree"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        check_dim(self.dim, point.dim())?;
        match &mut self.global_br {
            Some(r) => r.extend_to_point(&point),
            None => self.global_br = Some(Rect::from_point(&point)),
        }
        let region = self.root_region();
        if let Some((dim, pos, new_pid)) = self.insert_rec(self.root, &region, &point, oid)? {
            let new_root = self.pool.allocate()?;
            let kd = Kd::Internal {
                dim,
                pos,
                left: Box::new(Kd::Leaf(self.root)),
                right: Box::new(Kd::Leaf(new_pid)),
            };
            self.write_node(
                new_root,
                &KdbNode::Index {
                    level: self.height as u16,
                    kd,
                },
            )?;
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool> {
        check_dim(self.dim, point.dim())?;
        if self.len == 0 {
            return Ok(false);
        }
        // Visit every leaf whose (closed) region contains the point:
        // duplicate coordinates at a split value can sit on either side.
        let mut stack = vec![(self.root, self.root_region())];
        while let Some((pid, region)) = stack.pop() {
            match self.read_node(pid)? {
                KdbNode::Data(mut entries) => {
                    if let Some(i) = entries
                        .iter()
                        .position(|(p, o)| *o == oid && p.same_coords(point))
                    {
                        entries.swap_remove(i);
                        self.write_node(pid, &KdbNode::Data(entries))?;
                        self.len -= 1;
                        return Ok(true);
                    }
                }
                KdbNode::Index { kd, .. } => {
                    let mut kids = Vec::new();
                    kd.children_with_regions(&region, &mut kids);
                    for (child, creg) in kids {
                        if creg.contains_point(point) {
                            stack.push((child, creg));
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
        check_dim(self.dim, query.dim())?;
        hyt_exec::execute(KdbExpand { tree: self }, query, metric, ctx)
    }

    fn knn_stream<'a>(
        &'a self,
        q: &Point,
        metric: &'a dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<Box<dyn KnnStream + 'a>> {
        check_dim(self.dim, q.dim())?;
        Ok(Box::new(KnnCursor::new(
            KdbExpand { tree: self },
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
        let mut dims = std::collections::HashSet::new();
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid)? {
                KdbNode::Data(entries) => tally.data_node(DATA_HEADER_BYTES, entries.len()),
                KdbNode::Index { kd, .. } => {
                    tally.index_node(kd.fanout());
                    let mut ds = Vec::new();
                    kd.split_dims(&mut ds);
                    dims.extend(ds);
                    let mut kids = Vec::new();
                    kd.child_ids(&mut kids);
                    stack.extend(kids);
                }
            }
        }
        Ok(StructureStats {
            avg_overlap_fraction: 0.0, // clean splits by construction
            distinct_split_dims: dims.len(),
            ..tally.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::{L1, L2};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    const PAGE: usize = 256;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    fn build(pts: &[Point]) -> KdbTree {
        let mut t = KdbTree::new(pts[0].dim(), PAGE).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    #[test]
    fn box_query_matches_brute_force() {
        let pts = points(700, 3, 1);
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
    fn partitions_are_disjoint() {
        // Every point must reside in exactly one leaf (clean splits):
        // exact-match queries return exactly one copy of each oid.
        let pts = points(500, 2, 3);
        let t = build(&pts);
        for (i, p) in pts.iter().enumerate() {
            let hits = t.box_query(&Rect::from_point(p)).unwrap();
            assert_eq!(
                hits.iter().filter(|&&o| o == i as u64).count(),
                1,
                "point {i} found {} times",
                hits.iter().filter(|&&o| o == i as u64).count()
            );
        }
    }

    #[test]
    fn knn_and_distance_match_brute_force() {
        let pts = points(400, 4, 4);
        let t = build(&pts);
        let q = Point::new(vec![0.5; 4]);
        let got = t.knn(&q, 10, &L2).unwrap();
        let mut want: Vec<f64> = pts.iter().map(|p| L2.distance(&q, p)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (_, d)) in got.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-9);
        }
        let got = t.distance_range(&q, 0.5, &L1).unwrap();
        let wantn = pts.iter().filter(|p| L1.distance(&q, p) <= 0.5).count();
        assert_eq!(got.len(), wantn);
    }

    #[test]
    fn cascading_splits_happen_and_are_counted() {
        // Correlated, clustered data triggers unbalanced kd trees and
        // forces median hyperplanes with cascades.
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = KdbTree::new(4, PAGE).unwrap();
        let mut pts = Vec::new();
        for i in 0..2000u64 {
            let c = (i % 5) as f32 / 5.0;
            let p = Point::new((0..4).map(|_| c + rng.gen::<f32>() * 0.05).collect());
            t.insert(p.clone(), i).unwrap();
            pts.push(p);
        }
        let st = t.split_stats();
        assert!(st.total_splits > 0);
        // Verify correctness held through any cascades.
        let rect = Rect::new(vec![0.1; 4], vec![0.7; 4]);
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

    #[test]
    fn delete_removes_single_entry() {
        let pts = points(300, 2, 6);
        let mut t = build(&pts);
        assert!(t.delete(&pts[5], 5).unwrap());
        assert!(!t.delete(&pts[5], 5).unwrap());
        assert_eq!(t.len(), 299);
        let hits = t.box_query(&Rect::from_point(&pts[5])).unwrap();
        assert!(!hits.contains(&5));
    }

    #[test]
    fn utilization_is_not_guaranteed() {
        // The kDB-tree's documented weakness: after clustered inserts,
        // some pages may be nearly empty. We only assert the structure
        // reports utilization (possibly low) without failing.
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = KdbTree::new(2, PAGE).unwrap();
        for i in 0..1500u64 {
            // Two tight clusters plus a sprinkle of outliers.
            let p = if i % 10 == 0 {
                Point::new(vec![rng.gen(), rng.gen()])
            } else if i % 2 == 0 {
                Point::new(vec![0.1 + rng.gen::<f32>() * 0.01, 0.1])
            } else {
                Point::new(vec![0.9, 0.9 - rng.gen::<f32>() * 0.01])
            };
            t.insert(p, i).unwrap();
        }
        let st = t.structure_stats().unwrap();
        assert!(st.data_nodes > 2);
        assert!(st.avg_leaf_utilization > 0.0);
    }
}
