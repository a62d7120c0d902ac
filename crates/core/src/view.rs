//! Zero-copy node views: query-path navigation directly over page bytes.
//!
//! The paper credits the hybrid tree's low CPU cost to navigating an
//! index node's kd-tree instead of scanning an array of BRs (§3.1, §3.6).
//! Materializing the kd-tree on every visit would forfeit that: decoding
//! allocates `O(fanout)` boxed nodes even though a search touches only
//! the qualifying root-to-leaf paths. These views walk the *serialized*
//! preorder form in place — the internal-node header stores the byte
//! length of its left subtree, so skipping to the right child is O(1) —
//! and data-node filtering reads coordinates straight out of the page
//! with early exit on the first failing dimension.
//!
//! The write paths route over the same views. An insert descends each
//! index page with [`KdView::insert_path`] and appends to a data page with
//! room through [`DataView::appended`]; a delete finds its children with
//! [`KdView::children_containing_point`] and its entry with
//! [`DataView::position`]. Only a page a write rewrites (a split post,
//! a dead-space enlargement, a delete's underflow handling, a full or
//! shrinking data page) is decoded into the owned
//! [`KdTree`](crate::kdtree::KdTree)/[`Node`](crate::node::Node) forms.

use crate::kdtree::{INTERNAL_BYTES, LEAF_BYTES};
use crate::node::{DATA_HEADER_BYTES, INDEX_HEADER_BYTES};
use hyt_exec::NearQuery;
use hyt_geom::{Coord, Metric, Point, Rect};
use hyt_index::leaf::entry_bytes;
use hyt_page::{PageError, PageId, PageResult};

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;
const KD_LEAF: u8 = 0;
const KD_INTERNAL: u8 = 1;
/// Offsets of `lsp` and `rsp` within an internal kd node (after the tag
/// and the `u16` split dimension).
const LSP_AT: usize = 3;
const RSP_AT: usize = 7;

/// A parsed-but-not-decoded node.
pub enum NodeView<'a> {
    /// A data page: raw entry bytes plus entry count.
    Data(DataView<'a>),
    /// An index page: raw kd-tree bytes.
    Index(KdView<'a>),
}

impl<'a> NodeView<'a> {
    /// Classifies the page and wraps the payload.
    pub fn parse(buf: &'a [u8], dim: usize) -> PageResult<NodeView<'a>> {
        match buf.first() {
            Some(&TAG_DATA) => {
                if buf.len() < DATA_HEADER_BYTES {
                    return Err(PageError::Corrupt("truncated data node".into()));
                }
                let count = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
                let need = DATA_HEADER_BYTES + count * entry_bytes(dim);
                if buf.len() < need {
                    return Err(PageError::Corrupt(format!(
                        "data node claims {count} entries but page has {} bytes",
                        buf.len()
                    )));
                }
                Ok(NodeView::Data(DataView {
                    entries: &buf[DATA_HEADER_BYTES..need],
                    count,
                    dim,
                }))
            }
            Some(&TAG_INDEX) => {
                if buf.len() < INDEX_HEADER_BYTES {
                    return Err(PageError::Corrupt("truncated index node".into()));
                }
                Ok(NodeView::Index(KdView {
                    buf: &buf[INDEX_HEADER_BYTES..],
                }))
            }
            Some(&t) => Err(PageError::Corrupt(format!("bad node tag {t}"))),
            None => Err(PageError::Corrupt("empty page".into())),
        }
    }
}

/// Zero-copy access to a data node's entries.
pub struct DataView<'a> {
    entries: &'a [u8],
    count: usize,
    dim: usize,
}

impl<'a> DataView<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn coord(&self, entry: usize, d: usize) -> f32 {
        let off = entry * entry_bytes(self.dim) + 4 * d;
        let b = &self.entries[off..off + 4];
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    #[inline]
    fn oid(&self, entry: usize) -> u64 {
        let off = entry * entry_bytes(self.dim) + 4 * self.dim;
        let b = &self.entries[off..off + 8];
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Appends the oids of entries inside `rect`, reading coordinates in
    /// place with early exit on the first failing dimension.
    pub fn filter_box(&self, rect: &Rect, out: &mut Vec<u64>) {
        'entry: for i in 0..self.count {
            for d in 0..self.dim {
                let x = self.coord(i, d);
                if x < rect.lo(d) || x > rect.hi(d) {
                    continue 'entry;
                }
            }
            out.push(self.oid(i));
        }
    }

    /// Index of the first entry holding `oid` at `p`, coordinates
    /// compared as [`Point::same_coords`] compares them.
    pub(crate) fn position(&self, p: &Point, oid: u64) -> Option<usize> {
        (0..self.count)
            .find(|&i| self.oid(i) == oid && (0..self.dim).all(|d| self.coord(i, d) == p.coord(d)))
    }

    /// The page with `(p, oid)` appended: the bytes
    /// [`Node::encode`](crate::node::Node::encode) writes for these
    /// entries plus the new one. The entries are checked as
    /// [`leaf::decode`](hyt_index::leaf::decode) checks them, so a page
    /// holding a non-finite coordinate is `Corrupt` and never rewritten.
    pub(crate) fn appended(&self, p: &Point, oid: u64) -> PageResult<Vec<u8>> {
        let finite = (0..self.count).all(|i| (0..self.dim).all(|d| self.coord(i, d).is_finite()));
        if !finite {
            return Err(PageError::Corrupt(
                "data page holds a non-finite coordinate".into(),
            ));
        }
        let count = u32::try_from(self.count + 1)
            .map_err(|_| PageError::Corrupt("data page entry count overflows".into()))?;
        let mut page =
            Vec::with_capacity(DATA_HEADER_BYTES + self.entries.len() + entry_bytes(self.dim));
        page.push(TAG_DATA);
        page.extend_from_slice(&count.to_le_bytes());
        page.extend_from_slice(self.entries);
        for d in 0..self.dim {
            page.extend_from_slice(&p.coord(d).to_le_bytes());
        }
        page.extend_from_slice(&oid.to_le_bytes());
        Ok(page)
    }
}

/// Where an insert goes in one index page ([`KdView::insert_path`]).
#[derive(Debug)]
pub struct InsertPath {
    /// The chosen child page.
    pub child: PageId,
    /// The child's kd-region, after any enlargement.
    pub region: Rect,
    /// The split positions the descent enlarged, as (page byte offset,
    /// new value); empty when the path crossed no dead-space gap.
    pub enlarged: Vec<(usize, Coord)>,
}

impl InsertPath {
    /// Writes the enlargements into `page`, the bytes the path was
    /// computed from.
    pub fn patch(&self, page: &mut [u8]) {
        for &(off, pos) in &self.enlarged {
            page[off..off + 4].copy_from_slice(&pos.to_le_bytes());
        }
    }
}

/// Zero-copy navigation of a serialized kd-tree.
#[derive(Clone, Copy)]
pub struct KdView<'a> {
    buf: &'a [u8],
}

impl<'a> KdView<'a> {
    fn leaf_child(&self, off: usize) -> PageResult<PageId> {
        let s: &[u8; LEAF_BYTES - 1] = self
            .buf
            .get(off + 1..)
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| PageError::Corrupt("kd leaf out of bounds".into()))?;
        Ok(PageId(u32::from_le_bytes(*s)))
    }

    #[inline]
    fn internal_header(&self, off: usize) -> PageResult<(usize, f32, f32, usize, usize)> {
        let s: &[u8; INTERNAL_BYTES - 1] = self
            .buf
            .get(off + 1..)
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| PageError::Corrupt("kd internal out of bounds".into()))?;
        let dim = u16::from_le_bytes([s[0], s[1]]) as usize;
        let lsp = f32::from_le_bytes([s[2], s[3], s[4], s[5]]);
        let rsp = f32::from_le_bytes([s[6], s[7], s[8], s[9]]);
        let left_len = u16::from_le_bytes([s[10], s[11]]) as usize;
        if lsp.is_nan() || rsp.is_nan() {
            return Err(PageError::Corrupt("kd split position is NaN".into()));
        }
        let left_off = off + INTERNAL_BYTES;
        let right_off = left_off + left_len;
        Ok((dim, lsp, rsp, left_off, right_off))
    }

    /// Children on qualifying paths for a box query.
    pub fn children_overlapping_box(&self, query: &Rect, out: &mut Vec<PageId>) -> PageResult<()> {
        self.walk_box(0, query, out)
    }

    fn walk_box(&self, off: usize, query: &Rect, out: &mut Vec<PageId>) -> PageResult<()> {
        match self.buf.get(off) {
            Some(&KD_LEAF) => {
                out.push(self.leaf_child(off)?);
                Ok(())
            }
            Some(&KD_INTERNAL) => {
                let (dim, lsp, rsp, left_off, right_off) = self.internal_header(off)?;
                if dim >= query.dim() {
                    return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                }
                if query.lo(dim) <= lsp {
                    self.walk_box(left_off, query, out)?;
                }
                if query.hi(dim) >= rsp {
                    self.walk_box(right_off, query, out)?;
                }
                Ok(())
            }
            Some(&t) => Err(PageError::Corrupt(format!("bad kd tag {t}"))),
            None => Err(PageError::Corrupt("kd walk out of bounds".into())),
        }
    }

    /// Children that may hold an entry within `nq.bound` of `nq.q`, in kd
    /// order, for a distance query. With `region` (the node's own
    /// kd-region, ELS disabled) each child comes with its kd-region, as
    /// [`KdTree::children_with_regions`](crate::kdtree::KdTree::children_with_regions)
    /// computes it; without, with `None`.
    ///
    /// The walk tests each split plane against the bound (paper §3.1
    /// applied to distance search): the left subtree of a split on `d`
    /// lies in `x_d <= lsp` and the right in `x_d >= rsp`, so the gap
    /// between `q_d` and that half-space lower-bounds the distance along
    /// `d` of everything beneath — whether the split overlaps or not.
    /// Per-dimension gaps are carried down the path and their
    /// [`Metric::axis_gap_sq`](hyt_geom::Metric::axis_gap_sq) terms
    /// summed; a subtree is skipped once the sum exceeds the bound,
    /// relaxed by one part in 10^12 (as
    /// [`range_bound_sq`](hyt_geom::range_bound_sq) relaxes a radius) so
    /// rounding in the sum can never skip a child the kernel would keep.
    /// A NaN gap never skips, a metric without the hook never prunes,
    /// and an infinite bound yields every child.
    ///
    /// Each child is emitted with its path's sum, which lower-bounds its
    /// distance up to that rounding, whatever the bound: kNN keys children
    /// by it before a bound exists. The sum is `0.0` for a metric without
    /// the hook.
    pub fn children_near(
        &self,
        nq: NearQuery<'_>,
        region: Option<&Rect>,
        emit: &mut impl FnMut(PageId, Option<&Rect>, f64),
    ) -> PageResult<()> {
        let walk = NearWalk {
            view: *self,
            q: nq.q,
            metric: nq.metric,
            limit: nq.bound * (1.0 + 1e-12),
        };
        walk.visit(0, region, 0.0, None, emit)
    }

    /// Children whose kd-region contains `p`, in kd order (exact-match
    /// search and deletion; overlap means there can be several). With
    /// `region`, the node's own kd-region, each child comes with its
    /// kd-region, as [`KdTree::children_containing_point`](crate::kdtree::KdTree::children_containing_point)
    /// computes it; without, with `None`.
    pub fn children_containing_point(
        &self,
        p: &Point,
        region: Option<&Rect>,
        emit: &mut impl FnMut(PageId, Option<&Rect>),
    ) -> PageResult<()> {
        self.walk_point(0, p, region, emit)
    }

    fn walk_point(
        &self,
        off: usize,
        p: &Point,
        region: Option<&Rect>,
        emit: &mut impl FnMut(PageId, Option<&Rect>),
    ) -> PageResult<()> {
        match self.buf.get(off) {
            Some(&KD_LEAF) => {
                emit(self.leaf_child(off)?, region);
                Ok(())
            }
            Some(&KD_INTERNAL) => {
                let (dim, lsp, rsp, left_off, right_off) = self.internal_header(off)?;
                if dim >= p.dim() {
                    return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                }
                let x = p.coord(dim);
                if x <= lsp {
                    let left = region.map(|r| r.clamp_above(dim, lsp));
                    self.walk_point(left_off, p, left.as_ref(), emit)?;
                }
                if x >= rsp {
                    let right = region.map(|r| r.clamp_below(dim, rsp));
                    self.walk_point(right_off, p, right.as_ref(), emit)?;
                }
                Ok(())
            }
            Some(&t) => Err(PageError::Corrupt(format!("bad kd tag {t}"))),
            None => Err(PageError::Corrupt("kd walk out of bounds".into())),
        }
    }

    /// Greedy single-path descent for insertion (paper §3.5: pick the
    /// child needing minimum enlargement; the kd organization makes the
    /// choice per split rather than over the whole child array). At each
    /// split, with `p` at `x` on its dimension:
    ///
    /// * contained on exactly one side → that side (no enlargement);
    /// * contained on both (overlap zone) → the side where the point lies
    ///   deeper inside;
    /// * contained on neither (dead-space gap) → the side needing the
    ///   smaller boundary enlargement, moving that boundary to `x`.
    ///
    /// `region` is the node's kd-region; the returned region is the
    /// child's, under the enlarged boundaries. Nothing is written: the
    /// enlargements come back as byte offsets into the page, for the
    /// caller to patch into the copy it rewrites.
    pub fn insert_path(&self, region: &Rect, p: &Point) -> PageResult<InsertPath> {
        let mut off = 0;
        let mut region = region.clone();
        let mut enlarged = Vec::new();
        loop {
            match self.buf.get(off) {
                Some(&KD_LEAF) => {
                    return Ok(InsertPath {
                        child: self.leaf_child(off)?,
                        region,
                        enlarged,
                    })
                }
                Some(&KD_INTERNAL) => {
                    let (dim, mut lsp, mut rsp, left_off, right_off) = self.internal_header(off)?;
                    if dim >= p.dim() {
                        return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                    }
                    let x = p.coord(dim);
                    let go_left = match (x <= lsp, x >= rsp) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => (lsp - x) >= (x - rsp),
                        // Dead-space gap (lsp < x < rsp): enlarge the
                        // nearer boundary.
                        (false, false) if (x - lsp) <= (rsp - x) => {
                            lsp = x;
                            enlarged.push((INDEX_HEADER_BYTES + off + LSP_AT, x));
                            true
                        }
                        (false, false) => {
                            rsp = x;
                            enlarged.push((INDEX_HEADER_BYTES + off + RSP_AT, x));
                            false
                        }
                    };
                    (off, region) = if go_left {
                        (left_off, region.clamp_above(dim, lsp))
                    } else {
                        (right_off, region.clamp_below(dim, rsp))
                    };
                }
                Some(&t) => return Err(PageError::Corrupt(format!("bad kd tag {t}"))),
                None => return Err(PageError::Corrupt("kd walk out of bounds".into())),
            }
        }
    }

    /// The only child of a kd-tree that is a single leaf, or `None` when
    /// the tree splits: read from the first tag alone.
    pub(crate) fn sole_child(&self) -> PageResult<Option<PageId>> {
        match self.buf.first() {
            Some(&KD_LEAF) => self.leaf_child(0).map(Some),
            Some(&KD_INTERNAL) => Ok(None),
            Some(&t) => Err(PageError::Corrupt(format!("bad kd tag {t}"))),
            None => Err(PageError::Corrupt("kd walk out of bounds".into())),
        }
    }
}

/// The gap one kd split on the current path imposes in its dimension,
/// with the metric term it contributes, linked to the split above it.
/// Gaps only widen down a path, so the nearest link on a dimension holds
/// that dimension's current gap. The chain lives on the walk's call
/// stack: pruning allocates nothing.
struct PathGap<'p> {
    dim: usize,
    gap: f64,
    term: f64,
    up: Option<&'p PathGap<'p>>,
}

/// Current `(gap, term)` of `dim` on the path ending at `link`.
fn path_gap(mut link: Option<&PathGap<'_>>, dim: usize) -> (f64, f64) {
    while let Some(g) = link {
        if g.dim == dim {
            return (g.gap, g.term);
        }
        link = g.up;
    }
    (0.0, 0.0)
}

/// One [`KdView::children_near`] walk. `limit` is the relaxed prune
/// bound, infinite when nothing can be pruned.
struct NearWalk<'a, 'q> {
    view: KdView<'a>,
    q: &'q Point,
    metric: &'q dyn Metric,
    limit: f64,
}

/// One side of a kd split: `x_dim <= pos` when `below`, else
/// `x_dim >= pos`.
#[derive(Clone, Copy)]
struct HalfSpace {
    dim: usize,
    pos: f32,
    below: bool,
}

impl NearWalk<'_, '_> {
    /// Emits the children of the kd subtree at `off`; `sum` is the
    /// summed gap terms of `path`.
    fn visit(
        &self,
        off: usize,
        region: Option<&Rect>,
        sum: f64,
        path: Option<&PathGap<'_>>,
        emit: &mut impl FnMut(PageId, Option<&Rect>, f64),
    ) -> PageResult<()> {
        match self.view.buf.get(off) {
            Some(&KD_LEAF) => {
                emit(self.view.leaf_child(off)?, region, sum);
                Ok(())
            }
            Some(&KD_INTERNAL) => {
                let (dim, lsp, rsp, left_off, right_off) = self.view.internal_header(off)?;
                if dim >= self.q.dim() {
                    return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                }
                let (left, right) = (
                    HalfSpace {
                        dim,
                        pos: lsp,
                        below: true,
                    },
                    HalfSpace {
                        dim,
                        pos: rsp,
                        below: false,
                    },
                );
                self.side(left_off, left, region, sum, path, emit)?;
                self.side(right_off, right, region, sum, path, emit)
            }
            Some(&t) => Err(PageError::Corrupt(format!("bad kd tag {t}"))),
            None => Err(PageError::Corrupt("kd walk out of bounds".into())),
        }
    }

    /// Enters the subtree at `off`, which lies in `half` within the
    /// parent's `region`, unless the gap to `half` lifts the summed terms
    /// past the limit.
    fn side(
        &self,
        off: usize,
        half: HalfSpace,
        region: Option<&Rect>,
        mut sum: f64,
        path: Option<&PathGap<'_>>,
        emit: &mut impl FnMut(PageId, Option<&Rect>, f64),
    ) -> PageResult<()> {
        let HalfSpace { dim, pos, below } = half;
        let mut link = None;
        let x = f64::from(self.q.coord(dim));
        let gap = if below {
            x - f64::from(pos)
        } else {
            f64::from(pos) - x
        };
        let (old_gap, old_term) = path_gap(path, dim);
        // `>` is false for a NaN gap: a NaN split position never skips.
        if gap > old_gap {
            if let Some(term) = self.metric.axis_gap_sq(dim, gap) {
                sum = sum - old_term + term;
                if sum > self.limit {
                    return Ok(());
                }
                link = Some(PathGap {
                    dim,
                    gap,
                    term,
                    up: path,
                });
            }
        }
        let region = region.map(|r| {
            if below {
                r.clamp_above(dim, pos)
            } else {
                r.clamp_below(dim, pos)
            }
        });
        self.visit(off, region.as_ref(), sum, link.as_ref().or(path), emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use crate::node::{DataEntry, Node};

    fn paper_kd() -> KdTree {
        KdTree::split(
            0,
            3.0,
            3.0,
            KdTree::split(
                1,
                3.0,
                2.0,
                KdTree::leaf(PageId(10)),
                KdTree::leaf(PageId(11)),
            ),
            KdTree::split(
                1,
                4.0,
                4.0,
                KdTree::leaf(PageId(12)),
                KdTree::leaf(PageId(13)),
            ),
        )
    }

    #[test]
    fn view_box_walk_matches_decoded_walk() {
        let kd = paper_kd();
        let node = Node::Index {
            level: 1,
            kd: kd.clone(),
        };
        let buf = node.encode(2);
        let NodeView::Index(view) = NodeView::parse(&buf, 2).unwrap() else {
            panic!("expected index view");
        };
        for query in [
            Rect::new(vec![3.5, 0.0], vec![5.0, 6.0]),
            Rect::new(vec![0.0, 2.2], vec![1.0, 2.8]),
            Rect::new(vec![0.0, 0.0], vec![6.0, 6.0]),
            Rect::new(vec![2.9, 3.9], vec![3.1, 4.1]),
        ] {
            let mut from_view = Vec::new();
            view.children_overlapping_box(&query, &mut from_view)
                .unwrap();
            let mut from_tree = Vec::new();
            kd.children_overlapping_box_ids(&query, &mut from_tree);
            assert_eq!(from_view, from_tree, "query {query:?}");
        }
    }

    #[test]
    fn view_point_walk_matches_decoded_walk() {
        let kd = paper_kd();
        let buf = Node::Index {
            level: 1,
            kd: kd.clone(),
        }
        .encode(2);
        let NodeView::Index(view) = NodeView::parse(&buf, 2).unwrap() else {
            panic!()
        };
        let space = Rect::new(vec![0.0, 0.0], vec![6.0, 6.0]);
        for p in [
            Point::new(vec![1.0, 2.5]),
            Point::new(vec![3.0, 5.0]),
            Point::new(vec![5.9, 0.1]),
        ] {
            let mut from_view = Vec::new();
            view.children_containing_point(&p, Some(&space), &mut |c, r| {
                from_view.push((c, r.unwrap().clone()))
            })
            .unwrap();
            assert_eq!(
                from_view,
                kd.children_containing_point(&space, &p),
                "point {p:?}"
            );
        }
    }

    /// The path an insert of `p` takes through `kd`'s page from `region`,
    /// and the page with the path's enlargements patched in.
    fn descend(kd: &KdTree, region: &Rect, p: &Point) -> (InsertPath, Vec<u8>) {
        let mut buf = Node::Index {
            level: 1,
            kd: kd.clone(),
        }
        .encode(2);
        let NodeView::Index(view) = NodeView::parse(&buf, 2).unwrap() else {
            panic!("expected index view");
        };
        let path = view.insert_path(region, p).unwrap();
        path.patch(&mut buf);
        (path, buf)
    }

    #[test]
    fn insert_descent_prefers_containment() {
        let space = Rect::new(vec![0.0, 0.0], vec![6.0, 6.0]);
        let (path, _) = descend(&paper_kd(), &space, &Point::new(vec![1.0, 1.0]));
        assert_eq!(path.child, PageId(10));
        assert!(path.enlarged.is_empty());
        // Overlap zone: deeper inside 10 (distance to lsp=3 larger than to rsp=2).
        let (path, _) = descend(&paper_kd(), &space, &Point::new(vec![1.0, 2.1]));
        assert_eq!(path.child, PageId(10));
        assert!(path.enlarged.is_empty());
        assert_eq!(path.region, Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]));
    }

    #[test]
    fn insert_descent_enlarges_in_gap() {
        // Clean split with a gap: left covers x<=2, right covers x>=4.
        let gap = |lsp| {
            KdTree::split(
                0,
                lsp,
                4.0,
                KdTree::leaf(PageId(1)),
                KdTree::leaf(PageId(2)),
            )
        };
        let space = Rect::new(vec![0.0, 0.0], vec![6.0, 6.0]);
        let p = Point::new(vec![2.5, 0.0]);
        let (path, page) = descend(&gap(2.0), &space, &p);
        assert_eq!(path.child, PageId(1), "closer to the left boundary");
        assert_eq!(path.enlarged.len(), 1);
        // The returned region covers the point.
        assert!(path.region.contains_point(&p));
        // The patch moves the left boundary to the point, and nothing else.
        let enlarged = Node::Index {
            level: 1,
            kd: gap(2.5),
        };
        assert_eq!(Node::decode(&page, 2).unwrap(), enlarged);
        assert_eq!(page, enlarged.encode(2));
    }

    #[test]
    fn data_view_appends_what_encode_writes() {
        let entry = |i: u64| DataEntry {
            point: Point::new(vec![i as f32 / 10.0, 0.5]),
            oid: i,
        };
        let buf = Node::Data((0..3).map(entry).collect()).encode(2);
        let NodeView::Data(view) = NodeView::parse(&buf, 2).unwrap() else {
            panic!()
        };
        assert_eq!(view.position(&entry(1).point, 1), Some(1));
        assert_eq!(view.position(&entry(1).point, 2), None);
        let appended = view.appended(&entry(3).point, 3).unwrap();
        assert_eq!(appended, Node::Data((0..4).map(entry).collect()).encode(2));
    }

    #[test]
    fn data_view_filters_in_place() {
        let entries: Vec<DataEntry> = (0..10)
            .map(|i| DataEntry {
                point: Point::new(vec![i as f32 / 10.0, 0.5]),
                oid: i,
            })
            .collect();
        let buf = Node::Data(entries).encode(2);
        let NodeView::Data(view) = NodeView::parse(&buf, 2).unwrap() else {
            panic!()
        };
        assert_eq!(view.len(), 10);
        let mut out = Vec::new();
        view.filter_box(&Rect::new(vec![0.25, 0.0], vec![0.65, 1.0]), &mut out);
        assert_eq!(out, vec![3, 4, 5, 6]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(NodeView::parse(&[], 2).is_err());
        assert!(NodeView::parse(&[9, 0, 0], 2).is_err());
        // Data node claiming more entries than the page holds.
        let mut buf = vec![0u8; 5];
        buf[1..5].copy_from_slice(&1000u32.to_le_bytes());
        assert!(NodeView::parse(&buf, 2).is_err());
    }

    #[test]
    fn empty_data_view() {
        let buf = Node::Data(vec![]).encode(3);
        let NodeView::Data(view) = NodeView::parse(&buf, 3).unwrap() else {
            panic!()
        };
        assert!(view.is_empty());
        let mut out = Vec::new();
        view.filter_box(&Rect::unit(3), &mut out);
        assert!(out.is_empty());
    }
}
