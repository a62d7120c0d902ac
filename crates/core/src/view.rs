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
//! Mutating operations (insert, delete, splits) still use the owned
//! [`KdTree`](crate::kdtree::KdTree)/[`Node`](crate::node::Node) forms.

// Page bytes are untrusted: a malformed page must come back `Corrupt`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::kdtree::{INTERNAL_BYTES, LEAF_BYTES};
use hyt_exec::NearQuery;
use hyt_geom::{Metric, Point, Rect};
use hyt_index::leaf::entry_bytes;
use hyt_page::{PageError, PageId, PageResult};

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;
const KD_LEAF: u8 = 0;
const KD_INTERNAL: u8 = 1;

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
                if buf.len() < 5 {
                    return Err(PageError::Corrupt("truncated data node".into()));
                }
                let count = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
                let need = 5 + count * entry_bytes(dim);
                if buf.len() < need {
                    return Err(PageError::Corrupt(format!(
                        "data node claims {count} entries but page has {} bytes",
                        buf.len()
                    )));
                }
                Ok(NodeView::Data(DataView {
                    entries: &buf[5..need],
                    count,
                    dim,
                }))
            }
            Some(&TAG_INDEX) => {
                if buf.len() < 3 {
                    return Err(PageError::Corrupt("truncated index node".into()));
                }
                Ok(NodeView::Index(KdView { buf: &buf[3..] }))
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

    /// Appends the oids of entries whose point equals `p` exactly.
    pub fn filter_point(&self, p: &Point, out: &mut Vec<u64>) {
        'entry: for i in 0..self.count {
            for d in 0..self.dim {
                if self.coord(i, d).to_bits() != p.coord(d).to_bits() {
                    continue 'entry;
                }
            }
            out.push(self.oid(i));
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

    /// Children on qualifying paths for an exact point probe.
    pub fn children_containing_point(&self, p: &Point, out: &mut Vec<PageId>) -> PageResult<()> {
        self.walk_point(0, p, out)
    }

    fn walk_point(&self, off: usize, p: &Point, out: &mut Vec<PageId>) -> PageResult<()> {
        match self.buf.get(off) {
            Some(&KD_LEAF) => {
                out.push(self.leaf_child(off)?);
                Ok(())
            }
            Some(&KD_INTERNAL) => {
                let (dim, lsp, rsp, left_off, right_off) = self.internal_header(off)?;
                if dim >= p.dim() {
                    return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                }
                let x = p.coord(dim);
                if x <= lsp {
                    self.walk_point(left_off, p, out)?;
                }
                if x >= rsp {
                    self.walk_point(right_off, p, out)?;
                }
                Ok(())
            }
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
        for p in [
            Point::new(vec![1.0, 2.5]),
            Point::new(vec![3.0, 5.0]),
            Point::new(vec![5.9, 0.1]),
        ] {
            let mut from_view = Vec::new();
            view.children_containing_point(&p, &mut from_view).unwrap();
            let mut from_tree = Vec::new();
            kd.children_containing_point_ids(&p, &mut from_tree);
            assert_eq!(from_view, from_tree, "point {p:?}");
        }
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
        out.clear();
        view.filter_point(&Point::new(vec![0.3, 0.5]), &mut out);
        assert_eq!(out, vec![3]);
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
