//! The modified kd-tree that organizes space partitioning *within* a
//! hybrid tree index node (§3.1 of the paper).
//!
//! Each internal kd node stores the split dimension and **two** split
//! positions: `lsp`, the right (upper) boundary of the left partition, and
//! `rsp`, the left (lower) boundary of the right partition. `lsp <= rsp`
//! represents disjoint partitions (a regular kd split, possibly with a
//! dead-space gap); `lsp > rsp` represents *overlapping* partitions — the
//! hybrid tree's relaxation that avoids the kDB-tree's cascading splits.
//!
//! The kd leaves are the children of the index node (pages one level
//! down). The paper's "logical mapping to an array of BRs" is implemented
//! by threading a region (`Rect`) through traversals: the left child of an
//! internal node with region `R` has region `R ∩ {x_d <= lsp}` and the
//! right child `R ∩ {x_d >= rsp}`.

use hyt_geom::{Coord, Point, Rect};
use hyt_page::{ByteReader, ByteWriter, PageError, PageId, PageResult};

/// Tag bytes in the serialized form.
const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Encoded size of a leaf (tag + page id).
pub const LEAF_BYTES: usize = 1 + 4;
/// Encoded size of an internal node header (tag + dim + lsp + rsp +
/// left-subtree byte length). The length field lets searches skip the
/// left subtree in O(1) and navigate the serialized form *in place* —
/// the paper's fast intra-node search, without materializing the tree.
pub const INTERNAL_BYTES: usize = 1 + 2 + 4 + 4 + 2;

/// The intra-node kd-tree of a hybrid tree index node.
#[derive(Clone, Debug, PartialEq)]
pub enum KdTree {
    /// Points at a child page one level below.
    Leaf {
        /// The child page.
        child: PageId,
    },
    /// A single-dimension split with two split positions.
    Internal {
        /// Split dimension.
        dim: u16,
        /// Right boundary of the left partition.
        lsp: Coord,
        /// Left boundary of the right partition.
        rsp: Coord,
        /// Subtree for `x_dim <= lsp`.
        left: Box<KdTree>,
        /// Subtree for `x_dim >= rsp`.
        right: Box<KdTree>,
    },
}

impl KdTree {
    /// A kd-tree with a single child.
    pub fn leaf(child: PageId) -> Self {
        KdTree::Leaf { child }
    }

    /// A single split over two children.
    pub fn split(dim: u16, lsp: Coord, rsp: Coord, left: KdTree, right: KdTree) -> Self {
        KdTree::Internal {
            dim,
            lsp,
            rsp,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Number of children (kd leaves) — the index node's fanout.
    pub fn fanout(&self) -> usize {
        match self {
            KdTree::Leaf { .. } => 1,
            KdTree::Internal { left, right, .. } => left.fanout() + right.fanout(),
        }
    }

    /// Maximum depth of the kd-tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            KdTree::Leaf { .. } => 1,
            KdTree::Internal { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_size(&self) -> usize {
        match self {
            KdTree::Leaf { .. } => LEAF_BYTES,
            KdTree::Internal { left, right, .. } => {
                INTERNAL_BYTES + left.encoded_size() + right.encoded_size()
            }
        }
    }

    /// Serializes the tree in preorder.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            KdTree::Leaf { child } => {
                w.put_u8(TAG_LEAF);
                w.put_u32(child.0);
            }
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => {
                w.put_u8(TAG_INTERNAL);
                w.put_u16(*dim);
                w.put_f32(*lsp);
                w.put_f32(*rsp);
                let left_len = left.encoded_size();
                debug_assert!(left_len <= u16::MAX as usize, "kd subtree exceeds u16");
                w.put_u16(left_len as u16);
                left.encode(w);
                right.encode(w);
            }
        }
    }

    /// Parses a tree serialized by [`encode`](Self::encode) for a
    /// `dims`-dimensional space; a split on a dimension past it is
    /// `Corrupt`.
    pub fn decode(r: &mut ByteReader<'_>, dims: usize) -> PageResult<Self> {
        match r.get_u8()? {
            TAG_LEAF => Ok(KdTree::Leaf {
                child: PageId(r.get_u32()?),
            }),
            TAG_INTERNAL => {
                let dim = r.get_u16()?;
                if usize::from(dim) >= dims {
                    return Err(PageError::Corrupt(format!("kd dim {dim} out of range")));
                }
                let lsp = r.get_f32()?;
                let rsp = r.get_f32()?;
                // ±∞ is a legal position (splits fold from it); NaN is not.
                if lsp.is_nan() || rsp.is_nan() {
                    return Err(PageError::Corrupt("kd split position is NaN".into()));
                }
                // The in-place views skip the left subtree by this length,
                // so a page whose length disagrees with its bytes would
                // route them elsewhere than the decoded tree.
                let left_len = usize::from(r.get_u16()?);
                let start = r.position();
                let left = Box::new(KdTree::decode(r, dims)?);
                if r.position() - start != left_len {
                    return Err(PageError::Corrupt(format!(
                        "kd left subtree is {} bytes, header says {left_len}",
                        r.position() - start
                    )));
                }
                let right = Box::new(KdTree::decode(r, dims)?);
                Ok(KdTree::Internal {
                    dim,
                    lsp,
                    rsp,
                    left,
                    right,
                })
            }
            t => Err(PageError::Corrupt(format!("bad kd-tree tag {t}"))),
        }
    }

    /// All children with their kd-regions, given the node's region
    /// (the paper's logical "array of BRs" mapping).
    pub fn children_with_regions(&self, region: &Rect) -> Vec<(PageId, Rect)> {
        let mut out = Vec::with_capacity(self.fanout());
        self.collect_children(region, &mut out);
        out
    }

    fn collect_children(&self, region: &Rect, out: &mut Vec<(PageId, Rect)>) {
        match self {
            KdTree::Leaf { child } => out.push((*child, region.clone())),
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => {
                let d = *dim as usize;
                left.collect_children(&region.clamp_above(d, *lsp), out);
                right.collect_children(&region.clamp_below(d, *rsp), out);
            }
        }
    }

    /// Children whose kd-region intersects the query box, using the
    /// kd-tree for sub-linear intra-node search.
    pub fn children_overlapping_box(&self, region: &Rect, query: &Rect) -> Vec<(PageId, Rect)> {
        let mut out = Vec::new();
        self.collect_box(region, query, &mut out);
        out
    }

    fn collect_box(&self, region: &Rect, query: &Rect, out: &mut Vec<(PageId, Rect)>) {
        match self {
            KdTree::Leaf { child } => out.push((*child, region.clone())),
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => {
                let d = *dim as usize;
                if query.lo(d) <= *lsp {
                    left.collect_box(&region.clamp_above(d, *lsp), query, out);
                }
                if query.hi(d) >= *rsp {
                    right.collect_box(&region.clamp_below(d, *rsp), query, out);
                }
            }
        }
    }

    /// Children whose kd-region intersects the query box, *without*
    /// materializing regions — the hot path for box queries (regions are
    /// only needed when ELS pruning is disabled or for distance bounds).
    pub fn children_overlapping_box_ids(&self, query: &Rect, out: &mut Vec<PageId>) {
        match self {
            KdTree::Leaf { child } => out.push(*child),
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => {
                let d = *dim as usize;
                if query.lo(d) <= *lsp {
                    left.children_overlapping_box_ids(query, out);
                }
                if query.hi(d) >= *rsp {
                    right.children_overlapping_box_ids(query, out);
                }
            }
        }
    }

    /// Children whose kd-region contains the point (used by exact-match
    /// search and deletion; overlap means there can be several).
    pub fn children_containing_point(&self, region: &Rect, p: &Point) -> Vec<(PageId, Rect)> {
        let mut out = Vec::new();
        self.collect_point(region, p, &mut out);
        out
    }

    fn collect_point(&self, region: &Rect, p: &Point, out: &mut Vec<(PageId, Rect)>) {
        match self {
            KdTree::Leaf { child } => out.push((*child, region.clone())),
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => {
                let d = *dim as usize;
                let x = p.coord(d);
                if x <= *lsp {
                    left.collect_point(&region.clamp_above(d, *lsp), p, out);
                }
                if x >= *rsp {
                    right.collect_point(&region.clamp_below(d, *rsp), p, out);
                }
            }
        }
    }

    /// Replaces the (unique) leaf pointing at `child` with `replacement`;
    /// returns whether the leaf was found. Used to post a child split into
    /// its parent.
    pub fn replace_leaf(&mut self, child: PageId, replacement: KdTree) -> bool {
        match self {
            KdTree::Leaf { child: c } if *c == child => {
                *self = replacement;
                true
            }
            KdTree::Leaf { .. } => false,
            KdTree::Internal { left, right, .. } => {
                left.replace_leaf(child, replacement.clone())
                    || right.replace_leaf(child, replacement)
            }
        }
    }

    /// Removes the (unique) leaf pointing at `child`, replacing its parent
    /// kd split with the sibling subtree. Returns `false` when the leaf is
    /// absent or is the root of the kd-tree (a one-child node cannot shed
    /// its only child here; the tree layer handles that case).
    pub fn remove_leaf(&mut self, child: PageId) -> bool {
        match self {
            KdTree::Leaf { .. } => false,
            KdTree::Internal { left, right, .. } => {
                if matches!(**left, KdTree::Leaf { child: c } if c == child) {
                    *self = (**right).clone();
                    return true;
                }
                if matches!(**right, KdTree::Leaf { child: c } if c == child) {
                    *self = (**left).clone();
                    return true;
                }
                left.remove_leaf(child) || right.remove_leaf(child)
            }
        }
    }

    /// All child page ids (kd leaves), left to right.
    pub fn child_ids(&self) -> Vec<PageId> {
        match self {
            KdTree::Leaf { child } => vec![*child],
            KdTree::Internal { left, right, .. } => {
                let mut v = left.child_ids();
                v.extend(right.child_ids());
                v
            }
        }
    }

    /// Restricts the kd-tree to the children in `keep`: leaves outside
    /// the set are removed and unary internal nodes collapse away.
    /// Returns `None` when nothing remains.
    ///
    /// This is how an index-node split divides its kd-tree between the
    /// two new nodes: the bipartition assigns whole children to sides and
    /// each side keeps the (pruned) original structure, so no new overlap
    /// is introduced beyond the split itself. Collapsing only loosens
    /// child regions, so containment of the data beneath is preserved.
    pub fn restricted_to(&self, keep: &std::collections::HashSet<PageId>) -> Option<KdTree> {
        match self {
            KdTree::Leaf { child } => keep
                .contains(child)
                .then_some(KdTree::Leaf { child: *child }),
            KdTree::Internal {
                dim,
                lsp,
                rsp,
                left,
                right,
            } => match (left.restricted_to(keep), right.restricted_to(keep)) {
                (Some(l), Some(r)) => Some(KdTree::split(*dim, *lsp, *rsp, l, r)),
                (Some(l), None) => Some(l),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            },
        }
    }

    /// Distinct dimensions used by splits in this kd-tree — the candidate
    /// set for index-node split dimensions (Lemma 1, implicit
    /// dimensionality reduction).
    pub fn split_dims(&self) -> Vec<u16> {
        let mut dims = Vec::new();
        self.collect_dims(&mut dims);
        dims.sort_unstable();
        dims.dedup();
        dims
    }

    fn collect_dims(&self, out: &mut Vec<u16>) {
        if let KdTree::Internal {
            dim, left, right, ..
        } = self
        {
            out.push(*dim);
            left.collect_dims(out);
            right.collect_dims(out);
        }
    }

    /// Visits every internal kd node with its sub-region, for structural
    /// statistics (overlap fractions etc.).
    pub fn visit_internal<F: FnMut(u16, Coord, Coord, &Rect)>(&self, region: &Rect, f: &mut F) {
        if let KdTree::Internal {
            dim,
            lsp,
            rsp,
            left,
            right,
        } = self
        {
            f(*dim, *lsp, *rsp, region);
            let d = *dim as usize;
            left.visit_internal(&region.clamp_above(d, *lsp), f);
            right.visit_internal(&region.clamp_below(d, *rsp), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kd-tree of node N1 from the paper's Figure 1:
    /// dim 1 split at 3/3; left side splits dim 2 at 3/2 (overlapping);
    /// right side splits dim 2 at 4/4.
    fn paper_figure1_top() -> KdTree {
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

    fn space() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![6.0, 6.0])
    }

    #[test]
    fn fanout_and_depth() {
        let t = paper_figure1_top();
        assert_eq!(t.fanout(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(KdTree::leaf(PageId(1)).fanout(), 1);
    }

    #[test]
    fn regions_follow_paper_mapping() {
        let t = paper_figure1_top();
        let kids = t.children_with_regions(&space());
        assert_eq!(kids.len(), 4);
        // Left-bottom: [0,3] x [0,3].
        assert_eq!(kids[0].0, PageId(10));
        assert_eq!(kids[0].1, Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]));
        // Left-top overlaps: y >= 2 (rsp = 2): [0,3] x [2,6].
        assert_eq!(kids[1].1, Rect::new(vec![0.0, 2.0], vec![3.0, 6.0]));
        // Overlap between siblings 10 and 11 is y in [2,3].
        assert!(kids[0].1.intersects(&kids[1].1));
        // Right side is clean: [3,6] x [0,4] and [3,6] x [4,6].
        assert_eq!(kids[2].1, Rect::new(vec![3.0, 0.0], vec![6.0, 4.0]));
        assert_eq!(kids[3].1, Rect::new(vec![3.0, 4.0], vec![6.0, 6.0]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = paper_figure1_top();
        let mut w = ByteWriter::new();
        t.encode(&mut w);
        let buf = w.into_inner();
        assert_eq!(buf.len(), t.encoded_size());
        let got = KdTree::decode(&mut ByteReader::new(&buf), 2).unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn decode_rejects_garbage() {
        let split = |dim, lsp, rsp| {
            let mut w = ByteWriter::new();
            KdTree::split(
                dim,
                lsp,
                rsp,
                KdTree::leaf(PageId(1)),
                KdTree::leaf(PageId(2)),
            )
            .encode(&mut w);
            w.into_inner()
        };
        // A left-subtree length that disagrees with the left subtree.
        let mut bad_len = split(0, 0.5, 0.5);
        bad_len[11] += 1;
        for buf in [
            vec![9u8, 0, 0, 0, 0],
            split(0, f32::NAN, 0.5),
            split(0, 0.5, f32::NAN),
            split(2, 0.5, 0.5),
            bad_len,
        ] {
            assert!(KdTree::decode(&mut ByteReader::new(&buf), 2).is_err());
        }
    }

    #[test]
    fn encoded_size_formula() {
        // fanout F costs (F-1) internals + F leaves.
        let t = paper_figure1_top();
        assert_eq!(t.encoded_size(), 3 * INTERNAL_BYTES + 4 * LEAF_BYTES);
    }

    #[test]
    fn box_search_prunes_by_split_positions() {
        let t = paper_figure1_top();
        // Query strictly right of x=3 only reaches children 12, 13.
        let q = Rect::new(vec![3.5, 0.0], vec![5.0, 6.0]);
        let kids = t.children_overlapping_box(&space(), &q);
        let ids: Vec<_> = kids.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![12, 13]);
        // Query in the overlap zone y in [2,3], x < 3 reaches both left kids.
        let q = Rect::new(vec![0.0, 2.2], vec![1.0, 2.8]);
        let ids: Vec<_> = t
            .children_overlapping_box(&space(), &q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(ids, vec![10, 11]);
    }

    #[test]
    fn point_search_visits_all_qualifying_children() {
        let t = paper_figure1_top();
        // Point in the left overlap zone belongs to both 10 and 11.
        let p = Point::new(vec![1.0, 2.5]);
        let ids: Vec<_> = t
            .children_containing_point(&space(), &p)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(ids, vec![10, 11]);
        // Boundary point x=3 qualifies on both sides of the top split.
        let p = Point::new(vec![3.0, 5.0]);
        let ids: Vec<_> = t
            .children_containing_point(&space(), &p)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(ids, vec![11, 13]);
    }

    #[test]
    fn replace_leaf_posts_a_child_split() {
        let mut t = paper_figure1_top();
        let posted = KdTree::split(
            0,
            1.0,
            1.0,
            KdTree::leaf(PageId(10)),
            KdTree::leaf(PageId(99)),
        );
        assert!(t.replace_leaf(PageId(10), posted));
        assert_eq!(t.fanout(), 5);
        let ids: Vec<_> = t.child_ids().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![10, 99, 11, 12, 13]);
        // Unknown child is reported.
        assert!(!t.replace_leaf(PageId(77), KdTree::leaf(PageId(1))));
    }

    #[test]
    fn remove_leaf_collapses_parent() {
        let mut t = paper_figure1_top();
        assert!(t.remove_leaf(PageId(11)));
        assert_eq!(t.fanout(), 3);
        let ids: Vec<_> = t.child_ids().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![10, 12, 13]);
        // Removing from a bare leaf is refused.
        let mut l = KdTree::leaf(PageId(5));
        assert!(!l.remove_leaf(PageId(5)));
    }

    #[test]
    fn split_dims_deduplicates() {
        let t = paper_figure1_top();
        assert_eq!(t.split_dims(), vec![0, 1]);
    }

    #[test]
    fn visit_internal_reports_overlap() {
        let t = paper_figure1_top();
        let mut overlaps = Vec::new();
        t.visit_internal(&space(), &mut |_, lsp, rsp, _| {
            overlaps.push((lsp - rsp).max(0.0));
        });
        // Exactly one overlapping split (lsp=3 > rsp=2).
        assert_eq!(overlaps.iter().filter(|o| **o > 0.0).count(), 1);
    }

    #[test]
    fn children_regions_subset_of_node_region() {
        let t = paper_figure1_top();
        let region = space();
        for (_, r) in t.children_with_regions(&region) {
            assert!(region.contains_rect(&r));
        }
    }
}
