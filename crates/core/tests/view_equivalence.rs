//! Property test: zero-copy page navigation ([`NodeView`]) must agree
//! exactly with the decoded [`KdTree`]/[`Node`] walks on arbitrary
//! trees, queries, and points — the hot path is an optimization, never
//! a semantic change.

use hybrid_tree::{KdTree, Node, NodeView};
use hyt_geom::{Point, Rect};
use hyt_page::PageId;
use proptest::prelude::*;

/// Strategy for random kd-trees over `dim` dimensions with `n` leaves.
fn kd_strategy(dim: u16, depth: u32) -> impl Strategy<Value = KdTree> {
    let leaf = (0u32..1000).prop_map(|p| KdTree::leaf(PageId(p)));
    leaf.prop_recursive(depth, 64, 2, move |inner| {
        (0..dim, -1.0f32..2.0, -1.0f32..2.0, inner.clone(), inner)
            .prop_map(|(d, lsp, rsp, l, r)| KdTree::split(d, lsp, rsp, l, r))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn view_box_walk_equals_tree_walk(
        kd in kd_strategy(4, 5),
        lo in proptest::collection::vec(-1.0f32..2.0, 4),
        ext in proptest::collection::vec(0.0f32..1.5, 4),
    ) {
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let query = Rect::new(lo, hi);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let mut from_view = Vec::new();
        view.children_overlapping_box(&query, &mut from_view).unwrap();
        let mut from_tree = Vec::new();
        kd.children_overlapping_box_ids(&query, &mut from_tree);
        prop_assert_eq!(from_view, from_tree);
    }

    #[test]
    fn view_point_walk_equals_tree_walk(
        kd in kd_strategy(4, 5),
        p in proptest::collection::vec(-1.0f32..2.0, 4),
    ) {
        let point = Point::new(p);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let mut from_view = Vec::new();
        view.children_containing_point(&point, &mut from_view).unwrap();
        let mut from_tree = Vec::new();
        kd.children_containing_point_ids(&point, &mut from_tree);
        prop_assert_eq!(from_view, from_tree);
    }

    #[test]
    fn view_child_ids_equals_tree_child_ids(kd in kd_strategy(6, 6)) {
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(6);
        let NodeView::Index(view) = NodeView::parse(&buf, 6).unwrap() else {
            panic!("expected index view");
        };
        let mut from_view = Vec::new();
        view.child_ids(&mut from_view).unwrap();
        prop_assert_eq!(from_view, kd.child_ids());
    }

    /// Ids, regions and order must all match: ELS-off distance queries
    /// push children in this order, so result order and budget
    /// interrupt points depend on it.
    #[test]
    fn view_regions_equal_tree_regions(
        kd in kd_strategy(4, 5),
        lo in proptest::collection::vec(-1.0f32..2.0, 4),
        ext in proptest::collection::vec(0.0f32..1.5, 4),
    ) {
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo, hi);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let mut from_view = Vec::new();
        view.children_with_regions(&region, &mut from_view).unwrap();
        prop_assert_eq!(from_view, kd.children_with_regions(&region));
    }

    #[test]
    fn kd_roundtrips_through_bytes(kd in kd_strategy(8, 6)) {
        let node = Node::Index { level: 3, kd: kd.clone() };
        let buf = node.encode(8);
        prop_assert_eq!(buf.len(), node.encoded_size(8));
        let (level, decoded) = Node::decode(&buf, 8).unwrap().expect_index();
        prop_assert_eq!(level, 3);
        prop_assert_eq!(decoded, kd);
    }

    /// Truncating a valid page at any offset must produce an error, not
    /// a panic or an out-of-bounds read.
    #[test]
    fn truncated_pages_fail_cleanly(kd in kd_strategy(3, 4), cut in 0usize..200) {
        let buf = Node::Index { level: 1, kd }.encode(3);
        prop_assume!(cut < buf.len());
        let truncated = &buf[..cut];
        // Decode and every view operation either errors or returns
        // something — never panics.
        let _ = Node::decode(truncated, 3);
        if let Ok(NodeView::Index(view)) = NodeView::parse(truncated, 3) {
            let mut out = Vec::new();
            let _ = view.child_ids(&mut out);
            let _ = view.children_overlapping_box(&Rect::unit(3), &mut out);
            let _ = view.children_containing_point(&Point::origin(3), &mut out);
            let _ = view.children_with_regions(&Rect::unit(3), &mut Vec::new());
        }
    }
}
