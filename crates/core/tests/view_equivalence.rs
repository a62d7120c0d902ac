//! Property test: zero-copy page navigation ([`NodeView`]) must agree
//! exactly with the decoded [`KdTree`]/[`Node`] walks on arbitrary
//! trees, queries, and points — the hot path is an optimization, never
//! a semantic change.

use hybrid_tree::{KdTree, Node, NodeView};
use hyt_exec::NearQuery;
use hyt_geom::{Chebyshev, Lp, Metric, Point, Rect, L1, L2};
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

/// A distance walk that prunes nothing: every child, in kd order.
fn unbounded(q: &Point) -> NearQuery<'_> {
    NearQuery {
        q,
        metric: &L2,
        bound: f64::INFINITY,
    }
}

/// A directory page with a NaN split position is `Corrupt` to the
/// decoder and to every in-place walk, never a panic: handing a region
/// down through a NaN `lsp` to a second split on the same dimension
/// would reach `f32::clamp` with a NaN bound.
#[test]
fn nan_split_pages_are_corrupt() {
    for (lsp, rsp) in [(f32::NAN, 0.5), (0.5, f32::NAN)] {
        let inner = KdTree::split(
            0,
            0.25,
            0.25,
            KdTree::leaf(PageId(1)),
            KdTree::leaf(PageId(2)),
        );
        let kd = KdTree::split(0, lsp, rsp, inner.clone(), inner);
        let buf = Node::Index { level: 1, kd }.encode(2);
        assert!(Node::decode(&buf, 2).is_err());
        let Ok(NodeView::Index(view)) = NodeView::parse(&buf, 2) else {
            panic!("an index page must parse into a view");
        };
        let q = Point::new(vec![0.4, 0.4]);
        let region = Rect::unit(2);
        let mut out = Vec::new();
        assert!(view
            .children_near(unbounded(&q), Some(&region), &mut |_, _, _| {})
            .is_err());
        assert!(view.children_overlapping_box(&region, &mut out).is_err());
        assert!(view
            .children_containing_point(&q, Some(&region), &mut |_, _| {})
            .is_err());
    }
}

/// `kd` with its leaves numbered 0, 1, .. in kd order.
fn relabel(kd: &KdTree, next: &mut u32) -> KdTree {
    match kd {
        KdTree::Leaf { .. } => {
            *next += 1;
            KdTree::leaf(PageId(*next - 1))
        }
        KdTree::Internal {
            dim,
            lsp,
            rsp,
            left,
            right,
        } => {
            let left = relabel(left, next);
            KdTree::split(*dim, *lsp, *rsp, left, relabel(right, next))
        }
    }
}

/// Every child of `kd` with the exact region it may hold entries in:
/// `region` intersected with the half-spaces on its path (`x_d <= lsp`
/// to the left, `x_d >= rsp` to the right), or `None` where that
/// intersection is empty. Unlike the clamped regions of
/// [`KdTree::children_with_regions`], an empty intersection is not
/// approximated by a box on its boundary: nothing lies in it.
fn exact_regions(
    kd: &KdTree,
    lo: &mut [f32],
    hi: &mut [f32],
    out: &mut Vec<(PageId, Option<Rect>)>,
) {
    match kd {
        KdTree::Leaf { child } => {
            let live = lo.iter().zip(hi.iter()).all(|(l, h)| l <= h);
            out.push((*child, live.then(|| Rect::new(lo.to_vec(), hi.to_vec()))));
        }
        KdTree::Internal {
            dim,
            lsp,
            rsp,
            left,
            right,
        } => {
            let d = usize::from(*dim);
            let saved = hi[d];
            hi[d] = hi[d].min(*lsp);
            exact_regions(left, lo, hi, out);
            hi[d] = saved;
            let saved = lo[d];
            lo[d] = lo[d].max(*rsp);
            exact_regions(right, lo, hi, out);
            lo[d] = saved;
        }
    }
}

/// The owned reference for [`KdView::insert_path`](hybrid_tree::KdView::insert_path):
/// the same greedy descent over a `KdTree`, moving the nearer boundary of
/// a dead-space gap to the point in place. Returns the child, its region
/// and whether any boundary moved.
fn owned_descent(kd: &mut KdTree, region: &Rect, p: &Point) -> (PageId, Rect, bool) {
    match kd {
        KdTree::Leaf { child } => (*child, region.clone(), false),
        KdTree::Internal {
            dim,
            lsp,
            rsp,
            left,
            right,
        } => {
            let d = usize::from(*dim);
            let x = p.coord(d);
            let gap = *lsp < x && x < *rsp;
            let go_left = if gap {
                if x - *lsp <= *rsp - x {
                    *lsp = x;
                    true
                } else {
                    *rsp = x;
                    false
                }
            } else if x <= *lsp && x >= *rsp {
                *lsp - x >= x - *rsp
            } else {
                x <= *lsp
            };
            let (child, region, moved) = if go_left {
                owned_descent(left, &region.clamp_above(d, *lsp), p)
            } else {
                owned_descent(right, &region.clamp_below(d, *rsp), p)
            };
            (child, region, moved || gap)
        }
    }
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

    /// Ids, regions and order must all match: deletes visit the
    /// children in this order.
    #[test]
    fn view_point_walk_equals_tree_walk(
        kd in kd_strategy(4, 5),
        p in proptest::collection::vec(-1.0f32..2.0, 4),
        lo in proptest::collection::vec(-1.0f32..2.0, 4),
        ext in proptest::collection::vec(0.0f32..1.5, 4),
    ) {
        let point = Point::new(p);
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo, hi);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let from_tree = kd.children_containing_point(&region, &point);
        let mut with_regions = Vec::new();
        view.children_containing_point(&point, Some(&region), &mut |c, r| {
            with_regions.push((c, r.cloned().unwrap()))
        })
        .unwrap();
        prop_assert_eq!(&with_regions, &from_tree);
        let mut ids = Vec::new();
        view.children_containing_point(&point, None, &mut |c, r| {
            assert!(r.is_none());
            ids.push(c)
        })
        .unwrap();
        prop_assert_eq!(ids, from_tree.iter().map(|(c, _)| *c).collect::<Vec<_>>());
    }

    /// The in-place insert descent takes the owned reference's path: the
    /// same child and region, and an enlarged page, once patched, decodes
    /// to the reference's enlarged tree and re-encodes to the same bytes.
    /// Split positions drawn independently give overlaps and gaps alike.
    #[test]
    fn insert_path_equals_owned_descent(
        kd in kd_strategy(4, 6),
        p in proptest::collection::vec(-1.5f32..2.5, 4),
        lo in proptest::collection::vec(-1.0f32..2.0, 4),
        ext in proptest::collection::vec(0.0f32..1.5, 4),
    ) {
        let point = Point::new(p);
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo, hi);
        let node = Node::Index { level: 2, kd: kd.clone() };
        let mut page = node.encode(4);
        let NodeView::Index(view) = NodeView::parse(&page, 4).unwrap() else {
            panic!("expected index view");
        };
        let path = view.insert_path(&region, &point).unwrap();
        let mut want = kd;
        let (child, child_region, enlarged) = owned_descent(&mut want, &region, &point);
        prop_assert_eq!(path.child, child);
        prop_assert_eq!(&path.region, &child_region);
        prop_assert_eq!(!path.enlarged.is_empty(), enlarged);
        path.patch(&mut page);
        let patched = Node::decode(&page, 4).unwrap();
        prop_assert_eq!(&patched, &Node::Index { level: 2, kd: want });
        prop_assert_eq!(patched.encode(4), page);
    }

    #[test]
    fn view_child_ids_equals_tree_child_ids(kd in kd_strategy(6, 6)) {
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(6);
        let NodeView::Index(view) = NodeView::parse(&buf, 6).unwrap() else {
            panic!("expected index view");
        };
        let q = Point::origin(6);
        let mut from_view = Vec::new();
        view.children_near(unbounded(&q), None, &mut |pid, _, _| from_view.push(pid))
            .unwrap();
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
        let q = Point::origin(4);
        let mut from_view = Vec::new();
        view.children_near(unbounded(&q), Some(&region), &mut |pid, r, _| {
            from_view.push((pid, r.cloned().unwrap()))
        })
        .unwrap();
        prop_assert_eq!(from_view, kd.children_with_regions(&region));
    }

    /// At a finite bound the distance walk keeps an order-preserving
    /// subsequence of the children, and never drops one whose region
    /// could hold an entry within the bound — for every metric with the
    /// axis-gap hook, with and without a region handed down. A metric
    /// without the hook (`L∞`) prunes nothing.
    #[test]
    fn bounded_walk_keeps_every_child_within_the_bound(
        kd in kd_strategy(4, 6),
        q in proptest::collection::vec(-1.5f32..2.5, 4),
        lo in proptest::collection::vec(-1.0f32..0.5, 4),
        ext in proptest::collection::vec(0.5f32..3.0, 4),
        bound in 0.0f64..2.0,
        with_region in 0u8..2,
    ) {
        // Distinct leaf ids, so a kept child matches one position only.
        let kd = relabel(&kd, &mut 0);
        let q = Point::new(q);
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo.clone(), hi.clone());
        let region = (with_region == 1).then_some(&region);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let mut all = Vec::new();
        view.children_near(unbounded(&q), region, &mut |pid, r, _| all.push((pid, r.cloned())))
            .unwrap();
        // The exact regions, starting from the handed-down region or
        // from the whole space.
        let (mut elo, mut ehi) = match region {
            Some(_) => (lo.clone(), hi.clone()),
            None => (vec![f32::MIN; 4], vec![f32::MAX; 4]),
        };
        let mut exact = Vec::new();
        exact_regions(&kd, &mut elo, &mut ehi, &mut exact);
        prop_assert_eq!(exact.len(), all.len());
        let metrics: [&dyn Metric; 4] = [&L1, &L2, &Lp::new(3.0), &Chebyshev];
        for metric in metrics {
            let nq = NearQuery { q: &q, metric, bound };
            let mut kept = Vec::new();
            view.children_near(nq, region, &mut |pid, r, _| kept.push((pid, r.cloned())))
                .unwrap();
            // Greedy match of `kept` into `all`: a subsequence in order.
            let mut matched = vec![false; all.len()];
            let mut next = 0;
            for k in &kept {
                while next < all.len() && &all[next] != k {
                    next += 1;
                }
                prop_assert!(next < all.len(), "{}: {:?} out of order", metric.name(), k);
                matched[next] = true;
                next += 1;
            }
            for (i, (pid, exact)) in exact.iter().enumerate() {
                let Some(r) = exact else { continue };
                if !matched[i] {
                    let b = metric.min_dist_rect_sq(&q, r);
                    prop_assert!(b > bound, "{}: dropped {:?} at bound {} <= {}",
                        metric.name(), pid, b, bound);
                }
            }
            if metric.axis_gap_sq(0, 1.0).is_none() {
                prop_assert_eq!(&kept, &all);
            }
        }
    }

    /// The gap sum the walk emits with each child lower-bounds the
    /// child's exact region, up to the relaxation the hybrid keys kNN
    /// children with; an infinite bound emits the same children and sums
    /// as a finite bound that prunes nothing; a metric without the hook
    /// sums nothing.
    #[test]
    fn walk_sums_lower_bound_every_child(
        kd in kd_strategy(4, 6),
        q in proptest::collection::vec(-1.5f32..2.5, 4),
        lo in proptest::collection::vec(-1.0f32..0.5, 4),
        ext in proptest::collection::vec(0.5f32..3.0, 4),
        with_region in 0u8..2,
    ) {
        let q = Point::new(q);
        let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo.clone(), hi.clone());
        let region = (with_region == 1).then_some(&region);
        let buf = Node::Index { level: 1, kd: kd.clone() }.encode(4);
        let NodeView::Index(view) = NodeView::parse(&buf, 4).unwrap() else {
            panic!("expected index view");
        };
        let (mut elo, mut ehi) = match region {
            Some(_) => (lo.clone(), hi.clone()),
            None => (vec![f32::MIN; 4], vec![f32::MAX; 4]),
        };
        let mut exact = Vec::new();
        exact_regions(&kd, &mut elo, &mut ehi, &mut exact);
        let metrics: [&dyn Metric; 4] = [&L1, &L2, &Lp::new(3.0), &Chebyshev];
        for metric in metrics {
            let walk = |bound| {
                let mut out = Vec::new();
                let nq = NearQuery { q: &q, metric, bound };
                view.children_near(nq, region, &mut |pid, r, sum| {
                    out.push((pid, r.cloned(), sum))
                })
                .unwrap();
                out
            };
            let all = walk(f64::INFINITY);
            prop_assert_eq!(all.len(), exact.len());
            for ((pid, _, sum), (_, exact)) in all.iter().zip(&exact) {
                if metric.axis_gap_sq(0, 1.0).is_none() {
                    prop_assert_eq!(*sum, 0.0);
                }
                let Some(r) = exact else { continue };
                let b = metric.min_dist_rect_sq(&q, r);
                prop_assert!(sum * (1.0 - 1e-12) <= b, "{}: {:?} sums {} > bound {}",
                    metric.name(), pid, sum, b);
            }
            let top = all.iter().map(|c| c.2).fold(0.0, f64::max);
            prop_assert_eq!(walk(2.0 * top + 1.0), all);
        }
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
            let q = Point::origin(3);
            let _ = view.children_near(unbounded(&q), None, &mut |_, _, _| {});
            let _ = view.children_overlapping_box(&Rect::unit(3), &mut out);
            let _ = view.children_containing_point(&q, Some(&Rect::unit(3)), &mut |_, _| {});
            let _ = view.insert_path(&Rect::unit(3), &q);
            let _ = view.children_near(unbounded(&q), Some(&Rect::unit(3)), &mut |_, _, _| {});
        }
    }
}
