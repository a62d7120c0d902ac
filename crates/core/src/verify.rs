//! Structural invariant checker (used heavily by tests and fuzzing).

use crate::node::{Node, INDEX_HEADER_BYTES};
use crate::tree::HybridTree;
use hyt_geom::Rect;
use hyt_index::{IndexError, IndexResult};
use hyt_page::{PageId, Storage};

/// Verifies every documented structural invariant of the tree:
///
/// 1. every stored point lies inside its node's kd-region chain;
/// 2. the ELS effective region of a child contains every point beneath it
///    (no false dismissals);
/// 3. node levels decrease by exactly one per tree level, data nodes at
///    level 0;
/// 4. non-root data nodes respect the utilization quota and the capacity;
/// 5. non-root index nodes have fanout >= 2;
/// 6. every serialized node fits in a page;
/// 7. the number of reachable entries equals `len()`;
/// 8. no page is referenced twice.
pub(crate) fn check<S: Storage>(tree: &HybridTree<S>) -> IndexResult<()> {
    let root_region = tree.root_region();
    let expected_level = (tree.height - 1) as u16;
    let mut seen = std::collections::HashSet::new();
    let (total, _) = check_rec(
        tree,
        tree.root,
        &root_region,
        expected_level,
        true,
        &mut seen,
    )?;
    if total != tree.len {
        return Err(IndexError::Internal(format!(
            "reachable entries {total} != len {}",
            tree.len
        )));
    }
    Ok(())
}

fn err(pid: PageId, msg: String) -> IndexError {
    IndexError::Internal(format!("{pid}: {msg}"))
}

/// Checks the subtree at `pid` in one pass and returns its entry count
/// and live bounding box (`None` when it holds no entries).
fn check_rec<S: Storage>(
    tree: &HybridTree<S>,
    pid: PageId,
    region: &Rect,
    expected_level: u16,
    is_root: bool,
    seen: &mut std::collections::HashSet<PageId>,
) -> IndexResult<(usize, Option<Rect>)> {
    if !seen.insert(pid) {
        return Err(err(pid, "page referenced more than once".into()));
    }
    let node = tree.read_node_owned(pid)?;
    let size = node.encoded_size(tree.dim);
    if size > tree.cfg.page_size {
        return Err(err(pid, format!("encoded size {size} exceeds page")));
    }
    match &node {
        Node::Data(entries) => {
            if expected_level != 0 {
                return Err(err(pid, format!("data node at level {expected_level}")));
            }
            if entries.len() > tree.data_cap {
                return Err(err(pid, format!("over capacity: {}", entries.len())));
            }
            if !is_root && entries.len() < tree.data_min {
                return Err(err(
                    pid,
                    format!(
                        "utilization violated: {} < {}",
                        entries.len(),
                        tree.data_min
                    ),
                ));
            }
            let mut live: Option<Rect> = None;
            for e in entries {
                if !region.contains_point(&e.point) {
                    return Err(err(
                        pid,
                        format!("point {:?} outside region {region:?}", e.point),
                    ));
                }
                match &mut live {
                    Some(r) => r.extend_to_point(&e.point),
                    None => live = Some(Rect::from_point(&e.point)),
                }
            }
            Ok((entries.len(), live))
        }
        Node::Index { level, kd } => {
            if *level != expected_level {
                return Err(err(
                    pid,
                    format!("level {level}, expected {expected_level}"),
                ));
            }
            if expected_level == 0 {
                return Err(err(pid, "index node at data level".into()));
            }
            let fanout = kd.fanout();
            if fanout < 2 && !is_root {
                return Err(err(pid, format!("fanout {fanout} < 2")));
            }
            if INDEX_HEADER_BYTES + kd.encoded_size() > tree.cfg.page_size {
                return Err(err(pid, "kd-tree exceeds page".into()));
            }
            let mut total = 0usize;
            let mut live: Option<Rect> = None;
            for (child, child_region) in kd.children_with_regions(region) {
                if !region.contains_rect(&child_region) {
                    return Err(err(
                        pid,
                        format!("child region {child_region:?} escapes {region:?}"),
                    ));
                }
                let (count, child_live) =
                    check_rec(tree, child, &child_region, expected_level - 1, false, seen)?;
                if let Some(child_live) = child_live {
                    // ELS conservativeness: the effective region holds
                    // every point beneath the child exactly when it holds
                    // their bounding box.
                    let eff = tree.els.effective_region(child, &child_region);
                    if !eff.contains_rect(&child_live) {
                        return Err(err(
                            child,
                            format!("ELS region {eff:?} misses live box {child_live:?}"),
                        ));
                    }
                    match &mut live {
                        Some(r) => r.extend_to_rect(&child_live),
                        None => live = Some(child_live),
                    }
                }
                total += count;
            }
            Ok((total, live))
        }
    }
}
