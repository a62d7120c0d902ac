//! Structural statistics of a built hybrid tree (Table 1 / Table 2 data).

use crate::node::{Node, DATA_HEADER_BYTES};
use crate::tree::HybridTree;
use hyt_index::{IndexResult, StatsTally, StructureStats};
use hyt_page::Storage;

/// Walks the whole tree and aggregates the properties compared in the
/// paper's Tables 1–2: fanout, utilization, overlap, split-dimension use.
pub(crate) fn compute<S: Storage>(tree: &HybridTree<S>) -> IndexResult<StructureStats> {
    let mut tally = StatsTally::new(tree.height, tree.cfg.page_size, tree.dim);
    if tree.len == 0 {
        return Ok(tally.finish());
    }
    let mut overlap_sum = 0.0f64;
    let mut overlap_n = 0usize;
    let mut dims = std::collections::HashSet::new();

    let mut stack = vec![(tree.root, tree.root_region())];
    while let Some((pid, region)) = stack.pop() {
        match tree.read_node_owned(pid)? {
            Node::Data(entries) => tally.data_node(DATA_HEADER_BYTES, entries.len()),
            Node::Index { kd, .. } => {
                tally.index_node(kd.fanout());
                for d in kd.split_dims() {
                    dims.insert(d);
                }
                kd.visit_internal(&region, &mut |dim, lsp, rsp, sub| {
                    let s = sub.extent(dim as usize);
                    if s > 0.0 {
                        let w = (f64::from(lsp) - f64::from(rsp)).max(0.0).min(s);
                        overlap_sum += w / s;
                        overlap_n += 1;
                    }
                });
                for (child, child_region) in kd.children_with_regions(&region) {
                    stack.push((child, child_region));
                }
            }
        }
    }

    Ok(StructureStats {
        avg_overlap_fraction: if overlap_n > 0 {
            overlap_sum / overlap_n as f64
        } else {
            0.0
        },
        distinct_split_dims: dims.len(),
        // The hybrid tree posts no redundant paths.
        redundant_bytes: 0,
        ..tally.finish()
    })
}
