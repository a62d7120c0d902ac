//! Structural statistics of a built hybrid tree (Table 1 / Table 2 data).

use crate::node::Node;
use crate::tree::HybridTree;
use hyt_index::{IndexResult, StructureStats};
use hyt_page::Storage;

/// Walks the whole tree and aggregates the properties compared in the
/// paper's Tables 1–2: fanout, utilization, overlap, split-dimension use.
pub(crate) fn compute<S: Storage>(tree: &HybridTree<S>) -> IndexResult<StructureStats> {
    let mut st = StructureStats {
        height: tree.height,
        ..StructureStats::default()
    };
    if tree.len == 0 {
        st.total_nodes = 1;
        st.data_nodes = 1;
        return Ok(st);
    }
    let mut fanout_sum = 0usize;
    let mut util_sum = 0.0f64;
    let mut overlap_sum = 0.0f64;
    let mut overlap_n = 0usize;
    let mut dims = std::collections::HashSet::new();

    let mut stack = vec![(tree.root, tree.root_region())];
    while let Some((pid, region)) = stack.pop() {
        let node = tree.read_node_owned(pid)?;
        match &node {
            Node::Data(_) => {
                st.data_nodes += 1;
                let used = node.encoded_size(tree.dim);
                util_sum += used as f64 / tree.cfg.page_size as f64;
            }
            Node::Index { kd, .. } => {
                st.index_nodes += 1;
                fanout_sum += kd.fanout();
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

    st.total_nodes = st.data_nodes + st.index_nodes;
    st.avg_fanout = if st.index_nodes > 0 {
        fanout_sum as f64 / st.index_nodes as f64
    } else {
        0.0
    };
    st.avg_leaf_utilization = if st.data_nodes > 0 {
        util_sum / st.data_nodes as f64
    } else {
        0.0
    };
    st.avg_overlap_fraction = if overlap_n > 0 {
        overlap_sum / overlap_n as f64
    } else {
        0.0
    };
    st.distinct_split_dims = dims.len();
    st.redundant_bytes = 0; // the hybrid tree posts no redundant paths
    Ok(st)
}
