//! SR-tree baseline (Katayama & Satoh, SIGMOD 1997).
//!
//! The SR-tree is the paper's representative *data-partitioning* (DP)
//! competitor (§4): a ball-and-box tree in which every child entry stores
//! a bounding **s**phere and a bounding **r**ectangle; the region of a
//! child is their intersection, which is smaller than either alone and
//! improves pruning over the SS-tree and the R*-tree.
//!
//! What matters for the reproduction is the property the paper exploits:
//! each index entry carries `O(k)` floats (centroid + rectangle), so the
//! fanout *decreases linearly with dimensionality* — at 64 dimensions a
//! 4 KiB page holds only ~5 entries. Combined with heavily overlapping
//! regions in high dimensions, this is why DP trees lose to the hybrid
//! tree as `k` grows (Figures 6–7).
//!
//! Insertion follows the SS-tree policy (descend toward the nearest
//! centroid; split along the dimension of maximum centroid variance at
//! the position minimizing the two groups' variance sum), with sphere
//! radii maintained by the SR-tree rule: the minimum of the
//! children-based bound and the distance to the farthest rectangle
//! corner.

// Page bytes are untrusted: a damaged page must surface as an error on
// every path, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod node;
mod tree;

pub use node::{ChildEntry, SrNode};
pub use tree::SrTree;
