//! # The Hybrid Tree
//!
//! A reproduction of *"The Hybrid Tree: An Index Structure for High
//! Dimensional Feature Spaces"* (Chakrabarti & Mehrotra, ICDE 1999).
//!
//! The hybrid tree is a paged, disk-resident index for k-dimensional
//! feature vectors that combines the strengths of space-partitioning (SP)
//! and data-partitioning (DP) structures:
//!
//! * Nodes always split along a **single dimension**, so the fanout of an
//!   index page is independent of dimensionality (unlike R-tree-family
//!   structures whose per-entry BRs shrink fanout linearly in k).
//! * The space partitioning inside an index node is organized as a
//!   **kd-tree**, enabling `O(log fanout)` intra-node search; each kd
//!   split stores **two split positions** (`lsp`, `rsp`), allowing the two
//!   subspaces to **overlap** (`lsp > rsp`) exactly when a clean split
//!   would force cascading downward splits and break utilization
//!   guarantees (the kDB-tree's failure mode).
//! * Split dimensions and positions are chosen to minimize the increase in
//!   **expected disk accesses (EDA)** per query: data nodes split the
//!   maximum-extent dimension at the middle; index nodes evaluate, for
//!   every candidate dimension, the best 1-d bipartition of their
//!   children's projections and pick the dimension with the smallest
//!   normalized overlap `E_r[(w + r) / (s + r)]` (paper §3.2–§3.3).
//! * **Dead space** inside kd-regions is eliminated with *encoded live
//!   space* (ELS): a per-child live-space BR quantized to a few bits per
//!   boundary, held in a memory-resident side table (paper §3.4).
//! * Queries are **feature-based**: bounding-box, distance-range, and
//!   k-NN search all accept an arbitrary [`Metric`](hyt_geom::Metric)
//!   supplied at query time.
//!
//! ## Quick start
//!
//! ```
//! use hybrid_tree::{HybridTree, HybridTreeConfig};
//! use hyt_geom::{Point, Rect, L1};
//! use hyt_index::MultidimIndex;
//!
//! let mut tree = HybridTree::new(4, HybridTreeConfig::default()).unwrap();
//! for i in 0..100u64 {
//!     let x = (i as f32) / 100.0;
//!     tree.insert(Point::new(vec![x, x * x, 1.0 - x, 0.5]), i).unwrap();
//! }
//! // Window query.
//! let hits = tree
//!     .box_query(&Rect::new(vec![0.0; 4], vec![0.2, 1.0, 1.0, 1.0]))
//!     .unwrap();
//! assert_eq!(hits.len(), 21);
//! // 3 nearest neighbors under L1, chosen at query time.
//! let nn = tree.knn(&Point::new(vec![0.5, 0.25, 0.5, 0.5]), 3, &L1).unwrap();
//! assert_eq!(nn.len(), 3);
//! ```

// Page and catalog bytes are untrusted: a damaged page or catalog must
// surface as an error on every path, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bulk;
mod cache;
mod config;
mod els;
mod kdtree;
mod node;
mod persist;
mod scrub;
mod split;
mod stats;
mod tree;
mod verify;
mod view;

pub use config::{HybridTreeConfig, SplitPolicy};
pub use els::ElsTable;
pub use kdtree::KdTree;
pub use node::{DataEntry, Node};
pub use scrub::{scrub_index, scrub_pages, CatalogScrub, PageDamage, ScrubReport};
pub use split::{bipartition_1d, Bipartition};
pub use tree::HybridTree;
pub use view::{DataView, InsertPath, KdView, NodeView};
