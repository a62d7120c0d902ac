//! Umbrella crate for the hybrid tree reproduction.
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! ```
//! use hybridtree_repro::prelude::*;
//!
//! let mut tree = HybridTree::new(2, HybridTreeConfig::default()).unwrap();
//! tree.insert(Point::new(vec![0.25, 0.75]), 1).unwrap();
//! let hits = tree
//!     .box_query(&Rect::new(vec![0.0, 0.5], vec![0.5, 1.0]))
//!     .unwrap();
//! assert_eq!(hits, vec![1]);
//! ```

pub use hybrid_tree as core;
pub use hyt_data as data;
pub use hyt_eval as eval;
pub use hyt_exec as exec;
pub use hyt_geom as geom;
pub use hyt_hbtree as hbtree;
pub use hyt_index as index;
pub use hyt_kdbtree as kdbtree;
pub use hyt_page as page;
pub use hyt_scan as scan;
pub use hyt_srtree as srtree;

/// Commonly used items, for `use hybridtree_repro::prelude::*`.
pub mod prelude {
    pub use hybrid_tree::{HybridTree, HybridTreeConfig, SplitPolicy};
    pub use hyt_geom::{Chebyshev, Lp, Metric, Point, Rect, WeightedEuclidean, L1, L2};
    pub use hyt_index::{
        Answer, CancelToken, DegradeReason, IndexError, IndexResult, KnnStream, MultidimIndex,
        Query, QueryContext, QueryOutcome, StructureStats,
    };
    pub use hyt_page::IoStats;
}
