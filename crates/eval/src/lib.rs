//! Evaluation harness reproducing the paper's experiments (§4).
//!
//! The paper's methodology, reproduced here:
//!
//! * **Datasets**: FOURIER (8/12/16-d) and COLHIST (16/32/64-d), supplied
//!   by [`hyt_data`]'s synthetic stand-ins; sizes configurable through
//!   [`Scale`] ([`Scale::quick`] or [`Scale::paper`]).
//! * **Workloads**: bounding-box queries at constant selectivity (0.07%
//!   FOURIER, 0.2% COLHIST) plus L1 distance-range queries for Fig 7(c,d).
//! * **Cost model**: the *normalized I/O cost* of an index is its average
//!   random disk accesses per query divided by the page count of a linear
//!   scan; since sequential accesses are ~10x faster, the scan's own
//!   normalized I/O cost is 0.1, and any index above 0.1 loses to the
//!   scan. The *normalized CPU cost* is the index's average per-query CPU
//!   time divided by the scan's (scan = 1.0).
//!
//! [`figures`] contains one driver per table/figure, registered by name
//! in [`figures::FIGURES`]; `hyt figures` runs them and prints (and with
//! `--out`, archives) each regenerated table.

// The batch runner runs every governed batch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod figures;
mod report;
mod runner;
mod scale;

pub use report::FigureReport;
pub use runner::{
    build_engine, compare_box, compare_distance, run_batch, run_box_queries, run_distance_queries,
    run_knn_stream, total_io, CompareRow, Engine, QueryCost,
};
pub use scale::Scale;
