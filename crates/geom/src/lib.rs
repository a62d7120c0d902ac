//! Geometry substrate for the hybrid tree reproduction.
//!
//! This crate provides the vocabulary types shared by every index structure
//! in the workspace:
//!
//! * [`Point`] — a k-dimensional feature vector (`f32` coordinates, as used
//!   by the paper's feature databases),
//! * [`Rect`] — a k-dimensional axis-aligned bounding region (BR),
//! * [`Metric`] — user-supplied distance functions ([`L1`], [`L2`],
//!   [`Lp`], [`Chebyshev`], [`WeightedEuclidean`]) together with the
//!   `MINDIST` lower bounds required for pruning during distance-based
//!   search,
//! * Minkowski-sum volume helpers used by the paper's Expected-Disk-Access
//!   (EDA) cost derivations (§3.2–§3.3).
//!
//! The hybrid tree (ICDE 1999) is a *feature-based* index: partitioning
//! never depends on the distance function, which is chosen per query. This
//! crate therefore keeps metrics strictly separate from the geometric
//! containment/overlap predicates used while building trees.

// Metric bounds run inside every query.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod metric;
mod point;
mod rect;

pub use metric::{range_bound_sq, Chebyshev, Lp, Metric, WeightedEuclidean, L1, L2};
pub use point::Point;
pub use rect::Rect;

/// Scalar coordinate type used throughout the workspace.
///
/// The paper's feature vectors (Fourier coefficients, color histogram bins)
/// are single-precision; using `f32` also reproduces the paper's page
/// fanout arithmetic (e.g. a 64-d entry occupies `64 * 4` bytes).
pub type Coord = f32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_are_usable_together() {
        let p = Point::new(vec![0.5, 0.5]);
        let r = Rect::unit(2);
        assert!(r.contains_point(&p));
        assert_eq!(L2.distance(&p, &p), 0.0);
    }
}
