//! Distance functions and the pruning bounds they induce.
//!
//! The hybrid tree is a feature-based index: the distance function is
//! supplied *at query time* (§3.5 of the paper), possibly changing between
//! iterations of the same query in a relevance-feedback loop. Distance-based
//! search over any of the indexes needs two things from a metric:
//!
//! 1. the point-to-point distance itself, and
//! 2. `MINDIST(q, BR)` — a lower bound on the distance from the query point
//!    to *any* point inside a bounding region, used to prune subtrees.
//!
//! For the SR-tree baseline, which also stores L2 bounding spheres, a metric
//! additionally provides a norm-equivalence factor so an L2 sphere can be
//! used for pruning under a different query metric without false dismissals.

use crate::{Point, Rect};

/// A distance function usable for range and nearest-neighbor queries.
///
/// Implementations must satisfy, for all `q`, rectangles `R`, and points
/// `p ∈ R`: `min_dist_rect(q, R) <= distance(q, p)`. The provided property
/// tests in this module check the bound for the bundled metrics; custom
/// metrics should be tested the same way (a violated bound causes false
/// dismissals, i.e. silently incomplete query results).
///
/// Metrics are `Sync` so one metric can serve concurrent queries (they
/// are consulted from many threads by the parallel batch runner); all
/// bundled metrics are immutable value types.
pub trait Metric: Sync {
    /// Distance between two points of equal dimensionality.
    fn distance(&self, a: &Point, b: &Point) -> f64;

    /// Lower bound on `distance(q, p)` over all `p` in `rect`.
    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64;

    /// Factor `c(k)` such that `||v||_self <= c(k) * ||v||_2` for all
    /// k-dimensional `v`. Used to prune with L2 bounding spheres: any point
    /// within L2 radius `r` of center `c` is within `c(k) * r` under this
    /// metric, hence
    /// `min_dist >= distance(q, c) - c(k) * r`.
    fn l2_equivalence_factor(&self, dim: usize) -> f64;

    /// Lower bound on the distance from `q` to any point inside the L2 ball
    /// `(center, radius)`.
    fn min_dist_sphere(&self, q: &Point, center: &Point, radius: f64) -> f64 {
        (self.distance(q, center) - self.l2_equivalence_factor(q.dim()) * radius).max(0.0)
    }

    /// Comparator-space distance: a strictly monotone transform of
    /// [`distance`](Metric::distance) that is cheaper to compute — for
    /// quadratic metrics (L2, weighted L2) the squared distance (no
    /// `sqrt`), for `L_p` the p-th power (no root), and the identity for
    /// metrics that are already root-free (L1, L∞).
    ///
    /// Query engines compare candidates and pruning bounds in comparator
    /// space and map back with
    /// [`distance_from_sq`](Metric::distance_from_sq) once per *reported*
    /// result, instead of paying one root per candidate. Because the
    /// transform is monotone, every `<`/`<=` decision agrees with actual
    /// space, and because `distance` computes the same accumulation
    /// before its root, `distance_from_sq(distance_sq(a, b))` is
    /// bit-identical to `distance(a, b)` for the bundled metrics.
    ///
    /// Implementations overriding any of `distance_sq`,
    /// [`min_dist_rect_sq`](Metric::min_dist_rect_sq),
    /// [`distance_from_sq`](Metric::distance_from_sq), and
    /// [`distance_to_sq`](Metric::distance_to_sq) must override all four
    /// consistently (same transform everywhere).
    fn distance_sq(&self, a: &Point, b: &Point) -> f64 {
        self.distance(a, b)
    }

    /// Comparator-space form of [`min_dist_rect`](Metric::min_dist_rect):
    /// `distance_to_sq(min_dist_rect(q, rect))` up to rounding, computed
    /// without the root. The lower-bound contract carries over: for all
    /// `p ∈ rect`, `min_dist_rect_sq(q, rect) <= distance_sq(q, p)`.
    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        self.min_dist_rect(q, rect)
    }

    /// Maps a comparator-space value back to an actual distance (the
    /// inverse of the transform; one root per reported result).
    fn distance_from_sq(&self, d_sq: f64) -> f64 {
        d_sq
    }

    /// Maps an actual distance (e.g. a range-query radius) into
    /// comparator space.
    fn distance_to_sq(&self, d: f64) -> f64 {
        d
    }

    /// Partial-distance early-abandon kernel: computes
    /// `distance_sq(a, b)`, but may bail out as soon as the partial
    /// accumulation already exceeds `bound_sq` (sound because every
    /// bundled metric accumulates monotonically — adding a non-negative
    /// term or taking a max never decreases the partial value).
    ///
    /// Returns `Some(d_sq)` iff `distance_sq(a, b) <= bound_sq`, with
    /// `d_sq` bit-identical to the full `distance_sq` (the accumulation
    /// order is unchanged; abandoning only skips work for candidates
    /// that would be rejected anyway); `None` otherwise.
    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        let d_sq = self.distance_sq(a, b);
        (d_sq <= bound_sq).then_some(d_sq)
    }

    /// Comparator-space term of dimension `dim` for a rectangle whose
    /// `dim` interval lies `gap >= 0` away from the query's coordinate:
    /// the per-dimension piece of [`min_dist_rect_sq`](Metric::min_dist_rect_sq).
    ///
    /// The contract is additive: for distinct dimensions `d_1..d_n` and
    /// any rectangle `R` whose `d_i` interval lies at least `g_i` from
    /// the query, `Σ axis_gap_sq(d_i, g_i) <= min_dist_rect_sq(q, R)`.
    /// Index nodes use it to prune a kd subtree against a running bound
    /// by summing the gaps its split planes impose, one term per
    /// dimension, without building the subtree's rectangle.
    ///
    /// `None` (the default) means the metric does not decompose that way
    /// (`L∞`, most user metrics): nothing is pruned through this hook and
    /// traversal is exactly what it is without it.
    fn axis_gap_sq(&self, _dim: usize, _gap: f64) -> Option<f64> {
        None
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Dimensions scanned between bound checks in the early-abandon kernels:
/// checking every dimension costs more than it saves; every 8 keeps the
/// partial-sum loop tight while still abandoning far candidates early.
const ABANDON_STRIDE: usize = 8;

/// Comparator-space pruning bound for a distance-range query of `radius`.
///
/// `distance_to_sq(radius)` relaxed by one part in 10^12, which dominates
/// the few ulps of rounding the forward transform (`d*d`, `powf`) can
/// lose relative to the comparator value accumulated term-by-term. Using
/// the relaxed bound for node pruning and candidate abandoning can only
/// *admit* borderline candidates, never reject true ones; engines then
/// keep exactly those survivors with `distance_from_sq(d_sq) <= radius`
/// — one root per near-candidate, and a result set identical to
/// filtering on `distance(q, p) <= radius` directly.
pub fn range_bound_sq(metric: &dyn Metric, radius: f64) -> f64 {
    metric.distance_to_sq(radius) * (1.0 + 1e-12)
}

/// Per-dimension distance from a coordinate to an interval; 0 inside.
#[inline]
fn axis_gap(x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

/// Manhattan distance (the metric used for the paper's distance-based
/// experiments, Fig. 7(c,d), following the MARS similarity model).
#[derive(Clone, Copy, Debug, Default)]
pub struct L1;

impl Metric for L1 {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        (0..a.dim())
            .map(|d| (f64::from(a.coord(d)) - f64::from(b.coord(d))).abs())
            .sum()
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                )
            })
            .sum()
    }

    fn l2_equivalence_factor(&self, dim: usize) -> f64 {
        // ||v||_1 <= sqrt(k) ||v||_2 (Cauchy-Schwarz), tight for v ∝ 1.
        (dim as f64).sqrt()
    }

    // L1 is root-free already: comparator space is actual space (the
    // trait defaults), but the early-abandon kernel still pays off.
    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.dim(), b.dim());
        let mut acc = 0.0f64;
        let mut d = 0;
        while d < a.dim() {
            let end = (d + ABANDON_STRIDE).min(a.dim());
            while d < end {
                acc += (f64::from(a.coord(d)) - f64::from(b.coord(d))).abs();
                d += 1;
            }
            if acc > bound_sq {
                return None;
            }
        }
        Some(acc)
    }

    fn axis_gap_sq(&self, _dim: usize, gap: f64) -> Option<f64> {
        Some(gap)
    }

    fn name(&self) -> &'static str {
        "L1"
    }
}

/// Euclidean distance.
#[derive(Clone, Copy, Debug, Default)]
pub struct L2;

impl Metric for L2 {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        (0..a.dim())
            .map(|d| {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                diff * diff
            })
            .sum::<f64>()
            .sqrt()
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                let g = axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                );
                g * g
            })
            .sum::<f64>()
            .sqrt()
    }

    fn l2_equivalence_factor(&self, _dim: usize) -> f64 {
        1.0
    }

    fn distance_sq(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        // Identical accumulation to `distance`, minus the final sqrt —
        // so `distance_from_sq(distance_sq(..))` is bit-identical.
        (0..a.dim())
            .map(|d| {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                diff * diff
            })
            .sum::<f64>()
    }

    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                let g = axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                );
                g * g
            })
            .sum::<f64>()
    }

    fn distance_from_sq(&self, d_sq: f64) -> f64 {
        d_sq.sqrt()
    }

    fn distance_to_sq(&self, d: f64) -> f64 {
        d * d
    }

    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.dim(), b.dim());
        let mut acc = 0.0f64;
        let mut d = 0;
        while d < a.dim() {
            let end = (d + ABANDON_STRIDE).min(a.dim());
            while d < end {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                acc += diff * diff;
                d += 1;
            }
            if acc > bound_sq {
                return None;
            }
        }
        Some(acc)
    }

    fn axis_gap_sq(&self, _dim: usize, gap: f64) -> Option<f64> {
        Some(gap * gap)
    }

    fn name(&self) -> &'static str {
        "L2"
    }
}

/// General Minkowski metric `L_p`, `p >= 1`.
#[derive(Clone, Copy, Debug)]
pub struct Lp {
    p: f64,
}

impl Lp {
    /// Creates an `L_p` metric.
    ///
    /// # Panics
    /// Panics unless `p >= 1` (otherwise the triangle inequality fails and
    /// pruning bounds would be invalid).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0 && p.is_finite(), "Lp requires finite p >= 1");
        Self { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric for Lp {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        (0..a.dim())
            .map(|d| {
                (f64::from(a.coord(d)) - f64::from(b.coord(d)))
                    .abs()
                    .powf(self.p)
            })
            .sum::<f64>()
            .powf(1.0 / self.p)
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                )
                .powf(self.p)
            })
            .sum::<f64>()
            .powf(1.0 / self.p)
    }

    fn l2_equivalence_factor(&self, dim: usize) -> f64 {
        // ||v||_p <= k^(1/p - 1/2) ||v||_2 for p <= 2; ||v||_p <= ||v||_2 for p >= 2.
        if self.p < 2.0 {
            (dim as f64).powf(1.0 / self.p - 0.5)
        } else {
            1.0
        }
    }

    // Comparator space for L_p is the p-th power (root-free).
    fn distance_sq(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        (0..a.dim())
            .map(|d| {
                (f64::from(a.coord(d)) - f64::from(b.coord(d)))
                    .abs()
                    .powf(self.p)
            })
            .sum::<f64>()
    }

    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                )
                .powf(self.p)
            })
            .sum::<f64>()
    }

    fn distance_from_sq(&self, d_sq: f64) -> f64 {
        d_sq.powf(1.0 / self.p)
    }

    fn distance_to_sq(&self, d: f64) -> f64 {
        d.powf(self.p)
    }

    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.dim(), b.dim());
        let mut acc = 0.0f64;
        let mut d = 0;
        while d < a.dim() {
            let end = (d + ABANDON_STRIDE).min(a.dim());
            while d < end {
                acc += (f64::from(a.coord(d)) - f64::from(b.coord(d)))
                    .abs()
                    .powf(self.p);
                d += 1;
            }
            if acc > bound_sq {
                return None;
            }
        }
        Some(acc)
    }

    fn axis_gap_sq(&self, _dim: usize, gap: f64) -> Option<f64> {
        Some(gap.powf(self.p))
    }

    fn name(&self) -> &'static str {
        "Lp"
    }
}

/// Chebyshev / maximum metric (`L_∞`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        (0..a.dim())
            .map(|d| (f64::from(a.coord(d)) - f64::from(b.coord(d))).abs())
            .fold(0.0, f64::max)
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        debug_assert_eq!(q.dim(), rect.dim());
        (0..q.dim())
            .map(|d| {
                axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                )
            })
            .fold(0.0, f64::max)
    }

    fn l2_equivalence_factor(&self, _dim: usize) -> f64 {
        // ||v||_inf <= ||v||_2.
        1.0
    }

    // L∞ is root-free; the running max is monotone, so early abandon is
    // sound here too.
    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.dim(), b.dim());
        let mut acc = 0.0f64;
        let mut d = 0;
        while d < a.dim() {
            let end = (d + ABANDON_STRIDE).min(a.dim());
            while d < end {
                acc = acc.max((f64::from(a.coord(d)) - f64::from(b.coord(d))).abs());
                d += 1;
            }
            if acc > bound_sq {
                return None;
            }
        }
        Some(acc)
    }

    fn name(&self) -> &'static str {
        "Linf"
    }
}

/// Weighted Euclidean distance — the kind of per-query metric produced by
/// relevance-feedback loops (MindReader/MARS, paper §3.5): the user's
/// feedback re-weights feature dimensions between iterations of the same
/// query, which the hybrid tree supports without rebuilding the index.
#[derive(Clone, Debug)]
pub struct WeightedEuclidean {
    weights: Box<[f64]>,
    max_weight_sqrt: f64,
}

impl WeightedEuclidean {
    /// Creates a weighted Euclidean metric with per-dimension weights.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite, or all are zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let max = weights.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.0, "at least one weight must be positive");
        Self {
            weights: weights.into_boxed_slice(),
            max_weight_sqrt: max.sqrt(),
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Metric for WeightedEuclidean {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), self.weights.len());
        (0..a.dim())
            .map(|d| {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                self.weights[d] * diff * diff
            })
            .sum::<f64>()
            .sqrt()
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        (0..q.dim())
            .map(|d| {
                let g = axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                );
                self.weights[d] * g * g
            })
            .sum::<f64>()
            .sqrt()
    }

    fn l2_equivalence_factor(&self, _dim: usize) -> f64 {
        // sqrt(sum w_d v_d^2) <= sqrt(max w) ||v||_2.
        self.max_weight_sqrt
    }

    fn distance_sq(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), self.weights.len());
        (0..a.dim())
            .map(|d| {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                self.weights[d] * diff * diff
            })
            .sum::<f64>()
    }

    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        (0..q.dim())
            .map(|d| {
                let g = axis_gap(
                    f64::from(q.coord(d)),
                    f64::from(rect.lo(d)),
                    f64::from(rect.hi(d)),
                );
                self.weights[d] * g * g
            })
            .sum::<f64>()
    }

    fn distance_from_sq(&self, d_sq: f64) -> f64 {
        d_sq.sqrt()
    }

    fn distance_to_sq(&self, d: f64) -> f64 {
        d * d
    }

    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.dim(), self.weights.len());
        let mut acc = 0.0f64;
        let mut d = 0;
        while d < a.dim() {
            let end = (d + ABANDON_STRIDE).min(a.dim());
            while d < end {
                let diff = f64::from(a.coord(d)) - f64::from(b.coord(d));
                acc += self.weights[d] * diff * diff;
                d += 1;
            }
            if acc > bound_sq {
                return None;
            }
        }
        Some(acc)
    }

    fn axis_gap_sq(&self, dim: usize, gap: f64) -> Option<f64> {
        self.weights.get(dim).map(|w| w * gap * gap)
    }

    fn name(&self) -> &'static str {
        "weighted-L2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: &[f32]) -> Point {
        Point::new(v.to_vec())
    }

    #[test]
    fn l1_distance() {
        let d = L1.distance(&p(&[0.0, 0.0]), &p(&[3.0, 4.0]));
        assert_eq!(d, 7.0);
    }

    #[test]
    fn l2_distance() {
        let d = L2.distance(&p(&[0.0, 0.0]), &p(&[3.0, 4.0]));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_distance() {
        let d = Chebyshev.distance(&p(&[0.0, 0.0]), &p(&[3.0, 4.0]));
        assert_eq!(d, 4.0);
    }

    #[test]
    fn lp_interpolates_l1_l2() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert!((Lp::new(1.0).distance(&a, &b) - 7.0).abs() < 1e-9);
        assert!((Lp::new(2.0).distance(&a, &b) - 5.0).abs() < 1e-9);
        let d15 = Lp::new(1.5).distance(&a, &b);
        assert!(d15 > 5.0 && d15 < 7.0);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn lp_rejects_sub_one() {
        let _ = Lp::new(0.5);
    }

    #[test]
    fn weighted_euclidean_ignores_zero_weight_dims() {
        let m = WeightedEuclidean::new(vec![1.0, 0.0]);
        let d = m.distance(&p(&[0.0, 0.0]), &p(&[3.0, 100.0]));
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mindist_zero_inside_rect() {
        let r = Rect::unit(2);
        let q = p(&[0.5, 0.5]);
        assert_eq!(L1.min_dist_rect(&q, &r), 0.0);
        assert_eq!(L2.min_dist_rect(&q, &r), 0.0);
        assert_eq!(Chebyshev.min_dist_rect(&q, &r), 0.0);
    }

    #[test]
    fn mindist_outside_rect() {
        let r = Rect::unit(2);
        let q = p(&[2.0, 2.0]);
        assert_eq!(L1.min_dist_rect(&q, &r), 2.0);
        assert!((L2.min_dist_rect(&q, &r) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(Chebyshev.min_dist_rect(&q, &r), 1.0);
    }

    #[test]
    fn sphere_bound_is_sane_under_l2() {
        let q = p(&[3.0, 0.0]);
        let c = p(&[0.0, 0.0]);
        assert!((L2.min_dist_sphere(&q, &c, 1.0) - 2.0).abs() < 1e-12);
        // Inside the sphere: bound clamps to 0.
        assert_eq!(L2.min_dist_sphere(&q, &c, 4.0), 0.0);
    }

    proptest! {
        /// MINDIST(q, R) must lower-bound the true distance to every point
        /// in R — the no-false-dismissals contract.
        #[test]
        fn mindist_rect_is_lower_bound(
            q in proptest::collection::vec(-2.0f32..2.0, 4),
            lo in proptest::collection::vec(0.0f32..0.5, 4),
            ext in proptest::collection::vec(0.0f32..0.5, 4),
            t in proptest::collection::vec(0.0f32..1.0, 4),
        ) {
            let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            let rect = Rect::new(lo.clone(), hi.clone());
            // Interior point: lo + t * ext.
            let inner: Vec<f32> = lo.iter().zip(&ext).zip(&t)
                .map(|((l, e), t)| l + t * e).collect();
            let qp = Point::new(q);
            let ip = Point::new(inner);
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(L1), Box::new(L2), Box::new(Chebyshev),
                Box::new(Lp::new(1.5)), Box::new(Lp::new(3.0)),
                Box::new(WeightedEuclidean::new(vec![0.1, 2.0, 1.0, 0.5])),
            ];
            for m in &metrics {
                let bound = m.min_dist_rect(&qp, &rect);
                let true_dist = m.distance(&qp, &ip);
                prop_assert!(bound <= true_dist + 1e-6,
                    "{}: bound {} > dist {}", m.name(), bound, true_dist);
            }
        }

        /// The L2-sphere pruning bound must never exceed the true distance
        /// to any point inside the sphere (checked via random directions).
        #[test]
        fn sphere_bound_is_lower_bound(
            q in proptest::collection::vec(-2.0f32..2.0, 4),
            c in proptest::collection::vec(-1.0f32..1.0, 4),
            dir in proptest::collection::vec(-1.0f32..1.0, 4),
            radius in 0.0f64..2.0,
            scale in 0.0f64..1.0,
        ) {
            let norm: f64 = dir.iter().map(|x| f64::from(*x) * f64::from(*x))
                .sum::<f64>().sqrt();
            prop_assume!(norm > 1e-3);
            // Point inside the L2 ball of `radius` around c.
            let inner: Vec<f32> = c.iter().zip(&dir)
                .map(|(ci, di)| ci + (f64::from(*di) / norm * radius * scale) as f32)
                .collect();
            let qp = Point::new(q);
            let cp = Point::new(c);
            let ip = Point::new(inner);
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(L1), Box::new(L2), Box::new(Chebyshev),
                Box::new(Lp::new(1.5)), Box::new(Lp::new(3.0)),
                Box::new(WeightedEuclidean::new(vec![0.1, 2.0, 1.0, 0.5])),
            ];
            for m in &metrics {
                let bound = m.min_dist_sphere(&qp, &cp, radius);
                let true_dist = m.distance(&qp, &ip);
                prop_assert!(bound <= true_dist + 1e-6,
                    "{}: bound {} > dist {}", m.name(), bound, true_dist);
            }
        }

        /// Comparator-space consistency: mapping `distance_sq` back must
        /// reproduce `distance` *bit-identically* (same accumulation,
        /// root applied once at the end), the early-abandon kernel must
        /// agree exactly with the full kernel, and the squared rect
        /// bound must keep the no-false-dismissals contract.
        #[test]
        fn comparator_space_is_consistent(
            a in proptest::collection::vec(-2.0f32..2.0, 12),
            b in proptest::collection::vec(-2.0f32..2.0, 12),
            lo in proptest::collection::vec(0.0f32..0.5, 12),
            ext in proptest::collection::vec(0.0f32..0.5, 12),
        ) {
            let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            let rect = Rect::new(lo, hi);
            let pa = Point::new(a);
            let pb = Point::new(b);
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(L1), Box::new(L2), Box::new(Chebyshev),
                Box::new(Lp::new(1.5)), Box::new(Lp::new(3.0)),
                Box::new(WeightedEuclidean::new(vec![
                    0.1, 2.0, 1.0, 0.5, 1.5, 0.25, 3.0, 1.0, 0.75, 2.5, 0.0, 1.0,
                ])),
            ];
            for m in &metrics {
                let d = m.distance(&pa, &pb);
                let d_sq = m.distance_sq(&pa, &pb);
                prop_assert_eq!(
                    m.distance_from_sq(d_sq).to_bits(), d.to_bits(),
                    "{}: from_sq(distance_sq) must be bit-identical to distance",
                    m.name()
                );
                // Unbounded early-abandon completes with the exact value.
                let within = m.distance_sq_within(&pa, &pb, f64::INFINITY);
                prop_assert_eq!(within.map(f64::to_bits), Some(d_sq.to_bits()),
                    "{}: unbounded kernel must equal distance_sq", m.name());
                // Bounded: Some(d_sq) iff d_sq <= bound, for bounds on
                // both sides of the true value.
                for bound in [d_sq * 0.5, d_sq, d_sq * 2.0 + 1e-9] {
                    let got = m.distance_sq_within(&pa, &pb, bound);
                    if d_sq <= bound {
                        prop_assert_eq!(got.map(f64::to_bits), Some(d_sq.to_bits()));
                    } else {
                        prop_assert!(got.is_none());
                    }
                }
                // Squared MINDIST keeps the lower-bound contract against
                // a rect corner (a point of the rect).
                let corner = Point::new(
                    (0..rect.dim()).map(|d| rect.lo(d)).collect::<Vec<_>>(),
                );
                prop_assert!(
                    m.min_dist_rect_sq(&pa, &rect)
                        <= m.distance_sq(&pa, &corner) + 1e-6,
                    "{}: squared mindist must lower-bound squared distance",
                    m.name()
                );
            }
        }

        /// The axis-gap hook is additive: over distinct dimensions, the
        /// terms of gaps no wider than a rectangle's own per-dimension
        /// gaps sum to at most its squared MINDIST. `L∞` does not
        /// decompose and keeps the default `None`.
        #[test]
        fn axis_gap_terms_sum_below_rect_bound(
            q in proptest::collection::vec(-2.0f32..3.0, 6),
            lo in proptest::collection::vec(0.0f32..0.5, 6),
            ext in proptest::collection::vec(0.0f32..0.5, 6),
            shrink in proptest::collection::vec(0.0f64..1.0, 6),
            pick in proptest::collection::vec(0u8..3, 6),
        ) {
            let hi: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            let rect = Rect::new(lo, hi);
            let qp = Point::new(q);
            // Each picked dimension gets a gap no wider than the
            // rectangle's own gap there; one in three is left out.
            let gaps: Vec<(usize, f64)> = (0..6)
                .filter(|&d| pick[d] > 0)
                .map(|d| {
                    let g = axis_gap(
                        f64::from(qp.coord(d)),
                        f64::from(rect.lo(d)),
                        f64::from(rect.hi(d)),
                    );
                    (d, if pick[d] == 1 { g } else { g * shrink[d] })
                })
                .collect();
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(L1), Box::new(L2),
                Box::new(Lp::new(1.5)), Box::new(Lp::new(3.0)),
                Box::new(WeightedEuclidean::new(vec![0.1, 2.0, 1.0, 0.5, 0.0, 3.0])),
            ];
            for m in &metrics {
                let mut sum = 0.0;
                for &(d, g) in &gaps {
                    let term = m.axis_gap_sq(d, g);
                    prop_assert!(term.is_some(), "{} must decompose", m.name());
                    sum += term.unwrap_or(0.0);
                }
                let bound = m.min_dist_rect_sq(&qp, &rect);
                prop_assert!(sum <= bound, "{}: terms {} > bound {}", m.name(), sum, bound);
            }
            for &(d, g) in &gaps {
                prop_assert_eq!(Chebyshev.axis_gap_sq(d, g), None);
            }
        }

        /// Triangle inequality sanity for the bundled metrics.
        #[test]
        fn triangle_inequality(
            a in proptest::collection::vec(-1.0f32..1.0, 3),
            b in proptest::collection::vec(-1.0f32..1.0, 3),
            c in proptest::collection::vec(-1.0f32..1.0, 3),
        ) {
            let (pa, pb, pc) = (Point::new(a), Point::new(b), Point::new(c));
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(L1), Box::new(L2), Box::new(Chebyshev),
                Box::new(Lp::new(1.5)),
                Box::new(WeightedEuclidean::new(vec![1.0, 0.5, 2.0])),
            ];
            for m in &metrics {
                prop_assert!(
                    m.distance(&pa, &pc)
                        <= m.distance(&pa, &pb) + m.distance(&pb, &pc) + 1e-9
                );
            }
        }
    }
}
