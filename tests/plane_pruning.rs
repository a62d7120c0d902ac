//! Intra-node pruning on distance queries, measured.
//!
//! The hybrid tree's distance walk tests each kd split plane against the
//! kernel's running bound and skips subtrees that lie too far away,
//! using the metric's per-dimension [`Metric::axis_gap_sq`] terms. kNN
//! prunes from the root: before its best-k list fills there is no bound,
//! so each child is keyed by its path's summed gap terms and bounded only
//! if it reaches the front of the queue. Both are exact: they drop only
//! children the kernel would have bounded and then discarded. So on
//! COLHIST 64-d, with a counting metric that forwards the hook and one
//! that keeps the default `None`, answers and logical reads must be
//! identical, and rectangle bounds must be strictly fewer with the hook.
//! Both counts are pinned, ELS on and ELS off.

use hybridtree_repro::data::colhist;
use hybridtree_repro::eval::{build_engine, Engine};
use hybridtree_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `L1` that counts its rectangle bounds and forwards the axis-gap hook
/// only when `hook` is set.
struct Counting {
    hook: bool,
    rects: AtomicU64,
}

impl Counting {
    fn new(hook: bool) -> Self {
        Counting {
            hook,
            rects: AtomicU64::new(0),
        }
    }

    fn take(&self) -> u64 {
        self.rects.swap(0, Relaxed)
    }
}

impl Metric for Counting {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        L1.distance(a, b)
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        self.rects.fetch_add(1, Relaxed);
        L1.min_dist_rect(q, rect)
    }

    fn l2_equivalence_factor(&self, dim: usize) -> f64 {
        L1.l2_equivalence_factor(dim)
    }

    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        self.rects.fetch_add(1, Relaxed);
        L1.min_dist_rect_sq(q, rect)
    }

    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        L1.distance_sq_within(a, b, bound_sq)
    }

    fn axis_gap_sq(&self, dim: usize, gap: f64) -> Option<f64> {
        if self.hook {
            L1.axis_gap_sq(dim, gap)
        } else {
            None
        }
    }
}

/// Rectangle bounds summed over the script's kNN and range queries.
#[derive(Debug, PartialEq)]
struct Bounds {
    knn: u64,
    range: u64,
}

/// Runs 20 kNN (k = 20) and 20 L1 range queries centred on data points,
/// asserting that the hooked and the default metric agree on every
/// answer and every logical read; returns the bounds of each.
fn measure(engine: Engine, data: &[Point]) -> (Bounds, Bounds) {
    let (idx, _) = build_engine(engine, data).unwrap();
    let (plain, hooked) = (Counting::new(false), Counting::new(true));
    let mut rng = StdRng::seed_from_u64(23);
    let centers: Vec<Point> = (0..20)
        .map(|_| data[rng.gen_range(0..data.len())].clone())
        .collect();
    let mut hits = 0;
    for q in &centers {
        let (a, io_a) = idx.knn_counted(q, 20, &plain).unwrap();
        let (b, io_b) = idx.knn_counted(q, 20, &hooked).unwrap();
        assert_eq!(a, b, "kNN answers differ");
        assert_eq!(io_a.logical_reads, io_b.logical_reads, "kNN reads differ");
    }
    let knn = (plain.take(), hooked.take());
    for q in &centers {
        let (a, io_a) = idx.distance_range_counted(q, 0.35, &plain).unwrap();
        let (b, io_b) = idx.distance_range_counted(q, 0.35, &hooked).unwrap();
        assert_eq!(a, b, "range answers differ");
        assert_eq!(io_a.logical_reads, io_b.logical_reads, "range reads differ");
        hits += a.len();
    }
    assert!(hits > 0, "the range queries must select something");
    let range = (plain.take(), hooked.take());
    (
        Bounds {
            knn: knn.0,
            range: range.0,
        },
        Bounds {
            knn: knn.1,
            range: range.1,
        },
    )
}

#[test]
fn split_planes_prune_bounds_not_answers_on_colhist_64d() {
    let data = colhist(5_000, 64, 7);
    for (engine, plain_pin, hooked_pin) in [
        (
            Engine::Hybrid,
            Bounds {
                knn: 8697,
                range: 9042,
            },
            Bounds {
                knn: 1662,
                range: 3060,
            },
        ),
        (
            Engine::HybridEls(0),
            Bounds {
                knn: 8961,
                range: 9124,
            },
            Bounds {
                knn: 2596,
                range: 3081,
            },
        ),
    ] {
        let (plain, hooked) = measure(engine, &data);
        assert!(hooked.knn < plain.knn && hooked.range < plain.range);
        assert_eq!(plain, plain_pin, "{} without the hook", engine.name());
        assert_eq!(hooked, hooked_pin, "{} with the hook", engine.name());
    }
}
