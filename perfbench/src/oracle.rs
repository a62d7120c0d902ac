//! Brute-force answers, computed outside every timed region.

use hyt_geom::{Metric, Point, Rect, L1, L2};

/// The set of live entries at some point of a run, with brute-force
/// box, L1-range and L2-kNN answers over it.
pub struct Oracle<'a> {
    points: &'a [Point],
    live: Vec<u64>,
    /// Position of each oid in `live`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl<'a> Oracle<'a> {
    /// Starts with oids `0..base` live.
    pub fn new(points: &'a [Point], base: usize) -> Self {
        let mut pos = vec![usize::MAX; points.len()];
        for (i, p) in pos.iter_mut().enumerate().take(base) {
            *p = i;
        }
        Oracle {
            points,
            live: (0..base as u64).collect(),
            pos,
        }
    }

    pub fn insert(&mut self, oid: u64) {
        self.pos[oid as usize] = self.live.len();
        self.live.push(oid);
    }

    pub fn delete(&mut self, oid: u64) {
        let i = std::mem::replace(&mut self.pos[oid as usize], usize::MAX);
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.pos[moved as usize] = i;
        }
    }

    pub fn is_live(&self, oid: u64) -> bool {
        self.pos.get(oid as usize).is_some_and(|&p| p != usize::MAX)
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn point(&self, oid: u64) -> &Point {
        &self.points[oid as usize]
    }

    /// Live oids, sorted.
    pub fn live_sorted(&self) -> Vec<u64> {
        let mut v = self.live.clone();
        v.sort_unstable();
        v
    }

    fn select(&self, keep: impl Fn(&Point) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .live
            .iter()
            .copied()
            .filter(|&o| keep(self.point(o)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Oids inside the closed box, sorted.
    pub fn box_answer(&self, rect: &Rect) -> Vec<u64> {
        self.select(|p| rect.contains_point(p))
    }

    /// Oids within L1 distance `radius` of `q`, sorted.
    pub fn range_answer(&self, q: &Point, radius: f64) -> Vec<u64> {
        self.select(|p| L1.distance(q, p) <= radius)
    }

    /// The `k` smallest L2 distances from `q`, ascending.
    pub fn knn_distances(&self, q: &Point, k: usize) -> Vec<f64> {
        let mut best: Vec<f64> = Vec::with_capacity(k + 1);
        for &o in &self.live {
            let d = L2.distance(q, self.point(o));
            if best.len() < k || d < best[k - 1] {
                let at = best.partition_point(|&b| b <= d);
                best.insert(at, d);
                best.truncate(k);
            }
        }
        best
    }

    /// Whether a kNN answer is right: the oids are distinct and live, each
    /// reported distance is that entry's true distance, and the distances
    /// are exactly the `k` smallest. Ties at the k-th distance may be
    /// answered by either entry.
    pub fn knn_ok(&self, q: &Point, got: &[(u64, f64)], expected: &[f64]) -> bool {
        if got.len() != expected.len() {
            return false;
        }
        let mut oids: Vec<u64> = got.iter().map(|&(o, _)| o).collect();
        oids.sort_unstable();
        oids.dedup();
        oids.len() == got.len()
            && got
                .iter()
                .all(|&(o, d)| self.is_live(o) && L2.distance(q, self.point(o)) == d)
            && got.iter().map(|&(_, d)| d).eq(expected.iter().copied())
    }
}

/// Expected answers for the read phases' query lists.
pub struct Expected {
    pub boxes: Vec<Vec<u64>>,
    pub ranges: Vec<Vec<u64>>,
    pub knn: Vec<Vec<f64>>,
}

/// `items.map(f)` split over two threads (brute force is the slowest
/// untimed step of a run).
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (a, b) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let f = &f;
        let left = s.spawn(move || a.iter().map(f).collect::<Vec<R>>());
        let mut right: Vec<R> = b.iter().map(f).collect();
        let mut out = left.join().expect("oracle thread panicked");
        out.append(&mut right);
        out
    })
}

impl Expected {
    pub fn compute(oracle: &Oracle, inputs: &crate::inputs::Inputs) -> Self {
        Expected {
            boxes: par_map(&inputs.boxes, |r| oracle.box_answer(r)),
            ranges: par_map(&inputs.range_centers, |q| {
                oracle.range_answer(q, inputs.radius)
            }),
            knn: par_map(&inputs.knn_centers, |q| {
                oracle.knn_distances(q, crate::inputs::K)
            }),
        }
    }

    /// Mean fraction of the live entries a box / range answer returns.
    pub fn selectivity(&self, live: usize) -> (f64, f64) {
        let mean =
            |v: &[Vec<u64>]| v.iter().map(Vec::len).sum::<usize>() as f64 / (v.len() * live) as f64;
        (mean(&self.boxes), mean(&self.ranges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_keeps_positions_consistent() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(vec![i as f32])).collect();
        let mut o = Oracle::new(&pts, 4);
        o.delete(1);
        o.insert(5);
        o.delete(3);
        assert_eq!(o.live_sorted(), vec![0, 2, 5]);
        assert!(!o.is_live(1) && !o.is_live(4) && o.is_live(5));
        let q = Point::new(vec![2.2]);
        let d = |oid: usize| L2.distance(&q, &pts[oid]);
        let knn = o.knn_distances(&q, 2);
        assert_eq!(knn, vec![d(2), d(0)]);
        assert!(o.knn_ok(&q, &[(2, d(2)), (0, d(0))], &knn));
        assert!(!o.knn_ok(&q, &[(2, d(2)), (1, d(0))], &knn), "deleted oid");
        assert!(
            !o.knn_ok(&q, &[(2, d(2)), (2, d(2))], &knn),
            "duplicate oid"
        );
    }
}
