//! Workload definitions and seeded input generation.
//!
//! Everything a run feeds the index is made here, before any timer
//! starts: the stored points (fixed per workload), and from `--seed` the
//! held-out query and insert points, the calibrated box side and L1
//! radius, and the write-phase operation script.

use hyt_geom::{Metric, Point, Rect, L1};

/// Which generator the dataset comes from.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Colhist,
    Fourier,
}

/// One workload: dataset, cache setting and phase plan.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dim: usize,
    /// Points inserted at build time.
    pub base: usize,
    /// Target selectivity of box and range queries (paper §4).
    pub selectivity: f64,
    /// Reopen with `open_with_node_cache` sized to the built tree's node
    /// count; otherwise `HybridTree::open` with the shipped defaults (no
    /// pool frames, no decoded-node cache: every page visit pays pread,
    /// CRC and decode).
    pub node_cache: bool,
    /// Operations of the write phase (50% insert, 25% delete, 25% kNN).
    pub write_ops: usize,
    /// A commit (`persist`) follows every this many write-phase ops.
    pub commit_every: usize,
    /// Whether the write phase runs before the read phases (ingest) or
    /// after them (`colhist64-cold`).
    pub writes_first: bool,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "colhist64-cold",
        kind: Kind::Colhist,
        dim: 64,
        base: 20_000,
        selectivity: 0.002,
        node_cache: false,
        write_ops: 3_000,
        commit_every: 250,
        writes_first: false,
    },
    Spec {
        name: "fourier16-ingest",
        kind: Kind::Fourier,
        dim: 16,
        base: 40_000,
        selectivity: 0.0007,
        node_cache: true,
        write_ops: 20_000,
        commit_every: 1_000,
        writes_first: true,
    },
];

/// Distinct queries of each kind (box, range, kNN) the read phases cycle.
pub const QUERIES: usize = 1_000;
/// Base points the calibration counts matches among (a prefix of the
/// base set, which is already in random order).
pub const CALIBRATION_SAMPLE: usize = 2_000;
/// Seed of the point pool every run draws from.
const POOL_SEED: u64 = 0x4879_6272_6964;
/// Neighbours per kNN query.
pub const K: usize = 10;

/// A write-phase operation. Oids index [`Inputs::points`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Insert(u64),
    Delete(u64),
    /// kNN around `Inputs::knn_centers[i]`.
    Knn(usize),
}

pub struct Inputs {
    pub dim: usize,
    /// Every point that may be stored, indexed by oid: the base set
    /// (`0..base`) followed by the held-out insert pool.
    pub points: Vec<Point>,
    pub base: usize,
    pub boxes: Vec<Rect>,
    pub box_side: f64,
    pub range_centers: Vec<Point>,
    pub radius: f64,
    pub knn_centers: Vec<Point>,
    pub ops: Vec<Op>,
}

/// The query size whose mean selectivity over `centers` is `target`:
/// the `target` quantile of `size(center, point)` over every pair, where
/// `size` is the smallest query around the center that holds the point.
/// This is the point `hyt_data::calibrate_box_side` / `calibrate_radius`
/// bisect towards, found exactly, so every query center can take part.
fn calibrate(
    sample: &[Point],
    centers: &[Point],
    target: f64,
    size: impl Fn(&Point, &Point) -> f64,
) -> f64 {
    let mut sizes: Vec<f32> = centers
        .iter()
        .flat_map(|c| sample.iter().map(|p| size(c, p) as f32))
        .collect();
    let k = ((target * sizes.len() as f64).ceil() as usize).clamp(1, sizes.len());
    f64::from(*sizes.select_nth_unstable_by(k - 1, f32::total_cmp).1)
}

/// SplitMix64: a small, fixed generator so inputs do not depend on any
/// library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The write-phase script: op kinds drawn 2:1:1, delete victims drawn
/// uniformly from the entries live at that point, kNN centers cycled.
/// Needs only oids, so it is drawn before any point exists.
fn write_script(spec: &Spec, base: usize, rng: &mut Rng) -> Vec<Op> {
    let mut live: Vec<u64> = (0..base as u64).collect();
    let mut next = base as u64;
    let mut knn = 0;
    (0..spec.write_ops)
        .map(|_| match rng.below(4) {
            0 | 1 => {
                live.push(next);
                next += 1;
                Op::Insert(next - 1)
            }
            2 => Op::Delete(live.swap_remove(rng.below(live.len()))),
            _ => {
                knn += 1;
                Op::Knn((knn - 1) % QUERIES)
            }
        })
        .collect()
}

/// Generates every input of one run. `scale` shrinks the dataset and
/// the write phase (the benchmark's own tests run at a small scale).
pub fn generate(spec: &Spec, seed: u64, scale: f64) -> Inputs {
    let base = ((spec.base as f64 * scale) as usize).max(500);
    let write_spec = Spec {
        // Whole commit intervals, so the script ends on a commit.
        write_ops: ((spec.write_ops as f64 * scale) as usize / spec.commit_every).max(1)
            * spec.commit_every,
        ..*spec
    };
    let mut rng = Rng::new(seed);
    let ops = write_script(&write_spec, base, &mut rng);
    let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();

    // The built tree is fixed per workload: one pool drawn with a constant
    // seed, whose first `base` points are inserted in order. The run seed
    // decides which of the remaining points are inserted later or asked
    // about. Drawing the dataset from the run seed moved kNN page reads
    // 2.6x between seeds on COLHIST, and a seeded choice of the stored
    // points or their order still moved them 1.4x: the tree's shape
    // depends on insertion order.
    let size = base + write_spec.write_ops + 3 * QUERIES;
    let mut pool = match spec.kind {
        Kind::Colhist => hyt_data::colhist(size, spec.dim, POOL_SEED),
        Kind::Fourier => hyt_data::fourier(size, spec.dim, POOL_SEED),
    };
    for i in (base + 1..size).rev() {
        pool.swap(i, base + rng.below(i + 1 - base));
    }
    // Every query is centred on a held-out point (query by example, as in
    // Fig 7(c,d)). Box centers uniform in the data space (paper §4) made
    // box_p99 swing threefold between seeds: most such boxes are empty
    // and the few that hit a dense cluster set the tail.
    let knn_centers = pool.split_off(size - QUERIES);
    let range_centers = pool.split_off(size - 2 * QUERIES);
    let box_centers = pool.split_off(size - 3 * QUERIES);
    pool.truncate(base + inserts);
    let points = pool;
    let sample = &points[..base.min(CALIBRATION_SAMPLE)];
    // A box of side `s` around `c` holds `p` iff `s >= 2 * L_inf(c, p)`.
    let box_side = calibrate(sample, &box_centers, spec.selectivity, |c, p| {
        let gap = c
            .coords()
            .iter()
            .zip(p.coords())
            .map(|(a, b)| (a - b).abs());
        2.0 * f64::from(gap.fold(0.0f32, f32::max))
    });
    let radius = calibrate(sample, &range_centers, spec.selectivity, |c, p| {
        L1.distance(c, p)
    });
    let h = (box_side / 2.0) as f32;
    let boxes = box_centers
        .iter()
        .map(|c| {
            Rect::new(
                c.coords().iter().map(|x| x - h).collect(),
                c.coords().iter().map(|x| x + h).collect(),
            )
        })
        .collect();
    Inputs {
        dim: spec.dim,
        points,
        base,
        boxes,
        box_side,
        range_centers,
        radius,
        knn_centers,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = &WORKLOADS[0];
        let a = generate(spec, 7, 0.05);
        let b = generate(spec, 7, 0.05);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.box_side, b.box_side);
        assert_eq!(a.radius, b.radius);
        assert!(a.points.iter().zip(&b.points).all(|(p, q)| p == q));
        // Another seed builds the same tree but asks other queries.
        let c = generate(spec, 8, 0.05);
        assert!(a.points[..a.base] == c.points[..c.base]);
        assert!(a.ops != c.ops && a.knn_centers[0] != c.knn_centers[0]);
    }

    #[test]
    fn script_deletes_only_live_entries() {
        let spec = &WORKLOADS[1];
        let inputs = generate(spec, 3, 0.05);
        let mut live: std::collections::HashSet<u64> = (0..inputs.base as u64).collect();
        for op in &inputs.ops {
            match *op {
                Op::Insert(oid) => assert!(live.insert(oid)),
                Op::Delete(oid) => assert!(live.remove(&oid)),
                Op::Knn(i) => assert!(i < QUERIES),
            }
        }
        assert_eq!(
            inputs.points.len(),
            inputs.base
                + inputs
                    .ops
                    .iter()
                    .filter(|o| matches!(o, Op::Insert(_)))
                    .count()
        );
    }
}
