//! Deterministic counts of every engine, pinned.
//!
//! Page layouts, split rules and traversal order fix each engine's
//! structure and I/O exactly, so a refactor that means to change
//! neither must leave these numbers alone. For every [`Engine`] variant,
//! on fixed seeded datasets and a fixed set of box, range and kNN
//! queries, this asserts every [`StructureStats`] field (floats compared
//! bit for bit) and the summed `logical_reads` and `seq_reads`. The hB-tree
//! has no distance search (paper §4, footnote 2), so it runs boxes only.
//!
//! On a mismatch the failure message prints each moved row as it now
//! reads, ready to paste, for a change that means to move a count.

use hybridtree_repro::data::{clustered, colhist};
use hybridtree_repro::eval::{build_engine, Engine};
use hybridtree_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const ENGINES: [Engine; 8] = [
    Engine::Hybrid,
    Engine::HybridVam,
    Engine::HybridEls(0),
    Engine::HybridBulk,
    Engine::Hb,
    Engine::Sr,
    Engine::Kdb,
    Engine::Scan,
];

/// One engine's counts on one dataset: `[height, total_nodes,
/// index_nodes, data_nodes, distinct_split_dims, redundant_bytes,
/// logical_reads, seq_reads]` and `[avg_fanout, avg_leaf_utilization,
/// avg_overlap_fraction]`.
type Row = ([u64; 8], [f64; 3]);

/// Exact equality, floats compared bit for bit.
fn same(a: &Row, b: &Row) -> bool {
    a.0 == b.0
        && a.1
            .iter()
            .zip(&b.1)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn measure(engine: Engine, data: &[Point], seed: u64) -> Row {
    let (idx, _) = build_engine(engine, data).unwrap();
    let s = idx.structure_stats().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut io = IoStats::default();
    let mut add = |q: IoStats| {
        io.logical_reads += q.logical_reads;
        io.seq_reads += q.seq_reads;
    };
    for i in 0..24 {
        let c = data[rng.gen_range(0..data.len())].clone();
        match i % 3 {
            0 => {
                let h = rng.gen_range(0.02..0.25f32);
                let rect = Rect::new(
                    c.coords().iter().map(|x| x - h).collect(),
                    c.coords().iter().map(|x| x + h).collect(),
                );
                add(idx.box_query_counted(&rect).unwrap().1);
            }
            1 => {
                let r = rng.gen_range(0.05..0.3f64);
                if engine != Engine::Hb {
                    add(idx.distance_range_counted(&c, r, &L2).unwrap().1);
                }
            }
            _ => {
                let k = rng.gen_range(1..20usize);
                if engine != Engine::Hb {
                    add(idx.knn_counted(&c, k, &L2).unwrap().1);
                }
            }
        }
    }
    (
        [
            s.height as u64,
            s.total_nodes as u64,
            s.index_nodes as u64,
            s.data_nodes as u64,
            s.distinct_split_dims as u64,
            s.redundant_bytes as u64,
            io.logical_reads,
            io.seq_reads,
        ],
        [s.avg_fanout, s.avg_leaf_utilization, s.avg_overlap_fraction],
    )
}

fn check(dataset: &str, data: &[Point], seed: u64, expected: &[(&str, [u64; 8], [f64; 3])]) {
    assert_eq!(expected.len(), ENGINES.len());
    let mut bad = Vec::new();
    for (engine, (name, counts, ratios)) in ENGINES.into_iter().zip(expected) {
        assert_eq!(engine.name(), *name);
        let got = measure(engine, data, seed);
        if !same(&got, &(*counts, *ratios)) {
            let ([c0, c1, c2, c3, c4, c5, c6, c7], [f0, f1, f2]) = got;
            bad.push(format!(
                "{dataset}: (\"{name}\", [{c0}, {c1}, {c2}, {c3}, {c4}, {c5}, {c6}, {c7}], \
                 [{f0:?}, {f1:?}, {f2:?}]),"
            ));
        }
    }
    assert!(bad.is_empty(), "counts moved:\n{}", bad.join("\n"));
}

#[test]
fn colhist_64d_counts_are_pinned() {
    check(
        "colhist-64d",
        &colhist(5_000, 64, 7),
        41,
        &[
            (
                "hybrid",
                [3, 503, 5, 498, 25, 0, 1202, 0],
                [100.4, 0.6483404320406626, 0.0004109933314254231],
            ),
            (
                "hybrid-vam",
                [3, 479, 4, 475, 23, 0, 1325, 0],
                [119.5, 0.679674650493421, 0.002251481171432507],
            ),
            (
                "hybrid-els0",
                [3, 503, 5, 498, 25, 0, 2053, 0],
                [100.4, 0.6483404320406626, 0.0004109933314254231],
            ),
            (
                "hybrid-bulk",
                [3, 516, 4, 512, 24, 0, 1015, 0],
                [128.75, 0.630645751953125, 0.026679850877330512],
            ),
            (
                "hb-tree",
                [3, 488, 3, 485, 25, 5832, 1060, 0],
                [162.33333333333334, 0.6690978374677835, 0.0],
            ),
            (
                "sr-tree",
                [6, 666, 183, 483, 64, 0, 1322, 0],
                [3.633879781420765, 0.6684373180318323, 0.0],
            ),
            (
                "kdb-tree",
                [3, 488, 3, 485, 25, 0, 2003, 0],
                [162.33333333333334, 0.665685909310567, 0.0],
            ),
            (
                "seq-scan",
                [1, 334, 0, 334, 0, 0, 0, 8016],
                [0.0, 0.9658437032185628, 0.0],
            ),
        ],
    );
}

#[test]
fn clustered_6d_counts_are_pinned() {
    check(
        "clustered-6d",
        &clustered(8_000, 6, 5, 0.03, 8),
        43,
        &[
            (
                "hybrid",
                [2, 94, 1, 93, 6, 0, 377, 0],
                [93.0, 0.6732637138776881, 0.0],
            ),
            (
                "hybrid-vam",
                [2, 92, 1, 91, 6, 0, 401, 0],
                [91.0, 0.6880338899381868, 0.0],
            ),
            (
                "hybrid-els0",
                [2, 94, 1, 93, 6, 0, 405, 0],
                [93.0, 0.6732637138776881, 0.0],
            ),
            (
                "hybrid-bulk",
                [2, 65, 1, 64, 6, 0, 293, 0],
                [64.0, 0.977783203125, 0.0],
            ),
            (
                "hb-tree",
                [2, 89, 1, 88, 6, 1044, 139, 0],
                [88.0, 0.7148326526988636, 0.0],
            ),
            (
                "sr-tree",
                [3, 97, 4, 93, 6, 0, 476, 0],
                [24.0, 0.6732637138776881, 0.0],
            ),
            (
                "kdb-tree",
                [2, 89, 1, 88, 6, 0, 398, 0],
                [88.0, 0.7114479758522727, 0.0],
            ),
            (
                "seq-scan",
                [1, 63, 0, 63, 0, 0, 0, 1512],
                [0.0, 0.9930400545634921, 0.0],
            ),
        ],
    );
}
