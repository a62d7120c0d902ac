//! Property-based cross-engine testing: every index structure must stay
//! equivalent to a naive oracle under arbitrary interleavings of
//! inserts, deletes, and queries — the same harness the hybrid tree gets
//! in `hybrid_properties.rs`, applied to the baselines.

use hybridtree_repro::hbtree::HbTree;
use hybridtree_repro::kdbtree::KdbTree;
use hybridtree_repro::prelude::*;
use hybridtree_repro::scan::SeqScan;
use hybridtree_repro::srtree::SrTree;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<f32>),
    Delete(usize),
    Box(Vec<f32>, f32),
}

fn op_strategy(dim: usize) -> impl Strategy<Value = Op> {
    let coord = -1.0f32..2.0;
    let point = proptest::collection::vec(coord, dim);
    prop_oneof![
        4 => point.clone().prop_map(Op::Insert),
        1 => (0usize..1024).prop_map(Op::Delete),
        2 => (point, 0.05f32..0.8).prop_map(|(c, h)| Op::Box(c, h)),
    ]
}

fn run_ops(mut idx: Box<dyn MultidimIndex>, ops: Vec<Op>) {
    let mut oracle: Vec<(Point, u64)> = Vec::new();
    let mut next_oid = 0u64;
    for op in ops {
        match op {
            Op::Insert(coords) => {
                let p = Point::new(coords);
                idx.insert(p.clone(), next_oid).unwrap();
                oracle.push((p, next_oid));
                next_oid += 1;
            }
            Op::Delete(i) => {
                if oracle.is_empty() {
                    continue;
                }
                let (p, oid) = oracle.swap_remove(i % oracle.len());
                assert!(idx.delete(&p, oid).unwrap(), "{}: lost entry", idx.name());
            }
            Op::Box(center, h) => {
                let rect = Rect::new(
                    center.iter().map(|c| c - h).collect(),
                    center.iter().map(|c| c + h).collect(),
                );
                let mut got = idx.box_query(&rect).unwrap();
                got.sort_unstable();
                let mut want: Vec<u64> = oracle
                    .iter()
                    .filter(|(p, _)| rect.contains_point(p))
                    .map(|(_, o)| *o)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{} diverged from oracle", idx.name());
            }
        }
    }
    assert_eq!(idx.len(), oracle.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn srtree_matches_oracle(ops in proptest::collection::vec(op_strategy(3), 1..200)) {
        run_ops(Box::new(SrTree::new(3, 512).unwrap()), ops);
    }

    #[test]
    fn hbtree_matches_oracle(ops in proptest::collection::vec(op_strategy(3), 1..200)) {
        run_ops(Box::new(HbTree::new(3, 256).unwrap()), ops);
    }

    #[test]
    fn kdbtree_matches_oracle(ops in proptest::collection::vec(op_strategy(3), 1..200)) {
        run_ops(Box::new(KdbTree::new(3, 256).unwrap()), ops);
    }

    #[test]
    fn seqscan_matches_oracle(ops in proptest::collection::vec(op_strategy(3), 1..150)) {
        run_ops(Box::new(SeqScan::new(3, 256).unwrap()), ops);
    }

    /// Duplicate-heavy: coordinates snapped to a coarse grid stress the
    /// rank-split / boundary-routing paths of the SP structures.
    #[test]
    fn sp_trees_survive_duplicates(raw in proptest::collection::vec(op_strategy(2), 1..200)) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|op| match op {
                Op::Insert(c) => Op::Insert(
                    c.into_iter().map(|x| (x * 3.0).round() / 3.0).collect(),
                ),
                other => other,
            })
            .collect();
        run_ops(Box::new(KdbTree::new(2, 256).unwrap()), ops.clone());
        run_ops(Box::new(HbTree::new(2, 256).unwrap()), ops);
    }
}
