//! Write-path I/O of the hybrid tree, pinned.
//!
//! Inserts and deletes route over index pages in place and decode only
//! the pages they rewrite, from the bytes they already read. That must
//! not change which pages a write reads or writes. For the three
//! insert-built hybrid configurations, on fixed seeded datasets, this
//! pins the pool's summed `logical_reads` and `logical_writes` over the
//! build and over a fixed delete script (90% of the points, in a seeded
//! order, with the eliminations, reinsertions and root shrinks that
//! brings). A path that re-read a page for a split post, or dropped a
//! leaf write, moves these numbers.
//!
//! On a mismatch the failure message prints each moved row as it now
//! reads, ready to paste, for a change that means to move a count.

use hybridtree_repro::data::{clustered, colhist};
use hybridtree_repro::eval::{build_engine, Engine};
use hybridtree_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const ENGINES: [Engine; 3] = [Engine::Hybrid, Engine::HybridVam, Engine::HybridEls(0)];

/// `[build reads, build writes, delete reads, delete writes]`.
type Row = [u64; 4];

fn measure(engine: Engine, data: &[Point], seed: u64) -> Row {
    let (mut idx, _) = build_engine(engine, data).unwrap();
    let built = idx.io_stats();
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    for &i in &order[..data.len() * 9 / 10] {
        assert!(idx.delete(&data[i], i as u64).unwrap(), "delete {i}");
    }
    let done = idx.io_stats();
    [
        built.logical_reads,
        built.logical_writes,
        done.logical_reads - built.logical_reads,
        done.logical_writes - built.logical_writes,
    ]
}

fn check(dataset: &str, data: &[Point], seed: u64, expected: &[(&str, Row)]) {
    assert_eq!(expected.len(), ENGINES.len());
    let mut bad = Vec::new();
    for (engine, (name, want)) in ENGINES.into_iter().zip(expected) {
        assert_eq!(engine.name(), *name);
        let [a, b, c, d] = measure(engine, data, seed);
        if [a, b, c, d] != *want {
            bad.push(format!("{dataset}: (\"{name}\", [{a}, {b}, {c}, {d}]),"));
        }
    }
    assert!(bad.is_empty(), "write counts moved:\n{}", bad.join("\n"));
}

#[test]
fn colhist_64d_write_counts_are_pinned() {
    check(
        "colhist-64d",
        &colhist(5_000, 64, 7),
        41,
        &[
            ("hybrid", [12658, 6001, 26629, 6484]),
            ("hybrid-vam", [12593, 5953, 25091, 6244]),
            ("hybrid-els0", [12658, 6001, 30626, 6484]),
        ],
    );
}

#[test]
fn clustered_6d_write_counts_are_pinned() {
    check(
        "clustered-6d",
        &clustered(8_000, 6, 5, 0.03, 8),
        43,
        &[
            ("hybrid", [15872, 8185, 29254, 11045]),
            ("hybrid-vam", [15872, 8181, 28394, 10597]),
            ("hybrid-els0", [15872, 8185, 29254, 11045]),
        ],
    );
}
