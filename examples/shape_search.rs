//! Shape similarity search over Fourier descriptors — the FOURIER
//! workload of the paper's evaluation, and a direct comparison against
//! the linear scan that high-dimensional indexes must beat (§4).
//!
//! ```sh
//! cargo run --release --example shape_search
//! ```

use hybridtree_repro::data::fourier;
use hybridtree_repro::page::DEFAULT_PAGE_SIZE;
use hybridtree_repro::prelude::*;
use hybridtree_repro::scan::SeqScan;

const DIM: usize = 16;

fn main() -> Result<(), IndexError> {
    // 100,000 polygon shapes as 16-d Fourier descriptors.
    let shapes = fourier(100_000, DIM, 3);

    let mut tree = HybridTree::new(DIM, HybridTreeConfig::default())?;
    let mut scan = SeqScan::new(DIM, DEFAULT_PAGE_SIZE)?;
    for (oid, s) in shapes.iter().enumerate() {
        tree.insert(s.clone(), oid as u64)?;
        scan.insert(s.clone(), oid as u64)?;
    }
    println!(
        "indexed {} shapes ({DIM}-d Fourier descriptors)",
        tree.len()
    );

    // Range search: all shapes within L2 distance 0.05 of a probe shape.
    let probe = shapes[777].clone();
    let radius = 0.05;

    tree.reset_io_stats();
    let mut from_tree = tree.distance_range(&probe, radius, &L2)?;
    let tree_io = tree.io_stats();

    scan.reset_io_stats();
    let mut from_scan = scan.distance_range(&probe, radius, &L2)?;
    let scan_io = scan.io_stats();

    from_tree.sort_unstable();
    from_scan.sort_unstable();
    assert_eq!(from_tree, from_scan, "index and scan must agree");

    println!("\nshapes within {radius} of probe: {}", from_tree.len());
    println!(
        "hybrid tree: {} random accesses (weighted cost {:.1})",
        tree_io.logical_reads,
        tree_io.weighted_accesses()
    );
    println!(
        "linear scan: {} sequential accesses (weighted cost {:.1})",
        scan_io.seq_reads,
        scan_io.weighted_accesses()
    );
    println!(
        "speedup under the paper's cost model: {:.1}x",
        scan_io.weighted_accesses() / tree_io.weighted_accesses().max(1e-9)
    );

    // Nearest-neighbor under a different metric, same index.
    let nn = tree.knn(&probe, 5, &L1)?;
    println!("\n5 most similar shapes under L1:");
    for (oid, d) in nn {
        println!("  shape {oid:>6}  distance {d:.4}");
    }
    Ok(())
}
