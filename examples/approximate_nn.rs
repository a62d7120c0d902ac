//! Approximate and incremental nearest-neighbor search — the paper's
//! stated future work ("we intend to support new types of queries like
//! approximate nearest neighbor queries efficiently using the hybrid
//! tree"), implemented on top of the same index. The `epsilon` of a kNN
//! `Query` works the same on every engine with distance search.
//!
//! ```sh
//! cargo run --release --example approximate_nn
//! ```

use hybridtree_repro::data::colhist;
use hybridtree_repro::prelude::*;

fn main() -> Result<(), IndexError> {
    let dim = 32;
    let images = colhist(40_000, dim, 21);
    let mut tree = HybridTree::new(dim, HybridTreeConfig::default())?;
    for (oid, p) in images.iter().enumerate() {
        tree.insert(p.clone(), oid as u64)?;
    }
    println!("indexed {} histograms ({dim}-d)\n", tree.len());
    let q = images[4321].clone();

    // Exact kNN as the reference.
    tree.reset_io_stats();
    let exact = tree.knn(&q, 10, &L2)?;
    let exact_io = tree.io_stats().logical_reads;
    println!(
        "exact 10-NN: {exact_io} page reads; k-th distance {:.5}",
        exact[9].1
    );

    // (1+eps)-approximate kNN: fewer reads, bounded error.
    for epsilon in [0.2, 1.0, 3.0] {
        let query = Query::Knn {
            q: q.clone(),
            k: 10,
            epsilon,
        };
        let (outcome, io) = tree.execute(&query, &L2, QueryContext::unlimited())?;
        let approx = outcome.into_results().into_hits();
        let io = io.logical_reads;
        let worst_ratio = approx
            .iter()
            .zip(&exact)
            .map(|(a, e)| if e.1 > 0.0 { a.1 / e.1 } else { 1.0 })
            .fold(1.0f64, f64::max);
        println!(
            "eps={epsilon:<4} {io:>4} page reads ({:.0}% of exact); worst rank-distance ratio {:.3} (bound {:.1})",
            100.0 * io as f64 / exact_io as f64,
            worst_ratio,
            1.0 + epsilon
        );
    }

    // Incremental ranked retrieval: pull results one at a time, stop
    // whenever the user is satisfied — no k fixed up front.
    let mut cursor = tree.knn_stream(&q, &L1, QueryContext::unlimited())?;
    println!("\nstreaming the 5 nearest under L1 (pulled lazily):");
    for rank in 1..=5 {
        if let Some((oid, d)) = cursor.next() {
            println!("  #{rank}: image {oid:>6} at distance {d:.5}");
        }
    }
    if let Some(e) = cursor.take_error() {
        return Err(e);
    }
    println!(
        "cursor cost so far: {} page reads (of {} total pages)",
        cursor.io().logical_reads,
        tree.structure_stats()?.total_nodes
    );
    Ok(())
}
