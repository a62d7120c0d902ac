//! On-disk indexing: the hybrid tree over a checksummed page file,
//! committed with `persist`, reopened in serving mode with a decoded-leaf
//! cache, and a look at what that cache saves.
//!
//! ```sh
//! cargo run --release --example on_disk
//! ```

use hybridtree_repro::data::clustered;
use hybridtree_repro::prelude::*;

fn main() -> Result<(), IndexError> {
    let dim = 12;
    let dir = std::env::temp_dir();
    let pages = dir.join("hybrid_tree_demo.pages");
    let meta = dir.join("hybrid_tree_demo.meta");

    // Build a tree whose pages live in a checksummed file; every page
    // write goes straight to the file.
    let mut tree = HybridTree::create_durable(dim, HybridTreeConfig::default(), &pages)?;
    let points = clustered(50_000, dim, 12, 0.03, 5);
    for (oid, p) in points.iter().enumerate() {
        tree.insert(p.clone(), oid as u64)?;
    }
    let build = tree.io_stats();
    // The commit point: fsync the pages, then write the catalog.
    tree.persist(&meta)?;
    println!(
        "built on disk: {} points, height {}, {} page writes, file {}",
        tree.len(),
        tree.height(),
        build.logical_writes,
        pages.display()
    );
    drop(tree);

    // Reopen with a decoded-leaf cache of 512 data pages: repeated
    // queries skip the read and decode of the data pages it holds, but
    // still count one logical read per node visit (the paper's cost).
    let tree = HybridTree::open_with_node_cache(&pages, &meta, 512)?;
    let q = Point::new(vec![0.5; dim]);
    for _ in 0..50 {
        tree.knn(&q, 10, &L2)?;
    }
    let io = tree.io_stats();
    let cache = tree.cache_stats();
    println!(
        "50 kNN queries after reopen: {} logical reads, {} from storage, {} leaf-cache hits \
         (hit rate {:.0}%)",
        io.logical_reads,
        io.logical_reads.saturating_sub(cache.hits),
        cache.hits,
        100.0 * cache.hit_rate()
    );

    let file_len = std::fs::metadata(&pages).map(|m| m.len()).unwrap_or(0);
    println!(
        "page file size: {:.1} MiB; ELS table encoded at {} bits: {:.1} KiB",
        file_len as f64 / (1024.0 * 1024.0),
        tree.config().els_bits,
        tree.els_overhead_bytes() as f64 / 1024.0
    );

    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
    Ok(())
}
