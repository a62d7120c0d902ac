//! File-backed storage integration: trees over real page files, flush,
//! reopen of the raw store, and cache-vs-cold accounting.

use hybridtree_repro::page::{FileStorage, MemStorage, Storage};
use hybridtree_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

#[test]
fn hybrid_tree_on_file_storage_equals_memory() {
    let pts = points(2_000, 6, 1);
    let cfg = HybridTreeConfig::default();
    let path = tmp("hybrid_eq.pages");

    let mut mem = HybridTree::new(6, cfg.clone()).unwrap();
    let file = FileStorage::create(&path, cfg.page_size).unwrap();
    let mut disk = HybridTree::with_storage(6, cfg, file).unwrap();
    for (i, p) in pts.iter().enumerate() {
        mem.insert(p.clone(), i as u64).unwrap();
        disk.insert(p.clone(), i as u64).unwrap();
    }
    let rect = Rect::new(vec![0.2; 6], vec![0.7; 6]);
    let mut a = mem.box_query(&rect).unwrap();
    let mut b = disk.box_query(&rect).unwrap();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    disk.check_invariants().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn raw_pages_survive_reopen() {
    let path = tmp("reopen.pages");
    let page_size = 512;
    {
        let mut s = FileStorage::create(&path, page_size).unwrap();
        for i in 0..20u8 {
            let id = s.allocate().unwrap();
            s.write(id, &[i; 100]).unwrap();
        }
        s.sync().unwrap();
    }
    {
        let s = FileStorage::open(&path, page_size).unwrap();
        assert_eq!(s.live_pages(), 20);
        let mut buf = vec![0u8; page_size];
        for i in 0..20u8 {
            s.read(hybridtree_repro::page::PageId(u32::from(i)), &mut buf)
                .unwrap();
            assert!(buf[..100].iter().all(|&b| b == i));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mem_storage_reuse_does_not_leak_pages() {
    // Insert then delete everything; live pages should shrink back to a
    // handful (root + empties), demonstrating free-list recycling.
    let pts = points(1_500, 3, 3);
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    let storage = MemStorage::with_page_size(256);
    let mut t = HybridTree::with_storage(3, cfg, storage).unwrap();
    for (i, p) in pts.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    for (i, p) in pts.iter().enumerate() {
        assert!(t.delete(p, i as u64).unwrap());
    }
    assert!(t.is_empty());
    t.check_invariants().unwrap();
}
