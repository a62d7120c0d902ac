//! Crash-matrix fault injection: kill the process (simulated) at every
//! write site, reopen, and demand either a fully consistent tree or a
//! typed corruption error — never a panic, never silently wrong results.
//!
//! The stack under test is the production durability stack with a fault
//! layer spliced in *below* the checksums, so injected damage hits the
//! framed bytes exactly as real torn writes and bit rot would:
//!
//! ```text
//! ChecksumStorage  (CRC frames, epochs — what production runs)
//!   FaultStorage   (scripted crashes, torn writes, bit flips)
//!     FileStorage  (the real page file)
//! ```

use hybridtree_repro::core::{scrub_index, scrub_pages, HybridTree, HybridTreeConfig};
use hybridtree_repro::geom::{Point, Rect};
use hybridtree_repro::index::{IndexError, IndexResult, MultidimIndex};
use hybridtree_repro::page::{
    ChecksumStorage, FaultScript, FaultStorage, FileStorage, FRAME_HEADER_BYTES,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

type FaultyStack = ChecksumStorage<FaultStorage<FileStorage>>;

const DIM: usize = 4;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_crash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn cfg() -> HybridTreeConfig {
    HybridTreeConfig {
        page_size: 512,
        els_bits: 4,
        ..HybridTreeConfig::default()
    }
}

fn points(n: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    (0..n)
        .map(|_| Point::new((0..DIM).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

/// Builds the faulted stack over a fresh page file.
fn faulty_stack(pages: &Path) -> (FaultyStack, Arc<FaultScript>) {
    let slot = cfg().page_size + FRAME_HEADER_BYTES;
    let file = FileStorage::create(pages, slot).unwrap();
    let (faulty, script) = FaultStorage::new(file);
    (ChecksumStorage::new(faulty), script)
}

/// The scripted workload: inserts with a mid-way commit, then deletes,
/// then a final commit. Every step is fallible; after a scripted crash
/// the first error aborts the rest, like a dying process would. Returns
/// the mutation count observed right after the mid-way commit.
fn workload(
    tree: &mut HybridTree<FaultyStack>,
    pts: &[Point],
    meta: &Path,
    script: &FaultScript,
) -> IndexResult<u64> {
    let mut mid_mark = 0;
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64)?;
        if i == pts.len() / 2 {
            tree.persist(meta)?;
            mid_mark = script.writes_seen();
        }
    }
    for (i, p) in pts.iter().take(pts.len() / 4).enumerate() {
        tree.delete(p, i as u64)?;
    }
    tree.persist(meta)?;
    Ok(mid_mark)
}

/// Deep consistency check on a reopened tree: structural invariants hold
/// and a whole-space query returns exactly `len` results (no phantom or
/// lost entries relative to the tree's own metadata). Reads every page,
/// so payload corruption that `open` verifies lazily surfaces here as a
/// typed error.
fn deep_check(tree: &HybridTree<hybridtree_repro::page::DurableStorage>) -> IndexResult<()> {
    tree.check_invariants()?;
    let everything = Rect::new(vec![-1.0; DIM], vec![2.0; DIM]);
    let hits = tree.box_query(&everything)?;
    assert_eq!(
        hits.len(),
        tree.len(),
        "whole-space query disagrees with entry count"
    );
    Ok(())
}

#[test]
fn crash_at_every_write_site_recovers_or_fails_typed() {
    let pts = points(400);
    let pages = tmp("matrix.pages");
    let meta = tmp("matrix.meta");

    // Dry run with the script disarmed to count write sites.
    let (total_writes, mid_mark) = {
        std::fs::remove_file(&meta).ok();
        let (storage, script) = faulty_stack(&pages);
        let mut tree = HybridTree::with_storage(DIM, cfg(), storage).unwrap();
        let mid = workload(&mut tree, &pts, &meta, &script).unwrap();
        (script.writes_seen(), mid)
    };
    assert!(total_writes > 50, "workload too small to be a matrix");
    assert!(mid_mark > 0, "mid-way commit never happened");

    // Crash at a spread of write sites covering the whole workload, with
    // rotating torn-write fractions (0 = clean kill before the write, up
    // to 900‰ of the page landing). The extra (mid_mark, 0) case kills
    // the first mutation after the mid-way commit with nothing landing —
    // the disk then holds exactly the committed state, so open MUST
    // succeed; it anchors the `recovered > 0` assertion below.
    let step = (total_writes / 48).max(1);
    let mut cases: Vec<(u64, u64)> = (0..total_writes)
        .step_by(step as usize)
        .map(|k| (k, [0, 250, 500, 900][(k % 4) as usize]))
        .collect();
    cases.push((mid_mark, 0));
    let mut recovered = 0usize;
    let mut refused = 0usize;
    for (k, torn) in cases {
        std::fs::remove_file(&meta).ok();
        let (storage, script) = faulty_stack(&pages);
        script.crash_at_write(k, torn);
        // Everything from here until reopen may fail — that's the point.
        // What it must never do is panic.
        if let Ok(mut tree) = HybridTree::with_storage(DIM, cfg(), storage) {
            let _ = workload(&mut tree, &pts, &meta, &script);
        }

        // Scrub first (read-only): if it says the files are fully clean,
        // a normal open must succeed.
        let scrub_clean = if meta.exists() {
            scrub_index(&pages, &meta).is_ok_and(|r| r.is_clean())
        } else {
            false
        };
        match HybridTree::open(&pages, &meta) {
            Ok(tree) => match deep_check(&tree) {
                Ok(()) => recovered += 1,
                Err(e) => {
                    // `open` verifies payload checksums lazily; damage it
                    // did not touch yet must still surface typed.
                    assert!(
                        e.is_corruption(),
                        "crash at write {k}: untyped deep-check error {e:?}"
                    );
                    assert!(
                        !scrub_clean,
                        "crash at write {k}: scrub clean but reads fail: {e}"
                    );
                    refused += 1;
                }
            },
            Err(e) => {
                assert!(
                    matches!(e, IndexError::Storage(_)),
                    "crash at write {k}: untyped error {e:?}"
                );
                assert!(
                    !scrub_clean,
                    "crash at write {k}: scrub says clean but open failed: {e}"
                );
                refused += 1;
            }
        }
        // A second reopen attempt behaves identically (recovery did not
        // scribble the files into a worse state).
        match HybridTree::open(&pages, &meta) {
            Ok(tree) => {
                if let Err(e) = deep_check(&tree) {
                    assert!(e.is_corruption(), "{e:?}");
                }
            }
            Err(e) => assert!(matches!(e, IndexError::Storage(_))),
        }
    }
    // The matrix must exercise both outcomes: early crashes (before the
    // first commit) refuse, late crashes (after the last commit, or with
    // recoverable divergence) come back.
    assert!(recovered > 0, "no crash point ever recovered");
    assert!(
        refused > 0,
        "no crash point was ever refused — matrix too soft"
    );
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}

#[test]
fn the_commit_point_is_durable() {
    // Kill the process on the very next mutation after a commit, with
    // nothing landing: reopen must reproduce the committed tree exactly.
    // (Mutations that LAND after a commit rewrite pages in place — there
    // is no WAL — so the guarantee for those is detect-and-refuse, which
    // the matrix test covers; the commit itself must be a hard point.)
    let pts = points(300);
    let pages = tmp("durable.pages");
    let meta = tmp("durable.meta");
    std::fs::remove_file(&meta).ok();

    let (storage, script) = faulty_stack(&pages);
    let mut tree = HybridTree::with_storage(DIM, cfg(), storage).unwrap();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree.persist(&meta).unwrap();
    let committed_len = tree.len();

    // The storage dies before the next mutation persists anything.
    script.crash_at_write(script.writes_seen(), 0);
    let mut oid = pts.len() as u64;
    let mut rng = StdRng::seed_from_u64(99);
    loop {
        let p = Point::new((0..DIM).map(|_| rng.gen::<f32>()).collect());
        match tree.insert(p, oid) {
            Ok(()) => oid += 1, // cache-only mutation, nothing hit disk
            Err(_) => break,    // the crash fired
        }
    }
    assert!(script.crashed());
    drop(tree);

    let tree = HybridTree::open(&pages, &meta).expect("committed state must reopen");
    assert_eq!(
        tree.len(),
        committed_len,
        "committed entries lost or gained"
    );
    deep_check(&tree).expect("committed state must verify");
    // Every committed point is findable (the ELS that came back with the
    // catalog prunes correctly — a wrong table would drop results
    // silently).
    for (i, p) in pts.iter().enumerate().step_by(29) {
        let hits = tree.box_query(&Rect::from_point(p)).unwrap();
        assert!(hits.contains(&(i as u64)), "committed point {i} lost");
    }
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}

#[test]
fn transient_read_faults_are_invisible_to_queries() {
    let pts = points(250);
    let pages = tmp("transient.pages");
    let meta = tmp("transient.meta");
    std::fs::remove_file(&meta).ok();

    let (storage, script) = faulty_stack(&pages);
    let mut tree = HybridTree::with_storage(DIM, cfg(), storage).unwrap();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Two consecutive failures per physical read is within the retry
    // budget (3): queries must succeed without surfacing an error.
    script.fail_next_reads(2);
    let hits = tree.box_query(&Rect::from_point(&pts[17])).unwrap();
    assert!(hits.contains(&17));
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}

#[test]
fn bit_rot_on_the_read_path_is_a_typed_error_not_garbage() {
    let pts = points(250);
    let pages = tmp("rot.pages");

    let (storage, script) = faulty_stack(&pages);
    let mut tree = HybridTree::with_storage(DIM, cfg(), storage).unwrap();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Flip one payload bit on the next physical read. The checksum layer
    // must catch it; the pool must NOT retry it (corruption is not
    // transient) and the query must fail typed.
    script.flip_on_read(script.reads_seen() + 1, FRAME_HEADER_BYTES + 9, 0x20);
    let everything = Rect::new(vec![-1.0; DIM], vec![2.0; DIM]);
    // Every visit reads storage, so one whole-space scan fetches the
    // flip's victim page.
    match tree.box_query(&everything) {
        Ok(hits) => panic!("bit flip never read back ({} hits)", hits.len()),
        Err(e) => assert!(e.is_corruption(), "expected Corrupt, got {e:?}"),
    }
    std::fs::remove_file(&pages).ok();
}

#[test]
fn scrub_finds_every_on_disk_flip_a_reopen_would_trust() {
    // Corruption injected below the checksums while the index is at
    // rest: scrub and open must agree — whatever scrub misses, open must
    // survive, and whatever open trusts, scrub must have verified.
    let pts = points(300);
    let pages = tmp("restrot.pages");
    let meta = tmp("restrot.meta");
    std::fs::remove_file(&meta).ok();
    {
        let (storage, _script) = faulty_stack(&pages);
        let mut tree = HybridTree::with_storage(DIM, cfg(), storage).unwrap();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        tree.persist(&meta).unwrap();
    }
    let clean = std::fs::read(&pages).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let mut bad = clean.clone();
        let pos = rng.gen_range(0..bad.len());
        let mask = 1u8 << rng.gen_range(0..8);
        bad[pos] ^= mask;
        std::fs::write(&pages, &bad).unwrap();
        let report = scrub_index(&pages, &meta).unwrap();
        match HybridTree::open(&pages, &meta) {
            Ok(tree) => match deep_check(&tree) {
                // The flip was harmless (freed slot, padding bytes) or
                // recovery healed around it — either way results are
                // right. A harmful flip that open missed must fail typed
                // at read time AND have been caught by the scrub.
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_corruption(), "flip at {pos}: {e:?}");
                    assert!(
                        !report.is_clean(),
                        "flip at {pos}: scrub clean but reads fail: {e}"
                    );
                }
            },
            Err(e) => {
                assert!(matches!(e, IndexError::Storage(_)), "{e:?}");
                assert!(
                    !report.is_clean(),
                    "open refused a file scrub called clean (flip at {pos})"
                );
            }
        }
    }
    // Pages-only scrub (no catalog) sees the same frame damage.
    let mut bad = clean.clone();
    bad[clean.len() / 3] ^= 0x40;
    std::fs::write(&pages, &bad).unwrap();
    let rep = scrub_pages(&pages, cfg().page_size).unwrap();
    assert!(!rep.is_clean() || rep.free > 0);
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}
