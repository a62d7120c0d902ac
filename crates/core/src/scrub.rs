//! Offline integrity verification (the `hyt scrub` subcommand): checks
//! every page checksum and the tree's structural invariants by reading
//! the raw page file directly — no buffer pool, no [`HybridTree`] in
//! memory, and strictly read-only. Scrubbing a damaged index never makes
//! it worse.
//!
//! Two entry points:
//!
//! * [`scrub_pages`] — frame-level scan: every slot is classified as
//!   live (header and payload checksums verify), free (zeroed), or
//!   damaged, given only the page file and its logical page size.
//! * [`scrub_index`] — everything above plus the catalog: validates both
//!   catalog section checksums, applies every structural rule that
//!   [`HybridTree::check_invariants`] applies (the same walk, see
//!   `verify.rs`: node decode, levels, double references, capacity,
//!   utilization, fanout, kd-region containment, ELS conservativeness,
//!   the entry count against the catalog), and checks the reachability
//!   of every live page and that no page carries a write epoch newer
//!   than the catalog. A damaged ELS section is reported and rebuilt, as
//!   `open` would, so the rest of the tree is still checked.
//!
//! [`HybridTree`]: crate::HybridTree
//! [`HybridTree::check_invariants`]: crate::HybridTree::check_invariants

use crate::els::ElsTable;
use crate::node::Node;
use crate::persist::read_catalog;
use crate::verify::{self, Els};
use hyt_index::IndexResult;
use hyt_page::{
    framed_slot_size, inspect_frame, FileStorage, FrameStatus, PageError, PageId, Storage,
    FRAME_HEADER_BYTES,
};
use std::collections::HashMap;
use std::path::Path;

/// One damaged page slot.
#[derive(Debug)]
pub struct PageDamage {
    /// Which slot.
    pub page: PageId,
    /// What the frame inspection found.
    pub detail: String,
}

/// Catalog-level findings from [`scrub_index`].
#[derive(Debug)]
pub struct CatalogScrub {
    /// Entry count the catalog records.
    pub len: usize,
    /// Tree height the catalog records.
    pub height: usize,
    /// Storage write epoch at the last commit.
    pub epoch: u64,
    /// Structural problems found; empty means the tree checks out.
    pub issues: Vec<String>,
}

/// The result of a scrub pass.
#[derive(Debug)]
pub struct ScrubReport {
    /// Logical page size (payload bytes per slot).
    pub page_size: usize,
    /// Total slots in the page file.
    pub slots: u32,
    /// Slots whose checksums verify.
    pub live: usize,
    /// Zeroed (freed) slots.
    pub free: usize,
    /// Newest write epoch seen on any live page.
    pub max_live_epoch: u64,
    /// Slots that failed verification.
    pub damage: Vec<PageDamage>,
    /// Catalog findings; `None` for a pages-only scrub.
    pub catalog: Option<CatalogScrub>,
}

impl ScrubReport {
    /// Whether the scrub found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.catalog.as_ref().is_none_or(|c| c.issues.is_empty())
    }

    /// Total number of problems found.
    pub fn problem_count(&self) -> usize {
        self.damage.len() + self.catalog.as_ref().map_or(0, |c| c.issues.len())
    }
}

/// Frame scan shared by both scrub modes: classifies every slot and
/// collects the payload of each verified-live page for the tree walk.
struct FrameScan {
    report: ScrubReport,
    payloads: HashMap<PageId, Vec<u8>>,
}

fn scan_frames(pages_path: &Path, logical_page_size: usize) -> Result<FrameScan, PageError> {
    let slot_size = framed_slot_size(logical_page_size)?;
    let storage = FileStorage::open(pages_path, slot_size)?;
    let slots = storage.page_slots();
    let mut scan = FrameScan {
        report: ScrubReport {
            page_size: logical_page_size,
            slots,
            live: 0,
            free: 0,
            max_live_epoch: 0,
            damage: Vec::new(),
            catalog: None,
        },
        payloads: HashMap::new(),
    };
    let mut buf = vec![0u8; slot_size];
    for i in 0..slots {
        let id = PageId(i);
        if let Err(e) = storage.read(id, &mut buf) {
            scan.report.damage.push(PageDamage {
                page: id,
                detail: format!("unreadable: {e}"),
            });
            continue;
        }
        match inspect_frame(id, &buf) {
            FrameStatus::Live { epoch, payload_len } => {
                scan.report.live += 1;
                scan.report.max_live_epoch = scan.report.max_live_epoch.max(epoch);
                scan.payloads.insert(
                    id,
                    buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + payload_len as usize].to_vec(),
                );
            }
            FrameStatus::Free => scan.report.free += 1,
            FrameStatus::Corrupt(detail) => {
                scan.report.damage.push(PageDamage { page: id, detail })
            }
        }
    }
    Ok(scan)
}

/// Verifies every page frame in `pages_path` (magic, page id, both
/// CRC-32s) without consulting a catalog. `logical_page_size` is the
/// tree's configured page size, i.e. the payload bytes per slot.
pub fn scrub_pages<P: AsRef<Path>>(
    pages_path: P,
    logical_page_size: usize,
) -> IndexResult<ScrubReport> {
    let scan = scan_frames(pages_path.as_ref(), logical_page_size)?;
    Ok(scan.report)
}

/// Verifies page frames *and* the catalog plus tree structure (see the
/// module docs for the full checklist). Returns `Err` only when the
/// files cannot be scrubbed at all (e.g. the catalog core section is
/// unreadable, so the page size is unknown); damage found inside a
/// scrubbable index is reported in the [`ScrubReport`].
pub fn scrub_index<P: AsRef<Path>, Q: AsRef<Path>>(
    pages_path: P,
    meta_path: Q,
) -> IndexResult<ScrubReport> {
    let catalog = read_catalog(meta_path.as_ref())?;
    let core = catalog.core;
    let mut scan = scan_frames(pages_path.as_ref(), core.cfg.page_size)?;
    let mut issues = Vec::new();
    let mut rebuilt;
    let els = match &catalog.els {
        Ok(els) => Els::Check(els),
        Err(e) => {
            issues.push(format!("catalog ELS section damaged: {e}"));
            rebuilt = ElsTable::new(core.dim, core.cfg.els_bits);
            Els::Rebuild(&mut rebuilt)
        }
    };
    if scan.report.max_live_epoch > core.epoch {
        issues.push(format!(
            "page file has writes from epoch {} but the catalog committed at epoch {} \
             (pages diverged after the last commit)",
            scan.report.max_live_epoch, core.epoch
        ));
    }
    if scan.report.live != core.live_pages as usize {
        issues.push(format!(
            "{} live pages on disk, catalog records {}",
            scan.report.live, core.live_pages
        ));
    }
    let payloads = &scan.payloads;
    let walked = verify::walk(&core, els, |pid| match payloads.get(&pid) {
        Some(payload) => Node::decode(payload, core.dim),
        None => Err(PageError::Corrupt(
            "referenced page is not live on disk".into(),
        )),
    });
    issues.extend(walked.issues.iter().map(|issue| issue.to_string()));
    for id in payloads.keys() {
        if !walked.seen.contains(id) {
            issues.push(format!("{id}: live page unreachable from the root"));
        }
    }
    issues.sort();
    scan.report.catalog = Some(CatalogScrub {
        len: core.len,
        height: core.height,
        epoch: core.epoch,
        issues,
    });
    Ok(scan.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridTreeConfig;
    use crate::tree::HybridTree;
    use hyt_geom::Point;
    use hyt_index::MultidimIndex;
    use hyt_page::DurableStorage;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hyt_scrub_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn build(name: &str, n: usize) -> (std::path::PathBuf, std::path::PathBuf, usize) {
        build_with(name, n, 4, false)
    }

    /// Persists a 4-d tree of `n` uniform points, inserted one by one or
    /// bulk-loaded.
    fn build_with(
        name: &str,
        n: usize,
        els_bits: u8,
        bulk: bool,
    ) -> (std::path::PathBuf, std::path::PathBuf, usize) {
        let pages = tmp(&format!("{name}.pages"));
        let meta = tmp(&format!("{name}.meta"));
        let cfg = HybridTreeConfig {
            page_size: 512,
            els_bits,
            ..HybridTreeConfig::default()
        };
        let page_size = cfg.page_size;
        let mut rng = StdRng::seed_from_u64(42);
        let entries: Vec<(Point, u64)> = (0..n as u64)
            .map(|i| (Point::new((0..4).map(|_| rng.gen::<f32>()).collect()), i))
            .collect();
        let mut t = if bulk {
            let storage = DurableStorage::create(&pages, page_size).unwrap();
            HybridTree::bulk_load_into(storage, cfg, entries).unwrap()
        } else {
            let mut t = HybridTree::create_durable(4, cfg, &pages).unwrap();
            for (p, i) in entries {
                t.insert(p, i).unwrap();
            }
            t
        };
        t.persist(&meta).unwrap();
        (pages, meta, page_size)
    }

    #[test]
    fn clean_index_scrubs_clean() {
        // ELS on and off, inserted and bulk-loaded: every healthy index
        // passes every rule.
        for (els_bits, bulk) in [(4, false), (0, false), (4, true), (0, true)] {
            let (pages, meta, page_size) = build_with("clean", 600, els_bits, bulk);
            let rep = scrub_pages(&pages, page_size).unwrap();
            assert!(rep.is_clean(), "{:?}", rep.damage);
            assert!(rep.live > 1);
            let rep = scrub_index(&pages, &meta).unwrap();
            assert!(rep.is_clean(), "els_bits {els_bits}, bulk {bulk}: {rep:?}");
            assert_eq!(rep.catalog.as_ref().unwrap().len, 600);
            std::fs::remove_file(&pages).ok();
            std::fs::remove_file(&meta).ok();
        }
    }

    #[test]
    fn every_page_bit_flip_is_detected() {
        let (pages, meta, page_size) = build("flip", 400);
        let clean = std::fs::read(&pages).unwrap();
        let slot = page_size + FRAME_HEADER_BYTES;
        // Flip one bit somewhere in every slot of the file; the scrub
        // must flag exactly the slots whose live bytes were damaged.
        let rep = scrub_index(&pages, &meta).unwrap();
        let live_before = rep.live;
        for s in 0..(clean.len() / slot) {
            let mut bad = clean.clone();
            let pos = s * slot + (s * 13) % slot;
            bad[pos] ^= 0x10;
            std::fs::write(&pages, &bad).unwrap();
            let was_zero = clean[pos] == 0 && {
                // A flip inside a freed (all-zero) slot's payload region
                // is outside any checksum; only header bytes matter there.
                let off = pos % slot;
                let header_zero = clean[s * slot..s * slot + FRAME_HEADER_BYTES]
                    .iter()
                    .all(|&b| b == 0);
                header_zero && off >= FRAME_HEADER_BYTES
            };
            let rep = scrub_index(&pages, &meta).unwrap();
            if was_zero {
                // Damage to a freed slot's payload is harmless by design.
                continue;
            }
            assert!(
                !rep.is_clean(),
                "flip at byte {pos} (slot {s}) went undetected"
            );
            assert!(rep.live < live_before || rep.problem_count() > 0);
        }
        std::fs::write(&pages, &clean).unwrap();
        assert!(scrub_index(&pages, &meta).unwrap().is_clean());
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn a_page_size_too_large_to_frame_is_an_error() {
        let (pages, _, _) = build("huge", 50);
        assert!(matches!(
            scrub_pages(&pages, usize::MAX),
            Err(hyt_index::IndexError::Storage(PageError::Io(_)))
        ));
    }

    #[test]
    fn truncated_page_file_is_flagged() {
        let (pages, meta, page_size) = build("trunc", 300);
        let clean = std::fs::read(&pages).unwrap();
        let slot = page_size + FRAME_HEADER_BYTES;
        // Drop the last slot entirely (file still a multiple of the slot
        // size, as after a partial extension that never landed).
        std::fs::write(&pages, &clean[..clean.len() - slot]).unwrap();
        let rep = scrub_index(&pages, &meta).unwrap();
        assert!(!rep.is_clean(), "lost slot went undetected");
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn scrub_never_modifies_the_files() {
        let (pages, meta, page_size) = build("ro", 200);
        let before_pages = std::fs::read(&pages).unwrap();
        let before_meta = std::fs::read(&meta).unwrap();
        scrub_pages(&pages, page_size).unwrap();
        scrub_index(&pages, &meta).unwrap();
        assert_eq!(std::fs::read(&pages).unwrap(), before_pages);
        assert_eq!(std::fs::read(&meta).unwrap(), before_meta);
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }
}
