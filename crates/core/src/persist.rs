//! Durable open/close: a hybrid tree over a page file can be persisted
//! and reopened in another process, surviving crashes at any point.
//!
//! Pages live in a checksummed page file
//! ([`DurableStorage`](hyt_page::DurableStorage)); what survives here is
//! the *catalog*: root page, height, entry count, configuration, the
//! data-space bounding box, the storage write epoch, and the
//! memory-resident ELS table (the paper keeps ELS in memory; on shutdown
//! it must go somewhere, and rebuilding it costs a tree walk). The catalog
//! is a small sidecar file next to the page file.
//!
//! ## Commit protocol
//!
//! [`HybridTree::persist`] is the durability point:
//!
//! 1. `fsync` the page file (the pool writes every page through, so
//!    nothing is left to flush);
//! 2. write the catalog — two independently CRC-32-protected sections
//!    (core, ELS) — to a temp file, `fsync` it, `rename` it over the old
//!    catalog, and `fsync` the directory;
//! 3. advance the storage write epoch, so every page flushed *after* this
//!    commit carries a newer epoch than the catalog records.
//!
//! A crash before the rename leaves the previous catalog intact; a crash
//! after it leaves the new one. Either way the catalog on disk is a
//! complete, checksummed snapshot that matches a page-file state that was
//! fsynced before it.
//!
//! ## Open and recovery
//!
//! [`HybridTree::open`] validates the catalog magic and both section CRCs,
//! then opens the page file (which rebuilds the free list and the newest
//! live epoch from the page frame headers). If the ELS section is damaged,
//! or any live page carries an epoch newer than the catalog (proof the
//! page file diverged after the last commit), or the live-page count
//! disagrees with the catalog, `open` falls back to a [`recover`] pass:
//! one walk of the tree from the catalog root that rebuilds the ELS table
//! bottom-up and applies every structural rule in `verify.rs` as it
//! goes, after which the pages it never reached are reclaimed. Recovery
//! either returns a consistent tree or fails with a typed
//! [`PageError::Corrupt`] — never a panic, never silently wrong query
//! results.
//!
//! [`recover`]: HybridTree::recover

use crate::config::{HybridTreeConfig, SplitPolicy};
use crate::els::ElsTable;
use crate::node::{Node, MIN_FILL};
use crate::tree::HybridTree;
use crate::verify::{self, Els, Issue};
use hyt_geom::Rect;
use hyt_index::{IndexError, IndexResult};
use hyt_page::{crc32, ByteReader, ByteWriter, DurableStorage, PageError, PageId, Storage};
use std::io::Write as _;
use std::path::Path;

const MAGIC: &[u8; 8] = b"HYTREE03";

fn encode_cfg(w: &mut ByteWriter, cfg: &HybridTreeConfig) {
    w.put_u32(cfg.page_size as u32);
    // Retired slots keep the catalog's layout: each is written with the
    // value the tree now holds constant and ignored on read, so older
    // catalogs open as is. This one held the utilization quota.
    w.put_f64(MIN_FILL);
    w.put_u8(cfg.els_bits);
    w.put_u8(match cfg.split_policy {
        SplitPolicy::EdaOptimal => 0,
        SplitPolicy::Vam => 1,
        SplitPolicy::RoundRobin => 2,
        SplitPolicy::MaxExtentMedian => 3,
    });
    // Retired: the query-size distribution index splits assumed, as a
    // tag (1, uniform) and its side (1.0); see `split::split_cost`.
    w.put_u8(1);
    w.put_f64(1.0);
    // Retired: the buffer-pool capacity (`pool_pages`), written as 0.
    w.put_u32(0);
    w.put_u32(cfg.node_cache_entries as u32);
}

fn decode_cfg(r: &mut ByteReader<'_>) -> Result<HybridTreeConfig, PageError> {
    let page_size = r.get_u32()? as usize;
    r.get_f64()?; // retired slots are skipped (see `encode_cfg`)
    let els_bits = r.get_u8()?;
    let split_policy = match r.get_u8()? {
        0 => SplitPolicy::EdaOptimal,
        1 => SplitPolicy::Vam,
        2 => SplitPolicy::RoundRobin,
        3 => SplitPolicy::MaxExtentMedian,
        t => return Err(PageError::Corrupt(format!("bad split policy {t}"))),
    };
    r.get_u8()?;
    r.get_f64()?;
    r.get_u32()?;
    let node_cache_entries = r.get_u32()? as usize;
    let cfg = HybridTreeConfig {
        page_size,
        els_bits,
        split_policy,
        node_cache_entries,
    };
    // The ranges `with_storage` accepts (e.g. `ElsTable::new` panics on
    // more than 16 ELS bits, and recovery and scrub build one).
    cfg.validate().map_err(corrupt)?;
    Ok(cfg)
}

/// The fixed-size part of the catalog: everything needed to reopen or
/// recover a tree except the (rebuildable) ELS table.
pub(crate) struct CatalogCore {
    pub dim: usize,
    pub len: usize,
    pub root: PageId,
    pub height: usize,
    /// Storage write epoch recorded at commit time.
    pub epoch: u64,
    /// Live pages in the page file at commit time.
    pub live_pages: u32,
    pub cfg: HybridTreeConfig,
    pub global_br: Option<Rect>,
}

/// A parsed catalog; `els` is `Err` when only the ELS section failed its
/// checksum (the core is intact, so recovery can rebuild the table).
pub(crate) struct Catalog {
    pub core: CatalogCore,
    pub els: Result<ElsTable, PageError>,
}

fn corrupt(msg: impl Into<String>) -> PageError {
    PageError::Corrupt(msg.into())
}

fn encode_core(w: &mut ByteWriter, core: &CatalogCore) {
    w.put_u32(core.dim as u32);
    w.put_u64(core.len as u64);
    w.put_u32(core.root.0);
    w.put_u32(core.height as u32);
    w.put_u64(core.epoch);
    w.put_u32(core.live_pages);
    encode_cfg(w, &core.cfg);
    match &core.global_br {
        Some(br) => {
            w.put_u8(1);
            for d in 0..core.dim {
                w.put_f32(br.lo(d));
            }
            for d in 0..core.dim {
                w.put_f32(br.hi(d));
            }
        }
        None => w.put_u8(0),
    }
}

fn decode_core(buf: &[u8]) -> Result<CatalogCore, PageError> {
    let mut r = ByteReader::new(buf);
    let dim = r.get_u32()? as usize;
    let len = r.get_u64()? as usize;
    let root = PageId(r.get_u32()?);
    let height = r.get_u32()? as usize;
    // Bounds before any allocation: the dimensionality `with_storage`
    // accepts, and a root level that fits a node header's `u16`.
    if !(1..=u16::MAX as usize).contains(&dim) || !(1..=u16::MAX as usize + 1).contains(&height) {
        return Err(corrupt(format!(
            "implausible catalog: dim {dim}, height {height}"
        )));
    }
    let epoch = r.get_u64()?;
    let live_pages = r.get_u32()?;
    let cfg = decode_cfg(&mut r)?;
    let global_br = match r.get_u8()? {
        0 => None,
        1 => {
            let mut lo = Vec::with_capacity(dim);
            for _ in 0..dim {
                lo.push(r.get_f32()?);
            }
            let mut hi = Vec::with_capacity(dim);
            for _ in 0..dim {
                hi.push(r.get_f32()?);
            }
            // `Rect::new` asserts what a damaged catalog can break.
            let ordered = lo
                .iter()
                .zip(&hi)
                .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h);
            if !ordered {
                return Err(corrupt("bounding box bounds not finite and ordered"));
            }
            Some(Rect::new(lo, hi))
        }
        t => return Err(corrupt(format!("bad bounding-box tag {t}"))),
    };
    Ok(CatalogCore {
        dim,
        len,
        root,
        height,
        epoch,
        live_pages,
        cfg,
        global_br,
    })
}

/// Serializes the full catalog: magic, then a length-prefixed,
/// CRC-32-trailed core section, then a likewise-framed ELS section.
fn encode_catalog(core: &CatalogCore, els: &ElsTable) -> Vec<u8> {
    let mut core_w = ByteWriter::new();
    encode_core(&mut core_w, core);
    let mut els_w = ByteWriter::new();
    els.encode(&mut els_w);

    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(core_w.len() as u32);
    w.put_bytes(core_w.as_slice());
    w.put_u32(crc32(core_w.as_slice()));
    w.put_u32(els_w.len() as u32);
    w.put_bytes(els_w.as_slice());
    w.put_u32(crc32(els_w.as_slice()));
    w.into_inner()
}

/// Reads and validates a catalog file. A damaged core section is a hard
/// error; a damaged ELS section is reported in `Catalog::els` so the
/// caller can rebuild it.
pub(crate) fn read_catalog(meta_path: &Path) -> Result<Catalog, PageError> {
    let buf = std::fs::read(meta_path).map_err(PageError::Io)?;
    let mut r = ByteReader::new(&buf);
    let magic = r.get_bytes(8)?;
    if magic != MAGIC {
        return Err(corrupt("not a hybrid tree catalog (bad magic)"));
    }
    let core_len = r.get_u32()? as usize;
    let core_bytes = r.get_bytes(core_len)?;
    let core_crc = r.get_u32()?;
    if crc32(core_bytes) != core_crc {
        return Err(corrupt("catalog core section failed its checksum"));
    }
    let core = decode_core(core_bytes)?;
    let els = (|| {
        let els_len = r.get_u32()? as usize;
        let els_bytes = r.get_bytes(els_len)?;
        let els_crc = r.get_u32()?;
        if crc32(els_bytes) != els_crc {
            return Err(corrupt("catalog ELS section failed its checksum"));
        }
        ElsTable::decode(&mut ByteReader::new(els_bytes))
    })();
    Ok(Catalog { core, els })
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, `rename`, `fsync` the directory. A crash at any point leaves
/// either the old file or the new one, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        // Make the rename itself durable: fsync the containing directory.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

impl<S: Storage> HybridTree<S> {
    /// The catalog core describing this tree as it stands.
    pub(crate) fn catalog_core(&self) -> CatalogCore {
        CatalogCore {
            dim: self.dim,
            len: self.len,
            root: self.root,
            height: self.height,
            epoch: self.pool.with_storage(|s| s.epoch()),
            live_pages: self.pool.live_pages() as u32,
            cfg: self.cfg.clone(),
            global_br: self.global_br.clone(),
        }
    }

    /// Commits the tree: fsyncs the page file, then
    /// atomically replaces the catalog at `meta_path` (see the module docs
    /// for the protocol). After this call, [`HybridTree::open`] restores
    /// exactly this state even if the process dies immediately.
    pub fn persist<P: AsRef<Path>>(&mut self, meta_path: P) -> IndexResult<()> {
        self.pool.sync_storage()?;
        let bytes = encode_catalog(&self.catalog_core(), &self.els);
        write_atomic(meta_path.as_ref(), &bytes).map_err(PageError::Io)?;
        // Pages flushed from now on are provably newer than this catalog.
        self.pool.with_storage_mut(|s| s.advance_epoch());
        Ok(())
    }
}

impl HybridTree<DurableStorage> {
    /// Creates an empty tree over a fresh checksummed page file.
    pub fn create_durable<P: AsRef<Path>>(
        dim: usize,
        cfg: HybridTreeConfig,
        pages_path: P,
    ) -> IndexResult<Self> {
        let storage = DurableStorage::create(pages_path, cfg.page_size)?;
        Self::with_storage(dim, cfg, storage)
    }

    /// Reopens a tree persisted with [`persist`](Self::persist).
    ///
    /// Validates the catalog magic and checksums, then cross-checks the
    /// page file against the catalog (write epochs, live-page count). If
    /// the ELS section is damaged or the page file diverged from the
    /// catalog, this falls back to [`recover`](Self::recover)'s walk
    /// instead of serving possibly stale metadata.
    pub fn open<P: AsRef<Path>, Q: AsRef<Path>>(pages_path: P, meta_path: Q) -> IndexResult<Self> {
        Self::open_inner(pages_path, meta_path, None)
    }

    /// Like [`open`](Self::open), but overrides the catalog's persisted
    /// `node_cache_entries`. Cache sizing is a property of the serving
    /// host, not of the index file, so deployments can tune it per
    /// process without rewriting the catalog.
    pub fn open_with_node_cache<P: AsRef<Path>, Q: AsRef<Path>>(
        pages_path: P,
        meta_path: Q,
        node_cache_entries: usize,
    ) -> IndexResult<Self> {
        Self::open_inner(pages_path, meta_path, Some(node_cache_entries))
    }

    fn open_inner<P: AsRef<Path>, Q: AsRef<Path>>(
        pages_path: P,
        meta_path: Q,
        cache_override: Option<usize>,
    ) -> IndexResult<Self> {
        let mut catalog = read_catalog(meta_path.as_ref()).map_err(IndexError::Storage)?;
        if let Some(entries) = cache_override {
            catalog.core.cfg.node_cache_entries = entries;
        }
        let storage = DurableStorage::open(pages_path, catalog.core.cfg.page_size)?;
        let diverged = storage.max_live_epoch() > catalog.core.epoch
            || storage.live_pages() != catalog.core.live_pages as usize;
        match catalog.els {
            Ok(els) if !diverged => {
                let core = catalog.core;
                Ok(Self::assemble(
                    storage,
                    core.root,
                    core.height,
                    core.dim,
                    core.len,
                    core.cfg,
                    core.global_br,
                    els,
                ))
            }
            _ => Self::recover_with(storage, catalog.core),
        }
    }

    /// Forces a recovery pass: one walk from the catalog root rebuilds
    /// the ELS table from the pages themselves and checks every structural
    /// rule, then the pages the walk never reached are freed. Returns a
    /// consistent tree or a typed [`PageError::Corrupt`] error.
    pub fn recover<P: AsRef<Path>, Q: AsRef<Path>>(
        pages_path: P,
        meta_path: Q,
    ) -> IndexResult<Self> {
        let catalog = read_catalog(meta_path.as_ref()).map_err(IndexError::Storage)?;
        let storage = DurableStorage::open(pages_path, catalog.core.cfg.page_size)?;
        Self::recover_with(storage, catalog.core)
    }

    fn recover_with(mut storage: DurableStorage, core: CatalogCore) -> IndexResult<Self> {
        let mut els = ElsTable::new(core.dim, core.cfg.els_bits);
        let mut buf = vec![0u8; core.cfg.page_size];
        let walked = verify::walk(&core, Els::Rebuild(&mut els), |pid| {
            storage.read(pid, &mut buf)?;
            Node::decode(&buf, core.dim)
        });
        if let Some(issue) = walked.issues.into_iter().next() {
            return Err(IndexError::Storage(match issue {
                Issue::Read(_, e) => e,
                Issue::Rule(msg) => corrupt(format!("recovery walk: {msg}")),
            }));
        }
        // Reclaim pages the tree cannot reach (leaked by a crash between
        // an allocation and the commit that would have referenced it).
        // Freeing zeroes the slot, so the reclamation is durable.
        for i in 0..storage.page_slots() {
            let id = PageId(i);
            if !storage.is_freed(id) && !walked.seen.contains(&id) {
                storage.free(id)?;
            }
        }
        Ok(Self::assemble(
            storage,
            core.root,
            core.height,
            core.dim,
            core.len,
            core.cfg,
            core.global_br,
            els,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::{Point, L2};
    use hyt_index::MultidimIndex;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hyt_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn build_tree(
        pages: &Path,
        cfg: &HybridTreeConfig,
        dim: usize,
        pts: &[Point],
    ) -> HybridTree<DurableStorage> {
        let mut t = HybridTree::create_durable(dim, cfg.clone(), pages).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    #[test]
    fn persist_and_reopen_roundtrip() {
        let pages = tmp("rt.pages");
        let meta = tmp("rt.meta");
        let pts = random_points(800, 5, 1);
        let cfg = HybridTreeConfig {
            page_size: 512,
            els_bits: 4,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 5, &pts);
            t.persist(&meta).unwrap();
        }
        {
            let mut t = HybridTree::open(&pages, &meta).unwrap();
            assert_eq!(t.len(), 800);
            assert_eq!(t.dim(), 5);
            t.check_invariants().unwrap();
            // Queries agree with brute force after the round trip.
            let rect = Rect::new(vec![0.2; 5], vec![0.8; 5]);
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| rect.contains_point(p))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
            // And the reopened tree stays fully dynamic.
            t.insert(Point::new(vec![0.5; 5]), 9000).unwrap();
            assert!(t.delete(&pts[0], 0).unwrap());
            t.check_invariants().unwrap();
            let nn = t.knn(&Point::new(vec![0.5; 5]), 1, &L2).unwrap();
            assert_eq!(nn[0].0, 9000);
        }
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn open_rejects_garbage_catalog() {
        let pages = tmp("bad.pages");
        let meta = tmp("bad.meta");
        let _ = DurableStorage::create(&pages, 512).unwrap();
        std::fs::write(&meta, b"definitely not a catalog").unwrap();
        assert!(HybridTree::open(&pages, &meta).is_err());
        std::fs::write(&meta, b"HY").unwrap();
        assert!(HybridTree::open(&pages, &meta).is_err());
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn config_roundtrips_through_catalog() {
        let pages = tmp("cfg.pages");
        let meta = tmp("cfg.meta");
        let cfg = HybridTreeConfig {
            page_size: 1024,
            els_bits: 7,
            split_policy: SplitPolicy::Vam,
            node_cache_entries: 12,
        };
        {
            let mut t = HybridTree::create_durable(3, cfg.clone(), &pages).unwrap();
            t.insert(Point::new(vec![0.1, 0.2, 0.3]), 1).unwrap();
            t.persist(&meta).unwrap();
        }
        let t = HybridTree::open(&pages, &meta).unwrap();
        let got = t.config();
        assert_eq!(got.page_size, cfg.page_size);
        assert_eq!(got.els_bits, cfg.els_bits);
        assert_eq!(got.split_policy, cfg.split_policy);
        assert_eq!(got.node_cache_entries, cfg.node_cache_entries);
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn catalog_bit_flips_are_always_detected() {
        let pages = tmp("flip.pages");
        let meta = tmp("flip.meta");
        let pts = random_points(300, 3, 7);
        let cfg = HybridTreeConfig {
            page_size: 512,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 3, &pts);
            t.persist(&meta).unwrap();
        }
        let clean = std::fs::read(&meta).unwrap();
        // Flip a bit at a spread of offsets; open must either refuse with
        // a typed error or (ELS-section damage) recover to a correct tree.
        for pos in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[pos] ^= 0x04;
            std::fs::write(&meta, &bad).unwrap();
            match HybridTree::open(&pages, &meta) {
                Ok(t) => {
                    assert_eq!(t.len(), 300, "flip at {pos} changed the tree");
                    t.check_invariants().unwrap();
                }
                Err(e) => {
                    assert!(
                        matches!(e, IndexError::Storage(_)),
                        "flip at {pos}: unexpected error {e:?}"
                    );
                }
            }
        }
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn truncated_catalog_is_rejected_at_every_length() {
        let pages = tmp("trunc.pages");
        let meta = tmp("trunc.meta");
        let pts = random_points(120, 2, 9);
        let cfg = HybridTreeConfig {
            page_size: 256,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 2, &pts);
            t.persist(&meta).unwrap();
        }
        let clean = std::fs::read(&meta).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(&meta, &clean[..cut]).unwrap();
            match HybridTree::open(&pages, &meta) {
                // Cuts inside the (trailing, rebuildable) ELS section can
                // recover; everything else must fail typed.
                Ok(t) => assert_eq!(t.len(), 120, "cut at {cut}"),
                Err(IndexError::Storage(_)) => {}
                Err(e) => panic!("cut at {cut}: unexpected error {e:?}"),
            }
        }
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn damaged_els_section_triggers_recovery_with_identical_results() {
        let pages = tmp("els.pages");
        let meta = tmp("els.meta");
        let pts = random_points(500, 4, 11);
        let cfg = HybridTreeConfig {
            page_size: 512,
            els_bits: 4,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 4, &pts);
            t.persist(&meta).unwrap();
        }
        // Corrupt one byte in the middle of the ELS section.
        let mut bytes = std::fs::read(&meta).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        std::fs::write(&meta, &bytes).unwrap();
        let t = HybridTree::open(&pages, &meta).unwrap();
        assert_eq!(t.len(), 500);
        t.check_invariants().unwrap();
        let rect = Rect::new(vec![0.1; 4], vec![0.6; 4]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "recovered ELS must not change results");
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn pages_newer_than_catalog_force_recovery_not_stale_reads() {
        let pages = tmp("epoch.pages");
        let meta = tmp("epoch.meta");
        let pts = random_points(400, 3, 13);
        let cfg = HybridTreeConfig {
            page_size: 512,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 3, &pts[..300]);
            t.persist(&meta).unwrap();
            // Keep mutating *after* the commit, then sync pages without
            // committing a catalog — the crash window that used to produce
            // silently stale opens.
            for (i, p) in pts[300..].iter().enumerate() {
                t.insert(p.clone(), (300 + i) as u64).unwrap();
            }
            t.sync_for_test();
        }
        // Open must notice the divergence (newer page epochs) and take the
        // recovery path; the result must be a consistent tree, never a
        // silent mix of old catalog and new pages.
        match HybridTree::open(&pages, &meta) {
            Ok(t) => {
                t.check_invariants().unwrap();
                let got = t.box_query(&Rect::new(vec![0.0; 3], vec![1.0; 3])).unwrap();
                assert_eq!(got.len(), t.len(), "whole-space query matches len");
            }
            Err(e) => assert!(matches!(e, IndexError::Storage(_)), "{e:?}"),
        }
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn recovery_reclaims_leaked_pages() {
        let pages = tmp("leak.pages");
        let meta = tmp("leak.meta");
        let pts = random_points(200, 3, 17);
        let cfg = HybridTreeConfig {
            page_size: 512,
            ..HybridTreeConfig::default()
        };
        let live_committed;
        {
            let mut t = build_tree(&pages, &cfg, 3, &pts);
            t.persist(&meta).unwrap();
            live_committed = t.pool_live_pages_for_test();
            // Leak a page: allocated and flushed but never linked into
            // the tree or committed (a crash mid-split does this).
            t.leak_page_for_test();
        }
        let t = HybridTree::recover(&pages, &meta).unwrap();
        assert_eq!(t.len(), 200);
        t.check_invariants().unwrap();
        assert_eq!(
            t.pool_live_pages_for_test(),
            live_committed,
            "recovery reclaimed the leaked page"
        );
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn catalog_core_out_of_bounds_is_rejected() {
        let meta = tmp("bounds.meta");
        let core = |dim: usize, height: usize, global_br: Option<Rect>| CatalogCore {
            dim,
            len: 0,
            root: PageId(0),
            height,
            epoch: 0,
            live_pages: 1,
            cfg: HybridTreeConfig::default(),
            global_br,
        };
        let bad_bits = CatalogCore {
            cfg: HybridTreeConfig {
                els_bits: 17,
                ..HybridTreeConfig::default()
            },
            ..core(3, 1, None)
        };
        // A page size the kd-tree encoding cannot address; it would also
        // make recovery and scrub allocate a page-sized buffer.
        let huge_page = CatalogCore {
            cfg: HybridTreeConfig {
                page_size: u32::MAX as usize,
                ..HybridTreeConfig::default()
            },
            ..core(3, 1, None)
        };
        let read = |core: &CatalogCore| {
            std::fs::write(&meta, encode_catalog(core, &ElsTable::new(1, 0))).unwrap();
            read_catalog(&meta)
        };
        // The widest dimensionality and the tallest tree a node header's
        // `u16` fields can describe still read back.
        let wide = u16::MAX as usize;
        let br = Rect::new(vec![0.0; wide], vec![1.0; wide]);
        assert!(read(&core(wide, 1, Some(br))).is_ok());
        assert!(read(&core(3, u16::MAX as usize + 1, None)).is_ok());
        let bad = [
            core(0, 1, None),
            core(u16::MAX as usize + 1, 1, None),
            core(u32::MAX as usize, 1, None),
            core(3, 0, None),
            core(3, u16::MAX as usize + 2, None),
            core(3, u32::MAX as usize, None),
            bad_bits,
            huge_page,
        ];
        for c in &bad {
            assert!(
                matches!(read(c), Err(PageError::Corrupt(_))),
                "dim {}, height {}, page size {} accepted",
                c.dim,
                c.height,
                c.cfg.page_size
            );
        }
        // What `CatalogCore` cannot hold is written by patching four bytes
        // of a valid 3-d core with a unit bounding box and resealing its
        // checksum.
        let unit = encode_catalog(
            &core(3, 1, Some(Rect::new(vec![0.0; 3], vec![1.0; 3]))),
            &ElsTable::new(3, 0),
        );
        let core_len = u32::from_le_bytes(unit[8..12].try_into().unwrap()) as usize;
        // The box's `lo` then `hi` are the last 24 bytes of the core.
        let box_at = 12 + core_len - 24;
        let read_patched = |at: usize, value: [u8; 4]| {
            let mut bytes = unit.clone();
            reseal_core(&mut bytes, at, &value);
            std::fs::write(&meta, &bytes).unwrap();
            read_catalog(&meta)
        };
        // A huge dimensionality with a bounding box present is refused
        // before the box is allocated.
        assert!(matches!(
            read_patched(12, u32::MAX.to_le_bytes()),
            Err(PageError::Corrupt(_))
        ));
        // An inverted box (lo 2 > hi 1) and a NaN bound are refused, not
        // asserted on in `Rect::new`.
        for (at, value) in [(box_at, 2.0f32), (box_at + 16, f32::NAN)] {
            assert!(
                matches!(
                    read_patched(at, value.to_le_bytes()),
                    Err(PageError::Corrupt(_))
                ),
                "box bound {value} at byte {at} accepted"
            );
        }
        std::fs::remove_file(&meta).ok();
    }

    /// Overwrites the catalog bytes at `at` (an offset into the core
    /// section) with `value` and reseals the core's checksum.
    fn reseal_core(bytes: &mut [u8], at: usize, value: &[u8]) {
        let core_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        bytes[at..at + value.len()].copy_from_slice(value);
        let crc = crc32(&bytes[12..12 + core_len]);
        bytes[12 + core_len..16 + core_len].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn retired_catalog_slots_are_ignored_on_read() {
        // Catalogs written while the tree had a configurable quota,
        // query-size distribution or buffer-pool capacity hold them in
        // slots that are now written with fixed values and ignored.
        let pages = tmp("slot.pages");
        let meta = tmp("slot.meta");
        let pts = random_points(300, 3, 5);
        let cfg = HybridTreeConfig {
            page_size: 512,
            node_cache_entries: 12,
            ..HybridTreeConfig::default()
        };
        {
            let mut t = build_tree(&pages, &cfg, 3, &pts);
            t.persist(&meta).unwrap();
        }
        let clean = std::fs::read(&meta).unwrap();
        let core_len = u32::from_le_bytes(clean[8..12].try_into().unwrap()) as usize;
        // From the core's end: the 3-d bounding box (tag and 24 bytes),
        // `node_cache_entries`, the pool slot, the query side and its
        // tag, the split policy and ELS bits, then the quota slot.
        let cache_at = 12 + core_len - 25 - 4;
        let pool_at = cache_at - 4;
        let side_at = pool_at - 8;
        let tag_at = side_at - 1;
        let fill_at = tag_at - 2 - 8;
        assert_eq!(clean[cache_at..cache_at + 4], 12u32.to_le_bytes());
        assert_eq!(clean[pool_at..pool_at + 4], [0; 4]);
        assert_eq!(clean[side_at..side_at + 8], 1.0f64.to_le_bytes());
        assert_eq!(clean[tag_at], 1, "uniform");
        assert_eq!(clean[fill_at..fill_at + 8], MIN_FILL.to_le_bytes());
        let fixed_side = [&[0u8][..], &0.125f64.to_le_bytes()].concat();
        let variants: [&[(usize, &[u8])]; 5] = [
            &[(pool_at, &33u32.to_le_bytes())],
            &[(fill_at, &0.25f64.to_le_bytes())],
            &[(tag_at, &fixed_side)],
            &[(tag_at, &[7]), (side_at, &f64::NAN.to_le_bytes())],
            &[
                (fill_at, &0.9f64.to_le_bytes()),
                (tag_at, &fixed_side),
                (pool_at, &u32::MAX.to_le_bytes()),
            ],
        ];
        let rect = Rect::new(vec![0.2; 3], vec![0.7; 3]);
        let want: Vec<u64> = (0..pts.len() as u64)
            .filter(|&i| rect.contains_point(&pts[i as usize]))
            .collect();
        for patches in variants {
            let mut bytes = clean.clone();
            for &(at, value) in patches {
                reseal_core(&mut bytes, at, value);
            }
            std::fs::write(&meta, &bytes).unwrap();
            let t = HybridTree::open(&pages, &meta).unwrap();
            assert_eq!(t.len(), 300);
            assert_eq!(t.config().node_cache_entries, 12);
            t.check_invariants().unwrap();
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            assert_eq!(got, want, "{patches:?}");
        }
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn persist_leaves_no_temp_file() {
        let pages = tmp("tmpf.pages");
        let meta = tmp("tmpf.meta");
        {
            let mut t = HybridTree::create_durable(
                2,
                HybridTreeConfig {
                    page_size: 256,
                    ..HybridTreeConfig::default()
                },
                &pages,
            )
            .unwrap();
            t.insert(Point::new(vec![0.5, 0.5]), 1).unwrap();
            t.persist(&meta).unwrap();
            t.persist(&meta).unwrap(); // idempotent re-commit
        }
        let mut tmp_name = meta.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp_name).exists());
        assert!(HybridTree::open(&pages, &meta).is_ok());
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }
}
