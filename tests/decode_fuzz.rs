//! Decode-path fuzzing: every deserializer in the read path must map
//! arbitrary, truncated, bit-flipped, or zeroed input to a *typed*
//! [`PageError`] — never a panic, never an out-of-bounds access. These
//! are the code paths that face bytes straight off a disk that may have
//! been torn, rotted, or overwritten by another program.

use hybridtree_repro::core::{scrub_index, ElsTable, HybridTree, HybridTreeConfig, KdTree, Node};
use hybridtree_repro::geom::{Point, Rect, L2};
use hybridtree_repro::hbtree::HbTree;
use hybridtree_repro::index::{leaf, IndexError, MultidimIndex};
use hybridtree_repro::kdbtree::KdbTree;
use hybridtree_repro::page::{
    inspect_frame, inspect_header, ByteReader, ByteWriter, DurableStorage, FaultScript,
    FaultStorage, FrameStatus, MemStorage, PageError, PageId, FRAME_HEADER_BYTES,
};
use hybridtree_repro::scan::SeqScan;
use hybridtree_repro::srtree::{ChildEntry, SrNode, SrTree};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A valid encoded data node to mutate.
fn valid_data_node(dim: usize, n: usize) -> Vec<u8> {
    let entries: Vec<_> = (0..n)
        .map(|i| {
            let p = Point::new((0..dim).map(|d| (i * dim + d) as f32 / 64.0).collect());
            hybridtree_repro::core::DataEntry {
                point: p,
                oid: i as u64,
            }
        })
        .collect();
    Node::Data(entries).encode(dim)
}

/// A valid leaf payload (count + entries), as every engine writes it.
fn valid_leaf(dim: usize, n: usize) -> Vec<u8> {
    let entries: Vec<(Point, u64)> = (0..n)
        .map(|i| {
            let p = Point::new((0..dim).map(|d| (i * dim + d) as f32 / 64.0).collect());
            (p, i as u64)
        })
        .collect();
    let mut w = ByteWriter::new();
    leaf::encode(&mut w, dim, entries.iter().map(|(p, oid)| (p, *oid)));
    w.into_inner()
}

/// A valid encoded SR-tree index node to mutate.
fn valid_sr_index_node(dim: usize, n: usize) -> Vec<u8> {
    let entries = (0..n)
        .map(|i| {
            let lo: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32 / 64.0).collect();
            ChildEntry {
                pid: PageId(i as u32),
                weight: 3,
                radius: 0.25,
                centroid: Point::new(lo.iter().map(|x| x + 0.25).collect()),
                rect: Rect::new(lo.clone(), lo.iter().map(|x| x + 0.5).collect()),
            }
        })
        .collect();
    SrNode::Index { level: 1, entries }.encode(dim)
}

/// Page size of the baseline trees whose directory pages get bit flips:
/// small enough that 600 3-d points need a directory level.
const FLIP_PAGE: usize = 512;

/// 600 seeded 3-d points in the unit cube.
fn flip_points() -> Vec<Point> {
    (0..600u32)
        .map(|i| {
            let h = i.wrapping_mul(2_654_435_761);
            Point::new(vec![
                (h % 1000) as f32 / 1000.0,
                (h / 1000 % 1000) as f32 / 1000.0,
                i as f32 / 600.0,
            ])
        })
        .collect()
}

/// A baseline tree over storage that can flip a bit in a page as it is
/// read; the pool caches nothing, so every visit reads storage.
type Flippable<T> = (T, Arc<FaultScript>);

/// Builds `T` over flippable storage holding `points` under oids `0..n`.
fn flippable<T: MultidimIndex>(
    points: &[Point],
    build: impl FnOnce(FaultStorage<MemStorage>) -> T,
) -> Flippable<T> {
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(FLIP_PAGE));
    let mut t = build(storage);
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    (t, script)
}

/// The height of `t`, from its structure statistics.
fn height(t: &impl MultidimIndex) -> usize {
    t.structure_stats().unwrap().height
}

fn hb_over(s: FaultStorage<MemStorage>) -> HbTree<FaultStorage<MemStorage>> {
    HbTree::with_storage(3, s).unwrap()
}

fn kdb_over(s: FaultStorage<MemStorage>) -> KdbTree<FaultStorage<MemStorage>> {
    KdbTree::with_storage(3, s).unwrap()
}

fn hb_tree() -> &'static Flippable<HbTree<FaultStorage<MemStorage>>> {
    static TREE: OnceLock<Flippable<HbTree<FaultStorage<MemStorage>>>> = OnceLock::new();
    TREE.get_or_init(|| {
        let t = flippable(&flip_points(), hb_over);
        assert!(height(&t.0) >= 2, "the root must be a directory page");
        t
    })
}

fn kdb_tree() -> &'static Flippable<KdbTree<FaultStorage<MemStorage>>> {
    static TREE: OnceLock<Flippable<KdbTree<FaultStorage<MemStorage>>>> = OnceLock::new();
    TREE.get_or_init(|| {
        let t = flippable(&flip_points(), kdb_over);
        assert!(height(&t.0) >= 2, "the root must be a directory page");
        t
    })
}

/// Runs `query` with one bit flipped in the first page it reads (the
/// root, a directory page). The flipped page must come back as answers
/// or a typed error; a panic fails the test.
fn with_root_flip<R>(script: &FaultScript, pos: usize, bit: u8, query: impl FnOnce() -> R) -> R {
    script.flip_on_read(script.reads_seen(), pos, 1 << bit);
    let out = query();
    script.disarm();
    out
}

/// Runs the shared leaf decoder, which every engine's data pages go
/// through: it must return entries or a `Corrupt` error, nothing else.
fn decode_leaf(buf: &[u8], dim: usize) -> Result<Vec<(Point, u64)>, ()> {
    match leaf::decode(&mut ByteReader::new(buf), dim, |p, oid| (p, oid)) {
        Ok(entries) => Ok(entries),
        Err(PageError::Corrupt(_)) => Err(()),
        Err(e) => panic!("leaf decode failed with a non-corruption error: {e}"),
    }
}

proptest! {
    // The shared leaf decoder on arbitrary bytes, and on arbitrary bytes
    // behind a small count so the entry parsing itself is reached.
    #[test]
    fn leaf_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(0u16..256, 0..600),
        count in 0u32..8,
        dim in 1usize..20,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = decode_leaf(&bytes, dim);
        let mut counted = count.to_le_bytes().to_vec();
        counted.extend_from_slice(&bytes);
        if let Ok(entries) = decode_leaf(&counted, dim) {
            prop_assert_eq!(entries.len(), count as usize);
        }
    }

    // Every truncation of a valid leaf is rejected; the whole one decodes.
    #[test]
    fn leaf_decode_rejects_truncation(cut in 0usize..400, dim in 1usize..9) {
        let buf = valid_leaf(dim, 8);
        if cut < buf.len() {
            prop_assert!(decode_leaf(&buf[..cut], dim).is_err());
        } else {
            prop_assert_eq!(decode_leaf(&buf, dim).unwrap().len(), 8);
        }
    }

    // Bit flips in a valid leaf, decoded at the same dim and at a
    // different dim (a page read with the wrong dimensionality).
    #[test]
    fn leaf_decode_survives_bit_flips(
        pos in 0usize..300,
        bit in 0u8..8,
        dim in 1usize..9,
        other_dim in 1usize..9,
    ) {
        let mut buf = valid_leaf(dim, 8);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        if let Ok(entries) = decode_leaf(&buf, dim) {
            // Only the count can change which bytes are entries; a flip
            // inside an entry leaves eight of them.
            prop_assert!(pos < 4 || entries.len() == 8);
        }
        let _ = decode_leaf(&buf, other_dim);
    }

    // Arbitrary garbage: the decoder must classify, not crash.
    #[test]
    fn node_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(0u16..256, 0..600),
        dim in 1usize..20,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = Node::decode(&bytes, dim);
    }

    // Truncations of a valid node: every cut is Ok (a shorter valid
    // prefix cannot exist for this format, so in practice Corrupt) or a
    // typed error.
    #[test]
    fn node_decode_survives_truncation(cut in 0usize..400, dim in 1usize..9) {
        let buf = valid_data_node(dim, 8);
        let cut = cut.min(buf.len());
        let _ = Node::decode(&buf[..cut], dim);
    }

    // Bit flips in a valid node, decoded at the SAME dim: no panic; and
    // decoded at a DIFFERENT dim (a cross-linked page): no panic.
    #[test]
    fn node_decode_survives_bit_flips(
        pos in 0usize..300,
        bit in 0u8..8,
        dim in 1usize..9,
        other_dim in 1usize..9,
    ) {
        let mut buf = valid_data_node(dim, 8);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let _ = Node::decode(&buf, dim);
        let _ = Node::decode(&buf, other_dim);
    }

    // Bit flips in a valid SR-tree index node, decoded at the same dim
    // and at a different one: a flipped rectangle bound or centroid
    // coordinate is a typed error, not an assertion in `Rect::new` or
    // `Point::new`.
    #[test]
    fn sr_index_decode_survives_bit_flips(
        pos in 0usize..600,
        bit in 0u8..8,
        dim in 1usize..9,
        other_dim in 1usize..9,
    ) {
        let mut buf = valid_sr_index_node(dim, 4);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let _ = SrNode::decode(&buf, dim);
        let _ = SrNode::decode(&buf, other_dim);
    }

    // Bit flips in an hB-tree directory page: a split or redirect
    // dimension past the tree's, or a non-finite position, is a typed
    // error, not an out-of-range `Rect` index.
    #[test]
    fn hb_directory_survives_bit_flips(
        pos in 0usize..320,
        bit in 0u8..8,
        lo in proptest::collection::vec(0.0f32..0.8, 3),
    ) {
        let (t, script) = hb_tree();
        let query = Rect::new(lo.clone(), lo.iter().map(|x| x + 0.2).collect());
        let _ = with_root_flip(script, pos, bit, || t.box_query_counted(&query));
        let _ = with_root_flip(script, pos, bit, || t.box_query_counted(&Rect::unit(3)));
    }

    // Bit flips in a kDB-tree directory page: a split dimension past the
    // tree's or a NaN position is a typed error, not a panic in
    // `f32::clamp` while kd-regions are derived.
    #[test]
    fn kdb_directory_survives_bit_flips(
        pos in 0usize..320,
        bit in 0u8..8,
        c in proptest::collection::vec(0.0f32..1.0, 3),
    ) {
        let (t, script) = kdb_tree();
        let center = Point::new(c);
        let _ = with_root_flip(script, pos, bit, || t.box_query_counted(&Rect::unit(3)));
        let _ = with_root_flip(script, pos, bit, || t.distance_range_counted(&center, 0.2, &L2));
        let _ = with_root_flip(script, pos, bit, || t.knn_counted(&center, 5, &L2));
    }

    // The kd-tree decoder walks a recursive format — hostile bytes must
    // not blow the stack or panic.
    #[test]
    fn kdtree_decode_never_panics(raw in proptest::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = KdTree::decode(&mut ByteReader::new(&bytes), 4);
    }

    // The ELS side-table decoder (catalog section).
    #[test]
    fn els_decode_never_panics(raw in proptest::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = ElsTable::decode(&mut ByteReader::new(&bytes));
    }

    // Frame inspection over arbitrary slot contents: must classify as
    // Live/Free/Corrupt, never panic, and never claim a payload longer
    // than the slot.
    #[test]
    fn frame_inspection_never_panics(
        raw in proptest::collection::vec(0u16..256, 0..256),
        id in 0u32..64,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let id = hybridtree_repro::page::PageId(id);
        if bytes.len() >= FRAME_HEADER_BYTES {
            let mut hdr = [0u8; FRAME_HEADER_BYTES];
            hdr.copy_from_slice(&bytes[..FRAME_HEADER_BYTES]);
            let _ = inspect_header(id, &hdr);
        }
        match inspect_frame(id, &bytes) {
            FrameStatus::Live { payload_len, .. } => {
                prop_assert!(FRAME_HEADER_BYTES + payload_len as usize <= bytes.len());
            }
            FrameStatus::Free | FrameStatus::Corrupt(_) => {}
        }
    }
}

proptest! {
    // File-per-case is slower; keep the case count moderate.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // A catalog file of arbitrary bytes: open and scrub must both fail
    // typed (or, absurdly unlikely, succeed), never panic.
    #[test]
    fn catalog_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(0u16..256, 0..256),
        with_magic in 0u8..2,
    ) {
        let pages = tmp("garbage.pages");
        let meta = tmp("garbage.meta");
        let _ = DurableStorage::create(&pages, 256).unwrap();
        let mut body: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        if with_magic == 1 {
            // Force the parser past the magic check into section parsing.
            let mut m = b"HYTREE03".to_vec();
            m.extend_from_slice(&body);
            body = m;
        }
        std::fs::write(&meta, &body).unwrap();
        let _ = HybridTree::open(&pages, &meta);
        let _ = scrub_index(&pages, &meta);
    }
}

/// A hybrid directory page whose split dimension is past the tree's is
/// `Corrupt` on the write paths too: they decode the owned kd-tree and
/// would index the child regions with that dimension.
#[test]
fn hybrid_split_dim_past_the_tree_fails_writes_cleanly() {
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(FLIP_PAGE));
    let cfg = HybridTreeConfig {
        page_size: FLIP_PAGE,
        ..HybridTreeConfig::default()
    };
    let mut t = HybridTree::with_storage(3, cfg, storage).unwrap();
    let points = flip_points();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    assert!(t.height() >= 2, "the root must be a directory page");
    // Byte 5 is the high byte of the root split's dimension (node tag,
    // u16 level, kd tag, u16 dim): its top bit puts the split on
    // dimension 32768 or above.
    let p = Point::new(vec![0.5; 3]);
    assert!(with_root_flip(&script, 5, 7, || t.insert(p.clone(), 600)).is_err());
    assert!(with_root_flip(&script, 5, 7, || t.delete(&points[0], 0)).is_err());
    // Unflipped, the tree is intact.
    assert!(t.delete(&points[0], 0).unwrap());
}

/// A hybrid tree over flippable 512-byte pages holding `points` under
/// oids `0..n`, with the given ELS precision.
fn flippable_hybrid(
    els_bits: u8,
    points: &[Point],
) -> Flippable<HybridTree<FaultStorage<MemStorage>>> {
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(FLIP_PAGE));
    let cfg = HybridTreeConfig {
        page_size: FLIP_PAGE,
        els_bits,
        ..HybridTreeConfig::default()
    };
    let mut t = HybridTree::with_storage(3, cfg, storage).unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    (t, script)
}

/// An insert appends to a data page in place, but keeps the decoder's
/// checks over the page it rewrites: a leaf holding a NaN coordinate, or
/// a count the page cannot hold, fails the insert with `Corrupt` before
/// anything is written. Checked with the root as the leaf (the append
/// path, the leaf has room) and two directory levels above it.
#[test]
fn hybrid_inserts_into_a_corrupt_leaf_write_nothing() {
    // Every first coordinate lies in [1, 2), whose f32 exponent byte is
    // 0x3F: flipping its 0x40 bit makes the coordinate NaN (∞ at 1.0).
    let points: Vec<Point> = flip_points()
        .into_iter()
        .map(|p| Point::new(vec![p.coord(0) + 1.0, p.coord(1), p.coord(2)]))
        .collect();
    let p = Point::new(vec![1.5, 0.5, 0.5]);
    for els_bits in [4, 0] {
        for n in [10, points.len()] {
            let (mut t, script) = flippable_hybrid(els_bits, &points[..n]);
            // The leaf is the insert's last read: one per level.
            let leaf_read = t.height() as u64 - 1;
            assert_eq!(leaf_read, if n == 10 { 0 } else { 2 });
            // Byte 8 is the exponent byte of the first entry's first
            // coordinate (tag, u32 count, then coordinates); byte 4 is
            // the count's high byte.
            for (pos, mask) in [(8, 0x40), (4, 0x80)] {
                let writes = t.io_stats().logical_writes;
                script.flip_on_read(script.reads_seen() + leaf_read, pos, mask);
                let err = t.insert(p.clone(), 9_999).unwrap_err();
                script.disarm();
                assert!(
                    matches!(err, IndexError::Storage(PageError::Corrupt(_))),
                    "els {els_bits}, {n} points, byte {pos}: {err}"
                );
                assert_eq!(t.io_stats().logical_writes, writes, "byte {pos}");
            }
            // Unflipped, the tree is intact and takes the insert.
            t.insert(p.clone(), 9_999).unwrap();
            t.check_invariants().unwrap();
            assert_eq!(t.len(), n + 1);
        }
    }
}

/// Writes walk directory pages in place, so a damaged page on a write's
/// path must come back as an answer or a typed error, never a panic. For
/// every page one insert and one delete read, each byte gets one bit
/// flipped (the bit is the byte's offset mod 8) as the page is read, on
/// a fresh two-level tree per trial.
#[test]
fn hybrid_writes_survive_bit_flips() {
    let points = &flip_points()[..150];
    let p = Point::new(vec![0.5, 0.5, 0.5]);
    for els_bits in [4, 0] {
        // A clean run counts the pages the two writes read.
        let (mut t, script) = flippable_hybrid(els_bits, points);
        assert_eq!(t.height(), 2);
        let start = script.reads_seen();
        t.insert(p.clone(), 9_999).unwrap();
        assert!(t.delete(&points[0], 0).unwrap());
        let reads = script.reads_seen() - start;
        assert!(reads >= 4, "{reads} reads");
        let (mut failed, mut trials) = (0, 0);
        for nth in 0..reads {
            for pos in 0..FLIP_PAGE {
                let (mut t, script) = flippable_hybrid(els_bits, points);
                script.flip_on_read(script.reads_seen() + nth, pos, 1 << (pos % 8));
                let inserted = t.insert(p.clone(), 9_999);
                let deleted = t.delete(&points[0], 0);
                failed += usize::from(inserted.is_err() || deleted.is_err());
                trials += 1;
            }
        }
        // Some flips must be caught; one in a byte no walk reads must not.
        assert!(failed > 0 && failed < trials, "{failed} of {trials}");
    }
}

/// Runs `query` once per flip: one bit (the byte's offset mod 8) flipped
/// at every byte of every page a clean run of it reads, as the page is
/// read. Returns the failed trials and the trials; a panic fails the test.
fn flip_every_read<R>(
    script: &FaultScript,
    mut query: impl FnMut() -> Result<R, IndexError>,
) -> (usize, usize) {
    let start = script.reads_seen();
    query().unwrap();
    let reads = script.reads_seen() - start;
    assert!(reads > 0, "the query reads no page");
    let mut failed = 0;
    for nth in 0..reads {
        for pos in 0..FLIP_PAGE {
            script.flip_on_read(script.reads_seen() + nth, pos, 1 << (pos % 8));
            failed += usize::from(query().is_err());
            script.disarm();
        }
    }
    (failed, reads as usize * FLIP_PAGE)
}

/// Queries walk pages in place or decode them, so a damaged page on a
/// query's path must come back as answers or a typed error, never a
/// panic: every engine, on two-level trees of 512-byte pages, runs one
/// box, one range and one kNN query (the hB-tree, which has no distance
/// queries, the box only) under a bit flip at every byte of every page
/// the query reads.
#[test]
fn queries_survive_bit_flips() {
    // The first 150 points have their third coordinate in [0, 0.25).
    let points = &flip_points()[..150];
    let rect = Rect::new(vec![0.2, 0.2, 0.05], vec![0.7, 0.7, 0.2]);
    let center = Point::new(vec![0.5, 0.5, 0.12]);
    let sweep = |name: &str, t: &dyn MultidimIndex, script: &FaultScript, distance: bool| {
        let mut runs = vec![flip_every_read(script, || t.box_query(&rect))];
        if distance {
            runs.push(flip_every_read(script, || {
                t.distance_range(&center, 0.25, &L2)
            }));
            runs.push(flip_every_read(script, || t.knn(&center, 5, &L2)));
        }
        for (failed, trials) in runs {
            assert!(failed > 0, "{name}: no flip in {trials} trials was caught");
        }
    };
    for els_bits in [4, 0] {
        let (t, script) = flippable_hybrid(els_bits, points);
        assert_eq!(t.height(), 2);
        sweep(&format!("hybrid, ELS {els_bits}"), &t, &script, true);
    }
    let sr = |s| SrTree::with_storage(3, s).unwrap();
    let (t, script) = flippable(points, sr);
    assert_eq!(height(&t), 2);
    sweep("SR", &t, &script, true);
    let (t, script) = flippable(points, kdb_over);
    assert_eq!(height(&t), 2);
    sweep("kDB", &t, &script, true);
    let (t, script) = flippable(points, hb_over);
    assert_eq!(height(&t), 2);
    sweep("hB", &t, &script, false);
    let (t, script) = flippable(points, |s| SeqScan::with_storage(3, s).unwrap());
    sweep("scan", &t, &script, true);
}

/// An SR-tree directory page whose entry count reads as zero is `Corrupt`
/// on the insert path, which descends into the nearest child entry.
#[test]
fn sr_root_with_no_entries_fails_inserts_cleanly() {
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(FLIP_PAGE));
    let mut t = SrTree::with_storage(3, storage).unwrap();
    for (i, p) in flip_points().into_iter().take(120).enumerate() {
        t.insert(p, i as u64).unwrap();
    }
    // A two-level tree: the root is the one directory page, so its
    // fanout is the average.
    let st = t.structure_stats().unwrap();
    assert_eq!((st.height, st.index_nodes), (2, 1));
    let fanout = st.avg_fanout as u8;
    assert_eq!(f64::from(fanout), st.avg_fanout);
    // Byte 3 is the low byte of the root's entry count (node tag, u16
    // level, u32 count): flipping the count's own bits into it zeroes it.
    let p = Point::new(vec![0.5; 3]);
    script.flip_on_read(script.reads_seen(), 3, fanout);
    assert!(t.insert(p.clone(), 600).is_err());
    script.disarm();
    // Unflipped, the tree is intact.
    t.insert(p, 600).unwrap();
    assert_eq!(t.len(), 121);
}

/// Zeroed page file regions: a page file of all zeros is all free slots —
/// decodable, scrubbable, and refusing to open as a tree.
#[test]
fn zeroed_page_file_is_free_slots_not_a_crash() {
    let pages = tmp("zeros.pages");
    let meta = tmp("zeros.meta");
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    {
        let mut t = HybridTree::create_durable(3, cfg, &pages).unwrap();
        for i in 0..200u64 {
            let x = i as f32 / 200.0;
            t.insert(Point::new(vec![x, 1.0 - x, 0.5]), i).unwrap();
        }
        t.persist(&meta).unwrap();
    }
    let len = std::fs::metadata(&pages).unwrap().len() as usize;
    std::fs::write(&pages, vec![0u8; len]).unwrap();
    // Every slot now reads as free: scrub reports no live pages, open
    // fails typed (the root the catalog points at is gone).
    let report = scrub_index(&pages, &meta).unwrap();
    assert_eq!(report.live, 0);
    assert!(!report.is_clean());
    assert!(HybridTree::open(&pages, &meta).is_err());
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}
