//! Decode-path fuzzing: every deserializer in the read path must map
//! arbitrary, truncated, bit-flipped, or zeroed input to a *typed*
//! [`PageError`] — never a panic, never an out-of-bounds access. These
//! are the code paths that face bytes straight off a disk that may have
//! been torn, rotted, or overwritten by another program.

use hybridtree_repro::core::{scrub_index, ElsTable, HybridTree, HybridTreeConfig, KdTree, Node};
use hybridtree_repro::geom::{Point, Rect};
use hybridtree_repro::index::{leaf, MultidimIndex};
use hybridtree_repro::page::{
    inspect_frame, inspect_header, ByteReader, ByteWriter, DurableStorage, FrameStatus, PageError,
    PageId, FRAME_HEADER_BYTES,
};
use hybridtree_repro::srtree::{ChildEntry, SrNode};
use proptest::prelude::*;

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

    // The kd-tree decoder walks a recursive format — hostile bytes must
    // not blow the stack or panic.
    #[test]
    fn kdtree_decode_never_panics(raw in proptest::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = KdTree::decode(&mut ByteReader::new(&bytes));
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
