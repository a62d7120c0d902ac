//! The checksummed on-disk page frame.
//!
//! A framed page is [`HEADER_BYTES`] of header followed by the logical
//! payload, zero-padded to the logical page size:
//!
//! | offset | size | field                                         |
//! |--------|------|-----------------------------------------------|
//! | 0      | 4    | magic ([`PAGE_MAGIC`])                        |
//! | 4      | 1    | format version ([`FORMAT_VERSION`])           |
//! | 5      | 1    | flags ([`FLAG_LIVE`])                         |
//! | 6      | 2    | reserved (zero)                               |
//! | 8      | 4    | page id (must match the slot it is read from) |
//! | 12     | 4    | payload length before zero padding            |
//! | 16     | 8    | write epoch (see [`crate::ChecksumStorage`])  |
//! | 24     | 4    | CRC-32 of the zero-padded payload             |
//! | 28     | 4    | CRC-32 of header bytes 0..28                  |
//!
//! A fully zeroed header denotes a *free* page — freeing zeroes the slot on
//! disk — so an opener can rebuild the free list from headers alone, and a
//! torn write that only partially lands fails one of the two CRCs. The page
//! id in the header catches misdirected writes (a page persisted into the
//! wrong slot passes its own CRC but not the id check).

use crate::crc::crc32;
use crate::PageId;

/// Size of the frame header prepended to every page payload.
pub const HEADER_BYTES: usize = 32;

/// Magic number identifying a framed hybrid-tree page ("HYTG" LE).
pub const PAGE_MAGIC: u32 = 0x4754_5948;

/// Current frame format version.
pub const FORMAT_VERSION: u8 = 1;

/// Flag bit marking a live (allocated) page.
pub const FLAG_LIVE: u8 = 1;

/// What a frame header says about its page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderStatus {
    /// A valid live-page header.
    Live {
        /// Write epoch stamped at flush time.
        epoch: u64,
        /// Payload bytes before zero padding.
        payload_len: u32,
        /// Expected CRC-32 of the zero-padded payload.
        payload_crc: u32,
    },
    /// An all-zero header: the slot is free.
    Free,
    /// The header fails validation.
    Corrupt(String),
}

/// What a full frame (header + payload) says about its page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStatus {
    /// Header and payload both check out.
    Live {
        /// Write epoch stamped at flush time.
        epoch: u64,
        /// Payload bytes before zero padding.
        payload_len: u32,
    },
    /// The slot is free (zeroed header; payload content is don't-care).
    Free,
    /// The frame fails validation.
    Corrupt(String),
}

/// Encodes `payload` as a framed page into `out`, which must be the full
/// inner page size (`HEADER_BYTES` + logical size). `out` is fully
/// overwritten: payload bytes are zero-padded and both CRCs are stamped.
///
/// # Panics
/// Panics if `out` is smaller than `HEADER_BYTES + payload.len()` — a
/// caller bug, not a data-dependent condition (callers size `out` from
/// their own page size and bound `payload` by it first).
pub fn encode_frame(id: PageId, epoch: u64, payload: &[u8], out: &mut [u8]) {
    assert!(
        out.len() >= HEADER_BYTES + payload.len(),
        "frame buffer too small"
    );
    out.fill(0);
    out[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
    let payload_crc = crc32(&out[HEADER_BYTES..]);
    out[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    out[4] = FORMAT_VERSION;
    out[5] = FLAG_LIVE;
    // bytes 6..8 reserved, already zero
    out[8..12].copy_from_slice(&id.0.to_le_bytes());
    out[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out[16..24].copy_from_slice(&epoch.to_le_bytes());
    out[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&out[..28]);
    out[28..32].copy_from_slice(&header_crc.to_le_bytes());
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Classifies a frame *header* (the first [`HEADER_BYTES`] of a slot)
/// without reading the payload — this is what lets an opener rebuild the
/// free list and find the newest epoch from header-size reads alone.
pub fn inspect_header(expect_id: PageId, header: &[u8; HEADER_BYTES]) -> HeaderStatus {
    if header.iter().all(|&b| b == 0) {
        return HeaderStatus::Free;
    }
    let stored_header_crc = le_u32(&header[28..32]);
    if crc32(&header[..28]) != stored_header_crc {
        return HeaderStatus::Corrupt("frame header checksum mismatch".into());
    }
    let magic = le_u32(&header[0..4]);
    if magic != PAGE_MAGIC {
        return HeaderStatus::Corrupt(format!(
            "bad frame magic {magic:#010x} (expected {PAGE_MAGIC:#010x})"
        ));
    }
    if header[4] != FORMAT_VERSION {
        return HeaderStatus::Corrupt(format!(
            "unsupported frame format version {} (expected {FORMAT_VERSION})",
            header[4]
        ));
    }
    if header[5] != FLAG_LIVE {
        return HeaderStatus::Corrupt(format!("bad frame flags {:#04x}", header[5]));
    }
    let id = le_u32(&header[8..12]);
    if id != expect_id.0 {
        return HeaderStatus::Corrupt(format!(
            "frame stamped for page {id} found in slot {expect_id}"
        ));
    }
    HeaderStatus::Live {
        epoch: le_u64(&header[16..24]),
        payload_len: le_u32(&header[12..16]),
        payload_crc: le_u32(&header[24..28]),
    }
}

/// Validates a full framed slot (header + payload) read from page
/// `expect_id`. Every classification is a return value; this function
/// never panics on any byte pattern.
pub fn inspect_frame(expect_id: PageId, framed: &[u8]) -> FrameStatus {
    if framed.len() < HEADER_BYTES {
        return FrameStatus::Corrupt(format!(
            "frame of {} bytes is shorter than the {HEADER_BYTES}-byte header",
            framed.len()
        ));
    }
    let mut header = [0u8; HEADER_BYTES];
    header.copy_from_slice(&framed[..HEADER_BYTES]);
    match inspect_header(expect_id, &header) {
        HeaderStatus::Free => FrameStatus::Free,
        HeaderStatus::Corrupt(msg) => FrameStatus::Corrupt(msg),
        HeaderStatus::Live {
            epoch,
            payload_len,
            payload_crc,
        } => {
            let payload = &framed[HEADER_BYTES..];
            if payload_len as usize > payload.len() {
                return FrameStatus::Corrupt(format!(
                    "payload length {payload_len} exceeds page capacity {}",
                    payload.len()
                ));
            }
            if crc32(payload) != payload_crc {
                return FrameStatus::Corrupt("payload checksum mismatch".into());
            }
            FrameStatus::Live { epoch, payload_len }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(id: PageId, epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_BYTES + 128];
        encode_frame(id, epoch, payload, &mut buf);
        buf
    }

    #[test]
    fn roundtrip_live_frame() {
        let buf = framed(PageId(7), 3, b"payload");
        match inspect_frame(PageId(7), &buf) {
            FrameStatus::Live { epoch, payload_len } => {
                assert_eq!(epoch, 3);
                assert_eq!(payload_len, 7);
            }
            other => panic!("expected live, got {other:?}"),
        }
        assert_eq!(&buf[HEADER_BYTES..HEADER_BYTES + 7], b"payload");
    }

    #[test]
    fn golden_frame_is_byte_identical() {
        // A format-1 frame as the table-loop CRC-32 stamps it: page 42,
        // epoch 0x0123456789ABCDEF, a 100-byte payload padded to 128. Any
        // change to the layout or the checksum would break every existing
        // page file, and shows here first.
        const GOLDEN: &str = concat!(
            "48595447010100002a00000064000000efcdab8967452301572c3888264e9113",
            "0726456483a2c1e0ff1e3d5c7b9ab9d8f71635547392b1d0ef0e2d4c6b8aa9c8",
            "e70625446382a1c0dffe1d3c5b7a99b8d7f61534537291b0cfee0d2c4b6a89a8",
            "c7e60524436281a0bfdefd1c3b5a7998b7d6f51433527190afceed0c2b4a6988",
            "a7c6e50400000000000000000000000000000000000000000000000000000000",
        );
        let payload: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        let buf = framed(PageId(42), 0x0123_4567_89AB_CDEF, &payload);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(
            inspect_frame(PageId(42), &buf),
            FrameStatus::Live {
                epoch: 0x0123_4567_89AB_CDEF,
                payload_len: 100
            }
        );
    }

    #[test]
    fn zeroed_slot_is_free() {
        let buf = vec![0u8; HEADER_BYTES + 128];
        assert_eq!(inspect_frame(PageId(0), &buf), FrameStatus::Free);
        let header = [0u8; HEADER_BYTES];
        assert_eq!(inspect_header(PageId(0), &header), HeaderStatus::Free);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let reference = framed(PageId(2), 9, b"bits matter");
        for pos in 0..reference.len() {
            for bit in 0..8 {
                let mut buf = reference.clone();
                buf[pos] ^= 1 << bit;
                match inspect_frame(PageId(2), &buf) {
                    FrameStatus::Corrupt(_) => {}
                    other => panic!("flip at {pos}:{bit} undetected: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn misdirected_write_is_detected() {
        // A frame persisted into the wrong slot passes its CRCs but not
        // the id check.
        let buf = framed(PageId(4), 1, b"wrong slot");
        match inspect_frame(PageId(5), &buf) {
            FrameStatus::Corrupt(msg) => assert!(msg.contains("slot")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_corrupt() {
        let buf = framed(PageId(1), 1, b"x");
        for cut in [0, 1, HEADER_BYTES - 1] {
            assert!(matches!(
                inspect_frame(PageId(1), &buf[..cut]),
                FrameStatus::Corrupt(_)
            ));
        }
    }

    #[test]
    fn overclaiming_payload_len_is_corrupt() {
        let mut buf = framed(PageId(3), 1, b"claim");
        // Forge payload_len beyond capacity and re-stamp the header CRC so
        // only the length check can reject it.
        buf[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crate::crc::crc32(&buf[..28]);
        buf[28..32].copy_from_slice(&crc.to_le_bytes());
        match inspect_frame(PageId(3), &buf) {
            FrameStatus::Corrupt(msg) => assert!(msg.contains("exceeds")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
