//! The leaf (data-page) entry layout shared by every engine.
//!
//! The paper's §4 comparison runs every structure on the same pages, and
//! their data nodes hold the same `(point, oid)` entries; only the
//! directories differ. This module is that one layout: a little-endian
//! `u32` entry count, then per entry `dim` × `f32` coordinates followed
//! by a `u64` object id. Each engine writes its own tag or header before
//! the count and its own trailer (the hB-tree's redirects) after the
//! entries; the entries themselves go through [`encode`] and [`decode`].

use hyt_geom::Point;
use hyt_page::{ByteReader, ByteWriter, PageError, PageResult};

/// Bytes one `(point, oid)` entry occupies on a page.
pub fn entry_bytes(dim: usize) -> usize {
    4 * dim + 8
}

/// Appends the entry count and the entries. Every point must have `dim`
/// coordinates.
pub fn encode<'a>(
    w: &mut ByteWriter,
    dim: usize,
    entries: impl ExactSizeIterator<Item = (&'a Point, u64)>,
) {
    w.put_u32(entries.len() as u32);
    for (p, oid) in entries {
        debug_assert_eq!(p.dim(), dim);
        for d in 0..dim {
            w.put_f32(p.coord(d));
        }
        w.put_u64(oid);
    }
}

/// Reads what [`encode`] wrote, building each entry with `make`.
///
/// The claimed count is checked against the bytes left before anything
/// is allocated, and a non-finite coordinate or a zero `dim` is reported
/// as [`PageError::Corrupt`]: damaged or foreign page bytes surface as a
/// typed error, never as a panic.
pub fn decode<T>(
    r: &mut ByteReader<'_>,
    dim: usize,
    mut make: impl FnMut(Point, u64) -> T,
) -> PageResult<Vec<T>> {
    let n = r.get_u32()? as usize;
    let size = entry_bytes(dim);
    let total = n
        .checked_mul(size)
        .filter(|&b| b <= r.remaining())
        .ok_or_else(|| {
            PageError::Corrupt(format!(
                "data page claims {n} entries, only {} bytes remain",
                r.remaining()
            ))
        })?;
    if dim == 0 && n > 0 {
        return Err(PageError::Corrupt(
            "data page entries need a dimension".into(),
        ));
    }
    let raw = r.get_bytes(total)?;
    let mut out = Vec::with_capacity(n);
    for entry in raw.chunks_exact(size) {
        let (coords, oid) = entry.split_at(4 * dim);
        let coords: Vec<f32> = coords
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        if !coords.iter().all(|c| c.is_finite()) {
            return Err(PageError::Corrupt(
                "data page holds a non-finite coordinate".into(),
            ));
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(oid);
        out.push(make(Point::new(coords), u64::from_le_bytes(id)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(p: &(Point, u64)) -> (&Point, u64) {
        (&p.0, p.1)
    }

    #[test]
    fn entry_size_matches_paper_arithmetic() {
        // A 64-d entry: 64 * 4 bytes of coordinates + an 8-byte oid, so a
        // 4 KiB page holds 15 behind a 5-byte header.
        assert_eq!(entry_bytes(64), 264);
        assert_eq!((4096 - 5) / entry_bytes(64), 15);
    }

    #[test]
    fn layout_is_pinned_byte_for_byte() {
        let entries = [
            (Point::new(vec![1.0, -2.0]), 7),
            (Point::new(vec![0.5, 0.25]), 0x0102_0304_0506_0708),
        ];
        let mut w = ByteWriter::new();
        encode(&mut w, 2, entries.iter().map(pair));
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            2, 0, 0, 0,                     // count
            0x00, 0x00, 0x80, 0x3f,         // 1.0
            0x00, 0x00, 0x00, 0xc0,         // -2.0
            7, 0, 0, 0, 0, 0, 0, 0,         // oid 7
            0x00, 0x00, 0x00, 0x3f,         // 0.5
            0x00, 0x00, 0x80, 0x3e,         // 0.25
            8, 7, 6, 5, 4, 3, 2, 1,         // oid 0x0102030405060708
        ];
        assert_eq!(w.as_slice(), &want[..]);
        assert_eq!(want.len(), 4 + 2 * entry_bytes(2));
        let mut r = ByteReader::new(&want);
        let got = decode(&mut r, 2, |p, oid| (p, oid)).unwrap();
        assert_eq!(got, entries);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decode_leaves_the_trailer_unread() {
        let entries = [(Point::new(vec![0.1, 0.2, 0.3]), 42)];
        let mut w = ByteWriter::new();
        encode(&mut w, 3, entries.iter().map(pair));
        w.put_u16(0xBEEF);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert_eq!(decode(&mut r, 3, |p, oid| (p, oid)).unwrap(), entries);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
    }

    #[test]
    fn decode_rejects_corrupt_input() {
        let corrupt = |buf: &[u8], dim| {
            matches!(
                decode(&mut ByteReader::new(buf), dim, |p, oid| (p, oid)),
                Err(PageError::Corrupt(_))
            )
        };
        // Truncated count, and a count the page cannot hold.
        assert!(corrupt(&[1, 0], 2));
        assert!(corrupt(&[1, 0, 0, 0, 0, 0], 2));
        // A count so large that count × entry size overflows.
        assert!(corrupt(&[0xff; 4], usize::MAX / 8));
        // A NaN coordinate.
        let mut nan = vec![1, 0, 0, 0];
        nan.extend_from_slice(&f32::NAN.to_le_bytes());
        nan.extend_from_slice(&[0; 8]);
        assert!(corrupt(&nan, 1));
        // Entries without a dimension.
        assert!(corrupt(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0));
        // An empty page of any dimension is fine.
        assert!(decode(&mut ByteReader::new(&[0; 4]), 0, |p, oid| (p, oid))
            .unwrap()
            .is_empty());
    }
}
