//! On-page formats of the SR-tree.

use hyt_geom::{Point, Rect};
use hyt_index::leaf;
use hyt_page::{ByteReader, ByteWriter, PageError, PageId, PageResult};

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;

/// Header of a data node (tag + count).
pub const DATA_HEADER_BYTES: usize = 1 + 4;
/// Header of an index node (tag + level + count).
pub const INDEX_HEADER_BYTES: usize = 1 + 2 + 4;

/// Bytes per index entry: page id, weight, radius, centroid, rectangle.
///
/// This is the SR-tree's `O(k)` per-entry overhead — `12k + 12` bytes —
/// which caps the fanout of a 4 KiB page at ~5 children in 64 dimensions.
pub fn index_entry_bytes(dim: usize) -> usize {
    4 + 4 + 4 + 4 * dim + 8 * dim
}

/// Data entries a page can hold.
pub fn data_capacity(page_size: usize, dim: usize) -> usize {
    page_size.saturating_sub(DATA_HEADER_BYTES) / leaf::entry_bytes(dim)
}

/// Index entries a page can hold.
pub fn index_capacity(page_size: usize, dim: usize) -> usize {
    page_size.saturating_sub(INDEX_HEADER_BYTES) / index_entry_bytes(dim)
}

/// An index-node entry describing one child: its bounding sphere
/// (centroid of all points beneath + radius) and bounding rectangle.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildEntry {
    /// The child page.
    pub pid: PageId,
    /// Number of data points beneath the child.
    pub weight: u32,
    /// Bounding-sphere radius (L2).
    pub radius: f32,
    /// Centroid of all points beneath the child.
    pub centroid: Point,
    /// Bounding rectangle of all points beneath the child.
    pub rect: Rect,
}

/// A deserialized SR-tree node.
#[derive(Clone, Debug, PartialEq)]
pub enum SrNode {
    /// Leaf page of `(point, oid)` pairs.
    Data(Vec<(Point, u64)>),
    /// Directory page of child entries.
    Index {
        /// Level (1 = children are data nodes).
        level: u16,
        /// Child entries.
        entries: Vec<ChildEntry>,
    },
}

impl SrNode {
    /// Serialized size in bytes.
    pub fn encoded_size(&self, dim: usize) -> usize {
        match self {
            SrNode::Data(e) => DATA_HEADER_BYTES + e.len() * leaf::entry_bytes(dim),
            SrNode::Index { entries, .. } => {
                INDEX_HEADER_BYTES + entries.len() * index_entry_bytes(dim)
            }
        }
    }

    /// Serializes the node.
    pub fn encode(&self, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size(dim));
        match self {
            SrNode::Data(entries) => {
                w.put_u8(TAG_DATA);
                leaf::encode(&mut w, dim, entries.iter().map(|(p, oid)| (p, *oid)));
            }
            SrNode::Index { level, entries } => {
                w.put_u8(TAG_INDEX);
                w.put_u16(*level);
                w.put_u32(entries.len() as u32);
                for e in entries {
                    w.put_u32(e.pid.0);
                    w.put_u32(e.weight);
                    w.put_f32(e.radius);
                    for d in 0..dim {
                        w.put_f32(e.centroid.coord(d));
                    }
                    for d in 0..dim {
                        w.put_f32(e.rect.lo(d));
                    }
                    for d in 0..dim {
                        w.put_f32(e.rect.hi(d));
                    }
                }
            }
        }
        w.into_inner()
    }

    /// Parses a node.
    pub fn decode(buf: &[u8], dim: usize) -> PageResult<Self> {
        let mut r = ByteReader::new(buf);
        match r.get_u8()? {
            TAG_DATA => Ok(SrNode::Data(leaf::decode(&mut r, dim, |p, oid| (p, oid))?)),
            TAG_INDEX => {
                let level = r.get_u16()?;
                let n = r.get_u32()? as usize;
                if n * index_entry_bytes(dim) > r.remaining() {
                    return Err(PageError::Corrupt(format!(
                        "SR index node claims {n} entries beyond the page"
                    )));
                }
                if dim == 0 && n > 0 {
                    return Err(PageError::Corrupt(
                        "SR index entries need a dimension".into(),
                    ));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let pid = PageId(r.get_u32()?);
                    let weight = r.get_u32()?;
                    let radius = r.get_f32()?;
                    let centroid = get_coords(&mut r, dim)?;
                    let lo = get_coords(&mut r, dim)?;
                    let hi = get_coords(&mut r, dim)?;
                    // `Point::new` and `Rect::new` assert what a damaged
                    // page can break: check it here and report it typed.
                    if !centroid.iter().all(|c| c.is_finite()) {
                        return Err(PageError::Corrupt(format!(
                            "SR index entry for {pid}: non-finite centroid"
                        )));
                    }
                    if !lo
                        .iter()
                        .zip(&hi)
                        .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h)
                    {
                        return Err(PageError::Corrupt(format!(
                            "SR index entry for {pid}: rectangle bounds not finite and ordered"
                        )));
                    }
                    entries.push(ChildEntry {
                        pid,
                        weight,
                        radius,
                        centroid: Point::new(centroid),
                        rect: Rect::new(lo, hi),
                    });
                }
                Ok(SrNode::Index { level, entries })
            }
            t => Err(PageError::Corrupt(format!("bad SR node tag {t}"))),
        }
    }
}

/// Reads `dim` little-endian `f32` coordinates.
fn get_coords(r: &mut ByteReader<'_>, dim: usize) -> PageResult<Vec<f32>> {
    (0..dim).map(|_| r.get_f32()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_collapses_with_dimensionality() {
        // The property the paper's Figure 6 rests on.
        assert!(index_capacity(4096, 8) > 35);
        assert_eq!(index_capacity(4096, 64), 5);
        assert!(index_capacity(4096, 64) < index_capacity(4096, 16));
    }

    #[test]
    fn data_node_roundtrip() {
        let n = SrNode::Data(vec![
            (Point::new(vec![0.1, 0.2]), 1),
            (Point::new(vec![0.3, 0.4]), 2),
        ]);
        let buf = n.encode(2);
        assert_eq!(buf.len(), n.encoded_size(2));
        assert_eq!(SrNode::decode(&buf, 2).unwrap(), n);
    }

    #[test]
    fn index_node_roundtrip() {
        let e = ChildEntry {
            pid: PageId(9),
            weight: 17,
            radius: 0.25,
            centroid: Point::new(vec![0.5, 0.6, 0.7]),
            rect: Rect::new(vec![0.1, 0.2, 0.3], vec![0.9, 0.8, 0.9]),
        };
        let n = SrNode::Index {
            level: 2,
            entries: vec![e.clone(), e],
        };
        let buf = n.encode(3);
        assert_eq!(buf.len(), n.encoded_size(3));
        assert_eq!(SrNode::decode(&buf, 3).unwrap(), n);
    }

    #[test]
    fn damaged_index_entries_are_corrupt_not_a_panic() {
        let n = SrNode::Index {
            level: 1,
            entries: vec![ChildEntry {
                pid: PageId(4),
                weight: 2,
                radius: 0.1,
                centroid: Point::new(vec![0.5]),
                rect: Rect::new(vec![0.1], vec![0.8]),
            }],
        };
        let good = n.encode(1);
        // Tag, level and count, then pid, weight and radius: the 1-d
        // entry's centroid, lo and hi follow at these offsets.
        let (centroid, lo) = (INDEX_HEADER_BYTES + 12, INDEX_HEADER_BYTES + 16);
        let with = |at: usize, v: f32| {
            let mut buf = good.clone();
            buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
            buf
        };
        for buf in [with(lo, 0.9), with(centroid, f32::NAN)] {
            assert!(matches!(
                SrNode::decode(&buf, 1),
                Err(PageError::Corrupt(_))
            ));
        }
        assert_eq!(SrNode::decode(&good, 1).unwrap(), n);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert!(SrNode::decode(&[42u8, 0, 0, 0, 0], 2).is_err());
    }
}
