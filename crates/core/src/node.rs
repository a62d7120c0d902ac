//! On-page node formats of the hybrid tree.

use crate::kdtree::KdTree;
use hyt_geom::Point;
use hyt_index::leaf;
use hyt_page::{ByteReader, ByteWriter, PageError, PageResult};

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;

/// Header bytes of a data node (tag + entry count).
pub const DATA_HEADER_BYTES: usize = 1 + 4;
/// Header bytes of an index node (tag + level).
pub const INDEX_HEADER_BYTES: usize = 1 + 2;

/// One stored `(point, object id)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct DataEntry {
    /// The feature vector.
    pub point: Point,
    /// The caller-supplied object identifier.
    pub oid: u64,
}

/// Maximum entries a data node of `page_size` can hold.
pub fn data_capacity(page_size: usize, dim: usize) -> usize {
    page_size.saturating_sub(DATA_HEADER_BYTES) / leaf::entry_bytes(dim)
}

/// The utilization quota (paper §3.2), as a fraction of capacity: splits
/// leave every node at least this full, and a non-root data node below
/// it underflows on delete.
pub(crate) const MIN_FILL: f64 = 0.35;

/// The fewest entries a node of capacity `cap` may hold under
/// [`MIN_FILL`] (never fewer than one).
pub(crate) fn min_entries(cap: usize) -> usize {
    ((MIN_FILL * cap as f64).floor() as usize).max(1)
}

/// A deserialized hybrid tree node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// A leaf page of `(point, oid)` entries.
    Data(Vec<DataEntry>),
    /// A directory page: its kd-tree plus the level it sits at
    /// (1 = its children are data nodes).
    Index {
        /// Tree level; data nodes are level 0.
        level: u16,
        /// Intra-node space partitioning.
        kd: KdTree,
    },
}

impl Node {
    /// Serialized size in bytes.
    pub fn encoded_size(&self, dim: usize) -> usize {
        match self {
            Node::Data(entries) => DATA_HEADER_BYTES + entries.len() * leaf::entry_bytes(dim),
            Node::Index { kd, .. } => INDEX_HEADER_BYTES + kd.encoded_size(),
        }
    }

    /// Serializes the node into a fresh buffer.
    pub fn encode(&self, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size(dim));
        match self {
            Node::Data(entries) => {
                w.put_u8(TAG_DATA);
                leaf::encode(&mut w, dim, entries.iter().map(|e| (&e.point, e.oid)));
            }
            Node::Index { level, kd } => {
                w.put_u8(TAG_INDEX);
                w.put_u16(*level);
                kd.encode(&mut w);
            }
        }
        w.into_inner()
    }

    /// Parses a node from page bytes.
    pub fn decode(buf: &[u8], dim: usize) -> PageResult<Self> {
        let mut r = ByteReader::new(buf);
        match r.get_u8()? {
            TAG_DATA => Ok(Node::Data(leaf::decode(&mut r, dim, |point, oid| {
                DataEntry { point, oid }
            })?)),
            TAG_INDEX => {
                let level = r.get_u16()?;
                let kd = KdTree::decode(&mut r, dim)?;
                Ok(Node::Index { level, kd })
            }
            t => Err(PageError::Corrupt(format!("bad node tag {t}"))),
        }
    }

    /// Parses a page the caller has seen to be a data page; an index page
    /// is `Corrupt`.
    pub(crate) fn decode_data(buf: &[u8], dim: usize) -> PageResult<Vec<DataEntry>> {
        match Node::decode(buf, dim)? {
            Node::Data(entries) => Ok(entries),
            Node::Index { .. } => Err(PageError::Corrupt(
                "expected a data node at the leaf level".into(),
            )),
        }
    }

    /// Parses a page the caller has seen to be an index page, as its
    /// level and kd-tree; a data page is `Corrupt`.
    pub(crate) fn decode_index(buf: &[u8], dim: usize) -> PageResult<(u16, KdTree)> {
        match Node::decode(buf, dim)? {
            Node::Index { level, kd } => Ok((level, kd)),
            Node::Data(_) => Err(PageError::Corrupt("expected an index node".into())),
        }
    }

    /// Convenience accessor; panics on an index node.
    pub fn expect_data(self) -> Vec<DataEntry> {
        match self {
            Node::Data(e) => e,
            Node::Index { .. } => panic!("expected data node, found index node"),
        }
    }

    /// Convenience accessor; panics on a data node.
    pub fn expect_index(self) -> (u16, KdTree) {
        match self {
            Node::Index { level, kd } => (level, kd),
            Node::Data(_) => panic!("expected index node, found data node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_page::PageId;

    #[test]
    fn entry_size_matches_paper_arithmetic() {
        // A 4K page holds 15 64-d entries.
        assert_eq!(data_capacity(4096, 64), 15);
        // Fanout of data pages in low dimensions is much higher.
        assert!(data_capacity(4096, 8) > 100);
    }

    #[test]
    fn data_node_roundtrip() {
        let entries = vec![
            DataEntry {
                point: Point::new(vec![0.1, 0.2, 0.3]),
                oid: 42,
            },
            DataEntry {
                point: Point::new(vec![0.9, 0.8, 0.7]),
                oid: u64::MAX,
            },
        ];
        let n = Node::Data(entries.clone());
        let buf = n.encode(3);
        assert_eq!(buf.len(), n.encoded_size(3));
        let got = Node::decode(&buf, 3).unwrap();
        assert_eq!(got, n);
        assert_eq!(got.expect_data(), entries);
    }

    #[test]
    fn index_node_roundtrip() {
        let kd = KdTree::split(
            2,
            0.5,
            0.4,
            KdTree::leaf(PageId(7)),
            KdTree::leaf(PageId(8)),
        );
        let n = Node::Index {
            level: 3,
            kd: kd.clone(),
        };
        let buf = n.encode(16);
        assert_eq!(buf.len(), n.encoded_size(16));
        let (level, got) = Node::decode(&buf, 16).unwrap().expect_index();
        assert_eq!(level, 3);
        assert_eq!(got, kd);
    }

    #[test]
    fn empty_data_node_roundtrip() {
        let n = Node::Data(vec![]);
        let buf = n.encode(8);
        assert_eq!(Node::decode(&buf, 8).unwrap(), n);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert!(Node::decode(&[7u8, 0, 0, 0, 0], 2).is_err());
    }

    #[test]
    #[should_panic(expected = "expected data node")]
    fn expect_data_panics_on_index() {
        Node::Index {
            level: 1,
            kd: KdTree::leaf(PageId(0)),
        }
        .expect_data();
    }
}
