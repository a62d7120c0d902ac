//! Paged storage substrate for the hybrid tree reproduction.
//!
//! Every index structure in the workspace is *disk-based* in the paper's
//! sense: nodes are serialized into fixed-size pages (default 4096 bytes,
//! the paper's setting) and all node accesses go through a [`BufferPool`]
//! that counts I/O. This is what makes the reproduced metrics honest:
//!
//! * fanout limits fall out of actual encoded node sizes, not formulas;
//! * "average disk accesses per query" is the number of *logical* page
//!   reads (each node visited costs one access, the paper's cost model);
//! * the sequential-scan baseline reads pages through the same substrate,
//!   with sequential accesses tracked separately because the paper weights
//!   them 10x cheaper than random accesses (§4).
//!
//! Two backing stores are provided: [`MemStorage`] (the default for
//! experiments; deterministic and fast) and [`FileStorage`] (a real file on
//! disk, demonstrating durability round-trips). On-disk deployments wrap
//! the file store in [`ChecksumStorage`] (alias [`DurableStorage`]), which
//! frames every page with a magic number, its page id, a write epoch, and
//! CRC-32 checksums, so torn writes and bit flips surface as
//! [`PageError::Corrupt`] instead of decoding garbage. [`FaultStorage`]
//! injects scripted crashes, transient I/O errors, and bit flips below the
//! checksum layer for crash-matrix testing.

#![deny(unsafe_code)]
// Read paths must be panic-free, and the one unsafe kernel (CRC-32)
// documents every unsafe block.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::undocumented_unsafe_blocks)]

mod checksum;
mod codec;
mod crc;
mod error;
mod fault;
mod frame;
mod govern;
mod pool;
mod storage;

pub use checksum::{framed_slot_size, ChecksumStorage, DurableStorage};
pub use codec::{ByteReader, ByteWriter};
pub use crc::crc32;
pub use error::{PageError, PageResult};
pub use fault::{FaultScript, FaultStorage};
pub use frame::{
    encode_frame, inspect_frame, inspect_header, FrameStatus, HeaderStatus, FLAG_LIVE,
    FORMAT_VERSION, HEADER_BYTES as FRAME_HEADER_BYTES, PAGE_MAGIC,
};
pub use govern::{CancelToken, Interrupt, QueryContext};
pub use pool::{BufferPool, IoStats};
pub use storage::{FileStorage, MemStorage, Storage};

/// The paper's experimental page size (§4: "we use a page size of 4096
/// bytes").
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of a page within one store.
///
/// 32 bits addresses 16 TiB of 4 KiB pages — far beyond the paper's
/// database sizes — while keeping index-node entries small, which matters
/// for fanout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used in serialized forms for "no page".
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this id is the sentinel.
    pub fn is_invalid(self) -> bool {
        self == Self::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}
