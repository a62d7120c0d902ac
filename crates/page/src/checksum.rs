//! Checksumming, epoch-stamping storage adapter.
//!
//! [`ChecksumStorage`] wraps any raw [`Storage`] and frames every logical
//! page (see [`crate::frame`]): callers keep working with *logical* pages
//! of `inner.page_size() - HEADER_BYTES` bytes, while every byte that
//! reaches the inner store carries a magic number, the page id, a write
//! epoch, and two CRC-32 checksums. On read the frame is validated and a
//! mismatch surfaces as [`PageError::Corrupt`] — never a panic, and never
//! silently wrong bytes handed to a decoder.
//!
//! Layering matters: fault injectors ([`crate::FaultStorage`]) sit *below*
//! this adapter, so torn writes and bit flips they produce damage the
//! framed bytes and are caught by the CRCs. Production disks sit in the
//! same place.
//!
//! ## Epochs
//!
//! Each live frame carries the store's current *write epoch*. A catalog
//! commit records the epoch it persisted and then advances it, so any page
//! flushed after the last successful commit is stamped with a newer epoch
//! than the catalog. On reopen, `max_live_epoch() > catalog epoch` is
//! proof that the page file diverged from the catalog (a crash between
//! commits) and the tree must be recovered rather than trusted — this is
//! what turns "stale catalog + newer pages" from silently-wrong query
//! results into a detected condition.

use crate::frame::{self, HeaderStatus, HEADER_BYTES};
use crate::{FileStorage, PageError, PageId, PageResult, Storage};
use std::path::Path;

/// The production on-disk stack: checksummed frames over a raw page file.
pub type DurableStorage = ChecksumStorage<FileStorage>;

/// A [`Storage`] adapter that frames every page with checksums and a write
/// epoch. See the module docs for the format and layering rationale.
pub struct ChecksumStorage<S: Storage> {
    inner: S,
    logical_size: usize,
    epoch: u64,
    max_live_epoch: u64,
}

impl<S: Storage> ChecksumStorage<S> {
    /// Wraps a *fresh* inner store (one with no existing pages). The inner
    /// page size must leave at least 64 logical bytes after the frame
    /// header.
    ///
    /// # Panics
    /// Panics if the inner page size is too small — a configuration bug,
    /// not a data-dependent condition.
    pub fn new(inner: S) -> Self {
        let inner_ps = inner.page_size();
        assert!(
            inner_ps >= HEADER_BYTES + 64,
            "inner page size {inner_ps} leaves no room for a framed node"
        );
        Self {
            logical_size: inner_ps - HEADER_BYTES,
            inner,
            epoch: 1,
            max_live_epoch: 0,
        }
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The newest epoch seen on any live page when this store was opened
    /// (0 for a fresh store). Compared against the catalog's recorded
    /// epoch to detect page files that diverged after the last commit.
    pub fn max_live_epoch(&self) -> u64 {
        self.max_live_epoch
    }

    fn write_frame(&mut self, id: PageId, payload: &[u8]) -> PageResult<()> {
        let mut framed = vec![0u8; self.inner.page_size()];
        frame::encode_frame(id, self.epoch, payload, &mut framed);
        self.inner.write(id, &framed)
    }
}

/// The physical slot framing a logical page of `page_size` bytes, or an
/// `InvalidInput` I/O error for a size too large to frame.
pub fn framed_slot_size(page_size: usize) -> PageResult<usize> {
    page_size.checked_add(HEADER_BYTES).ok_or_else(|| {
        PageError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("page size {page_size} is too large to frame"),
        ))
    })
}

impl ChecksumStorage<FileStorage> {
    /// Creates (truncating) a checksummed page file with the given
    /// *logical* page size; the file's physical slots are
    /// `page_size + HEADER_BYTES` bytes.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> PageResult<Self> {
        Ok(Self::new(FileStorage::create(
            path,
            framed_slot_size(page_size)?,
        )?))
    }

    /// Opens an existing checksummed page file, rebuilding the free list
    /// and the newest write epoch from the frame headers: an all-zero
    /// header marks a free slot, a valid header contributes its epoch, and
    /// a damaged header leaves the slot nominally live so a later read (or
    /// `recover`/`scrub`) reports it as [`PageError::Corrupt`] instead of
    /// resurrecting it as free space.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> PageResult<Self> {
        let mut inner = FileStorage::open(path, framed_slot_size(page_size)?)?;
        let mut max_live_epoch = 0u64;
        let mut header = [0u8; HEADER_BYTES];
        for i in 0..inner.page_slots() {
            inner.read_prefix(PageId(i), &mut header)?;
            match frame::inspect_header(PageId(i), &header) {
                HeaderStatus::Free => inner.mark_freed(PageId(i))?,
                HeaderStatus::Live { epoch, .. } => max_live_epoch = max_live_epoch.max(epoch),
                // Corrupt headers stay "live" so they are surfaced, not
                // silently recycled.
                HeaderStatus::Corrupt(_) => {}
            }
        }
        Ok(Self {
            logical_size: page_size,
            inner,
            epoch: max_live_epoch + 1,
            max_live_epoch,
        })
    }

    /// Number of page slots in the backing file (live + free).
    pub fn page_slots(&self) -> u32 {
        self.inner.page_slots()
    }

    /// Whether a slot is currently considered free.
    pub fn is_freed(&self, id: PageId) -> bool {
        self.inner.is_freed(id)
    }

    /// Records a slot as free without touching its bytes — used by
    /// `recover()` to reclaim pages that are unreachable from the root.
    pub fn mark_freed(&mut self, id: PageId) -> PageResult<()> {
        self.inner.mark_freed(id)
    }
}

impl<S: Storage> Storage for ChecksumStorage<S> {
    fn page_size(&self) -> usize {
        self.logical_size
    }

    fn allocate(&mut self) -> PageResult<PageId> {
        let id = self.inner.allocate()?;
        // Stamp an empty live frame immediately so a crash between
        // allocate and first write leaves a classifiable slot, and so
        // reopen never mistakes an allocated-but-unwritten page for free
        // space handed out twice.
        self.write_frame(id, &[])?;
        Ok(id)
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        debug_assert_eq!(buf.len(), self.logical_size);
        let mut framed = vec![0u8; self.inner.page_size()];
        self.inner.read(id, &mut framed)?;
        match frame::inspect_frame(id, &framed) {
            frame::FrameStatus::Live { .. } => {
                buf.copy_from_slice(&framed[HEADER_BYTES..]);
                Ok(())
            }
            frame::FrameStatus::Free => Err(PageError::UnknownPage(id)),
            frame::FrameStatus::Corrupt(msg) => {
                Err(PageError::Corrupt(format!("page {id}: {msg}")))
            }
        }
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()> {
        if data.len() > self.logical_size {
            return Err(PageError::Overflow {
                need: data.len(),
                cap: self.logical_size,
            });
        }
        self.write_frame(id, data)
    }

    fn free(&mut self, id: PageId) -> PageResult<()> {
        // The inner free zeroes the slot, which is exactly the on-disk
        // encoding of "free" in the frame format.
        self.inner.free(id)
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn sync(&mut self) -> PageResult<()> {
        self.inner.sync()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    fn mem(logical: usize) -> ChecksumStorage<MemStorage> {
        ChecksumStorage::new(MemStorage::with_page_size(logical + HEADER_BYTES))
    }

    #[test]
    fn logical_roundtrip_over_mem() {
        let mut s = mem(128);
        assert_eq!(s.page_size(), 128);
        let a = s.allocate().unwrap();
        s.write(a, b"framed").unwrap();
        let mut buf = vec![0u8; 128];
        s.read(a, &mut buf).unwrap();
        assert_eq!(&buf[..6], b"framed");
        assert!(buf[6..].iter().all(|&b| b == 0), "payload zero-padded");
    }

    #[test]
    fn overflow_uses_logical_capacity() {
        let mut s = mem(128);
        let a = s.allocate().unwrap();
        assert!(matches!(
            s.write(a, &[1u8; 129]),
            Err(PageError::Overflow {
                need: 129,
                cap: 128
            })
        ));
    }

    #[test]
    fn corrupted_inner_bytes_surface_as_corrupt() {
        let mut inner = MemStorage::with_page_size(128 + HEADER_BYTES);
        let mut s = ChecksumStorage::new(inner);
        let a = s.allocate().unwrap();
        s.write(a, b"precious").unwrap();
        // Flip one payload bit behind the adapter's back.
        inner = s.into_inner();
        let mut raw = vec![0u8; 128 + HEADER_BYTES];
        inner.read(a, &mut raw).unwrap();
        raw[HEADER_BYTES + 3] ^= 0x10;
        inner.write(a, &raw).unwrap();
        let s = ChecksumStorage::new_unchecked_for_test(inner);
        let mut buf = vec![0u8; 128];
        match s.read(a, &mut buf) {
            Err(PageError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    impl ChecksumStorage<MemStorage> {
        // Re-wrap without the "fresh store" assumption, for tests that
        // corrupt the inner bytes directly.
        fn new_unchecked_for_test(inner: MemStorage) -> Self {
            Self {
                logical_size: inner.page_size() - HEADER_BYTES,
                inner,
                epoch: 1,
                max_live_epoch: 0,
            }
        }
    }

    #[test]
    fn file_open_recovers_free_list_and_epoch() {
        let dir = std::env::temp_dir().join(format!("hyt_cks_open_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("framed.pages");
        {
            let mut s = DurableStorage::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            let b = s.allocate().unwrap();
            let c = s.allocate().unwrap();
            s.write(a, b"alpha").unwrap();
            s.advance_epoch();
            s.write(b, b"beta").unwrap();
            s.free(c).unwrap();
            s.sync().unwrap();
        }
        {
            let s = DurableStorage::open(&path, 128).unwrap();
            assert_eq!(s.live_pages(), 2, "freed page recovered from headers");
            assert_eq!(s.page_slots(), 3);
            assert!(s.is_freed(PageId(2)));
            assert_eq!(s.max_live_epoch(), 2);
            assert_eq!(s.epoch(), 3, "new writes get a fresh epoch");
            let mut buf = vec![0u8; 128];
            assert!(matches!(
                s.read(PageId(2), &mut buf),
                Err(PageError::UnknownPage(_))
            ));
            s.read(PageId(0), &mut buf).unwrap();
            assert_eq!(&buf[..5], b"alpha");
        }
        // The freed slot is recycled by the next allocate.
        {
            let mut s = DurableStorage::open(&path, 128).unwrap();
            assert_eq!(s.allocate().unwrap(), PageId(2));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_page_size_too_large_to_frame_is_an_error() {
        let dir = std::env::temp_dir().join(format!("hyt_cks_huge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.pages");
        DurableStorage::create(&path, 128).unwrap();
        for result in [
            DurableStorage::open(&path, usize::MAX),
            DurableStorage::create(dir.join("never.pages"), usize::MAX),
            DurableStorage::open(&path, usize::MAX - 615),
            DurableStorage::create(dir.join("never.pages"), usize::MAX - 615),
        ] {
            match result {
                Err(PageError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
                other => panic!("{:?}", other.err()),
            }
        }
        assert!(!dir.join("never.pages").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_open_flags_damaged_header_as_live_and_read_reports_corrupt() {
        let dir = std::env::temp_dir().join(format!("hyt_cks_dmg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.pages");
        {
            let mut s = DurableStorage::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, b"doomed").unwrap();
            s.sync().unwrap();
        }
        // Flip a bit in the stored header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let s = DurableStorage::open(&path, 128).unwrap();
        assert_eq!(s.live_pages(), 1, "damaged page is not recycled as free");
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            s.read(PageId(0), &mut buf),
            Err(PageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
