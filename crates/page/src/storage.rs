//! Backing stores: in-memory and file-backed page files.

use crate::{PageError, PageId, PageResult, DEFAULT_PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Positioned full read that leaves the file cursor alone, so concurrent
/// readers holding `&File` do not race on seek position.
#[cfg(unix)]
fn read_at_exact(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(windows)]
fn read_at_exact(file: &File, mut buf: &mut [u8], mut off: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, off)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "page file truncated",
                ))
            }
            n => {
                buf = &mut buf[n..];
                off += n as u64;
            }
        }
    }
    Ok(())
}

/// Positioned full write, the mirror of [`read_at_exact`]: no seek, so the
/// shared cursor is never disturbed and a crash can never interleave a
/// seek from one writer with the `write` of another.
#[cfg(unix)]
fn write_at_all(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off)
}

#[cfg(windows)]
fn write_at_all(file: &File, mut buf: &[u8], mut off: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_write(buf, off)?;
        buf = &buf[n..];
        off += n as u64;
    }
    Ok(())
}

/// A flat array of fixed-size pages.
///
/// Pages are allocated and freed individually; freed ids are recycled. A
/// `write` shorter than the page size is zero-padded, so a page always
/// round-trips to exactly `page_size` bytes (decoders know their own
/// lengths).
///
/// `read` takes `&self` so a [`BufferPool`](crate::BufferPool) can serve
/// cache misses from several query threads at once (file stores use
/// positioned reads); the `Send + Sync` supertraits are what let the
/// pool — and every index built on it — hand out shared search handles
/// across threads.
pub trait Storage: Send + Sync {
    /// The fixed page size in bytes.
    fn page_size(&self) -> usize;

    /// Allocates a zeroed page and returns its id.
    fn allocate(&mut self) -> PageResult<PageId>;

    /// Reads a full page into `buf` (`buf.len() == page_size`).
    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()>;

    /// Writes `data` (at most `page_size` bytes) to the page.
    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()>;

    /// Frees a page for reuse.
    fn free(&mut self, id: PageId) -> PageResult<()>;

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// Flushes buffered state to durable media. In-memory stores and
    /// adapters with nothing to flush use this no-op default.
    fn sync(&mut self) -> PageResult<()> {
        Ok(())
    }

    /// Current write epoch stamped into page frames, if the store versions
    /// its writes (see [`crate::ChecksumStorage`]); plain stores report 0.
    fn epoch(&self) -> u64 {
        0
    }

    /// Advances the write epoch after a successful catalog commit and
    /// returns the new value; plain stores ignore the call.
    fn advance_epoch(&mut self) -> u64 {
        0
    }
}

/// Smallest page any store accepts: no node header fits in fewer bytes.
const MIN_PAGE_SIZE: usize = 64;

/// Largest page a file store accepts (1 MiB). The largest page any engine
/// addresses is the hybrid tree's 65,536 bytes plus the 32-byte frame, so
/// this leaves room while keeping the per-store scratch page allocatable.
const MAX_PAGE_SIZE: usize = 1 << 20;

/// Rejects a page size outside [`MIN_PAGE_SIZE`]..=[`MAX_PAGE_SIZE`] with a
/// typed error (`ErrorKind::InvalidInput`) instead of a panic, so a
/// caller's bad setting surfaces before any file is touched.
fn check_page_size(page_size: usize) -> PageResult<()> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(PageError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("page size {page_size} is outside {MIN_PAGE_SIZE}..={MAX_PAGE_SIZE} bytes"),
        )));
    }
    Ok(())
}

/// In-memory page store — the default substrate for experiments.
pub struct MemStorage {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    free_list: Vec<u32>,
    live: usize,
}

impl MemStorage {
    /// Creates an empty store with the paper's default 4096-byte pages.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Creates an empty store with a custom page size.
    ///
    /// # Panics
    /// Panics if `page_size` is smaller than 64 bytes (no node header fits).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(
            page_size >= MIN_PAGE_SIZE,
            "page size too small to hold any node"
        );
        Self {
            page_size,
            pages: Vec::new(),
            free_list: Vec::new(),
            live: 0,
        }
    }

    fn slot(&self, id: PageId) -> PageResult<usize> {
        let i = id.0 as usize;
        if id.is_invalid() || i >= self.pages.len() || self.pages[i].is_none() {
            return Err(PageError::UnknownPage(id));
        }
        Ok(i)
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl Storage for MemStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> PageResult<PageId> {
        self.live += 1;
        if let Some(i) = self.free_list.pop() {
            self.pages[i as usize] = Some(vec![0; self.page_size].into_boxed_slice());
            return Ok(PageId(i));
        }
        let i = self.pages.len();
        assert!(i < u32::MAX as usize, "page id space exhausted");
        self.pages
            .push(Some(vec![0; self.page_size].into_boxed_slice()));
        Ok(PageId(i as u32))
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        let i = self.slot(id)?;
        debug_assert_eq!(buf.len(), self.page_size);
        let Some(page) = self.pages[i].as_ref() else {
            return Err(PageError::UnknownPage(id));
        };
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()> {
        if data.len() > self.page_size {
            return Err(PageError::Overflow {
                need: data.len(),
                cap: self.page_size,
            });
        }
        let i = self.slot(id)?;
        let Some(page) = self.pages[i].as_mut() else {
            return Err(PageError::UnknownPage(id));
        };
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
        Ok(())
    }

    fn free(&mut self, id: PageId) -> PageResult<()> {
        let i = self.slot(id)?;
        self.pages[i] = None;
        self.free_list.push(i as u32);
        self.live -= 1;
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.live
    }
}

/// File-backed page store: page `i` lives at byte offset `i * page_size`.
///
/// All I/O is positioned (`pread`/`pwrite`-style), so concurrent readers
/// never race on a shared cursor and writes are a single syscall staged
/// through a reusable scratch buffer instead of a fresh zero vector per
/// call. Freed pages are zeroed on disk.
///
/// A raw `FileStorage` has no page headers, so [`open`](Self::open) cannot
/// tell a zeroed live page from a freed one and conservatively counts
/// every slot live. The checksummed adapter
/// ([`crate::ChecksumStorage::open`]) recovers the true free list from its
/// frame headers and pushes it back down via
/// [`mark_freed`](Self::mark_freed).
pub struct FileStorage {
    page_size: usize,
    file: File,
    num_pages: u32,
    free_list: Vec<u32>,
    freed: std::collections::HashSet<u32>,
    live: usize,
    /// Staging buffer for short writes; avoids a heap allocation per call.
    scratch: Box<[u8]>,
}

impl FileStorage {
    /// Creates (truncating) a page file at `path`. A `page_size` outside
    /// 64 bytes to 1 MiB is an `InvalidInput` I/O error and leaves `path`
    /// untouched.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> PageResult<Self> {
        check_page_size(page_size)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            page_size,
            file,
            num_pages: 0,
            free_list: Vec::new(),
            freed: std::collections::HashSet::new(),
            live: 0,
            scratch: vec![0; page_size].into_boxed_slice(),
        })
    }

    /// Opens an existing page file; all pages present are considered live
    /// (see the type docs for how the framed adapter refines this).
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> PageResult<Self> {
        check_page_size(page_size)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(PageError::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        let num_pages = (len / page_size as u64) as u32;
        Ok(Self {
            page_size,
            file,
            num_pages,
            free_list: Vec::new(),
            freed: std::collections::HashSet::new(),
            live: num_pages as usize,
            scratch: vec![0; page_size].into_boxed_slice(),
        })
    }

    fn check(&self, id: PageId) -> PageResult<()> {
        if id.is_invalid() || id.0 >= self.num_pages || self.freed.contains(&id.0) {
            return Err(PageError::UnknownPage(id));
        }
        Ok(())
    }

    /// Flushes file contents to durable media.
    pub fn sync(&mut self) -> PageResult<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Number of page slots in the file (live + freed).
    pub fn page_slots(&self) -> u32 {
        self.num_pages
    }

    /// Whether a slot is currently recorded as freed.
    pub fn is_freed(&self, id: PageId) -> bool {
        self.freed.contains(&id.0)
    }

    /// Reads the first `buf.len()` bytes of a slot regardless of its
    /// free status — used by framed stores scanning headers on open.
    pub fn read_prefix(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        if id.is_invalid() || id.0 >= self.num_pages {
            return Err(PageError::UnknownPage(id));
        }
        debug_assert!(buf.len() <= self.page_size);
        read_at_exact(&self.file, buf, u64::from(id.0) * self.page_size as u64)?;
        Ok(())
    }

    /// Records a slot as free without touching its bytes — used when a
    /// framed store recovers the free list from page headers on open, and
    /// by recovery to reclaim leaked pages. Idempotent.
    pub fn mark_freed(&mut self, id: PageId) -> PageResult<()> {
        if id.is_invalid() || id.0 >= self.num_pages {
            return Err(PageError::UnknownPage(id));
        }
        if self.freed.insert(id.0) {
            self.free_list.push(id.0);
            self.live -= 1;
        }
        Ok(())
    }
}

impl Storage for FileStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> PageResult<PageId> {
        if let Some(i) = self.free_list.pop() {
            self.freed.remove(&i);
            self.live += 1;
            return Ok(PageId(i));
        }
        let i = self.num_pages;
        // Extending the file zero-fills the new slot without writing a
        // page-size buffer through the syscall layer.
        self.file
            .set_len((u64::from(i) + 1) * self.page_size as u64)?;
        self.num_pages = i + 1;
        self.live += 1;
        Ok(PageId(i))
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        self.check(id)?;
        debug_assert_eq!(buf.len(), self.page_size);
        let off = u64::from(id.0) * self.page_size as u64;
        read_at_exact(&self.file, buf, off)?;
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()> {
        if data.len() > self.page_size {
            return Err(PageError::Overflow {
                need: data.len(),
                cap: self.page_size,
            });
        }
        self.check(id)?;
        let off = u64::from(id.0) * self.page_size as u64;
        if data.len() == self.page_size {
            write_at_all(&self.file, data, off)?;
        } else {
            // Stage short writes so the page lands in one positioned
            // syscall, zero-padded to the slot boundary.
            self.scratch[..data.len()].copy_from_slice(data);
            self.scratch[data.len()..].fill(0);
            write_at_all(&self.file, &self.scratch, off)?;
        }
        Ok(())
    }

    fn free(&mut self, id: PageId) -> PageResult<()> {
        self.check(id)?;
        self.write(id, &[])?; // zero on disk
        self.free_list.push(id.0);
        self.freed.insert(id.0);
        self.live -= 1;
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.live
    }

    fn sync(&mut self) -> PageResult<()> {
        FileStorage::sync(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn Storage) {
        let ps = store.page_size();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.live_pages(), 2);

        store.write(a, b"hello").unwrap();
        store.write(b, &vec![7u8; ps]).unwrap();

        let mut buf = vec![0u8; ps];
        store.read(a, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"hello");
        assert!(buf[5..].iter().all(|&x| x == 0), "short write zero-pads");

        store.read(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));

        // Overflow rejected.
        assert!(matches!(
            store.write(a, &vec![0u8; ps + 1]),
            Err(PageError::Overflow { .. })
        ));

        // Free and reuse.
        store.free(a).unwrap();
        assert_eq!(store.live_pages(), 1);
        assert!(matches!(
            store.read(a, &mut buf),
            Err(PageError::UnknownPage(_))
        ));
        let c = store.allocate().unwrap();
        assert_eq!(c, a, "freed ids are recycled");
        store.read(c, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "recycled page is zeroed");
    }

    #[test]
    fn mem_storage_contract() {
        let mut s = MemStorage::with_page_size(256);
        exercise(&mut s);
    }

    #[test]
    fn file_storage_contract() {
        let dir = std::env::temp_dir().join(format!("hyt_page_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contract.pages");
        let mut s = FileStorage::create(&path, 256).unwrap();
        exercise(&mut s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_storage_durability_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hyt_page_dur_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.pages");
        {
            let mut s = FileStorage::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            let b = s.allocate().unwrap();
            s.write(a, b"persisted-a").unwrap();
            s.write(b, b"persisted-b").unwrap();
            s.sync().unwrap();
        }
        {
            let s = FileStorage::open(&path, 128).unwrap();
            assert_eq!(s.live_pages(), 2);
            let mut buf = vec![0u8; 128];
            s.read(PageId(0), &mut buf).unwrap();
            assert_eq!(&buf[..11], b"persisted-a");
            s.read(PageId(1), &mut buf).unwrap();
            assert_eq!(&buf[..11], b"persisted-b");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_storage_rejects_a_page_size_out_of_bounds() {
        let dir = std::env::temp_dir().join(format!("hyt_page_small_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.pages");
        for page_size in [0, 1, MIN_PAGE_SIZE - 1, MAX_PAGE_SIZE + 1, usize::MAX] {
            for result in [
                FileStorage::create(&path, page_size),
                FileStorage::open(&path, page_size),
            ] {
                match result {
                    Err(PageError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput)
                    }
                    other => panic!("page size {page_size}: {:?}", other.err()),
                }
            }
            assert!(!path.exists(), "a rejected create must not touch the file");
        }
        FileStorage::create(&path, MIN_PAGE_SIZE).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_storage_rejects_misaligned_file() {
        let dir = std::env::temp_dir().join(format!("hyt_page_mis_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misaligned.pages");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            FileStorage::open(&path, 128),
            Err(PageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mark_freed_recovers_free_list_without_zeroing() {
        let dir = std::env::temp_dir().join(format!("hyt_page_mf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("marked.pages");
        {
            let mut s = FileStorage::create(&path, 128).unwrap();
            for _ in 0..3 {
                s.allocate().unwrap();
            }
            s.write(PageId(1), b"still here").unwrap();
            s.sync().unwrap();
        }
        let mut s = FileStorage::open(&path, 128).unwrap();
        assert_eq!(s.live_pages(), 3, "raw open counts every slot live");
        s.mark_freed(PageId(1)).unwrap();
        s.mark_freed(PageId(1)).unwrap(); // idempotent
        assert_eq!(s.live_pages(), 2);
        assert!(s.is_freed(PageId(1)));
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            s.read(PageId(1), &mut buf),
            Err(PageError::UnknownPage(_))
        ));
        // The bytes were not touched: a prefix read still sees them.
        let mut prefix = [0u8; 10];
        s.read_prefix(PageId(1), &mut prefix).unwrap();
        assert_eq!(&prefix, b"still here");
        // And the marked slot is recycled first.
        assert_eq!(s.allocate().unwrap(), PageId(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_page_id_is_rejected() {
        let s = MemStorage::new();
        let mut buf = vec![0u8; s.page_size()];
        assert!(matches!(
            s.read(PageId::INVALID, &mut buf),
            Err(PageError::UnknownPage(_))
        ));
    }
}
