//! Governed, accounted page I/O over any [`Storage`].
//!
//! Every page access of every engine goes through a [`BufferPool`]: it
//! admits the read against the caller's [`QueryContext`], counts it in
//! the caller's and the pool-global [`IoStats`], retries transient read
//! errors, and writes straight through to storage. The pool holds no
//! page bytes of its own: the paper charges one disk access per node
//! visit (§4), and file-backed trees get byte caching from the OS page
//! cache. The one cache in the workspace is the hybrid tree's
//! decoded-leaf cache, which reports its visits through
//! [`BufferPool::account_cached`].
//!
//! The pool is safe to share across threads: the backing [`Storage`]
//! sits behind a [`parking_lot::RwLock`] (reads take the shared lock, so
//! they overlap; writes, allocations and frees take it exclusively), and
//! the global counters are atomics. It takes no other lock.

use crate::{PageError, PageId, PageResult, QueryContext, Storage};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Transient-I/O read attempts beyond the first before the error is
/// surfaced; backoff doubles from [`RETRY_BASE_DELAY_US`] per attempt.
const READ_RETRY_LIMIT: u32 = 3;

/// First retry backoff in microseconds.
const RETRY_BASE_DELAY_US: u64 = 50;

/// I/O counters maintained by a [`BufferPool`].
///
/// The paper's cost metric is the *average number of disk accesses per
/// query* where every node visited costs one access, and sequential
/// accesses (the linear-scan baseline) are 10x cheaper than random ones
/// (§4). `logical_reads` is therefore the number used for index costs,
/// whether a visit went to storage or a caller's own cache served it
/// ([`BufferPool::account_cached`]); `seq_reads` is used by the scan
/// baseline.
///
/// Two sets of these counters exist: the pool-global set (read with
/// [`BufferPool::stats`]) and per-caller accumulators passed to
/// [`BufferPool::read_with`] and [`BufferPool::account_cached`], which
/// attribute I/O to the query that incurred it. `logical_reads` and
/// `seq_reads` of a query depend only on the pages its traversal
/// requests, so they are identical whether queries run serially or
/// interleaved on many threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page reads requested by the index (random accesses in the paper's
    /// cost model).
    pub logical_reads: u64,
    /// Page reads requested through the sequential path (linear scan).
    pub seq_reads: u64,
    /// Page writes requested by the index; each goes straight to the
    /// backing store.
    pub logical_writes: u64,
    /// Physical read attempts that failed transiently and were retried
    /// (see the pool's bounded retry-with-backoff; a read that exhausts
    /// its retries surfaces the I/O error to the caller).
    pub retried_reads: u64,
}

impl IoStats {
    /// Total accesses under the paper's cost model: random reads plus
    /// sequential reads discounted 10x.
    pub fn weighted_accesses(&self) -> f64 {
        self.logical_reads as f64 + self.seq_reads as f64 * 0.1
    }

    /// Adds another set of counters (e.g. folding per-query stats into a
    /// batch total).
    pub fn merge(&mut self, other: &IoStats) {
        self.logical_reads += other.logical_reads;
        self.seq_reads += other.seq_reads;
        self.logical_writes += other.logical_writes;
        self.retried_reads += other.retried_reads;
    }
}

/// Pool-global counters, updated concurrently by every handle.
#[derive(Default)]
struct AtomicIoStats {
    logical_reads: AtomicU64,
    seq_reads: AtomicU64,
    logical_writes: AtomicU64,
    retried_reads: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Relaxed),
            seq_reads: self.seq_reads.load(Relaxed),
            logical_writes: self.logical_writes.load(Relaxed),
            retried_reads: self.retried_reads.load(Relaxed),
        }
    }

    fn reset(&self) {
        self.logical_reads.store(0, Relaxed);
        self.seq_reads.store(0, Relaxed);
        self.logical_writes.store(0, Relaxed);
        self.retried_reads.store(0, Relaxed);
    }
}

/// Governed, accounted, write-through page I/O over any [`Storage`],
/// shareable across threads (`&BufferPool` supports every read/write
/// operation). Every read goes to storage, which is the paper's
/// cold-cache disk-access counting exactly.
pub struct BufferPool<S: Storage> {
    storage: RwLock<S>,
    page_size: usize,
    stats: AtomicIoStats,
}

impl<S: Storage> BufferPool<S> {
    /// Wraps `storage`.
    pub fn new(storage: S) -> Self {
        Self {
            page_size: storage.page_size(),
            storage: RwLock::new(storage),
            stats: AtomicIoStats::default(),
        }
    }

    /// The underlying page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live pages in the backing store.
    pub fn live_pages(&self) -> usize {
        self.storage.read().live_pages()
    }

    /// Current pool-global I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Resets the pool-global I/O counters (e.g. between build and query
    /// phases).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Allocates a new page.
    pub fn allocate(&self) -> PageResult<PageId> {
        self.storage.write().allocate()
    }

    /// Frees a page.
    pub fn free(&self, id: PageId) -> PageResult<()> {
        self.storage.write().free(id)
    }

    /// One physical read with bounded retry: transient [`PageError::Io`]
    /// failures are retried up to [`READ_RETRY_LIMIT`] times with
    /// exponential backoff (the storage lock is *released* between
    /// attempts, so a retrying reader never stalls writers). Typed
    /// corruption ([`PageError::Corrupt`]) is never retried — re-reading
    /// a bad checksum cannot make the bytes right.
    fn physical_read(&self, id: PageId, buf: &mut [u8], io: &mut IoStats) -> PageResult<()> {
        let mut attempt = 0u32;
        loop {
            let res = self.storage.read().read(id, buf);
            match res {
                Err(PageError::Io(_)) if attempt < READ_RETRY_LIMIT => {
                    attempt += 1;
                    io.retried_reads += 1;
                    self.stats.retried_reads.fetch_add(1, Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(
                        RETRY_BASE_DELAY_US << (attempt - 1),
                    ));
                }
                other => return other,
            }
        }
    }

    /// Reads a page and runs `f` on its bytes, attributing the access to
    /// `io` (the query's own accumulator) as well as to the pool-global
    /// counters.
    ///
    /// * `seq` selects the sequential path: the access counts as a
    ///   `seq_reads` (the linear-scan baseline, 10x cheaper in the
    ///   paper's cost model) instead of a `logical_reads`.
    /// * `ctx` must first admit the fetch (cancel, deadline, read budget
    ///   against `io`); a denied fetch returns [`PageError::Interrupted`]
    ///   without touching storage, so every limit is observed at
    ///   page-fetch granularity. Ungoverned callers pass
    ///   [`QueryContext::unlimited`].
    ///
    /// `f` borrows a page-sized buffer; callers that need owned bytes
    /// pass `<[u8]>::to_vec`.
    pub fn read_with<R>(
        &self,
        id: PageId,
        seq: bool,
        io: &mut IoStats,
        ctx: &QueryContext,
        f: impl FnOnce(&[u8]) -> R,
    ) -> PageResult<R> {
        ctx.admit_read(io).map_err(PageError::Interrupted)?;
        if seq {
            io.seq_reads += 1;
            self.stats.seq_reads.fetch_add(1, Relaxed);
        } else {
            io.logical_reads += 1;
            self.stats.logical_reads.fetch_add(1, Relaxed);
        }
        let mut buf = vec![0u8; self.page_size];
        self.physical_read(id, &mut buf, io)?;
        Ok(f(&buf))
    }

    /// Counts one page visit that the pool did not serve, e.g. a node a
    /// caller's own decoded-node cache returned: the query still
    /// requested the page, so the per-query and pool-global
    /// `logical_reads` tick as for a read. The paper's cost model counts
    /// node visits, not decodes. The caller admits the visit first
    /// ([`QueryContext::admit_read`]), so read budgets keep their
    /// page-fetch granularity.
    pub fn account_cached(&self, io: &mut IoStats) {
        io.logical_reads += 1;
        self.stats.logical_reads.fetch_add(1, Relaxed);
    }

    /// Writes page contents straight through to storage.
    pub fn write(&self, id: PageId, data: &[u8]) -> PageResult<()> {
        if data.len() > self.page_size {
            return Err(PageError::Overflow {
                need: data.len(),
                cap: self.page_size,
            });
        }
        self.stats.logical_writes.fetch_add(1, Relaxed);
        self.storage.write().write(id, data)
    }

    /// Asks the backing store to push its state to durable media
    /// ([`Storage::sync`]). This is the write barrier a catalog commit
    /// relies on: after it returns, every page the catalog will
    /// reference is on disk.
    pub fn sync_storage(&self) -> PageResult<()> {
        self.storage.write().sync()
    }

    /// Runs `f` with shared access to the backing store.
    pub fn with_storage<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.storage.read())
    }

    /// Runs `f` with exclusive access to the backing store (e.g. to
    /// advance the write epoch after a catalog commit).
    pub fn with_storage_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.storage.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    fn pool() -> BufferPool<MemStorage> {
        BufferPool::new(MemStorage::with_page_size(128))
    }

    /// Ungoverned owned-bytes random read attributed to `io`.
    fn read_io<S: Storage>(p: &BufferPool<S>, id: PageId, io: &mut IoStats) -> PageResult<Vec<u8>> {
        p.read_with(id, false, io, QueryContext::unlimited(), <[u8]>::to_vec)
    }

    /// Ungoverned owned-bytes random read.
    fn read<S: Storage>(p: &BufferPool<S>, id: PageId) -> PageResult<Vec<u8>> {
        read_io(p, id, &mut IoStats::default())
    }

    #[test]
    fn every_access_reaches_storage() {
        use crate::FaultStorage;
        let (storage, script) = FaultStorage::new(MemStorage::with_page_size(128));
        let p = BufferPool::new(storage);
        let a = p.allocate().unwrap();
        p.write(a, b"x").unwrap();
        let before = script.reads_seen();
        read(&p, a).unwrap();
        read(&p, a).unwrap();
        assert_eq!(script.reads_seen() - before, 2, "the pool serves no read");
        let s = p.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.logical_writes, 1);
    }

    #[test]
    fn cached_visits_count_as_logical_reads_without_storage() {
        use crate::FaultStorage;
        let (storage, script) = FaultStorage::new(MemStorage::with_page_size(128));
        let p = BufferPool::new(storage);
        let before = script.reads_seen();
        let mut io = IoStats::default();
        p.account_cached(&mut io);
        assert_eq!(script.reads_seen(), before);
        assert_eq!(io.logical_reads, 1);
        assert_eq!(p.stats(), io);
    }

    #[test]
    fn a_write_reaches_storage_with_no_flush() {
        let p = pool();
        let a = p.allocate().unwrap();
        p.write(a, b"durable").unwrap();
        let mut buf = vec![0u8; 128];
        p.with_storage(|s| s.read(a, &mut buf)).unwrap();
        assert_eq!(&buf[..7], b"durable");
    }

    #[test]
    fn sequential_reads_tracked_separately() {
        let p = pool();
        let a = p.allocate().unwrap();
        p.write(a, b"s").unwrap();
        p.read_with(
            a,
            true,
            &mut IoStats::default(),
            QueryContext::unlimited(),
            |_| (),
        )
        .unwrap();
        let s = p.stats();
        assert_eq!(s.seq_reads, 1);
        assert_eq!(s.logical_reads, 0);
        assert!((s.weighted_accesses() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let p = pool();
        let a = p.allocate().unwrap();
        p.write(a, b"x").unwrap();
        read(&p, a).unwrap();
        p.reset_stats();
        assert_eq!(p.stats(), IoStats::default());
    }

    #[test]
    fn free_drops_frame() {
        let p = pool();
        let a = p.allocate().unwrap();
        p.write(a, b"gone").unwrap();
        p.free(a).unwrap();
        assert!(read(&p, a).is_err());
    }

    #[test]
    fn transient_read_faults_are_retried_with_backoff() {
        use crate::FaultStorage;
        let (storage, script) = FaultStorage::new(MemStorage::with_page_size(128));
        let p = BufferPool::new(storage);
        let a = p.allocate().unwrap();
        p.write(a, b"wobbly").unwrap();
        // Two transient failures: absorbed by the retry loop.
        script.fail_next_reads(2);
        let mut io = IoStats::default();
        let got = read_io(&p, a, &mut io).unwrap();
        assert_eq!(&got[..6], b"wobbly");
        assert_eq!(io.retried_reads, 2);
        assert_eq!(p.stats().retried_reads, 2);
        // More failures than the retry budget: the error surfaces.
        script.fail_next_reads(u64::MAX);
        assert!(matches!(read(&p, a), Err(PageError::Io(_))));
        script.disarm();
        assert_eq!(&read(&p, a).unwrap()[..6], b"wobbly");
    }

    #[test]
    fn corrupt_reads_are_not_retried() {
        use crate::checksum::ChecksumStorage;
        use crate::frame::HEADER_BYTES;
        use crate::FaultStorage;
        let (inner, script) = FaultStorage::new(MemStorage::with_page_size(128 + HEADER_BYTES));
        let p = BufferPool::new(ChecksumStorage::new(inner));
        let a = p.allocate().unwrap();
        p.write(a, b"checked").unwrap();
        // Flip a payload bit on the next physical read: the checksum layer
        // reports Corrupt, which must surface immediately, not retry.
        script.flip_on_read(script.reads_seen(), HEADER_BYTES + 2, 0x80);
        let before = p.stats().retried_reads;
        assert!(matches!(read(&p, a), Err(PageError::Corrupt(_))));
        assert_eq!(
            p.stats().retried_reads,
            before,
            "no retry burned on corruption"
        );
        // The flip was scripted for one read only; service resumes.
        assert_eq!(&read(&p, a).unwrap()[..7], b"checked");
    }

    #[test]
    fn tracked_reads_attribute_to_caller() {
        let p = pool();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.write(a, b"a").unwrap();
        p.write(b, b"b").unwrap();
        let mut q1 = IoStats::default();
        let mut q2 = IoStats::default();
        read_io(&p, a, &mut q1).unwrap();
        read_io(&p, a, &mut q1).unwrap();
        read_io(&p, b, &mut q2).unwrap();
        assert_eq!(q1.logical_reads, 2);
        assert_eq!(q2.logical_reads, 1);
        // Global counters are the sum of the per-caller ones.
        let g = p.stats();
        assert_eq!(g.logical_reads, q1.logical_reads + q2.logical_reads);
        let mut sum = IoStats::default();
        sum.merge(&q1);
        sum.merge(&q2);
        assert_eq!(g.logical_reads, sum.logical_reads);
    }

    #[test]
    fn read_with_decodes_from_borrowed_frame() {
        let p = pool();
        let a = p.allocate().unwrap();
        p.write(a, b"guard").unwrap();
        let mut io = IoStats::default();
        let len = p
            .read_with(a, false, &mut io, QueryContext::unlimited(), |bytes| {
                bytes.iter().filter(|&&b| b != 0).count()
            })
            .unwrap();
        assert_eq!(len, 5);
        assert_eq!(io.logical_reads, 1, "the read is attributed to its caller");
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let p = pool();
        let ids: Vec<_> = (0..32).map(|_| p.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.write(*id, &[i as u8; 16]).unwrap();
        }
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                let total = &total;
                s.spawn(move || {
                    let mut io = IoStats::default();
                    for round in 0..50 {
                        for (i, id) in ids.iter().enumerate() {
                            if (i + round + t) % 3 == 0 {
                                let page = read_io(p, *id, &mut io).unwrap();
                                assert!(page[..16].iter().all(|&x| x == i as u8));
                            }
                        }
                    }
                    total.fetch_add(io.logical_reads, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            p.stats().logical_reads,
            total.load(Ordering::Relaxed),
            "global counter equals the sum of per-thread counters"
        );
    }
}
