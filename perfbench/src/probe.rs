//! The benchmark's own instruments: a timing [`Storage`] wrapper and a
//! counting [`Metric`] wrapper. Both sit on public boundaries, so the
//! program under test is measured without changing it.

use hyt_geom::{Metric, Point, Rect};
use hyt_page::{PageId, PageResult, Storage};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counters of one storage layer. All are statistics (`Relaxed`).
#[derive(Default)]
pub struct StorageStats {
    read_ns: AtomicU64,
    reads: AtomicU64,
    /// Time in `write`, `allocate` and `free`, the calls that change pages.
    write_ns: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    sync_ns: AtomicU64,
    syncs: AtomicU64,
    capturing: AtomicBool,
    captured: Mutex<Vec<Vec<u8>>>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct StorageSnap {
    pub read_ns: u64,
    pub reads: u64,
    pub write_ns: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub sync_ns: u64,
    pub syncs: u64,
}

impl StorageSnap {
    pub fn since(self, before: StorageSnap) -> StorageSnap {
        StorageSnap {
            read_ns: self.read_ns - before.read_ns,
            reads: self.reads - before.reads,
            write_ns: self.write_ns - before.write_ns,
            writes: self.writes - before.writes,
            write_bytes: self.write_bytes - before.write_bytes,
            sync_ns: self.sync_ns - before.sync_ns,
            syncs: self.syncs - before.syncs,
        }
    }

    pub fn add(&mut self, o: StorageSnap) {
        self.read_ns += o.read_ns;
        self.reads += o.reads;
        self.write_ns += o.write_ns;
        self.writes += o.writes;
        self.write_bytes += o.write_bytes;
        self.sync_ns += o.sync_ns;
        self.syncs += o.syncs;
    }

    /// Time spent in the layer, reads and writes.
    pub fn busy_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.sync_ns
    }
}

impl StorageStats {
    pub fn snap(&self) -> StorageSnap {
        StorageSnap {
            read_ns: self.read_ns.load(Relaxed),
            reads: self.reads.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            writes: self.writes.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
        }
    }

    /// Starts keeping a copy of every page read.
    pub fn start_capture(&self) {
        self.capturing.store(true, Relaxed);
    }

    /// Takes the pages read since the last call.
    pub fn take_captured(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock poisoned"))
    }

    fn wrote(&self, t: Instant, bytes: usize) {
        self.write_ns.fetch_add(ns_since(t), Relaxed);
        self.writes.fetch_add(1, Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Relaxed);
    }
}

/// A [`Storage`] that times every call into the store it wraps.
pub struct Traced<'a, S: Storage> {
    inner: S,
    stats: &'a StorageStats,
}

impl<'a, S: Storage> Traced<'a, S> {
    pub fn new(inner: S, stats: &'a StorageStats) -> Self {
        Traced { inner, stats }
    }
}

impl<S: Storage> Storage for Traced<'_, S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> PageResult<PageId> {
        let t = Instant::now();
        let r = self.inner.allocate();
        self.stats.wrote(t, 0);
        r
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        let t = Instant::now();
        let r = self.inner.read(id, buf);
        self.stats.read_ns.fetch_add(ns_since(t), Relaxed);
        self.stats.reads.fetch_add(1, Relaxed);
        if self.stats.capturing.load(Relaxed) {
            let mut c = self.stats.captured.lock().expect("capture lock poisoned");
            c.push(buf.to_vec());
        }
        r
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()> {
        let t = Instant::now();
        let r = self.inner.write(id, data);
        self.stats.wrote(t, data.len());
        r
    }

    fn free(&mut self, id: PageId) -> PageResult<()> {
        let t = Instant::now();
        let r = self.inner.free(id);
        self.stats.wrote(t, 0);
        r
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn sync(&mut self) -> PageResult<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.stats.sync_ns.fetch_add(ns_since(t), Relaxed);
        self.stats.syncs.fetch_add(1, Relaxed);
        r
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn advance_epoch(&mut self) -> u64 {
        self.inner.advance_epoch()
    }
}

/// Counters of the metric layer.
#[derive(Default)]
pub struct MetricStats {
    ns: AtomicU64,
    /// Point-to-point evaluations (`distance`, `distance_sq`,
    /// `distance_sq_within`, `min_dist_sphere`).
    dist: AtomicU64,
    /// Point-to-rectangle bounds (`min_dist_rect`, `min_dist_rect_sq`).
    rect: AtomicU64,
    within: AtomicU64,
    abandoned: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct MetricSnap {
    pub ns: u64,
    pub dist: u64,
    pub rect: u64,
    pub within: u64,
    pub abandoned: u64,
}

impl MetricSnap {
    pub fn since(self, b: MetricSnap) -> MetricSnap {
        MetricSnap {
            ns: self.ns - b.ns,
            dist: self.dist - b.dist,
            rect: self.rect - b.rect,
            within: self.within - b.within,
            abandoned: self.abandoned - b.abandoned,
        }
    }

    pub fn add(&mut self, o: MetricSnap) {
        self.ns += o.ns;
        self.dist += o.dist;
        self.rect += o.rect;
        self.within += o.within;
        self.abandoned += o.abandoned;
    }
}

impl MetricStats {
    pub fn snap(&self) -> MetricSnap {
        MetricSnap {
            ns: self.ns.load(Relaxed),
            dist: self.dist.load(Relaxed),
            rect: self.rect.load(Relaxed),
            within: self.within.load(Relaxed),
            abandoned: self.abandoned.load(Relaxed),
        }
    }

    fn timed<R>(&self, counter: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(ns_since(t), Relaxed);
        counter.fetch_add(1, Relaxed);
        r
    }
}

/// A [`Metric`] that counts and times every call into the metric it
/// wraps. It forwards every method, the defaults included, so the
/// wrapped metric's own overrides still run.
pub struct Counting<'a, M: Metric> {
    inner: M,
    stats: &'a MetricStats,
}

impl<'a, M: Metric> Counting<'a, M> {
    pub fn new(inner: M, stats: &'a MetricStats) -> Self {
        Counting { inner, stats }
    }
}

impl<M: Metric> Metric for Counting<'_, M> {
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        self.stats
            .timed(&self.stats.dist, || self.inner.distance(a, b))
    }

    fn min_dist_rect(&self, q: &Point, rect: &Rect) -> f64 {
        self.stats
            .timed(&self.stats.rect, || self.inner.min_dist_rect(q, rect))
    }

    fn l2_equivalence_factor(&self, dim: usize) -> f64 {
        self.inner.l2_equivalence_factor(dim)
    }

    fn min_dist_sphere(&self, q: &Point, center: &Point, radius: f64) -> f64 {
        self.stats.timed(&self.stats.dist, || {
            self.inner.min_dist_sphere(q, center, radius)
        })
    }

    fn distance_sq(&self, a: &Point, b: &Point) -> f64 {
        self.stats
            .timed(&self.stats.dist, || self.inner.distance_sq(a, b))
    }

    fn min_dist_rect_sq(&self, q: &Point, rect: &Rect) -> f64 {
        self.stats
            .timed(&self.stats.rect, || self.inner.min_dist_rect_sq(q, rect))
    }

    fn distance_from_sq(&self, d_sq: f64) -> f64 {
        self.inner.distance_from_sq(d_sq)
    }

    fn distance_to_sq(&self, d: f64) -> f64 {
        self.inner.distance_to_sq(d)
    }

    fn distance_sq_within(&self, a: &Point, b: &Point, bound_sq: f64) -> Option<f64> {
        let r = self.stats.timed(&self.stats.dist, || {
            self.inner.distance_sq_within(a, b, bound_sq)
        });
        self.stats.within.fetch_add(1, Relaxed);
        if r.is_none() {
            self.stats.abandoned.fetch_add(1, Relaxed);
        }
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
