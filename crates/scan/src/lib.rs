//! Sequential (linear) scan baseline.
//!
//! Beyond 10–15 dimensions a plain scan of the data file is a competitive
//! — often winning — search strategy, which is why the paper normalizes
//! every cost against it (§4, citing Beyer et al. and Weber et al.). This
//! implementation stores entries densely in pages and answers every query
//! by reading the whole file through the buffer pool's *sequential* path,
//! which the paper's cost model discounts 10x relative to random accesses.

// Page bytes are untrusted: a damaged page must surface as an error on
// every path, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hyt_exec::{Child, EntrySink, KnnCursor, NearQuery, NodeExpand};
use hyt_geom::{Metric, Point, Rect};
use hyt_index::{
    check_dim, leaf, Answer, IndexResult, KnnStream, MultidimIndex, Query, QueryContext,
    QueryOutcome, StatsTally, StructureStats,
};
use hyt_page::{BufferPool, ByteReader, ByteWriter, IoStats, MemStorage, PageId, Storage};

/// Per-page header: the `u32` entry count.
const PAGE_HEADER_BYTES: usize = 4;

/// Entries per page given the page and entry sizes.
fn capacity(page_size: usize, dim: usize) -> usize {
    (page_size - PAGE_HEADER_BYTES) / leaf::entry_bytes(dim)
}

/// A flat file of `(point, oid)` records scanned in page order.
pub struct SeqScan<S: Storage = MemStorage> {
    pool: BufferPool<S>,
    pages: Vec<PageId>,
    dim: usize,
    len: usize,
    cap: usize,
}

impl SeqScan<MemStorage> {
    /// Creates an empty scan file over in-memory pages of `page_size`
    /// bytes (the paper's is [`hyt_page::DEFAULT_PAGE_SIZE`]).
    pub fn new(dim: usize, page_size: usize) -> IndexResult<Self> {
        Self::with_storage(dim, MemStorage::with_page_size(page_size))
    }
}

impl<S: Storage> SeqScan<S> {
    /// Creates an empty scan file over the given store.
    pub fn with_storage(dim: usize, storage: S) -> IndexResult<Self> {
        let cap = capacity(storage.page_size(), dim);
        if cap == 0 {
            return Err(hyt_index::IndexError::Internal(format!(
                "page size {} cannot hold a {dim}-d entry",
                storage.page_size()
            )));
        }
        Ok(Self {
            pool: BufferPool::new(storage),
            pages: Vec::new(),
            dim,
            len: 0,
            cap,
        })
    }

    /// Number of pages a full scan reads — the denominator of the paper's
    /// normalized I/O cost.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn encode_page(&self, entries: &[(Point, u64)]) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(4 + entries.len() * leaf::entry_bytes(self.dim));
        leaf::encode(&mut w, self.dim, entries.iter().map(|(p, oid)| (p, *oid)));
        w.into_inner()
    }

    /// Decoded entries of one page, read through the pool: `seq` picks
    /// the sequential path (the paper's cost model discounts it 10x) and
    /// `ctx` admits the fetch, so an interrupt lands within one pool
    /// read.
    fn read_page(
        &self,
        pid: PageId,
        seq: bool,
        io: &mut IoStats,
        ctx: &QueryContext,
    ) -> IndexResult<Vec<(Point, u64)>> {
        Ok(self.pool.read_with(pid, seq, io, ctx, |buf| {
            leaf::decode(&mut ByteReader::new(buf), self.dim, |p, oid| (p, oid))
        })??)
    }
}

/// [`NodeExpand`] adapter for the sequential scan: a one-level "tree"
/// whose roots are every data page in file order. All expansions are
/// leaves with no children, so the kernel's drivers degenerate to a
/// page-order walk (box/range; `more_work` = pages left on the stack)
/// and to an everything-at-bound-zero best-first pass (kNN) that reads
/// the whole file before the accumulator can close — exactly the scan
/// semantics the paper normalizes against.
struct ScanExpand<'t, S: Storage> {
    tree: &'t SeqScan<S>,
}

impl<S: Storage> NodeExpand for ScanExpand<'_, S> {
    type Ref = PageId;

    fn node_id(&self, r: &PageId) -> u64 {
        u64::from(r.0)
    }

    fn roots(&self) -> Vec<PageId> {
        self.tree.pages.clone()
    }

    fn expand_box(
        &self,
        pid: PageId,
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        _children: &mut Vec<PageId>,
    ) -> IndexResult<()> {
        let entries = self.tree.read_page(pid, true, io, ctx)?;
        out.extend(
            entries
                .iter()
                .filter(|(p, _)| rect.contains_point(p))
                .map(|(_, oid)| *oid),
        );
        Ok(())
    }

    fn expand_near(
        &self,
        pid: PageId,
        _nq: NearQuery<'_>,
        io: &mut IoStats,
        ctx: &QueryContext,
        sink: &mut dyn EntrySink,
        _children: &mut Vec<Child<PageId>>,
    ) -> IndexResult<()> {
        let entries = self.tree.read_page(pid, true, io, ctx)?;
        for (p, oid) in &entries {
            sink.offer(*oid, p);
        }
        Ok(())
    }
}

impl<S: Storage> MultidimIndex for SeqScan<S> {
    fn name(&self) -> &'static str {
        "seq-scan"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        check_dim(self.dim, point.dim())?;
        let need_new_page = match self.pages.last() {
            None => true,
            Some(&last) => {
                let mut entries = self.read_page(
                    last,
                    false,
                    &mut IoStats::default(),
                    QueryContext::unlimited(),
                )?;
                if entries.len() >= self.cap {
                    true
                } else {
                    entries.push((point.clone(), oid));
                    let buf = self.encode_page(&entries);
                    self.pool.write(last, &buf)?;
                    false
                }
            }
        };
        if need_new_page {
            let pid = self.pool.allocate()?;
            let buf = self.encode_page(&[(point, oid)]);
            self.pool.write(pid, &buf)?;
            self.pages.push(pid);
        }
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool> {
        check_dim(self.dim, point.dim())?;
        for i in 0..self.pages.len() {
            let pid = self.pages[i];
            let mut entries = self.read_page(
                pid,
                true,
                &mut IoStats::default(),
                QueryContext::unlimited(),
            )?;
            if let Some(j) = entries
                .iter()
                .position(|(p, o)| *o == oid && p.same_coords(point))
            {
                entries.swap_remove(j);
                let buf = self.encode_page(&entries);
                self.pool.write(pid, &buf)?;
                self.len -= 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
        check_dim(self.dim, query.dim())?;
        hyt_exec::execute(ScanExpand { tree: self }, query, metric, ctx)
    }

    fn knn_stream<'a>(
        &'a self,
        q: &Point,
        metric: &'a dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<Box<dyn KnnStream + 'a>> {
        check_dim(self.dim, q.dim())?;
        Ok(Box::new(KnnCursor::new(
            ScanExpand { tree: self },
            q.clone(),
            metric,
            ctx.clone(),
        )))
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Leaf utilization is bytes used over page size, tallied page by
    /// page like the trees' (each page's entry count read from its
    /// header), so Tables 1–2 compare one quantity across engines.
    fn structure_stats(&self) -> IndexResult<StructureStats> {
        if self.pages.is_empty() {
            return Ok(StructureStats {
                height: 1,
                ..StructureStats::default()
            });
        }
        let mut tally = StatsTally::new(1, self.pool.page_size(), self.dim);
        let mut io = IoStats::default();
        for &pid in &self.pages {
            let entries =
                self.pool
                    .read_with(pid, true, &mut io, QueryContext::unlimited(), |buf| {
                        ByteReader::new(buf).get_u32()
                    })??;
            tally.data_node(PAGE_HEADER_BYTES, entries as usize);
        }
        Ok(tally.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::{L1, L2};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    #[test]
    fn insert_and_scan() {
        let pts = points(300, 4, 1);
        let mut s = SeqScan::new(4, 256).unwrap();
        for (i, p) in pts.iter().enumerate() {
            s.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(s.len(), 300);
        assert!(s.num_pages() > 1);
        let rect = Rect::new(vec![0.2; 4], vec![0.7; 4]);
        let mut got = s.box_query(&rect).unwrap();
        got.sort_unstable();
        let want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_reads_are_sequential() {
        let pts = points(100, 2, 2);
        let mut s = SeqScan::new(2, 256).unwrap();
        for (i, p) in pts.iter().enumerate() {
            s.insert(p.clone(), i as u64).unwrap();
        }
        s.reset_io_stats();
        s.box_query(&Rect::unit(2)).unwrap();
        let st = s.io_stats();
        assert_eq!(st.logical_reads, 0);
        assert_eq!(st.seq_reads as usize, s.num_pages());
        // Weighted cost is 10x cheaper than the same number of random reads.
        assert!((st.weighted_accesses() - s.num_pages() as f64 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn knn_and_distance_range_match_brute_force() {
        let pts = points(200, 3, 3);
        let mut s = SeqScan::new(3, 512).unwrap();
        for (i, p) in pts.iter().enumerate() {
            s.insert(p.clone(), i as u64).unwrap();
        }
        let q = Point::new(vec![0.5, 0.5, 0.5]);
        let knn = s.knn(&q, 5, &L2).unwrap();
        assert_eq!(knn.len(), 5);
        let mut want: Vec<f64> = pts.iter().map(|p| L2.distance(&q, p)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (_, d)) in knn.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-12);
        }
        let got = s.distance_range(&q, 0.5, &L1).unwrap();
        let wantn = pts.iter().filter(|p| L1.distance(&q, p) <= 0.5).count();
        assert_eq!(got.len(), wantn);
    }

    #[test]
    fn delete_removes_entry() {
        let pts = points(50, 2, 4);
        let mut s = SeqScan::new(2, 256).unwrap();
        for (i, p) in pts.iter().enumerate() {
            s.insert(p.clone(), i as u64).unwrap();
        }
        assert!(s.delete(&pts[10], 10).unwrap());
        assert!(!s.delete(&pts[10], 10).unwrap());
        assert_eq!(s.len(), 49);
        let got = s.box_query(&Rect::unit(2)).unwrap();
        assert_eq!(got.len(), 49);
        assert!(!got.contains(&10));
    }

    #[test]
    fn structure_stats_reports_pages() {
        let pts = points(100, 2, 5);
        let mut s = SeqScan::new(2, 256).unwrap();
        for (i, p) in pts.iter().enumerate() {
            s.insert(p.clone(), i as u64).unwrap();
        }
        let st = s.structure_stats().unwrap();
        assert_eq!(st.total_nodes, s.num_pages());
        assert!(st.avg_leaf_utilization > 0.5);
    }
}
