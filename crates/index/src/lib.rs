//! Common interface implemented by every index structure in the workspace.
//!
//! The paper's evaluation (§4) runs the same workloads over the hybrid
//! tree, the SR-tree, the hB-tree, and a linear scan. [`MultidimIndex`] is
//! the uniform surface the evaluation harness drives; [`StructureStats`]
//! captures the structural properties compared in the paper's Tables 1–2
//! (fanout, utilization, overlap, split-dimension usage), tallied by
//! [`StatsTally`]; [`leaf`] is the data-page entry layout all five
//! engines share.

// The shared leaf decoder parses untrusted page bytes for every engine.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hyt_geom::{Metric, Point, Rect, L2};
use hyt_page::{IoStats, PageError};
use std::fmt;

pub mod leaf;

pub use hyt_page::{CancelToken, Interrupt, QueryContext};

/// Errors surfaced by index operations.
#[derive(Debug)]
pub enum IndexError {
    /// A point or rectangle of the wrong dimensionality was supplied.
    DimensionMismatch {
        /// The index's dimensionality.
        expected: usize,
        /// The argument's dimensionality.
        got: usize,
    },
    /// The operation is not supported by this structure (e.g. the hB-tree
    /// does not support distance-based queries — paper §4, footnote 2).
    Unsupported(&'static str),
    /// An error from the storage substrate.
    Storage(PageError),
    /// An operation that infers properties from its input (e.g.
    /// dimensionality from the first point) received an empty dataset.
    EmptyDataset(&'static str),
    /// The structure detected an internal inconsistency.
    Internal(String),
    /// A query parameter is out of its domain (a negative or non-finite
    /// kNN `epsilon`).
    InvalidQuery(&'static str),
}

/// Convenience alias for fallible index operations.
pub type IndexResult<T> = Result<T, IndexError>;

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: index is {expected}-d, argument is {got}-d"
                )
            }
            IndexError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::EmptyDataset(what) => write!(f, "empty dataset: {what}"),
            IndexError::Internal(msg) => write!(f, "internal index error: {msg}"),
            IndexError::InvalidQuery(what) => write!(f, "invalid query: {what}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for IndexError {
    fn from(e: PageError) -> Self {
        IndexError::Storage(e)
    }
}

impl IndexError {
    /// Whether this error reports detected on-disk corruption (checksum
    /// or structural), as opposed to a transient I/O failure or misuse.
    /// Crash-recovery callers branch on this: corruption is permanent and
    /// needs a rebuild, everything else is retryable or a caller bug.
    pub fn is_corruption(&self) -> bool {
        matches!(self, IndexError::Storage(PageError::Corrupt(_)))
    }

    /// If this error is a governed-read denial, the [`Interrupt`] that
    /// caused it. Engines use this to tell "the query was told to stop"
    /// (return partial results as [`QueryOutcome::Degraded`]) apart from
    /// real storage failures (propagate).
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            IndexError::Storage(PageError::Interrupted(i)) => Some(*i),
            _ => None,
        }
    }
}

/// Why a governed query returned [`QueryOutcome::Degraded`] instead of a
/// complete answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The [`QueryContext`] deadline passed mid-traversal.
    DeadlineExceeded,
    /// The logical-read budget ran out mid-traversal.
    BudgetExhausted,
    /// The query's [`CancelToken`] was triggered.
    Cancelled,
    /// A transient storage fault outlasted the buffer pool's read retries
    /// (set by the `hyt-eval` batch runner; an engine returns the I/O
    /// error). The answer is empty.
    RetriesExhausted,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            DegradeReason::BudgetExhausted => write!(f, "budget exhausted"),
            DegradeReason::Cancelled => write!(f, "cancelled"),
            DegradeReason::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

impl From<Interrupt> for DegradeReason {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::Cancelled => DegradeReason::Cancelled,
            Interrupt::DeadlineExceeded => DegradeReason::DeadlineExceeded,
            Interrupt::BudgetExhausted => DegradeReason::BudgetExhausted,
        }
    }
}

/// Result of a governed query: either the complete answer, or whatever
/// the traversal had accumulated when a limit stopped it.
///
/// `Degraded` is a *successful* return, not an error: the partial
/// results are real entries (for box and distance-range queries, a
/// subset of the true answer; for kNN, the best candidates found so
/// far, which may not be the true nearest) and the index itself is
/// healthy. Hard failures — corruption, misuse, unrecoverable I/O —
/// still surface as [`IndexError`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome<T> {
    /// The query ran to completion; the answer is exact.
    Complete(T),
    /// A limit stopped the traversal early.
    Degraded {
        /// Results accumulated before the interrupt.
        partial: T,
        /// Which limit stopped the query.
        reason: DegradeReason,
    },
}

impl<T> QueryOutcome<T> {
    /// Builds a degraded outcome.
    pub fn degraded(partial: T, reason: DegradeReason) -> Self {
        QueryOutcome::Degraded { partial, reason }
    }

    /// Whether the query ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, QueryOutcome::Complete(_))
    }

    /// The degrade reason, if any.
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        match self {
            QueryOutcome::Complete(_) => None,
            QueryOutcome::Degraded { reason, .. } => Some(*reason),
        }
    }

    /// Unwraps the payload, complete or partial.
    pub fn into_results(self) -> T {
        match self {
            QueryOutcome::Complete(t) => t,
            QueryOutcome::Degraded { partial, .. } => partial,
        }
    }

    /// Borrows the payload, complete or partial.
    pub fn results(&self) -> &T {
        match self {
            QueryOutcome::Complete(t) => t,
            QueryOutcome::Degraded { partial, .. } => partial,
        }
    }

    /// Maps the payload, preserving completeness.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> QueryOutcome<U> {
        match self {
            QueryOutcome::Complete(t) => QueryOutcome::Complete(f(t)),
            QueryOutcome::Degraded { partial, reason } => QueryOutcome::Degraded {
                partial: f(partial),
                reason,
            },
        }
    }
}

/// One query of the three kinds the paper's evaluation runs (§4), as
/// [`MultidimIndex::execute`] takes it.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Bounding-box (window) query: all oids whose points lie inside the
    /// closed rectangle.
    Box(Rect),
    /// Distance range query: all oids within `radius` of `q`.
    Range {
        /// The query center.
        q: Point,
        /// The distance bound (inclusive). A negative or NaN radius is an
        /// [`IndexError::InvalidQuery`]; `+∞` matches every entry.
        radius: f64,
    },
    /// k-nearest-neighbor query.
    Knn {
        /// The query point.
        q: Point,
        /// How many neighbors to return.
        k: usize,
        /// `0.0` for exact search. A positive `epsilon` asks for
        /// `(1 + epsilon)`-approximate neighbors (the paper's conclusion
        /// names approximate NN as future work): every reported distance
        /// is at most `1 + epsilon` times the true neighbor's of the same
        /// rank, and fewer pages are read. A negative or non-finite value
        /// is an [`IndexError::InvalidQuery`].
        epsilon: f64,
    },
}

impl Query {
    /// Dimensionality of the query's point or rectangle.
    pub fn dim(&self) -> usize {
        match self {
            Query::Box(rect) => rect.dim(),
            Query::Range { q, .. } | Query::Knn { q, .. } => q.dim(),
        }
    }
}

/// The answer to a [`Query`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    /// Result oids, one per matching stored entry. Box and range answers
    /// come in unspecified order; kNN answers in ascending distance.
    pub oids: Vec<u64>,
    /// kNN distances, parallel to `oids`; empty for box and range.
    pub distances: Vec<f64>,
}

impl Answer {
    /// A kNN answer as `(oid, distance)` pairs.
    pub fn into_hits(self) -> Vec<(u64, f64)> {
        self.oids.into_iter().zip(self.distances).collect()
    }
}

/// Engine-side helper for governed traversals: if `err` is an interrupt,
/// settle it into a `Degraded` outcome carrying `partial`; otherwise
/// re-raise. Keeps the "degrade only on interrupts, propagate real
/// failures" policy in one place instead of five engines.
pub fn settle_interrupt<T>(
    err: IndexError,
    partial: T,
    io: IoStats,
) -> IndexResult<(QueryOutcome<T>, IoStats)> {
    match err.interrupt() {
        Some(i) => Ok((QueryOutcome::degraded(partial, i.into()), io)),
        None => Err(err),
    }
}

/// An open incremental k-nearest-neighbor stream (distance browsing):
/// neighbors surface one at a time in ascending `(distance, oid)` order,
/// without committing to a `k` up front. Obtained from
/// [`MultidimIndex::knn_stream`]; the concrete implementation is the
/// `hyt-exec` crate's `KnnCursor`, shared by every engine that supports
/// distance-based search.
///
/// Governance carries over from the batch path: every page read is
/// admitted by the stream's [`QueryContext`], and a triggered limit ends
/// the stream with [`degrade_reason`](Self::degrade_reason) set instead
/// of surfacing an error. Pulling `n` results reads exactly the pages an
/// exact kNN query for `n` neighbors ([`MultidimIndex::execute`]) reads,
/// and the yielded sequence is exactly that batch answer's prefix.
pub trait KnnStream {
    /// The next neighbor in ascending `(distance, oid)` order, or `None`
    /// when the index is exhausted, a governance limit stopped the
    /// stream, or a storage failure occurred.
    fn next(&mut self) -> Option<(u64, f64)>;

    /// I/O incurred by this stream so far.
    fn io(&self) -> IoStats;

    /// Why the stream stopped early, if a governance limit ended it.
    fn degrade_reason(&self) -> Option<DegradeReason>;

    /// Takes the hard storage failure that ended the stream, if any
    /// (`next` returning `None` with no degrade reason and no error means
    /// the index is simply exhausted).
    fn take_error(&mut self) -> Option<IndexError>;
}

/// Structural properties of a built index, for Table 1 / Table 2 style
/// comparisons and for the ablation benches.
#[derive(Clone, Debug, Default)]
pub struct StructureStats {
    /// Height of the tree (1 = a single data node).
    pub height: usize,
    /// Total number of pages (index + data).
    pub total_nodes: usize,
    /// Number of index (directory) pages.
    pub index_nodes: usize,
    /// Number of data (leaf) pages.
    pub data_nodes: usize,
    /// Average number of children per index node.
    pub avg_fanout: f64,
    /// Average fraction of the page used by data nodes (bytes used / page
    /// size).
    pub avg_leaf_utilization: f64,
    /// Average over index-node splits of the overlap fraction: overlap
    /// extent divided by the node extent along the split dimension
    /// (0 = clean splits everywhere).
    pub avg_overlap_fraction: f64,
    /// Number of distinct dimensions ever used as a split dimension
    /// (the paper's implicit dimensionality reduction shows up here).
    pub distinct_split_dims: usize,
    /// Bytes of redundant information stored (e.g. hB-tree path posting).
    pub redundant_bytes: usize,
}

/// The node counts and averages every tree engine's
/// [`structure_stats`](MultidimIndex::structure_stats) walk accumulates.
/// The walk reports each node it visits; [`finish`](Self::finish) fills
/// `height`, the node counts, `avg_fanout` and `avg_leaf_utilization`,
/// and the engine sets the remaining fields itself.
#[derive(Debug)]
pub struct StatsTally {
    stats: StructureStats,
    page_size: usize,
    dim: usize,
    fanout_sum: usize,
    util_sum: f64,
}

impl StatsTally {
    /// A tally for a tree of `height` levels over `dim`-d entries on
    /// `page_size`-byte pages.
    pub fn new(height: usize, page_size: usize, dim: usize) -> Self {
        Self {
            stats: StructureStats {
                height,
                ..StructureStats::default()
            },
            page_size,
            dim,
            fanout_sum: 0,
            util_sum: 0.0,
        }
    }

    /// Counts a directory node with `fanout` children.
    pub fn index_node(&mut self, fanout: usize) {
        self.stats.index_nodes += 1;
        self.fanout_sum += fanout;
    }

    /// Counts a data node of `entries` leaf entries behind
    /// `overhead_bytes` of the engine's own header and trailer.
    pub fn data_node(&mut self, overhead_bytes: usize, entries: usize) {
        self.stats.data_nodes += 1;
        let used = overhead_bytes + entries * leaf::entry_bytes(self.dim);
        self.util_sum += used as f64 / self.page_size as f64;
    }

    /// The tallied statistics. A tally that saw no node describes an
    /// empty tree: one empty root leaf, with every average zero.
    pub fn finish(self) -> StructureStats {
        let mut st = self.stats;
        if st.data_nodes + st.index_nodes == 0 {
            st.data_nodes = 1;
            st.total_nodes = 1;
            return st;
        }
        st.total_nodes = st.data_nodes + st.index_nodes;
        if st.index_nodes > 0 {
            st.avg_fanout = self.fanout_sum as f64 / st.index_nodes as f64;
        }
        if st.data_nodes > 0 {
            st.avg_leaf_utilization = self.util_sum / st.data_nodes as f64;
        }
        st
    }
}

/// A disk-based multidimensional index over k-dimensional `f32` points with
/// `u64` object identifiers.
///
/// Duplicate points (even duplicate `(point, oid)` pairs) are permitted;
/// queries return one oid per stored entry, in unspecified order.
///
/// # Concurrency
///
/// Queries take `&self`: a built index can be shared across threads
/// (hence the `Send + Sync` supertraits) and searched concurrently —
/// mutation (`insert`/`delete`) still requires exclusive access, which
/// the borrow checker enforces. [`execute`](Self::execute) and the
/// `*_counted` wrappers over it return the [`IoStats`] incurred by that
/// one query, attributed to the caller even when many queries share the
/// underlying buffer pool; the plain wrappers discard the per-query
/// counters (the pool-global counters behind [`io_stats`](Self::io_stats)
/// always advance either way). A query's `logical_reads`/`seq_reads`
/// depend only on its own traversal, so they are identical whether the
/// batch runs serially or in parallel.
pub trait MultidimIndex: Send + Sync {
    /// Short name used in reports ("hybrid", "sr-tree", ...).
    fn name(&self) -> &'static str;

    /// Dimensionality of the indexed space.
    fn dim(&self) -> usize;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a point with its object id.
    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()>;

    /// Deletes one entry matching `(point, oid)` exactly; returns whether
    /// an entry was removed.
    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool>;

    /// Runs one governed query, the one query method every engine
    /// implements. The traversal consults `ctx` before every page fetch
    /// (cancel, deadline, logical-read budget), so any limit is observed
    /// within one pool read. A triggered limit yields
    /// [`QueryOutcome::Degraded`] carrying what was found so far: a
    /// subset of the true answer for box and range queries, and for kNN
    /// the best candidates found before the interrupt, sorted by
    /// distance, which are *not* guaranteed to be the true nearest.
    /// Storage failures and out-of-domain queries surface as
    /// [`IndexError`]. `metric` is ignored by box queries.
    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)>;

    /// Bounding-box (window) query: all oids whose points lie inside the
    /// closed rectangle.
    fn box_query(&self, rect: &Rect) -> IndexResult<Vec<u64>> {
        Ok(self.box_query_counted(rect)?.0)
    }

    /// [`box_query`](Self::box_query) plus the I/O this query incurred.
    fn box_query_counted(&self, rect: &Rect) -> IndexResult<(Vec<u64>, IoStats)> {
        let query = Query::Box(rect.clone());
        let (outcome, io) = self.execute(&query, &L2, QueryContext::unlimited())?;
        Ok((outcome.into_results().oids, io))
    }

    /// Distance range query under an arbitrary metric: all oids within
    /// `radius` of `q`.
    fn distance_range(&self, q: &Point, radius: f64, metric: &dyn Metric) -> IndexResult<Vec<u64>> {
        Ok(self.distance_range_counted(q, radius, metric)?.0)
    }

    /// [`distance_range`](Self::distance_range) plus the I/O this query
    /// incurred.
    fn distance_range_counted(
        &self,
        q: &Point,
        radius: f64,
        metric: &dyn Metric,
    ) -> IndexResult<(Vec<u64>, IoStats)> {
        let query = Query::Range {
            q: q.clone(),
            radius,
        };
        let (outcome, io) = self.execute(&query, metric, QueryContext::unlimited())?;
        Ok((outcome.into_results().oids, io))
    }

    /// k-nearest-neighbor query; returns `(oid, distance)` sorted by
    /// ascending distance (ties broken arbitrarily).
    fn knn(&self, q: &Point, k: usize, metric: &dyn Metric) -> IndexResult<Vec<(u64, f64)>> {
        Ok(self.knn_counted(q, k, metric)?.0)
    }

    /// [`knn`](Self::knn) plus the I/O this query incurred.
    fn knn_counted(
        &self,
        q: &Point,
        k: usize,
        metric: &dyn Metric,
    ) -> IndexResult<(Vec<(u64, f64)>, IoStats)> {
        let query = Query::Knn {
            q: q.clone(),
            k,
            epsilon: 0.0,
        };
        let (outcome, io) = self.execute(&query, metric, QueryContext::unlimited())?;
        Ok((outcome.into_results().into_hits(), io))
    }

    /// Opens an incremental kNN stream (see [`KnnStream`]): neighbors are
    /// pulled one at a time in ascending `(distance, oid)` order, under
    /// the same governance as the batch path. Engines without
    /// distance-based search — and any future engine that has not opted
    /// in — return [`IndexError::Unsupported`].
    fn knn_stream<'a>(
        &'a self,
        q: &Point,
        metric: &'a dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<Box<dyn KnnStream + 'a>> {
        let _ = (q, metric, ctx);
        Err(IndexError::Unsupported(
            "streaming kNN is not supported by this engine",
        ))
    }

    /// Pool-global I/O counters accumulated since the last reset.
    fn io_stats(&self) -> IoStats;

    /// Resets the pool-global I/O counters.
    fn reset_io_stats(&self);

    /// Decoded-node cache counters for this index since the last
    /// [`reset_io_stats`](Self::reset_io_stats) (`misses` is the decode
    /// count of the workload). All zeros for engines without such a
    /// cache, or with it disabled.
    fn cache_stats(&self) -> NodeCacheStats {
        NodeCacheStats::default()
    }

    /// Structural statistics of the current tree.
    fn structure_stats(&self) -> IndexResult<StructureStats>;
}

/// Counters of an index's decoded-node cache (see
/// [`MultidimIndex::cache_stats`]). A *miss* is exactly one decode, so
/// `misses` is the decode count of a workload, cache on or off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Lookups served from the cache (decode skipped).
    pub hits: u64,
    /// Lookups that fell through to a decode.
    pub misses: u64,
    /// Entries dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their page was rewritten or freed.
    pub invalidations: u64,
}

impl NodeCacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Checks an argument's dimensionality against the index's.
pub fn check_dim(expected: usize, got: usize) -> IndexResult<()> {
    if expected != got {
        return Err(IndexError::DimensionMismatch { expected, got });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_dim_accepts_match() {
        assert!(check_dim(4, 4).is_ok());
    }

    #[test]
    fn check_dim_rejects_mismatch() {
        let e = check_dim(4, 5).unwrap_err();
        assert!(e.to_string().contains("4-d"));
        assert!(e.to_string().contains("5-d"));
    }

    #[test]
    fn errors_display() {
        assert!(IndexError::Unsupported("distance search")
            .to_string()
            .contains("distance search"));
        let e: IndexError = PageError::Corrupt("x".into()).into();
        assert!(matches!(e, IndexError::Storage(_)));
        assert!(IndexError::EmptyDataset("need one point")
            .to_string()
            .contains("empty dataset"));
    }

    #[test]
    fn query_outcome_accessors() {
        let c = QueryOutcome::Complete(vec![1u64, 2]);
        assert!(c.is_complete());
        assert_eq!(c.degrade_reason(), None);
        assert_eq!(c.results(), &vec![1, 2]);
        assert_eq!(c.map(|v| v.len()).into_results(), 2);

        let d = QueryOutcome::degraded(vec![1u64], DegradeReason::Cancelled);
        assert!(!d.is_complete());
        assert_eq!(d.degrade_reason(), Some(DegradeReason::Cancelled));
        assert_eq!(d.into_results(), vec![1]);
    }

    #[test]
    fn interrupts_map_to_degrade_reasons() {
        assert_eq!(
            DegradeReason::from(Interrupt::Cancelled),
            DegradeReason::Cancelled
        );
        assert_eq!(
            DegradeReason::from(Interrupt::DeadlineExceeded),
            DegradeReason::DeadlineExceeded
        );
        assert_eq!(
            DegradeReason::from(Interrupt::BudgetExhausted),
            DegradeReason::BudgetExhausted
        );
    }

    #[test]
    fn stats_tally_averages_and_empty_tree() {
        let empty = StatsTally::new(1, 4096, 8).finish();
        assert_eq!((empty.total_nodes, empty.data_nodes), (1, 1));
        assert_eq!(empty.avg_leaf_utilization, 0.0);

        let mut t = StatsTally::new(2, 100, 2);
        t.index_node(3);
        t.index_node(4);
        t.data_node(4, 2); // 4 + 2 * 16 = 36 bytes
        t.data_node(4, 4); // 4 + 4 * 16 = 68 bytes
        let st = t.finish();
        assert_eq!(st.height, 2);
        assert_eq!((st.total_nodes, st.index_nodes, st.data_nodes), (4, 2, 2));
        assert_eq!(st.avg_fanout, 3.5);
        assert_eq!(st.avg_leaf_utilization, (0.36 + 0.68) / 2.0);
    }

    #[test]
    fn settle_interrupt_settles_only_interrupts() {
        let io = IoStats::default();
        let interrupted: IndexError = PageError::Interrupted(Interrupt::DeadlineExceeded).into();
        assert!(interrupted.interrupt().is_some());
        let (outcome, _) = settle_interrupt(interrupted, vec![7u64], io).unwrap();
        assert_eq!(
            outcome,
            QueryOutcome::degraded(vec![7], DegradeReason::DeadlineExceeded)
        );

        let hard: IndexError = PageError::Corrupt("bad crc".into()).into();
        assert!(hard.interrupt().is_none());
        assert!(settle_interrupt(hard, vec![7u64], io).is_err());
    }
}
