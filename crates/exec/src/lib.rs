//! Unified query executor: one governed traversal kernel for every engine.
//!
//! The paper's observation (§4) is that DP-style trees (SR-tree), SP-style
//! trees (kDB-tree, hB-tree), the hybrid tree, and even a linear scan all
//! answer box / distance-range / kNN queries with the *same* guided
//! traversal: maintain a frontier of node references, expand the best (or
//! next) one, collect leaf entries, prune children by a lower bound. This
//! crate hoists that loop out of the five engines. [`execute`] is the one
//! governed entry point: it matches a [`Query`] once and runs one of two
//! depth-first drivers (box, distance range) or the one best-first kNN
//! loop, the distance-browsing cursor [`KnnCursor`]: streaming kNN opens
//! it unbounded, and batch kNN is the same cursor bounded by k, exact or
//! `(1 + ε)`-approximate on every engine. Engines implement the
//! [`NodeExpand`] trait once: "given one node reference, read it
//! (attributing I/O, honoring the [`QueryContext`]) and emit leaf entries
//! and/or bounded children", and their `MultidimIndex::execute` is a
//! dimension check and a call to [`execute`]. Everything cross-cutting
//! lives here:
//!
//! * **Governance** — per-read admission happens inside the engines' pool
//!   reads (unchanged from PR 3); this kernel owns the *settlement*: an
//!   interrupted read degrades the query via
//!   [`settle_interrupt`] with the partial
//!   answer accumulated so far.
//! * **Comparator space** — all bounds and candidate distances are squared
//!   (root-free) values; each reported neighbor pays exactly one
//!   [`Metric::distance_from_sq`] on the way out.
//! * **Early abandon** — kNN candidate scans go through a sink that
//!   applies [`Metric::distance_sq_within`] against the current k-th best.
//! * **Prune bound** — every distance expansion is handed the bound the
//!   kernel will prune its children against ([`NearQuery::bound`]), so an
//!   engine can skip whole groups of children it would otherwise bound
//!   one by one and see dropped. Before a kNN bound exists, an engine may
//!   key children provisionally; the cursor bounds one
//!   ([`NodeExpand::settle_bound`]) only when it reaches the queue front.
//!
//! The kernel is *bit-identical* to the per-engine loops it replaced:
//! same answers, same logical/sequential read accounting, same degradation
//! points (the cross-engine, governance, and decoded-cache suites are the
//! oracle). The one deliberate refinement is the kNN candidate tie-break:
//! replacement at the k boundary is now ordered by `(distance, oid)`
//! rather than distance alone, which changes *which* oid survives an exact
//! distance tie (answers' distance multisets, I/O, and pruning are
//! unaffected). Because batch kNN is the bounded cursor, a streaming
//! prefix and the batch answer come out of one loop in one order:
//! ascending `(comparator distance, oid)`, which equals `(distance, oid)`
//! order unless two distinct comparator values root to the same `f64`.

// The query kernel runs inside every query.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hyt_geom::{range_bound_sq, Metric, Point, Rect};
use hyt_index::{
    settle_interrupt, Answer, DegradeReason, IndexError, IndexResult, KnnStream, Query,
    QueryContext, QueryOutcome,
};
use hyt_page::IoStats;
use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

/// A child reference emitted during distance-bounded expansion, tagged
/// with a comparator-space (squared) lower bound on the distance from the
/// query point to anything stored beneath it.
#[derive(Clone, Debug)]
pub struct Child<R> {
    /// Squared lower bound (`MINDIST`-style); `0.0` when the engine has no
    /// bounding information for this child. When `provisional`, a cheaper
    /// key that is itself a lower bound on that bound.
    pub bound: f64,
    /// Whether `bound` is a provisional key: the kernel settles it through
    /// [`NodeExpand::settle_bound`] only if the child reaches the front of
    /// the kNN queue within the prune bound, and drops it unsettled
    /// otherwise. Only an expansion at an infinite [`NearQuery::bound`]
    /// may defer.
    pub provisional: bool,
    /// The engine-specific node reference.
    pub node: R,
}

/// The query point, metric and prune bound threaded through
/// distance-bounded expansion, bundled so engine adapters take one query
/// argument.
#[derive(Clone, Copy)]
pub struct NearQuery<'a> {
    /// The query point.
    pub q: &'a Point,
    /// The distance function (chosen per query — the paper's trees are
    /// feature-based, so the structure never depends on it).
    pub metric: &'a dyn Metric,
    /// The kernel's comparator-space prune bound when the expansion
    /// starts: a child whose lower bound exceeds it is dropped unread.
    /// An engine may skip such children before bounding them (the hybrid
    /// tree tests kd split planes against it); it never has to. The
    /// range driver passes the radius bound; batch kNN passes the k-th
    /// best distance (its `ε` image) once k candidates are held.
    /// Infinite while nothing can be pruned: batch kNN before the best-k
    /// list fills, and the unbounded streaming cursor. Only then may an
    /// engine emit [`Child::provisional`] keys, deferring each child's
    /// real bound until the kernel needs it.
    pub bound: f64,
}

/// Receives candidate leaf entries during distance-bounded expansion.
/// The kernel's sinks own filtering (range membership, kNN best-k with
/// early abandon); engines just offer every entry of a visited data page.
pub trait EntrySink {
    /// Offers one stored `(oid, point)` entry.
    fn offer(&mut self, oid: u64, p: &Point);
}

/// The one primitive an engine contributes to the unified executor:
/// expand a single node reference. Implementations perform their own
/// buffer-pool reads (preserving each engine's exact I/O path — decoded
/// cache, zero-copy view, or sequential scan — and its per-query I/O
/// attribution and governed admission), then emit what the node held.
///
/// # Contract
///
/// * `roots` is the initial frontier in visit order; it must be empty for
///   an empty index (so queries complete without touching storage).
/// * Child bounds must be true lower bounds: every entry stored beneath
///   `child` satisfies `distance_sq(q, entry) >= bound`. The kernel's
///   best-first termination and pruning are correct under exactly this
///   contract — bounds need not be monotone along a path (quantized
///   live-space boxes are not), only valid.
/// * A [`Child::provisional`] key must be a lower bound on what
///   [`settle_bound`](NodeExpand::settle_bound) returns for that child.
///   Settling reads no page: it pays no I/O and no admission, so
///   deferring a bound cannot move a read or a degradation point.
/// * An `Err` whose [`IndexError::interrupt`] is `Some` means a governed
///   read was denied *before* any of this node's entries were emitted;
///   the kernel settles it into a degraded answer.
pub trait NodeExpand {
    /// Engine-specific node reference carried on the frontier.
    type Ref;

    /// A stable identifier for `r` (the page id): priority-queue
    /// tie-break (smallest first) and box search's visited-set key.
    fn node_id(&self, r: &Self::Ref) -> u64;

    /// Initial frontier, in visit order. Empty for an empty index.
    fn roots(&self) -> Vec<Self::Ref>;

    /// Whether a node can be reached through more than one path (hB-tree
    /// redirect graph): box search then visits each node id once. Box
    /// search only; the distance paths never consult it, since the one
    /// engine that sets it has no distance search.
    fn dedup_visits(&self) -> bool {
        false
    }

    /// Box-query expansion: push matching oids of a data page into `out`,
    /// and children overlapping `rect` (engine-side geometric filtering)
    /// into `children`. A directory page emits only children; a data
    /// page may emit both (the hB-tree's data-page redirects).
    fn expand_box(
        &self,
        r: Self::Ref,
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        children: &mut Vec<Self::Ref>,
    ) -> IndexResult<()>;

    /// Distance-bounded expansion, shared by the distance-range driver
    /// and the best-first kNN cursor (batch or streaming): offer every
    /// entry of a data page to `sink`, or emit children with squared
    /// lower bounds (the kernel prunes against its own comparator-space
    /// bound).
    fn expand_near(
        &self,
        r: Self::Ref,
        nq: NearQuery<'_>,
        io: &mut IoStats,
        ctx: &QueryContext,
        sink: &mut dyn EntrySink,
        children: &mut Vec<Child<Self::Ref>>,
    ) -> IndexResult<()>;

    /// The real lower bound of a child that [`expand_near`](Self::expand_near)
    /// emitted with a [`Child::provisional`] key, computed from what the
    /// engine holds in memory (no page read). Engines that never defer
    /// keep the default, which is never called for them.
    fn settle_bound(&self, _r: &Self::Ref, _nq: NearQuery<'_>) -> f64 {
        0.0
    }
}

/// Runs one governed [`Query`] over any [`NodeExpand`] engine: the body
/// of every engine's `MultidimIndex::execute`, after its dimension check.
/// Box and range answers carry oids in traversal order; a kNN answer
/// carries oids and distances in ascending `(distance, oid)` order. A kNN
/// `epsilon` that is negative or not finite is an
/// [`IndexError::InvalidQuery`]: below −1 it would make the prune bound
/// negative and drop true neighbors. So is a range `radius` that is
/// negative or NaN: the walk would prune with its square (or with
/// nothing) and answer nothing. An infinite radius is legal and matches
/// every entry.
pub fn execute<E: NodeExpand>(
    ex: E,
    query: &Query,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
    let (outcome, io) = match query {
        Query::Box(rect) => run_box_query(&ex, rect, ctx)?,
        Query::Range { q, radius } => {
            if radius.is_nan() || *radius < 0.0 {
                return Err(IndexError::InvalidQuery(
                    "range radius must be non-negative and not NaN",
                ));
            }
            run_distance_range(&ex, q, *radius, metric, ctx)?
        }
        Query::Knn { q, k, epsilon } => {
            if !(epsilon.is_finite() && *epsilon >= 0.0) {
                return Err(IndexError::InvalidQuery(
                    "kNN epsilon must be finite and non-negative",
                ));
            }
            let (outcome, io) = run_knn(ex, q, *k, *epsilon, metric, ctx)?;
            let answer = |hits: Vec<(u64, f64)>| {
                let (oids, distances) = hits.into_iter().unzip();
                Answer { oids, distances }
            };
            return Ok((outcome.map(answer), io));
        }
    };
    let answer = |oids| Answer {
        oids,
        distances: Vec::new(),
    };
    Ok((outcome.map(answer), io))
}

// ---------------------------------------------------------------------
// Depth-first drivers: box and distance-range
// ---------------------------------------------------------------------

/// Runs a governed bounding-box query over any [`NodeExpand`] engine.
///
/// Depth-first over the engine's frontier: children are visited in the
/// order emitted (last emitted sibling first, exactly like the former
/// per-engine stacks; the root list is visited front to back). A denied
/// read settles into a degraded outcome carrying the oids found so far.
fn run_box_query<E: NodeExpand>(
    ex: &E,
    rect: &Rect,
    ctx: &QueryContext,
) -> IndexResult<(QueryOutcome<Vec<u64>>, IoStats)> {
    let mut io = IoStats::default();
    let mut out = Vec::new();
    let mut stack = ex.roots();
    stack.reverse();
    let dedup = ex.dedup_visits();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut children = Vec::new();
    while let Some(r) = stack.pop() {
        if dedup && !visited.insert(ex.node_id(&r)) {
            continue;
        }
        children.clear();
        if let Err(e) = ex.expand_box(r, rect, &mut io, ctx, &mut out, &mut children) {
            return settle_interrupt(e, out, io);
        }
        stack.append(&mut children);
    }
    Ok((QueryOutcome::Complete(out), io))
}

/// [`EntrySink`] for distance-range queries: comparator-space filtering
/// against `bound_sq` with one exact (rooted) `<= radius` check per
/// survivor, identical to the former per-engine leaf loops.
struct RangeSink<'a> {
    q: &'a Point,
    metric: &'a dyn Metric,
    radius: f64,
    bound_sq: f64,
    out: Vec<u64>,
}

impl EntrySink for RangeSink<'_> {
    fn offer(&mut self, oid: u64, p: &Point) {
        if let Some(c) = self.metric.distance_sq_within(self.q, p, self.bound_sq) {
            if self.metric.distance_from_sq(c) <= self.radius {
                self.out.push(oid);
            }
        }
    }
}

/// Runs a governed distance-range query over any [`NodeExpand`] engine.
///
/// Same depth-first shape as [`run_box_query`]; children survive only if
/// their squared lower bound is within the query's comparator-space bound
/// (`range_bound_sq`, slightly relaxed so boundary entries are never
/// pruned — survivors are verified exactly). A provisional key needs no
/// settling here: only an infinite radius lets an engine defer, and every
/// key, like every real bound, is within it.
fn run_distance_range<E: NodeExpand>(
    ex: &E,
    q: &Point,
    radius: f64,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> IndexResult<(QueryOutcome<Vec<u64>>, IoStats)> {
    let mut io = IoStats::default();
    let bound_sq = range_bound_sq(metric, radius);
    let mut sink = RangeSink {
        q,
        metric,
        radius,
        bound_sq,
        out: Vec::new(),
    };
    let mut stack = ex.roots();
    stack.reverse();
    let mut children: Vec<Child<E::Ref>> = Vec::new();
    while let Some(r) = stack.pop() {
        children.clear();
        let nq = NearQuery {
            q,
            metric,
            bound: bound_sq,
        };
        if let Err(e) = ex.expand_near(r, nq, &mut io, ctx, &mut sink, &mut children) {
            return settle_interrupt(e, sink.out, io);
        }
        stack.extend(
            children
                .drain(..)
                .filter(|c| c.bound <= bound_sq)
                .map(|c| c.node),
        );
    }
    Ok((QueryOutcome::Complete(sink.out), io))
}

// ---------------------------------------------------------------------
// Best-first kNN: the distance-browsing cursor, bounded by k for batch
// ---------------------------------------------------------------------

/// Min-heap entry for the cursor's unexpanded nodes: smallest squared
/// lower bound first, ties broken by smallest node id (deterministic
/// traversal). A `provisional` bound is a key no larger than the real
/// one, which is computed only when the entry reaches the front.
struct NodeEntry<R> {
    bound: f64,
    provisional: bool,
    id: u64,
    node: R,
}

impl<R> PartialEq for NodeEntry<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<R> Eq for NodeEntry<R> {}
impl<R> PartialOrd for NodeEntry<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R> Ord for NodeEntry<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want smallest bound first.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A candidate object, ordered by `(comparator-space distance, oid)`:
/// the best-k list keeps them in a max-heap, so the candidate evicted at
/// the k boundary is deterministic, and the cursor's object queue in a
/// min-heap.
#[derive(Clone, Copy)]
struct HeapHit {
    dist: f64,
    oid: u64,
}
impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapHit {}
impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.oid.cmp(&other.oid))
    }
}

/// The bound that turns a cursor into batch kNN: the best `k`
/// candidates so far, by `(comparator-space distance, oid)`, and the `ε`
/// of approximate search.
struct BestK {
    k: usize,
    epsilon: f64,
    best: BinaryHeap<HeapHit>,
}

impl BestK {
    /// The k-th best distance, or infinity while fewer than k are held.
    fn worst(&self) -> f64 {
        if self.best.len() < self.k {
            f64::INFINITY
        } else {
            self.best.peek().map_or(f64::INFINITY, |h| h.dist)
        }
    }

    /// The comparator-space bound a node must not exceed to be expanded
    /// (ties admitted): infinite until k candidates are held, then the
    /// k-th best distance `d_k`, or for `(1 + ε)`-approximate search the
    /// image of `d_k / (1 + ε)`. Exact search (`epsilon == 0.0`) pays no
    /// metric call.
    fn prune_bound(&self, metric: &dyn Metric) -> f64 {
        let worst = self.worst();
        if self.epsilon == 0.0 || worst == f64::INFINITY {
            worst
        } else {
            metric.distance_to_sq(metric.distance_from_sq(worst) / (1.0 + self.epsilon))
        }
    }

    /// Offers a candidate; `true` if it entered the best k (evicting the
    /// current k-th best once k are held).
    fn admit(&mut self, hit: HeapHit) -> bool {
        if self.best.len() < self.k {
            self.best.push(hit);
        } else if self.best.peek().is_some_and(|peek| hit < *peek) {
            self.best.pop();
            self.best.push(hit);
        } else {
            return false;
        }
        true
    }

    /// Drains into `(oid, distance)` sorted ascending (ties by oid),
    /// paying the single per-result root.
    fn into_sorted_hits(self, metric: &dyn Metric) -> Vec<(u64, f64)> {
        let mut hits: Vec<(u64, f64)> = self
            .best
            .into_iter()
            .map(|h| (h.oid, metric.distance_from_sq(h.dist)))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    }
}

/// [`EntrySink`] staging discovered objects, with their exact squared
/// distances, on the cursor's object queue. Bounded, it applies the
/// early-abandon scan against the k-th best and stages only candidates
/// that enter the best k.
struct StageSink<'a> {
    q: &'a Point,
    metric: &'a dyn Metric,
    best: Option<&'a mut BestK>,
    objects: &'a mut BinaryHeap<Reverse<HeapHit>>,
}

impl EntrySink for StageSink<'_> {
    fn offer(&mut self, oid: u64, p: &Point) {
        let dist = match self.best.as_deref_mut() {
            None => self.metric.distance_sq(self.q, p),
            Some(best) => match self.metric.distance_sq_within(self.q, p, best.worst()) {
                Some(dist) if best.admit(HeapHit { dist, oid }) => dist,
                _ => return,
            },
        };
        self.objects.push(Reverse(HeapHit { dist, oid }));
    }
}

/// Incremental k-nearest-neighbor cursor (Hjaltason–Samet distance
/// browsing) over any [`NodeExpand`] engine, and the crate's one
/// best-first kNN loop: unexpanded nodes (by lower bound) and discovered
/// objects (by exact distance) wait in two priority queues read as one,
/// and [`KnnStream::next`] pops the smaller front until an object
/// surfaces.
///
/// Opened with [`new`](Self::new), it has no `k` and yields neighbors in
/// ascending `(comparator distance, oid)` order. Pulling `n` results
/// reads exactly as many pages as an exact batch kNN [`Query`] for `n`
/// neighbors does, and the yield sequence is exactly the batch answer's
/// prefix (see `tests/executor.rs`). Batch kNN is this cursor bounded by
/// k.
/// Governance carries over: every page read is admitted by the
/// [`QueryContext`]; a denied read ends the stream with
/// [`KnnStream::degrade_reason`] set. Hard storage
/// failures also end the stream and are surfaced by
/// [`KnnStream::take_error`].
pub struct KnnCursor<'m, E: NodeExpand> {
    ex: E,
    q: Cow<'m, Point>,
    metric: &'m dyn Metric,
    ctx: Cow<'m, QueryContext>,
    pq: BinaryHeap<NodeEntry<E::Ref>>,
    objects: BinaryHeap<Reverse<HeapHit>>,
    /// Batch kNN's bound; `None` for an open-ended stream.
    best: Option<BestK>,
    children: Vec<Child<E::Ref>>,
    io: IoStats,
    stopped: Option<DegradeReason>,
    error: Option<IndexError>,
}

impl<'m, E: NodeExpand> KnnCursor<'m, E> {
    /// Opens a cursor positioned before the nearest neighbor.
    pub fn new(ex: E, q: Point, metric: &'m dyn Metric, ctx: QueryContext) -> Self {
        Self::open(ex, Cow::Owned(q), metric, Cow::Owned(ctx), None)
    }

    fn open(
        ex: E,
        q: Cow<'m, Point>,
        metric: &'m dyn Metric,
        ctx: Cow<'m, QueryContext>,
        best: Option<BestK>,
    ) -> Self {
        let pq = ex
            .roots()
            .into_iter()
            .map(|r| NodeEntry {
                bound: 0.0,
                provisional: false,
                id: ex.node_id(&r),
                node: r,
            })
            .collect();
        KnnCursor {
            ex,
            q,
            metric,
            ctx,
            pq,
            objects: BinaryHeap::new(),
            best,
            children: Vec::new(),
            io: IoStats::default(),
            stopped: None,
            error: None,
        }
    }

    fn prune_bound(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |b| b.prune_bound(self.metric))
    }

    /// Pops until an object surfaces; `Ok(None)` once the frontier is
    /// empty. A node above the prune bound is dropped unread, and a child
    /// is queued only if its bound is within it (both inert unbounded).
    /// A provisional entry at the front is settled and queued again under
    /// its real bound, never below its key; one already above the prune
    /// bound is dropped unsettled. An `Err` is the failed expansion's, for
    /// the caller to settle.
    fn advance(&mut self) -> IndexResult<Option<(u64, f64)>> {
        loop {
            // At equal keys the node goes first, so an object is only
            // yielded once every node that could hide a same-distance,
            // smaller-oid object has been expanded: that keeps cursor
            // prefixes equal to batch answers under exact distance ties.
            let node_key = self.pq.peek().map(|n| n.bound);
            if let Some(Reverse(hit)) = self.objects.peek() {
                if node_key.is_none_or(|key| hit.dist.total_cmp(&key).is_lt()) {
                    let hit = *hit;
                    self.objects.pop();
                    return Ok(Some((hit.oid, self.metric.distance_from_sq(hit.dist))));
                }
            }
            let Some(entry) = self.pq.pop() else {
                return Ok(None);
            };
            let bound = self.prune_bound();
            if entry.bound > bound {
                continue;
            }
            let nq = NearQuery {
                q: &self.q,
                metric: self.metric,
                bound,
            };
            if entry.provisional {
                // Raised to the key, so settled keys never fall below
                // provisional ones and nodes expand in real (bound, id)
                // order.
                let real = self.ex.settle_bound(&entry.node, nq).max(entry.bound);
                if real <= bound {
                    self.pq.push(NodeEntry {
                        bound: real,
                        provisional: false,
                        ..entry
                    });
                }
                continue;
            }
            self.children.clear();
            let mut sink = StageSink {
                q: &self.q,
                metric: self.metric,
                best: self.best.as_mut(),
                objects: &mut self.objects,
            };
            self.ex.expand_near(
                entry.node,
                nq,
                &mut self.io,
                &self.ctx,
                &mut sink,
                &mut self.children,
            )?;
            let bound = self.prune_bound();
            for c in self.children.drain(..) {
                if c.bound <= bound {
                    self.pq.push(NodeEntry {
                        bound: c.bound,
                        provisional: c.provisional,
                        id: self.ex.node_id(&c.node),
                        node: c.node,
                    });
                }
            }
        }
    }
}

impl<E: NodeExpand> KnnStream for KnnCursor<'_, E> {
    fn next(&mut self) -> Option<(u64, f64)> {
        if self.stopped.is_some() || self.error.is_some() {
            return None;
        }
        match self.advance() {
            Ok(hit) => hit,
            Err(e) => {
                match e.interrupt() {
                    Some(i) => self.stopped = Some(i.into()),
                    None => self.error = Some(e),
                }
                None
            }
        }
    }

    fn io(&self) -> IoStats {
        self.io
    }

    fn degrade_reason(&self) -> Option<DegradeReason> {
        self.stopped
    }

    fn take_error(&mut self) -> Option<IndexError> {
        self.error.take()
    }
}

/// Most hits [`run_knn`] reserves room for before the first one arrives.
const KNN_RESERVE: usize = 256;

/// Runs a governed k-nearest-neighbor query over any [`NodeExpand`]
/// engine: a [`KnnCursor`] bounded by k, pulled k times. The traversal
/// is best-first over `(bound, node id)` and ends once k neighbors are
/// proven; a node farther than the k-th best candidate is never read. A
/// complete answer is in ascending `(comparator distance, oid)` order; a denied
/// read settles into the best candidates found so far, sorted by
/// `(distance, oid)`.
///
/// `epsilon > 0` asks for `(1 + ε)`-approximate neighbors: a node is
/// pruned once its bound exceeds the k-th best distance divided by
/// `1 + ε`, so every reported neighbor is within a factor `1 + ε` of the
/// true neighbor of the same rank while fewer pages are read. `0.0` is
/// exact search.
#[allow(clippy::type_complexity)]
fn run_knn<E: NodeExpand>(
    ex: E,
    q: &Point,
    k: usize,
    epsilon: f64,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> IndexResult<(QueryOutcome<Vec<(u64, f64)>>, IoStats)> {
    let best = BestK {
        k,
        epsilon,
        best: BinaryHeap::new(),
    };
    let mut cur = KnnCursor::open(ex, Cow::Borrowed(q), metric, Cow::Borrowed(ctx), Some(best));
    // `k` is the caller's and may dwarf the index: reserve for a typical
    // answer and let a larger one grow as hits arrive.
    let mut hits = Vec::with_capacity(k.min(KNN_RESERVE));
    while hits.len() < k {
        match cur.advance() {
            Ok(Some(hit)) => hits.push(hit),
            Ok(None) => break,
            Err(e) => {
                let held = cur
                    .best
                    .map_or_else(Vec::new, |b| b.into_sorted_hits(metric));
                return settle_interrupt(e, held, cur.io);
            }
        }
    }
    Ok((QueryOutcome::Complete(hits), cur.io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::L2;
    use hyt_page::{Interrupt, PageError};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A leaf's lower bound and its `(oid, coords)` entries.
    type MockLeaf = (f64, Vec<(u64, Vec<f32>)>);

    /// A synthetic two-level engine: one root with `leaves` children,
    /// each leaf holding points. `fail_at` trips an interrupt on the
    /// n-th node visit to exercise settlement. Leaf `i` with `keys[i]`
    /// set is emitted under that provisional key at an infinite bound;
    /// `settled` records every `settle_bound` call.
    struct Mock {
        leaves: Vec<MockLeaf>,
        fail_at: Option<usize>,
        visits: std::cell::Cell<usize>,
        keys: Vec<Option<f64>>,
        settled: Rc<RefCell<Vec<usize>>>,
    }

    impl Mock {
        fn admit(&self, io: &mut IoStats) -> IndexResult<()> {
            let n = self.visits.get() + 1;
            self.visits.set(n);
            io.logical_reads += 1;
            if self.fail_at == Some(n) {
                return Err(IndexError::Storage(PageError::Interrupted(
                    Interrupt::BudgetExhausted,
                )));
            }
            Ok(())
        }

        fn points(&self, leaf: usize) -> Vec<(u64, Point)> {
            self.leaves[leaf]
                .1
                .iter()
                .map(|(oid, c)| (*oid, Point::new(c.clone())))
                .collect()
        }
    }

    impl NodeExpand for Mock {
        type Ref = usize; // 0 = root, 1.. = leaf index + 1

        fn node_id(&self, r: &usize) -> u64 {
            *r as u64
        }

        fn roots(&self) -> Vec<usize> {
            if self.leaves.is_empty() {
                Vec::new()
            } else {
                vec![0]
            }
        }

        fn expand_box(
            &self,
            r: usize,
            rect: &Rect,
            io: &mut IoStats,
            _ctx: &QueryContext,
            out: &mut Vec<u64>,
            children: &mut Vec<usize>,
        ) -> IndexResult<()> {
            self.admit(io)?;
            if r == 0 {
                children.extend(1..=self.leaves.len());
                return Ok(());
            }
            for (oid, p) in self.points(r - 1) {
                if rect.contains_point(&p) {
                    out.push(oid);
                }
            }
            Ok(())
        }

        fn expand_near(
            &self,
            r: usize,
            nq: NearQuery<'_>,
            io: &mut IoStats,
            _ctx: &QueryContext,
            sink: &mut dyn EntrySink,
            children: &mut Vec<Child<usize>>,
        ) -> IndexResult<()> {
            self.admit(io)?;
            if r == 0 {
                let defer = nq.bound == f64::INFINITY;
                children.extend(self.leaves.iter().enumerate().map(|(i, (bound, _))| {
                    let key = self.keys.get(i).copied().flatten().filter(|_| defer);
                    Child {
                        bound: key.unwrap_or(*bound),
                        provisional: key.is_some(),
                        node: i + 1,
                    }
                }));
                return Ok(());
            }
            for (oid, p) in self.points(r - 1) {
                sink.offer(oid, &p);
            }
            Ok(())
        }

        fn settle_bound(&self, r: &usize, _nq: NearQuery<'_>) -> f64 {
            self.settled.borrow_mut().push(*r);
            self.leaves[*r - 1].0
        }
    }

    fn mock() -> Mock {
        Mock {
            // Bounds are exact min-dists from the origin query.
            leaves: vec![
                (0.0, vec![(1, vec![0.1, 0.0]), (2, vec![0.2, 0.0])]),
                (0.25, vec![(3, vec![0.5, 0.0]), (4, vec![0.6, 0.0])]),
                (4.0, vec![(5, vec![2.0, 0.0])]),
            ],
            fail_at: None,
            visits: std::cell::Cell::new(0),
            keys: Vec::new(),
            settled: Rc::default(),
        }
    }

    /// [`mock`] with provisional keys below the leaves' real bounds.
    fn deferring(keys: Vec<Option<f64>>) -> Mock {
        Mock { keys, ..mock() }
    }

    fn oids(hits: &[(u64, f64)]) -> Vec<u64> {
        hits.iter().map(|(o, _)| *o).collect()
    }

    #[test]
    fn knn_prunes_far_nodes_and_sorts_hits() {
        let m = mock();
        let q = Point::new(vec![0.0, 0.0]);
        let (outcome, io) = run_knn(m, &q, 3, 0.0, &L2, QueryContext::unlimited()).unwrap();
        let hits = outcome.into_results();
        assert_eq!(
            hits.iter().map(|(o, _)| *o).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Root + two near leaves; the far leaf (bound 4.0 > 0.5^2) is
        // pruned without a read.
        assert_eq!(io.logical_reads, 3);
    }

    #[test]
    fn interrupt_settles_with_best_so_far() {
        let mut m = mock();
        m.fail_at = Some(3); // root, leaf 1 ok; leaf 2 denied
        let q = Point::new(vec![0.0, 0.0]);
        let (outcome, io) = run_knn(m, &q, 3, 0.0, &L2, QueryContext::unlimited()).unwrap();
        assert_eq!(
            outcome.degrade_reason(),
            Some(DegradeReason::BudgetExhausted)
        );
        let hits = outcome.into_results();
        assert_eq!(hits.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(io.logical_reads, 3);
    }

    #[test]
    fn range_prunes_by_bound() {
        let m = mock();
        let q = Point::new(vec![0.0, 0.0]);
        let (outcome, io) =
            run_distance_range(&m, &q, 0.3, &L2, QueryContext::unlimited()).unwrap();
        let mut oids = outcome.into_results();
        oids.sort_unstable();
        assert_eq!(oids, vec![1, 2]);
        // Leaf 2 (bound 0.25 > 0.09) and leaf 3 pruned: root + leaf 1.
        assert_eq!(io.logical_reads, 2);
    }

    #[test]
    fn cursor_yields_batch_prefix_in_order() {
        let m = mock();
        let q = Point::new(vec![0.0, 0.0]);
        let (batch, _) = run_knn(m, &q, 5, 0.0, &L2, QueryContext::unlimited()).unwrap();
        let batch = batch.into_results();
        let mut cur = KnnCursor::new(mock(), q, &L2, QueryContext::unlimited().clone());
        let mut streamed = Vec::new();
        while let Some(hit) = cur.next() {
            streamed.push(hit);
        }
        assert_eq!(streamed, batch);
        assert_eq!(cur.degrade_reason(), None);
    }

    #[test]
    fn empty_roots_complete_without_io() {
        let m = Mock {
            leaves: Vec::new(),
            ..mock()
        };
        let q = Point::new(vec![0.0, 0.0]);
        let (outcome, io) = run_knn(m, &q, 3, 0.0, &L2, QueryContext::unlimited()).unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.into_results().is_empty());
        assert_eq!(io.logical_reads, 0);
    }

    #[test]
    fn deferred_child_settled_past_the_kth_best_is_never_read() {
        let q = Point::new(vec![0.0, 0.0]);
        let mut m = deferring(vec![None, Some(0.2), Some(0.05)]);
        m.leaves[0].1.push((6, vec![0.3, 0.0]));
        let settled = Rc::clone(&m.settled);
        // Leaf 1 fills the best 3 (0.01, 0.04, 0.09). Leaf 3's key 0.05
        // reaches the front within that bound and settles to 4.0: dropped
        // unread. Leaf 2's key 0.2 never reaches the front.
        let (outcome, io) = run_knn(m, &q, 3, 0.0, &L2, QueryContext::unlimited()).unwrap();
        assert_eq!(oids(&outcome.into_results()), vec![1, 2, 6]);
        assert_eq!(io.logical_reads, 2);
        assert_eq!(*settled.borrow(), vec![3]);
    }

    #[test]
    fn deferred_key_above_the_prune_bound_is_dropped_unsettled() {
        let q = Point::new(vec![0.0, 0.0]);
        let m = deferring(vec![None, Some(0.02), None]);
        let settled = Rc::clone(&m.settled);
        // ε = 1 and k = 2: leaf 1 yields 0.01 and 0.04, so the prune bound
        // is 0.04 / 4 = 0.01. Leaf 2's key 0.02 reaches the front before
        // the object at 0.04 and is dropped without a settle call.
        let (outcome, io) = run_knn(m, &q, 2, 1.0, &L2, QueryContext::unlimited()).unwrap();
        assert_eq!(oids(&outcome.into_results()), vec![1, 2]);
        assert_eq!(io.logical_reads, 2);
        assert!(settled.borrow().is_empty());
    }

    #[test]
    fn deferring_cursor_yields_the_batch_answer() {
        let q = Point::new(vec![0.0, 0.0]);
        let keys = vec![Some(0.0), Some(0.1), Some(1.0)];
        let (plain, plain_io) =
            run_knn(mock(), &q, 5, 0.0, &L2, QueryContext::unlimited()).unwrap();
        let (batch, io) = run_knn(
            deferring(keys.clone()),
            &q,
            5,
            0.0,
            &L2,
            QueryContext::unlimited(),
        )
        .unwrap();
        let batch = batch.into_results();
        assert_eq!(batch, plain.into_results());
        assert_eq!(io.logical_reads, plain_io.logical_reads);
        let mut cur = KnnCursor::new(deferring(keys), q, &L2, QueryContext::unlimited().clone());
        let mut streamed = Vec::new();
        while let Some(hit) = cur.next() {
            streamed.push(hit);
        }
        assert_eq!(streamed, batch);
        assert_eq!(cur.io().logical_reads, io.logical_reads);
    }
}
