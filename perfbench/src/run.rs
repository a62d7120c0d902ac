//! The operations a run performs on the durable hybrid tree, shared by
//! the measured (untraced) run and the traced run.

use crate::inputs::{Inputs, Op, Spec, K};
use crate::oracle::{Expected, Oracle};
use crate::probe::{MetricSnap, MetricStats, StorageSnap, StorageStats};
use hybrid_tree::{HybridTree, HybridTreeConfig};
use hyt_geom::{Metric, Rect};
use hyt_index::{IndexError, IndexResult, MultidimIndex, StructureStats};
use hyt_page::{DurableStorage, Storage};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error>;
pub type Result<T> = std::result::Result<T, Error>;

/// Everything a run works from.
pub struct Env<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    /// Scratch directory for page files and catalogs.
    pub dir: PathBuf,
}

impl Env<'_> {
    pub fn pages(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}.pages"))
    }

    pub fn meta(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}.meta"))
    }
}

pub fn config(node_cache_entries: usize) -> HybridTreeConfig {
    HybridTreeConfig {
        node_cache_entries,
        ..HybridTreeConfig::default()
    }
}

/// Inserts the base set, oid = position.
pub fn insert_base<S: Storage>(tree: &mut HybridTree<S>, inputs: &Inputs) -> IndexResult<()> {
    for (oid, p) in inputs.points[..inputs.base].iter().enumerate() {
        tree.insert(p.clone(), oid as u64)?;
    }
    Ok(())
}

pub struct Setup {
    pub tree: HybridTree<DurableStorage>,
    pub build_s: f64,
    pub persist_s: f64,
    pub open_s: f64,
    /// Decoded-node cache entries the tree was reopened with.
    pub cache_entries: usize,
    /// Structure of the freshly built tree.
    pub structure: StructureStats,
    pub els_bytes: usize,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.persist_s + self.open_s
    }
}

/// Reopens a persisted tree the way the workload serves it.
pub fn open(env: &Env, tag: &str, cache_entries: usize) -> IndexResult<HybridTree<DurableStorage>> {
    if env.spec.node_cache {
        HybridTree::open_with_node_cache(env.pages(tag), env.meta(tag), cache_entries)
    } else {
        HybridTree::open(env.pages(tag), env.meta(tag))
    }
}

/// Builds by inserts over a fresh durable page file, persists, and
/// reopens: the `hyt build` path followed by a serving process's open.
pub fn setup(env: &Env, tag: &str) -> Result<Setup> {
    let t = Instant::now();
    let mut tree = HybridTree::create_durable(env.inputs.dim, config(0), env.pages(tag))?;
    insert_base(&mut tree, env.inputs)?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tree.persist(env.meta(tag))?;
    let persist_s = t.elapsed().as_secs_f64();
    // Sizing the cache is not part of set-up time.
    let structure = tree.structure_stats()?;
    let els_bytes = tree.els_overhead_bytes();
    let cache_entries = if env.spec.node_cache {
        structure.total_nodes
    } else {
        0
    };
    drop(tree);
    let t = Instant::now();
    let tree = open(env, tag, cache_entries)?;
    let open_s = t.elapsed().as_secs_f64();
    Ok(Setup {
        tree,
        build_s,
        persist_s,
        open_s,
        cache_entries,
        structure,
        els_bytes,
    })
}

/// The read-phase query kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    Box,
    Range,
    Knn,
}

pub const QUERY_KINDS: [QueryKind; 3] = [QueryKind::Box, QueryKind::Range, QueryKind::Knn];

#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Oids(Vec<u64>),
    Knn(Vec<(u64, f64)>),
    Done,
}

/// Runs query `i` of `kind`; returns the answer and its logical reads.
pub fn ask<S: Storage>(
    tree: &HybridTree<S>,
    inputs: &Inputs,
    kind: QueryKind,
    i: usize,
    l1: &dyn Metric,
    l2: &dyn Metric,
) -> IndexResult<(Answer, u64)> {
    Ok(match kind {
        QueryKind::Box => {
            let (v, io) = tree.box_query_counted(&inputs.boxes[i])?;
            (Answer::Oids(v), io.logical_reads)
        }
        QueryKind::Range => {
            let (v, io) =
                tree.distance_range_counted(&inputs.range_centers[i], inputs.radius, l1)?;
            (Answer::Oids(v), io.logical_reads)
        }
        QueryKind::Knn => {
            let (v, io) = tree.knn_counted(&inputs.knn_centers[i], K, l2)?;
            (Answer::Knn(v), io.logical_reads)
        }
    })
}

/// Whether an answer to query `i` of `kind` matches the oracle.
pub fn correct(
    oracle: &Oracle,
    exp: &Expected,
    inputs: &Inputs,
    kind: QueryKind,
    i: usize,
    ans: &Answer,
) -> bool {
    match (kind, ans) {
        (QueryKind::Box | QueryKind::Range, Answer::Oids(v)) => {
            let want = if kind == QueryKind::Box {
                &exp.boxes[i]
            } else {
                &exp.ranges[i]
            };
            let mut v = v.clone();
            v.sort_unstable();
            &v == want
        }
        (QueryKind::Knn, Answer::Knn(v)) => oracle.knn_ok(&inputs.knn_centers[i], v, &exp.knn[i]),
        _ => false,
    }
}

/// Latency samples of one operation kind, in microseconds.
#[derive(Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns as f64 / 1e3);
    }

    /// Nearest-rank percentile, `q` in (0, 1].
    pub fn pct(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Tally of operations attempted and failed (errored or wrong).
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Closed-loop single client cycling box, range and kNN queries until
/// `budget` runs out. Each query's latency in microseconds and its answer
/// (`None` on an error) go to `on_answer`, outside the timed span.
pub fn read_phase(
    tree: &HybridTree<DurableStorage>,
    inputs: &Inputs,
    budget: Duration,
    on_answer: &mut dyn FnMut(QueryKind, usize, f64, Option<Answer>),
) {
    let end = Instant::now() + budget;
    let mut n = 0usize;
    while Instant::now() < end {
        let kind = QUERY_KINDS[n % 3];
        let i = (n / 3) % crate::inputs::QUERIES;
        n += 1;
        let t = Instant::now();
        let r = ask(tree, inputs, kind, i, &hyt_geom::L1, &hyt_geom::L2);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        on_answer(kind, i, us, r.ok().map(|(a, _)| a));
    }
}

/// What a timed operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Query `i` of the kind's list.
    Query(QueryKind, usize),
    Insert,
    Delete,
    Commit,
}

/// Counters sampled around every operation of a traced run; all zero
/// when the tree runs untraced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snap {
    pub outer: StorageSnap,
    pub inner: StorageSnap,
    pub metric: MetricSnap,
}

impl Snap {
    pub fn since(self, b: Snap) -> Snap {
        Snap {
            outer: self.outer.since(b.outer),
            inner: self.inner.since(b.inner),
            metric: self.metric.since(b.metric),
        }
    }

    pub fn add(&mut self, o: Snap) {
        self.outer.add(o.outer);
        self.inner.add(o.inner);
        self.metric.add(o.metric);
    }
}

/// The instruments of a traced tree: storage above and below the
/// checksum layer, and the metric.
#[derive(Default)]
pub struct Instruments {
    pub outer: StorageStats,
    pub inner: StorageStats,
    pub metric: MetricStats,
}

impl Instruments {
    pub fn snap(&self) -> Snap {
        Snap {
            outer: self.outer.snap(),
            inner: self.inner.snap(),
            metric: self.metric.snap(),
        }
    }
}

/// One timed operation.
pub struct Rec {
    pub op: OpKind,
    pub write_phase: bool,
    pub ns: u64,
    pub reads: u64,
    pub delta: Snap,
    pub answer: Answer,
    pub ok: bool,
}

/// Called after each operation with its record, outside the timed span.
pub type After<'a> = &'a mut dyn FnMut(&mut Rec);

/// Runs the write-phase script: each op timed, a commit after every
/// `commit_every` ops. kNN answers are checked later against the oracle
/// replay ([`verify_writes`]).
pub fn write_phase<S: Storage>(
    tree: &mut HybridTree<S>,
    env: &Env,
    meta: &Path,
    l2: &dyn Metric,
    ins: &Instruments,
    after: After,
) -> Vec<Rec> {
    let inputs = env.inputs;
    let mut recs = Vec::with_capacity(inputs.ops.len() + inputs.ops.len() / env.spec.commit_every);
    for (n, op) in inputs.ops.iter().enumerate() {
        let before = ins.snap();
        let t = Instant::now();
        let (op, r) = match *op {
            Op::Insert(oid) => (
                OpKind::Insert,
                tree.insert(inputs.points[oid as usize].clone(), oid)
                    .map(|()| (Answer::Done, 0)),
            ),
            Op::Delete(oid) => (
                OpKind::Delete,
                tree.delete(&inputs.points[oid as usize], oid)
                    .and_then(|found| {
                        found
                            .then_some((Answer::Done, 0))
                            .ok_or_else(|| IndexError::Internal(format!("oid {oid} not found")))
                    }),
            ),
            Op::Knn(i) => (
                OpKind::Query(QueryKind::Knn, i),
                ask(tree, inputs, QueryKind::Knn, i, &hyt_geom::L1, l2),
            ),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let delta = ins.snap().since(before);
        let ok = r.is_ok();
        let (answer, reads) = r.unwrap_or((Answer::Done, 0));
        let mut rec = Rec {
            op,
            write_phase: true,
            ns,
            reads,
            delta,
            answer,
            ok,
        };
        after(&mut rec);
        recs.push(rec);
        if (n + 1) % env.spec.commit_every == 0 {
            let before = ins.snap();
            let t = Instant::now();
            let ok = tree.persist(meta).is_ok();
            let mut rec = Rec {
                op: OpKind::Commit,
                write_phase: true,
                ns: t.elapsed().as_nanos() as u64,
                reads: 0,
                delta: ins.snap().since(before),
                answer: Answer::Done,
                ok,
            };
            after(&mut rec);
            recs.push(rec);
        }
    }
    recs
}

/// Replays the write script on the oracle, marking every kNN answer that
/// is wrong for the live set of its moment. Leaves the oracle at the
/// final state.
pub fn verify_writes(oracle: &mut Oracle, inputs: &Inputs, recs: &mut [Rec]) {
    let recs = recs
        .iter_mut()
        .filter(|r| r.write_phase && r.op != OpKind::Commit);
    for (op, rec) in inputs.ops.iter().zip(recs) {
        match *op {
            Op::Insert(oid) => oracle.insert(oid),
            Op::Delete(oid) => oracle.delete(oid),
            Op::Knn(i) => {
                let q = &inputs.knn_centers[i];
                if let Answer::Knn(got) = &rec.answer {
                    rec.ok &= oracle.knn_ok(q, got, &oracle.knn_distances(q, K));
                }
            }
        }
    }
}

/// Reopens the committed tree and checks it holds exactly the oracle's
/// live set: a box over the whole data space must return every live oid.
pub fn durable_check(
    env: &Env,
    tag: &str,
    cache_entries: usize,
    oracle: &Oracle,
) -> Result<(HybridTree<DurableStorage>, bool)> {
    let tree = open(env, tag, cache_entries)?;
    let everything = Rect::bounding(&env.inputs.points);
    let mut got = tree.box_query(&everything)?;
    got.sort_unstable();
    let ok = tree.len() == oracle.len() && got == oracle.live_sorted();
    Ok((tree, ok))
}

/// Bytes of the page file per byte of live user data (`4·dim + 8` per
/// entry: the coordinates and the oid).
pub fn bytes_per_user_byte(env: &Env, tag: &str, live: usize) -> Result<f64> {
    let file = std::fs::metadata(env.pages(tag))?.len() as f64;
    Ok(file / (live * (4 * env.inputs.dim + 8)) as f64)
}

const STATUS: &str = "/proc/self/status";

/// The process's peak resident set (`VmHWM`) since it started or since
/// the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string(STATUS)?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or(format!("no VmHWM in {STATUS}"))?;
    Ok(kb.parse::<f64>()? / 1024.0)
}

/// Lowers the process's peak resident set to its current resident set
/// (Linux 4.0 and later; see `proc(5)`, `clear_refs`).
pub fn reset_peak_rss() -> Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(())
}
