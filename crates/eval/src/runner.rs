//! Build-and-measure machinery shared by all figure drivers.

use hybrid_tree::{HybridTree, HybridTreeConfig, SplitPolicy};
use hyt_geom::{Metric, Point, Rect};
use hyt_hbtree::HbTree;
use hyt_index::{
    Answer, DegradeReason, IndexError, IndexResult, MultidimIndex, Query, QueryContext,
    QueryOutcome,
};

use hyt_kdbtree::KdbTree;
use hyt_page::{IoStats, PageError, DEFAULT_PAGE_SIZE};
use hyt_scan::SeqScan;
use hyt_srtree::SrTree;
use std::time::{Duration, Instant};

/// The engines the paper compares (§4), plus the kDB-tree for Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The hybrid tree with the paper's defaults (EDA splits, 4-bit ELS).
    Hybrid,
    /// Hybrid tree with VAMSplit node splitting (Fig 5(a,b) comparison).
    HybridVam,
    /// Hybrid tree with a given ELS precision (Fig 5(c) sweep).
    HybridEls(u8),
    /// Bulk-loaded hybrid tree (same structure, bottom-up build). The
    /// loader quantizes each child's ELS box against that child's own
    /// live box, so its ELS is exact at any `els_bits`: its rows differ
    /// from [`Engine::Hybrid`]'s in build order *and* ELS precision, and
    /// isolate neither.
    HybridBulk,
    /// hB-tree.
    Hb,
    /// SR-tree.
    Sr,
    /// kDB-tree.
    Kdb,
    /// Sequential scan.
    Scan,
}

impl Engine {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Engine::Hybrid => "hybrid".into(),
            Engine::HybridVam => "hybrid-vam".into(),
            Engine::HybridEls(b) => format!("hybrid-els{b}"),
            Engine::HybridBulk => "hybrid-bulk".into(),
            Engine::Hb => "hb-tree".into(),
            Engine::Sr => "sr-tree".into(),
            Engine::Kdb => "kdb-tree".into(),
            Engine::Scan => "seq-scan".into(),
        }
    }
}

/// Instantiates an engine and bulk-inserts `data` (build is by repeated
/// insertion, as in the paper — all structures are fully dynamic).
/// Returns the index and the build wall time.
pub fn build_engine(
    engine: Engine,
    data: &[Point],
) -> IndexResult<(Box<dyn MultidimIndex>, Duration)> {
    let Some(first) = data.first() else {
        return Err(IndexError::EmptyDataset(
            "build_engine infers dimensionality from the first point",
        ));
    };
    let dim = first.dim();
    let start = Instant::now();
    if engine == Engine::HybridBulk {
        let entries: Vec<(Point, u64)> = data
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let tree = HybridTree::bulk_load(entries, HybridTreeConfig::default())?;
        return Ok((Box::new(tree), start.elapsed()));
    }
    let mut idx: Box<dyn MultidimIndex> = match engine {
        Engine::Hybrid => Box::new(HybridTree::new(dim, HybridTreeConfig::default())?),
        Engine::HybridVam => Box::new(HybridTree::new(
            dim,
            HybridTreeConfig {
                split_policy: SplitPolicy::Vam,
                ..HybridTreeConfig::default()
            },
        )?),
        Engine::HybridEls(bits) => Box::new(HybridTree::new(
            dim,
            HybridTreeConfig {
                els_bits: bits,
                ..HybridTreeConfig::default()
            },
        )?),
        Engine::Hb => Box::new(HbTree::new(dim, DEFAULT_PAGE_SIZE)?),
        Engine::Sr => Box::new(SrTree::new(dim, DEFAULT_PAGE_SIZE)?),
        Engine::Kdb => Box::new(KdbTree::new(dim, DEFAULT_PAGE_SIZE)?),
        Engine::Scan => Box::new(SeqScan::new(dim, DEFAULT_PAGE_SIZE)?),
        Engine::HybridBulk => unreachable!("handled above"),
    };
    for (i, p) in data.iter().enumerate() {
        idx.insert(p.clone(), i as u64)?;
    }
    Ok((idx, start.elapsed()))
}

/// Averages measured over a batch of queries.
#[derive(Clone, Copy, Debug)]
pub struct QueryCost {
    /// Average *weighted* disk accesses per query (random = 1, sequential
    /// = 0.1, the paper's model).
    pub avg_accesses: f64,
    /// Average CPU (wall) time per query.
    pub avg_cpu: Duration,
    /// Average result cardinality (to verify selectivity calibration).
    pub avg_results: f64,
}

impl QueryCost {
    /// Runs `run` on every query (it returns the query's result count)
    /// from freshly reset I/O counters, and averages the cost per query.
    /// An empty workload costs nothing.
    fn measure<Q>(
        idx: &dyn MultidimIndex,
        queries: &[Q],
        mut run: impl FnMut(&Q) -> IndexResult<usize>,
    ) -> IndexResult<QueryCost> {
        idx.reset_io_stats();
        let mut results = 0usize;
        let start = Instant::now();
        for q in queries {
            results += run(q)?;
        }
        let elapsed = start.elapsed();
        let n = queries.len();
        if n == 0 {
            return Ok(QueryCost {
                avg_accesses: 0.0,
                avg_cpu: Duration::ZERO,
                avg_results: 0.0,
            });
        }
        Ok(QueryCost {
            avg_accesses: idx.io_stats().weighted_accesses() / n as f64,
            avg_cpu: elapsed / n as u32,
            avg_results: results as f64 / n as f64,
        })
    }
}

/// Runs box queries, returning per-query averages.
pub fn run_box_queries(idx: &dyn MultidimIndex, queries: &[Rect]) -> IndexResult<QueryCost> {
    QueryCost::measure(idx, queries, |q| Ok(idx.box_query(q)?.len()))
}

/// Runs distance-range queries, returning per-query averages.
pub fn run_distance_queries(
    idx: &dyn MultidimIndex,
    centers: &[Point],
    radius: f64,
    metric: &dyn Metric,
) -> IndexResult<QueryCost> {
    QueryCost::measure(idx, centers, |c| {
        Ok(idx.distance_range(c, radius, metric)?.len())
    })
}

/// One engine's results, normalized against the scan per the paper.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Engine name.
    pub engine: String,
    /// Raw average accesses per query (weighted).
    pub avg_accesses: f64,
    /// Raw average CPU per query.
    pub avg_cpu: Duration,
    /// `avg random accesses / scan pages` (scan itself = 0.1).
    pub normalized_io: f64,
    /// `avg cpu / scan avg cpu` (scan itself = 1.0).
    pub normalized_cpu: f64,
    /// Average result cardinality.
    pub avg_results: f64,
    /// Build wall time.
    pub build_time: Duration,
}

/// Builds every engine, runs the workload on each, and normalizes
/// against the sequential scan (which is always appended to the engine
/// list if missing).
pub fn compare_box(
    engines: &[Engine],
    data: &[Point],
    queries: &[Rect],
) -> IndexResult<Vec<CompareRow>> {
    compare_inner(engines, data, |idx| run_box_queries(idx, queries))
}

/// Distance-query variant of [`compare_box`]. Engines that do not
/// support distance search (the hB-tree) are skipped, as in the paper.
pub fn compare_distance(
    engines: &[Engine],
    data: &[Point],
    centers: &[Point],
    radius: f64,
    metric: &dyn Metric,
) -> IndexResult<Vec<CompareRow>> {
    compare_inner(engines, data, |idx| {
        run_distance_queries(idx, centers, radius, metric)
    })
}

fn compare_inner<F>(engines: &[Engine], data: &[Point], mut run: F) -> IndexResult<Vec<CompareRow>>
where
    F: FnMut(&dyn MultidimIndex) -> IndexResult<QueryCost>,
{
    let mut list: Vec<Engine> = engines.to_vec();
    if !list.contains(&Engine::Scan) {
        list.push(Engine::Scan);
    }
    let mut raw: Vec<(Engine, QueryCost, Duration)> = Vec::new();
    let mut scan_pages = 0usize;
    for &e in &list {
        let (idx, build) = build_engine(e, data)?;
        if e == Engine::Scan {
            // Recover the page count for normalization.
            scan_pages = idx.structure_stats()?.total_nodes;
        }
        match run(idx.as_ref()) {
            Ok(cost) => raw.push((e, cost, build)),
            Err(IndexError::Unsupported(_)) => continue,
            Err(err) => return Err(err),
        }
    }
    let scan_cpu = raw
        .iter()
        .find(|(e, ..)| *e == Engine::Scan)
        .map_or(1e-12, |(_, c, _)| c.avg_cpu.as_secs_f64().max(1e-12));
    Ok(raw
        .into_iter()
        .map(|(e, c, build)| CompareRow {
            engine: e.name(),
            avg_accesses: c.avg_accesses,
            avg_cpu: c.avg_cpu,
            normalized_io: c.avg_accesses / scan_pages.max(1) as f64,
            normalized_cpu: c.avg_cpu.as_secs_f64() / scan_cpu,
            avg_results: c.avg_results,
            build_time: build,
        })
        .collect())
}

// ---------------------------------------------------------------------
// Batch runner: a mixed workload executed serially or across a worker
// pool. Queries only need `&dyn MultidimIndex`, so the workers share one
// index (and one buffer pool) without any cloning.
// ---------------------------------------------------------------------

/// Sums the per-query I/O of a batch (e.g. to compare scheduling modes:
/// `logical_reads`/`seq_reads` totals are schedule-independent).
pub fn total_io(answers: &[(QueryOutcome<Answer>, IoStats)]) -> IoStats {
    let mut total = IoStats::default();
    for (_, io) in answers {
        total.merge(io);
    }
    total
}

/// Runs one query of a [`run_batch`], which states the contract.
fn run_one(
    idx: &dyn MultidimIndex,
    metric: &dyn Metric,
    q: &Query,
    ctx: &QueryContext,
) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
    match idx.execute(q, metric, ctx) {
        Ok((outcome, io)) if matches!(q, Query::Knn { .. }) => Ok((outcome, io)),
        Ok((outcome, io)) => Ok((
            outcome.map(|mut a| {
                a.oids.sort_unstable();
                a
            }),
            io,
        )),
        Err(IndexError::Storage(PageError::Io(_))) => Ok((
            QueryOutcome::degraded(Answer::default(), DegradeReason::RetriesExhausted),
            IoStats::default(),
        )),
        Err(err) => Err(err),
    }
}

/// Runs a batch of queries across `threads` workers over one shared
/// index. Every query runs under `ctx`, so a deadline set once bounds the
/// whole batch. At most `threads` queries are in flight at once.
///
/// Each answer is what [`MultidimIndex::execute`] returns, with box and
/// range oids sorted ascending (the engines leave their order
/// unspecified, and a canonical order makes serial and parallel runs
/// bit-comparable); kNN answers keep their ascending-distance order. A
/// query whose transient storage fault outlasted the pool's retries is
/// [`DegradeReason::RetriesExhausted`], with an empty answer and no I/O.
///
/// The batch is split into contiguous chunks, one per worker, and the
/// answers are stitched back in submission order, so the output —
/// including each answer's I/O — does not depend on `threads`. The
/// vector always has one answer per query; only hard failures —
/// corruption, unsupported queries, misuse — abort the batch with `Err`
/// (the first in submission order wins, after every worker finishes).
pub fn run_batch(
    idx: &dyn MultidimIndex,
    metric: &dyn Metric,
    queries: &[Query],
    threads: usize,
    ctx: &QueryContext,
) -> IndexResult<Vec<(QueryOutcome<Answer>, IoStats)>> {
    let run = |q: &Query| run_one(idx, metric, q, ctx);
    let threads = threads.max(1);
    if threads == 1 || queries.len() < 2 {
        return queries.iter().map(run).collect();
    }
    let chunk = queries.len().div_ceil(threads);
    let run = &run;
    let per_chunk: Vec<IndexResult<Vec<_>>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(run).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut out = Vec::with_capacity(queries.len());
    for chunk_answers in per_chunk {
        out.extend(chunk_answers?);
    }
    Ok(out)
}

/// Drains an engine's streaming kNN cursor (distance browsing) and
/// returns the hits in yield order together with the cursor's I/O and
/// its degradation reason, if the governance budget stopped it early.
///
/// The cursor yields neighbors one at a time in ascending distance; the
/// first `k` yields are exactly the batch `knn` answer, so this is the
/// incremental path for consumers that do not know `k` up front. A hard
/// error (corruption, unsupported engine) aborts with `Err`; governance
/// interrupts terminate the stream and surface as `Some(reason)`.
#[allow(clippy::type_complexity)]
pub fn run_knn_stream(
    idx: &dyn MultidimIndex,
    q: &Point,
    k: usize,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> IndexResult<(Vec<(u64, f64)>, IoStats, Option<DegradeReason>)> {
    let mut cursor = idx.knn_stream(q, metric, ctx)?;
    let hits = std::iter::from_fn(|| cursor.next()).take(k).collect();
    if let Some(e) = cursor.take_error() {
        return Err(e);
    }
    Ok((hits, cursor.io(), cursor.degrade_reason()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_data::{uniform, BoxWorkload};
    use hyt_geom::L1;
    use hyt_index::CancelToken;

    #[test]
    fn all_engines_build_and_answer_identically() {
        let data = uniform(1200, 4, 1);
        let wl = BoxWorkload::calibrated(&data, 10, 0.01, 2);
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for e in [
            Engine::Hybrid,
            Engine::HybridVam,
            Engine::HybridEls(8),
            Engine::Hb,
            Engine::Sr,
            Engine::Kdb,
            Engine::Scan,
        ] {
            let (idx, _) = build_engine(e, &data).unwrap();
            assert_eq!(idx.len(), data.len());
            let mut answers = Vec::new();
            for q in &wl.queries {
                let mut a = idx.box_query(q).unwrap();
                a.sort_unstable();
                answers.push(a);
            }
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(r, &answers, "{} disagrees", e.name()),
            }
        }
    }

    #[test]
    fn normalization_puts_scan_at_point_one() {
        let data = uniform(2000, 4, 3);
        let wl = BoxWorkload::calibrated(&data, 8, 0.01, 4);
        let rows = compare_box(&[Engine::Hybrid], &data, &wl.queries).unwrap();
        let scan = rows.iter().find(|r| r.engine == "seq-scan").unwrap();
        assert!(
            (scan.normalized_io - 0.1).abs() < 1e-9,
            "scan normalized io = {}",
            scan.normalized_io
        );
        assert!((scan.normalized_cpu - 1.0).abs() < 1e-9);
        let hybrid = rows.iter().find(|r| r.engine == "hybrid").unwrap();
        assert!(hybrid.normalized_io > 0.0);
        assert!(hybrid.avg_results > 0.0);
    }

    fn mixed_batch(data: &[Point], n: usize) -> Vec<Query> {
        let wl = BoxWorkload::calibrated(data, n, 0.02, 7);
        wl.queries
            .iter()
            .enumerate()
            .map(|(i, q)| match i % 3 {
                0 => Query::Box(q.clone()),
                1 => Query::Range {
                    q: data[i].clone(),
                    radius: 0.4,
                },
                _ => Query::Knn {
                    q: data[i].clone(),
                    k: 5,
                    epsilon: 0.0,
                },
            })
            .collect()
    }

    /// Runs `batch` with no limits on `threads` workers.
    fn unlimited(
        idx: &dyn MultidimIndex,
        batch: &[Query],
        threads: usize,
    ) -> IndexResult<Vec<(QueryOutcome<Answer>, IoStats)>> {
        run_batch(idx, &L1, batch, threads, QueryContext::unlimited())
    }

    #[test]
    fn parallel_batch_matches_serial_bit_for_bit() {
        let data = uniform(3000, 4, 11);
        let (idx, _) = build_engine(Engine::Hybrid, &data).unwrap();
        let batch = mixed_batch(&data, 30);
        let serial = unlimited(idx.as_ref(), &batch, 1).unwrap();
        assert!(serial.iter().all(|(o, _)| o.is_complete()));
        for threads in [2, 4, 7] {
            let parallel = unlimited(idx.as_ref(), &batch, threads).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (i, ((s, s_io), (p, p_io))) in serial.iter().zip(&parallel).enumerate() {
                let (s, p) = (s.results(), p.results());
                assert_eq!(
                    s.oids, p.oids,
                    "query {i} answers differ at {threads} threads"
                );
                assert_eq!(s.distances, p.distances, "query {i} distances differ");
                assert_eq!(
                    s_io.logical_reads, p_io.logical_reads,
                    "query {i} logical reads differ at {threads} threads"
                );
                assert_eq!(s_io.seq_reads, p_io.seq_reads);
            }
            let st = total_io(&serial);
            let pt = total_io(&parallel);
            assert_eq!(st.logical_reads, pt.logical_reads);
            assert_eq!(st.seq_reads, pt.seq_reads);
        }
    }

    #[test]
    fn batch_runner_covers_all_engines() {
        let data = uniform(800, 3, 13);
        for e in [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan] {
            let (idx, _) = build_engine(e, &data).unwrap();
            let batch = mixed_batch(&data, 9);
            let serial = unlimited(idx.as_ref(), &batch, 1).unwrap();
            let parallel = unlimited(idx.as_ref(), &batch, 3).unwrap();
            assert_eq!(serial, parallel, "{} batch differs", e.name());
        }
    }

    #[test]
    fn batch_errors_surface_from_workers() {
        let data = uniform(400, 3, 17);
        // hB-tree rejects distance queries; the error must propagate out
        // of the worker pool, not panic it.
        let (idx, _) = build_engine(Engine::Hb, &data).unwrap();
        let range = Query::Range {
            q: data[0].clone(),
            radius: 0.3,
        };
        let batch = vec![range; 6];
        let err = unlimited(idx.as_ref(), &batch, 3).unwrap_err();
        assert!(matches!(err, hyt_index::IndexError::Unsupported(_)));
    }

    #[test]
    fn empty_workloads_cost_nothing() {
        let data = uniform(300, 3, 19);
        let (idx, _) = build_engine(Engine::Hybrid, &data).unwrap();
        for cost in [
            run_box_queries(idx.as_ref(), &[]).unwrap(),
            run_distance_queries(idx.as_ref(), &[], 0.3, &L1).unwrap(),
        ] {
            assert_eq!(cost.avg_accesses, 0.0);
            assert_eq!(cost.avg_cpu, Duration::ZERO);
            assert_eq!(cost.avg_results, 0.0);
        }
    }

    #[test]
    fn build_engine_rejects_empty_dataset() {
        // Regression: `build_engine` used to panic on `data[0]` when the
        // dataset was empty; it must be a typed error for every engine.
        for e in [
            Engine::Hybrid,
            Engine::HybridBulk,
            Engine::Hb,
            Engine::Sr,
            Engine::Kdb,
            Engine::Scan,
        ] {
            match build_engine(e, &[]) {
                Err(IndexError::EmptyDataset(_)) => {}
                Err(other) => panic!("{}: wrong error {other}", e.name()),
                Ok(_) => panic!("{}: built from an empty dataset", e.name()),
            }
        }
    }

    #[test]
    fn governed_batch_expired_deadline_degrades_everything() {
        let data = uniform(2000, 4, 29);
        let (idx, _) = build_engine(Engine::Hybrid, &data).unwrap();
        let batch = mixed_batch(&data, 12);
        let ctx = QueryContext::default().with_timeout(Duration::ZERO);
        let answers = run_batch(idx.as_ref(), &L1, &batch, 4, &ctx).unwrap();
        assert_eq!(answers.len(), batch.len());
        for a in &answers {
            assert_eq!(
                a.0.degrade_reason(),
                Some(DegradeReason::DeadlineExceeded),
                "{a:?}"
            );
        }
    }

    #[test]
    fn governed_batch_cancel_degrades_with_cancelled() {
        let data = uniform(1500, 4, 31);
        let (idx, _) = build_engine(Engine::Sr, &data).unwrap();
        let batch = mixed_batch(&data, 9);
        let token = CancelToken::new();
        token.cancel();
        let ctx = QueryContext::default().with_cancel(token);
        let answers = run_batch(idx.as_ref(), &L1, &batch, 3, &ctx).unwrap();
        for (o, _) in &answers {
            assert_eq!(o.degrade_reason(), Some(DegradeReason::Cancelled));
        }
    }

    #[test]
    fn governed_batch_read_budget_yields_partial_subsets() {
        let data = uniform(4000, 4, 37);
        let (idx, _) = build_engine(Engine::Hybrid, &data).unwrap();
        let wl = BoxWorkload::calibrated(&data, 6, 0.2, 41);
        let batch: Vec<Query> = wl.queries.iter().cloned().map(Query::Box).collect();
        let full = unlimited(idx.as_ref(), &batch, 1).unwrap();
        let ctx = QueryContext::default().with_max_reads(2);
        let governed = run_batch(idx.as_ref(), &L1, &batch, 2, &ctx).unwrap();
        let mut saw_degraded = false;
        for ((f, _), (g, g_io)) in full.iter().zip(&governed) {
            assert!(f.is_complete());
            // Partial box answers are true subsets of the full answer.
            let full_oids = &f.results().oids;
            assert!(g.results().oids.iter().all(|o| full_oids.contains(o)));
            assert!(g_io.logical_reads + g_io.seq_reads <= 2);
            if let Some(r) = g.degrade_reason() {
                assert_eq!(r, DegradeReason::BudgetExhausted);
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "a 2-read budget should degrade some query");
    }

    #[test]
    fn distance_compare_skips_hb() {
        let data = uniform(800, 3, 5);
        let centers: Vec<_> = data[..5].to_vec();
        let rows = compare_distance(
            &[Engine::Hybrid, Engine::Hb, Engine::Sr],
            &data,
            &centers,
            0.3,
            &L1,
        )
        .unwrap();
        assert!(rows.iter().any(|r| r.engine == "hybrid"));
        assert!(rows.iter().any(|r| r.engine == "sr-tree"));
        assert!(
            !rows.iter().any(|r| r.engine == "hb-tree"),
            "hB-tree must be skipped for distance queries (paper §4)"
        );
    }
}
