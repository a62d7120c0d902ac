//! The traced run: per-layer numbers from the benchmark's own wrappers.
//!
//! Three trees run the same fixed script (the first [`TRACE_QUERIES`]
//! queries of each kind, and the whole write script):
//!
//! * the *reference*: the untraced durable tree, set up as in the
//!   measured run. It gives the public counters (`IoStats`,
//!   `cache_stats()`, `structure_stats()`) and the untraced query times;
//! * the *timing tree*: `Traced<ChecksumStorage<Traced<FileStorage>>>`
//!   with the workload's cache setting, queried through counting
//!   metrics. It gives storage, checksum, navigation and metric times;
//! * the *identity tree*: the same stack with the cache off and every
//!   page read captured. It tells which pages a query read, which the
//!   decoded-node cache would hide, and feeds the decode replay.
//!
//! All three must give the reference's answers and logical reads.

use crate::inputs::Inputs;
use crate::oracle::{Expected, Oracle};
use crate::probe::{Counting, Traced};
use crate::run::{
    self, ask, correct, verify_writes, After, Answer, Env, Instruments, OpKind, QueryKind, Rec,
    Result, Snap, Tally, QUERY_KINDS,
};
use hybrid_tree::{HybridTree, Node, NodeView};
use hyt_geom::{Metric, L1, L2};
use hyt_index::MultidimIndex;
use hyt_page::{ChecksumStorage, FileStorage, Storage, FRAME_HEADER_BYTES};
use std::time::Instant;

/// Queries of each kind in the traced script.
pub const TRACE_QUERIES: usize = 128;
/// Pages kept for the decode replay.
const REPLAY_PAGES: usize = 2048;

type TracedStack<'a> = Traced<'a, ChecksumStorage<Traced<'a, FileStorage>>>;

/// Builds by inserts over the traced stack and commits, like
/// [`run::setup`] minus the reopen (a custom stack cannot be reopened).
fn traced_build<'a>(
    env: &Env,
    tag: &str,
    cache_entries: usize,
    ins: &'a Instruments,
) -> Result<HybridTree<TracedStack<'a>>> {
    let cfg = run::config(cache_entries);
    let file = FileStorage::create(env.pages(tag), cfg.page_size + FRAME_HEADER_BYTES)?;
    let storage = Traced::new(
        ChecksumStorage::new(Traced::new(file, &ins.inner)),
        &ins.outer,
    );
    let mut tree = HybridTree::with_storage(env.inputs.dim, cfg, storage)?;
    run::insert_base(&mut tree, env.inputs)?;
    tree.persist(env.meta(tag))?;
    Ok(tree)
}

fn read_list<S: Storage>(
    tree: &HybridTree<S>,
    inputs: &Inputs,
    (l1, l2): (&dyn Metric, &dyn Metric),
    ins: &Instruments,
    after: After,
    recs: &mut Vec<Rec>,
) {
    for i in 0..TRACE_QUERIES {
        for kind in QUERY_KINDS {
            let before = ins.snap();
            let t = Instant::now();
            let r = ask(tree, inputs, kind, i, l1, l2);
            let ns = t.elapsed().as_nanos() as u64;
            let delta = ins.snap().since(before);
            let ok = r.is_ok();
            let (answer, reads) = r.unwrap_or((Answer::Done, 0));
            let mut rec = Rec {
                op: OpKind::Query(kind, i),
                write_phase: false,
                ns,
                reads,
                delta,
                answer,
                ok,
            };
            after(&mut rec);
            recs.push(rec);
        }
    }
}

/// The fixed script, in the workload's phase order.
fn script<S: Storage>(
    tree: &mut HybridTree<S>,
    env: &Env,
    tag: &str,
    metrics: (&dyn Metric, &dyn Metric),
    ins: &Instruments,
    after: After,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    if env.spec.writes_first {
        recs = run::write_phase(tree, env, &env.meta(tag), metrics.1, ins, &mut *after);
        read_list(tree, env.inputs, metrics, ins, after, &mut recs);
    } else {
        read_list(tree, env.inputs, metrics, ins, &mut *after, &mut recs);
        recs.extend(run::write_phase(
            tree,
            env,
            &env.meta(tag),
            metrics.1,
            ins,
            after,
        ));
    }
    recs
}

/// Sums over the records `pick` selects.
#[derive(Default)]
struct Agg {
    n: u64,
    ns: u64,
    reads: u64,
    d: Snap,
}

fn agg(recs: &[Rec], pick: impl Fn(&Rec) -> bool) -> Agg {
    let mut a = Agg::default();
    for r in recs.iter().filter(|r| pick(r)) {
        a.n += 1;
        a.ns += r.ns;
        a.reads += r.reads;
        a.d.add(r.delta);
    }
    a
}

fn read_query(kind: QueryKind) -> impl Fn(&Rec) -> bool {
    move |r| !r.write_phase && matches!(r.op, OpKind::Query(k, _) if k == kind)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Data pages a query read, and how many of them held a result.
#[derive(Default)]
struct Leaves {
    read: u64,
    useful: u64,
}

/// Times `Node::decode` and `NodeView::parse` over captured pages.
fn replay(pages: &[Vec<u8>], dim: usize) -> (f64, f64, f64) {
    const REPEATS: u32 = 3;
    let (mut index, mut data) = ((0u64, 0u64), (0u64, 0u64));
    let mut parse_ns = 0u64;
    for buf in pages {
        let t = Instant::now();
        for _ in 0..REPEATS {
            std::hint::black_box(NodeView::parse(std::hint::black_box(buf), dim).is_ok());
        }
        parse_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mut is_data = false;
        for _ in 0..REPEATS {
            let node = Node::decode(std::hint::black_box(buf), dim);
            is_data = matches!(node, Ok(Node::Data(_)));
            std::hint::black_box(node.is_ok());
        }
        let ns = t.elapsed().as_nanos() as u64;
        let slot = if is_data { &mut data } else { &mut index };
        slot.0 += ns;
        slot.1 += 1;
    }
    let per = |(ns, n): (u64, u64)| ratio(ns as f64, n as f64 * f64::from(REPEATS)) / 1e3;
    (per(index), per(data), per((parse_ns, pages.len() as u64)))
}

/// Checks a run's records against another's: same operations, answers
/// and logical reads. Returns the number of mismatches.
fn mismatches(a: &[Rec], b: &[Rec]) -> u64 {
    if a.len() != b.len() {
        return a.len().max(b.len()) as u64;
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.op != y.op || x.answer != y.answer || x.reads != y.reads || !y.ok)
        .count() as u64
}

/// Runs the traced script and returns the per-layer metrics.
pub fn traced(env: &Env, tally: &mut Tally) -> Result<Vec<(&'static str, f64)>> {
    let inputs = env.inputs;
    let no_probe = Instruments::default();

    // Reference: untraced, set up as the measured run serves it.
    let setup = run::setup(env, "ref")?;
    let cache_entries = setup.cache_entries;
    let mut reference = setup.tree;
    reference.reset_io_stats();
    let mut ref_recs = script(
        &mut reference,
        env,
        "ref",
        (&L1, &L2),
        &no_probe,
        &mut |_| {},
    );
    let cache = reference.cache_stats();
    drop(reference);

    // Check the reference against the oracle, in script order.
    let mut oracle = Oracle::new(&inputs.points, inputs.base);
    if env.spec.writes_first {
        verify_writes(&mut oracle, inputs, &mut ref_recs);
    }
    let exp = Expected::compute(&oracle, inputs);
    for r in ref_recs.iter_mut().filter(|r| !r.write_phase) {
        if let OpKind::Query(kind, i) = r.op {
            r.ok &= correct(&oracle, &exp, inputs, kind, i, &r.answer);
        }
    }
    if !env.spec.writes_first {
        verify_writes(&mut oracle, inputs, &mut ref_recs);
    }
    for r in &ref_recs {
        tally.record(r.ok);
    }
    let (_, durable) = run::durable_check(env, "ref", cache_entries, &oracle)?;
    tally.record(durable);

    // Timing tree: the workload's cache setting, every layer timed.
    let tim = Instruments::default();
    let mut tree = traced_build(env, "tim", cache_entries, &tim)?;
    let (c1, c2) = (
        Counting::new(L1, &tim.metric),
        Counting::new(L2, &tim.metric),
    );
    let tim_recs = script(&mut tree, env, "tim", (&c1, &c2), &tim, &mut |_| {});
    drop(tree);

    // Identity tree: cache off, every page read captured.
    let idn = Instruments::default();
    let mut tree = traced_build(env, "idn", 0, &idn)?;
    idn.outer.start_capture();
    let (mut boxes, mut ranges) = (Leaves::default(), Leaves::default());
    let mut sample: Vec<Vec<u8>> = Vec::new();
    let dim = inputs.dim;
    let id_recs = script(&mut tree, env, "idn", (&L1, &L2), &idn, &mut |rec| {
        let pages = idn.outer.take_captured();
        if let (
            false,
            OpKind::Query(kind @ (QueryKind::Box | QueryKind::Range), _),
            Answer::Oids(v),
        ) = (rec.write_phase, rec.op, &rec.answer)
        {
            let mut hits = v.clone();
            hits.sort_unstable();
            let leaves = if kind == QueryKind::Box {
                &mut boxes
            } else {
                &mut ranges
            };
            for buf in &pages {
                if let Ok(Node::Data(entries)) = Node::decode(buf, dim) {
                    leaves.read += 1;
                    if entries.iter().any(|e| hits.binary_search(&e.oid).is_ok()) {
                        leaves.useful += 1;
                    }
                }
            }
        }
        let room = REPLAY_PAGES.saturating_sub(sample.len());
        sample.extend(pages.into_iter().take(room));
    });
    drop(tree);

    for recs in [&tim_recs, &id_recs] {
        let bad = mismatches(&ref_recs, recs);
        tally.attempted += recs.len() as u64;
        tally.failed += bad;
    }

    // Per-layer numbers.
    let all = agg(&tim_recs, |_| true);
    let reads_all = agg(&tim_recs, |r| !r.write_phase);
    let writes = agg(&tim_recs, |r| r.write_phase);
    let inserts = agg(&tim_recs, |r| r.op == OpKind::Insert);
    let commits = agg(&tim_recs, |r| r.op == OpKind::Commit);
    let [t_box, t_range, t_knn] = QUERY_KINDS.map(|k| agg(&tim_recs, read_query(k)));
    let [r_box, r_range, r_knn] = QUERY_KINDS.map(|k| agg(&ref_recs, read_query(k)));
    let ref_reads = agg(&ref_recs, |r| !r.write_phase);
    let user_bytes = (inserts.n * (4 * dim as u64 + 8)) as f64;
    let nav_self = |a: &Agg| {
        ratio(
            a.ns as f64 - a.d.outer.busy_ns() as f64 - a.d.metric.ns as f64,
            a.n as f64,
        ) / 1e3
    };
    let (decode_index, decode_data, view_parse) = replay(&sample, dim);
    let s = &setup.structure;
    let o = all.d.outer;
    let i = all.d.inner;
    let m = reads_all.d.metric;

    Ok(vec![
        (
            "page.checksum_read_us",
            ratio((o.read_ns - i.read_ns) as f64, o.reads as f64) / 1e3,
        ),
        (
            "page.file_read_us",
            ratio(i.read_ns as f64, i.reads as f64) / 1e3,
        ),
        (
            "page.storage_busy_frac",
            ratio(reads_all.d.outer.read_ns as f64, reads_all.ns as f64),
        ),
        (
            "page.storage_reads_per_query",
            ratio(reads_all.d.outer.reads as f64, reads_all.n as f64),
        ),
        (
            "page.reads_per_box",
            ratio(r_box.reads as f64, r_box.n as f64),
        ),
        (
            "page.reads_per_range",
            ratio(r_range.reads as f64, r_range.n as f64),
        ),
        (
            "page.reads_per_knn",
            ratio(r_knn.reads as f64, r_knn.n as f64),
        ),
        ("page.cache_hit_rate", cache.hit_rate()),
        ("page.cache_evictions", cache.evictions as f64),
        ("page.cache_invalidations", cache.invalidations as f64),
        (
            "page.writes_per_insert",
            ratio(inserts.d.inner.writes as f64, inserts.n as f64),
        ),
        (
            "page.checksum_write_us",
            ratio(
                (writes.d.outer.write_ns - writes.d.inner.write_ns) as f64,
                writes.d.outer.writes as f64,
            ) / 1e3,
        ),
        (
            "page.file_write_us",
            ratio(writes.d.inner.write_ns as f64, writes.d.inner.writes as f64) / 1e3,
        ),
        (
            "page.bytes_written_per_user_byte",
            ratio(writes.d.inner.write_bytes as f64, user_bytes),
        ),
        (
            "page.sync_ms",
            ratio(commits.d.outer.sync_ns as f64, commits.d.outer.syncs as f64) / 1e6,
        ),
        ("core.decode_index_us", decode_index),
        ("core.decode_data_us", decode_data),
        ("core.view_parse_us", view_parse),
        ("core.nav_self_us_per_knn", nav_self(&t_knn)),
        ("core.nav_self_us_per_range", nav_self(&t_range)),
        (
            "core.useful_leaf_frac_box",
            ratio(boxes.useful as f64, boxes.read as f64),
        ),
        (
            "core.useful_leaf_frac_range",
            ratio(ranges.useful as f64, ranges.read as f64),
        ),
        ("core.insert_self_us", nav_self(&inserts)),
        ("core.height", s.height as f64),
        ("core.avg_fanout", s.avg_fanout),
        ("core.leaf_util", s.avg_leaf_utilization),
        ("core.els_bytes", setup.els_bytes as f64),
        ("core.build_s", setup.build_s),
        ("core.persist_ms", setup.persist_s * 1e3),
        ("core.open_ms", setup.open_s * 1e3),
        (
            "geom.dist_evals_per_knn",
            ratio(t_knn.d.metric.dist as f64, t_knn.n as f64),
        ),
        (
            "geom.dist_evals_per_range",
            ratio(t_range.d.metric.dist as f64, t_range.n as f64),
        ),
        (
            "geom.rect_bounds_per_knn",
            ratio(t_knn.d.metric.rect as f64, t_knn.n as f64),
        ),
        (
            "geom.early_abandon_frac",
            ratio(m.abandoned as f64, m.within as f64),
        ),
        (
            "geom.metric_us_per_knn",
            ratio(t_knn.d.metric.ns as f64, t_knn.n as f64) / 1e3,
        ),
        (
            "trace.overhead_frac",
            ratio(
                (t_box.ns + t_range.ns + t_knn.ns) as f64,
                ref_reads.ns as f64,
            ) - 1.0,
        ),
    ])
}
