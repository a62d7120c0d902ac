//! Chaos suite for governed query execution: concurrent governed
//! batches against a fault-injected tree, with transient read failures,
//! random cancellation, and tight deadlines all firing at once.
//!
//! Invariants demanded throughout:
//!
//! * no panic and no hang (a watchdog bounds the whole run);
//! * every query returns a typed outcome — `Complete`, or `Degraded` by
//!   a limit or by exhausted retries — never a corruption error
//!   from a *transient* fault;
//! * every `Complete` outcome is bit-identical to the unfaulted serial
//!   answer for that query;
//! * after the chaos, the tree's invariants still verify and an
//!   unfaulted serial run reproduces the reference answers exactly.

use hybridtree_repro::core::{HybridTree, HybridTreeConfig};
use hybridtree_repro::eval::run_batch;
use hybridtree_repro::geom::{Point, Rect, L2};
use hybridtree_repro::index::{
    Answer, CancelToken, DegradeReason, MultidimIndex, Query, QueryContext, QueryOutcome,
};
use hybridtree_repro::page::{
    ChecksumStorage, FaultScript, FaultStorage, IoStats, MemStorage, FRAME_HEADER_BYTES,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

type ChaosStack = ChecksumStorage<FaultStorage<MemStorage>>;
/// One query's outcome and I/O, as `run_batch` returns it.
type Batched = (QueryOutcome<Answer>, IoStats);

const DIM: usize = 4;
const N_POINTS: usize = 3_000;
const ROUNDS: usize = 8;
/// Upper bound on the whole chaos phase; tripping it means a hang.
const WATCHDOG: Duration = Duration::from_secs(90);

fn build_tree() -> (Arc<HybridTree<ChaosStack>>, Arc<FaultScript>, Vec<Point>) {
    let cfg = HybridTreeConfig {
        page_size: 512,
        ..HybridTreeConfig::default()
    };
    let mem = MemStorage::with_page_size(cfg.page_size + FRAME_HEADER_BYTES);
    let (faulty, script) = FaultStorage::new(mem);
    let storage = ChecksumStorage::new(faulty);
    let mut tree = HybridTree::with_storage(DIM, cfg, storage).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBADC0DE);
    let pts: Vec<Point> = (0..N_POINTS)
        .map(|_| Point::new((0..DIM).map(|_| rng.gen::<f32>()).collect()))
        .collect();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    (Arc::new(tree), script, pts)
}

fn mixed_batch(pts: &[Point], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let c = pts[rng.gen_range(0..pts.len())].clone();
            match i % 3 {
                0 => {
                    let half = 0.05 + rng.gen::<f64>() * 0.2;
                    let lo: Vec<f32> = c.coords().iter().map(|&x| x - half as f32).collect();
                    let hi: Vec<f32> = c.coords().iter().map(|&x| x + half as f32).collect();
                    Query::Box(Rect::new(lo, hi))
                }
                1 => Query::Range {
                    q: c,
                    radius: 0.2 + rng.gen::<f64>() * 0.3,
                },
                _ => Query::Knn {
                    q: c,
                    k: rng.gen_range(1..13),
                    epsilon: 0.0,
                },
            }
        })
        .collect()
}

#[test]
fn chaos_concurrent_governed_batches_survive_fault_load() {
    let (tree, script, pts) = build_tree();
    let batch = mixed_batch(&pts, 48, 0x5EED);

    // Reference answers: unfaulted, serial, ungoverned.
    let reference = unlimited(tree.as_ref(), &batch);

    // The chaos phase runs in its own thread so the test thread can act
    // as a watchdog: a hang anywhere fails the test instead of wedging
    // the suite.
    let (done_tx, done_rx) = mpsc::channel::<Result<(), String>>();
    let chaos_tree = Arc::clone(&tree);
    let chaos_script = Arc::clone(&script);
    let chaos_batch = batch.clone();
    let chaos_reference = reference.clone();
    std::thread::spawn(move || {
        let verdict = chaos_rounds(&chaos_tree, &chaos_script, &chaos_batch, &chaos_reference);
        let _ = done_tx.send(verdict);
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => panic!("chaos round failed: {msg}"),
        Err(_) => panic!("chaos phase hung past the {WATCHDOG:?} watchdog"),
    }

    // Scrub-clean afterwards: invariants hold and an unfaulted serial
    // re-run reproduces the reference answers bit for bit.
    script.disarm();
    tree.check_invariants().unwrap();
    let after = unlimited(tree.as_ref(), &batch);
    for (i, (a, r)) in after.iter().zip(&reference).enumerate() {
        let (a, r) = (a.0.results(), r.0.results());
        assert_eq!(a.oids, r.oids, "query {i} answers drifted after chaos");
        assert_eq!(a.distances, r.distances, "query {i} distances drifted");
    }
}

/// The retry contract of a batch: the pool retries a transient read up
/// to 3 times, and a fault that outlasts those retries turns the query
/// into an empty `RetriesExhausted` answer without touching the next.
#[test]
fn transient_faults_retry_in_the_pool_then_degrade_one_query() {
    let cfg = HybridTreeConfig {
        page_size: 512,
        ..HybridTreeConfig::default()
    };
    let (storage, script) = FaultStorage::new(MemStorage::with_page_size(cfg.page_size));
    let mut tree = HybridTree::with_storage(DIM, cfg, storage).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7E7);
    for i in 0..2_000u64 {
        let p = Point::new((0..DIM).map(|_| rng.gen::<f32>()).collect());
        tree.insert(p, i).unwrap();
    }
    let batch = vec![
        Query::Box(Rect::new(vec![0.1; DIM], vec![0.5; DIM])),
        Query::Box(Rect::new(vec![0.4; DIM], vec![0.9; DIM])),
    ];
    let ctx = QueryContext::unlimited();
    let clean = run_batch(&tree, &L2, &batch, 1, ctx).unwrap();

    script.fail_next_reads(3);
    let absorbed = run_batch(&tree, &L2, &batch, 1, ctx).unwrap();
    assert!(absorbed[0].0.is_complete());
    assert_eq!(absorbed[0].1.retried_reads, 3);
    assert_eq!(absorbed[0].0.results(), clean[0].0.results());

    script.fail_next_reads(4);
    let exhausted = run_batch(&tree, &L2, &batch, 1, ctx).unwrap();
    assert_eq!(
        exhausted[0].0.degrade_reason(),
        Some(DegradeReason::RetriesExhausted)
    );
    assert!(exhausted[0].0.results().oids.is_empty());
    assert_eq!(exhausted[0].1, IoStats::default());
    assert_eq!(exhausted[1].0.results(), clean[1].0.results());
    assert!(exhausted[1].0.is_complete());
}

/// Runs `batch` serially with no limits; every query must
/// complete.
fn unlimited(tree: &HybridTree<ChaosStack>, batch: &[Query]) -> Vec<Batched> {
    let answers = run_batch(tree, &L2, batch, 1, QueryContext::unlimited()).unwrap();
    for (i, (o, _)) in answers.iter().enumerate() {
        assert_eq!(o.degrade_reason(), None, "query {i}");
    }
    answers
}

/// One full chaos campaign: `ROUNDS` governed parallel batches, each
/// under a different mix of fault load, cancellation and deadline
/// pressure.
fn chaos_rounds(
    tree: &HybridTree<ChaosStack>,
    script: &Arc<FaultScript>,
    batch: &[Query],
    reference: &[Batched],
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let mut complete = 0usize;
    let mut non_complete = 0usize;
    for round in 0..ROUNDS {
        let token = CancelToken::new();
        // Rotate the pressure: some rounds squeeze wall time, some
        // squeeze reads, some only face faults.
        let ctx = QueryContext {
            deadline: (round % 3 == 1)
                .then(|| Instant::now() + Duration::from_millis(rng.gen_range(1..40))),
            cancel: Some(token.clone()),
            max_logical_reads: (round % 3 == 2).then(|| rng.gen_range(1..30)),
        };

        // Fault injector: bursts of transient read failures while the
        // batch runs, plus one random cancel in cancel-heavy rounds.
        script.fail_next_reads(rng.gen_range(1..20));
        let stop_chaos = CancelToken::new();
        let injector = {
            let script = Arc::clone(script);
            let stop = stop_chaos.clone();
            let cancel_after: Option<u64> = (round % 4 == 3).then(|| rng.gen_range(1..25));
            let token = token.clone();
            let burst: u64 = rng.gen_range(1..12);
            std::thread::spawn(move || {
                let mut waited = 0u64;
                while !stop.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                    waited += 2;
                    script.fail_next_reads(burst);
                    if cancel_after.is_some_and(|at| waited >= at) {
                        token.cancel();
                    }
                }
            })
        };

        let got = run_batch(tree, &L2, batch, 4, &ctx);
        stop_chaos.cancel();
        injector
            .join()
            .map_err(|_| "injector panicked".to_string())?;
        script.disarm();

        let answers = got.map_err(|e| format!("round {round}: hard error {e}"))?;
        if answers.len() != batch.len() {
            return Err(format!(
                "round {round}: {} answers for {} queries",
                answers.len(),
                batch.len()
            ));
        }
        for (i, ((g, _), (r, _))) in answers.iter().zip(reference).enumerate() {
            match g {
                QueryOutcome::Complete(g) => {
                    complete += 1;
                    // Complete outcomes must be bit-identical to the
                    // unfaulted serial answers, whatever chaos ran.
                    let r = r.results();
                    if g.oids != r.oids || g.distances != r.distances {
                        return Err(format!(
                            "round {round} query {i}: Complete answer differs from reference"
                        ));
                    }
                }
                QueryOutcome::Degraded { .. } => non_complete += 1,
            }
        }
    }
    // The campaign must exercise both sides: governance that bites
    // (degraded outcomes exist) and recovery that works (complete
    // outcomes exist despite the fault load).
    if complete == 0 {
        return Err("no query ever completed under chaos".into());
    }
    if non_complete == 0 {
        return Err("chaos never degraded a single query — injection inert".into());
    }
    Ok(())
}
