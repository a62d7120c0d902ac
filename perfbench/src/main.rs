//! Benchmark of the durable hybrid tree (`HybridTree<DurableStorage>`,
//! the stack `hyt build/knn/batch` serve), driven through its public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs a fixed script on traced trees and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; progress
//! and checks go to standard error. See `perfbench/README.md`.

mod inputs;
mod oracle;
mod probe;
mod report;
mod run;
mod trace;
mod worker;

use inputs::{Spec, WORKLOADS};
use oracle::{Expected, Oracle};
use run::{Env, Instruments, OpKind, Result, Samples, Tally};
use std::path::PathBuf;
use std::time::Instant;
use worker::{Job, WORKERS};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    /// The arguments as given, handed on to worker processes.
    argv: Vec<String>,
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    /// Set in a worker process (see `worker.rs`).
    worker: Option<Job>,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let num = |flag: &str| -> std::result::Result<f64, String> {
        need(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    let scale = get("--scale").map_or(Ok(1.0), |_| num("--scale"))?;
    if !(seconds > 0.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be positive and --scale in (0, 1]".into());
    }
    let worker = match argv.iter().position(|a| a == "--worker") {
        Some(at) => Some(Job::parse(argv.get(at + 1..at + 6).unwrap_or_default())?),
        None => None,
    };
    Ok(Args {
        argv: argv.clone(),
        worker,
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        scale,
    })
}

/// Logs how long a step took, to standard error.
fn took(what: &str, t: Instant) {
    eprintln!("{what}: {:.2}s", t.elapsed().as_secs_f64());
}

/// Logs the achieved mean selectivity against the paper's target.
fn log_selectivity(exp: &Expected, live: usize, spec: &Spec) {
    let (b, r) = exp.selectivity(live);
    eprintln!(
        "selectivity: box {:.4}% range {:.4}% (target {:.4}%)",
        b * 100.0,
        r * 100.0,
        spec.selectivity * 100.0
    );
}

/// The median of a non-empty list; the mean of the middle two for an even
/// length.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// The measured run: set up [`SETUPS`] times, then the read, mix and
/// write phases with no instrumentation.
fn measured(env: &Env, args: &Args, tally: &mut Tally) -> Result<Vec<(&'static str, f64)>> {
    let seconds = args.seconds;
    let (spec, inputs) = (env.spec, env.inputs);
    let mut setup_s = Vec::new();
    let mut last = None;
    for r in 0..SETUPS {
        drop(last.take()); // close the previous tree before building the next
        let s = run::setup(env, &format!("setup{r}"))?;
        setup_s.push(s.total_s());
        last = Some(s);
    }
    eprintln!("setups: {setup_s:?}");
    let setup = last.expect("at least one set-up");
    let tag = format!("setup{}", SETUPS - 1);
    let mut tree = setup.tree;
    let cache_entries = setup.cache_entries;
    let mut oracle = Oracle::new(&inputs.points, inputs.base);
    // Shares of `--seconds` for the read and mix phases, split over the
    // worker processes.
    let job = |read: f64, mix: f64| Job {
        dir: env.dir.clone(),
        tag: tag.clone(),
        cache_entries,
        read_s: seconds * read / WORKERS as f64,
        mix_s: seconds * mix / WORKERS as f64,
    };

    let no_probe = Instruments::default();
    let (write_recs, pooled) = if spec.writes_first {
        let t = Instant::now();
        let mut recs = run::write_phase(
            &mut tree,
            env,
            &env.meta(&tag),
            &hyt_geom::L2,
            &no_probe,
            &mut |_| {},
        );
        took("write phase", t);
        let rest = (seconds - t.elapsed().as_secs_f64()).max(0.3 * seconds) / seconds;
        drop(tree);
        let t = Instant::now();
        run::verify_writes(&mut oracle, inputs, &mut recs);
        let (_, durable) = run::durable_check(env, &tag, cache_entries, &oracle)?;
        tally.record(durable);
        let exp = Expected::compute(&oracle, inputs);
        took("verify, reopen, oracle", t);
        log_selectivity(&exp, oracle.len(), spec);
        let job = job(rest * 0.65, rest * 0.35);
        let pooled = worker::run_workers(&args.argv, &job, &oracle, &exp, inputs, tally)?;
        (recs, pooled)
    } else {
        let t = Instant::now();
        let exp = Expected::compute(&oracle, inputs);
        took("oracle", t);
        log_selectivity(&exp, inputs.base, spec);
        let t = Instant::now();
        let job = job(0.65, 0.2);
        let pooled = worker::run_workers(&args.argv, &job, &oracle, &exp, inputs, tally)?;
        took("read and mix phases", t);
        let t = Instant::now();
        let mut recs = run::write_phase(
            &mut tree,
            env,
            &env.meta(&tag),
            &hyt_geom::L2,
            &no_probe,
            &mut |_| {},
        );
        took("write phase", t);
        drop(tree);
        let t = Instant::now();
        run::verify_writes(&mut oracle, inputs, &mut recs);
        let (_, durable) = run::durable_check(env, &tag, cache_entries, &oracle)?;
        tally.record(durable);
        took("verify, reopen", t);
        (recs, pooled)
    };

    // Write-phase latencies; its kNN answers are checked but not timed
    // into a metric (that phase runs in one process).
    let (mut inserts, mut deletes, mut commits) = Default::default();
    for r in &write_recs {
        tally.record(r.ok);
        let slot: &mut Samples = match r.op {
            OpKind::Insert => &mut inserts,
            OpKind::Delete => &mut deletes,
            OpKind::Commit => &mut commits,
            OpKind::Query(..) => continue,
        };
        slot.push_ns(r.ns);
    }
    let [boxes, ranges, knn] = pooled.lat;
    let qps = pooled.mix_qps;
    eprintln!(
        "distinct queries timed: box {}, range {}, knn {}; inserts {}; commits {}; mix_qps {qps:.1}",
        boxes.len(),
        ranges.len(),
        knn.len(),
        inserts.len(),
        commits.len()
    );

    Ok(vec![
        ("setup_s", median(setup_s)),
        ("box_p50_us", boxes.pct(0.5)),
        ("box_p99_us", boxes.pct(0.99)),
        ("range_p50_us", ranges.pct(0.5)),
        ("range_p99_us", ranges.pct(0.99)),
        ("knn_p50_us", knn.pct(0.5)),
        ("knn_p99_us", knn.pct(0.99)),
        ("mix_qps", qps),
        ("insert_p50_us", inserts.pct(0.5)),
        ("insert_p99_us", inserts.pct(0.99)),
        ("delete_p50_us", deletes.pct(0.5)),
        ("commit_p50_ms", commits.pct(0.5) / 1e3),
        (
            "bytes_per_user_byte",
            run::bytes_per_user_byte(env, &tag, oracle.len())?,
        ),
        ("peak_rss_mb", pooled.peak_rss_mb),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = args.workload;
    if let Some(job) = &args.worker {
        if let Err(e) = worker::serve(spec, args.seed, args.scale, job) {
            eprintln!("worker error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let t = Instant::now();
    let inputs = inputs::generate(spec, args.seed, args.scale);
    eprintln!(
        "{}: {} base points, {} write ops, box side {:.5}, L1 radius {:.5}; inputs in {:.2}s",
        spec.name,
        inputs.base,
        inputs.ops.len(),
        inputs.box_side,
        inputs.radius,
        t.elapsed().as_secs_f64()
    );
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let env = Env {
        spec,
        inputs: &inputs,
        dir: dir.clone(),
    };
    let mut tally = Tally::default();
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(Into::into)
        .and_then(|()| {
            if args.trace {
                trace::traced(&env, &mut tally).map(|m| (report::PER_LAYER, m))
            } else {
                measured(&env, &args, &mut tally).map(|m| (report::END_TO_END, m))
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok((table, values)) => {
            println!(
                "{}",
                report::result_line(table, &values, tally.attempted, tally.failed, true)
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
