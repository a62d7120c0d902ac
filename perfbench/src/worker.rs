//! Timed read and mix phases, run in fresh child processes.
//!
//! On the reference VM, allocation-heavy query paths (kNN decodes every node
//! it visits) ran up to 1.4x faster or slower from one process to the next,
//! while staying steady within a process. The measured run therefore times
//! its read and mix phases in [`WORKERS`] child processes in turn and pools
//! their samples. Each child regenerates the inputs from the seed, reopens
//! the committed index, and prints its latencies and its answer to every
//! distinct query; the parent checks those answers against the oracle.
//!
//! The read-phase percentiles are taken over distinct queries, of each
//! query's median latency over all its repeats in all children. On the
//! reference VM the share of samples that a host-side stall hit changed
//! from run to run, and moved the p99 over raw samples by up to 45% where
//! the p50 moved 10%.

use crate::inputs::{self, Spec, QUERIES};
use crate::oracle::{Expected, Oracle};
use crate::run::{self, Answer, Env, QueryKind, Result, Samples, Tally, QUERY_KINDS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Child processes per measured run.
pub const WORKERS: usize = 3;
/// Clients of the `mix_qps` phase (the reference host's core count).
pub const MIX_CLIENTS: usize = 2;

/// What one child runs:
/// `--worker <dir> <tag> <cache entries> <read s> <mix s>`.
pub struct Job {
    pub dir: PathBuf,
    pub tag: String,
    pub cache_entries: usize,
    pub read_s: f64,
    pub mix_s: f64,
}

impl Job {
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--worker".into(),
            self.dir.display().to_string(),
            self.tag.clone(),
            self.cache_entries.to_string(),
            self.read_s.to_string(),
            self.mix_s.to_string(),
        ]
    }

    pub fn parse(v: &[String]) -> std::result::Result<Job, String> {
        let [dir, tag, cache, read, mix] = v else {
            return Err("--worker takes 5 values".into());
        };
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("--worker: {e}"));
        Ok(Job {
            dir: PathBuf::from(dir),
            tag: tag.clone(),
            cache_entries: cache.parse().map_err(|e| format!("--worker: {e}"))?,
            read_s: num(read)?,
            mix_s: num(mix)?,
        })
    }
}

/// Every distinct answer a client saw: first answer and how often it was
/// asked. A repeat that differs from the first answer, or an error, is
/// counted in `bad`.
#[derive(Default)]
struct Seen {
    first: BTreeMap<(usize, usize), (u64, Answer)>,
    bad: u64,
}

impl Seen {
    fn add(&mut self, key: (usize, usize), n: u64, a: Answer) {
        match self.first.get_mut(&key) {
            Some(slot) if slot.1 == a => slot.0 += n,
            Some(_) => self.bad += n,
            None => {
                self.first.insert(key, (n, a));
            }
        }
    }

    fn record(&mut self, kind: QueryKind, i: usize, r: Option<Answer>) {
        match r {
            Some(a) => self.add((kind as usize, i), 1, a),
            None => self.bad += 1,
        }
    }

    fn merge(&mut self, o: Seen) {
        self.bad += o.bad;
        for (key, (n, a)) in o.first {
            self.add(key, n, a);
        }
    }
}

/// Child side: runs the job and prints `L`, `M`, `B`, `R` and `A` lines.
pub fn serve(spec: &Spec, seed: u64, scale: f64, job: &Job) -> Result<()> {
    let inputs = inputs::generate(spec, seed, scale);
    // The peak resident set reported in the `R` line covers serving only:
    // the inputs stay resident, but the transient peak of making them
    // does not count.
    run::reset_peak_rss()?;
    let env = Env {
        spec,
        inputs: &inputs,
        dir: job.dir.clone(),
    };
    let tree = run::open(&env, &job.tag, job.cache_entries)?;
    let mut seen = Seen::default();
    let mut lat: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    run::read_phase(
        &tree,
        &inputs,
        Duration::from_secs_f64(job.read_s),
        &mut |k, i, us, r| {
            lat.entry((k as usize, i)).or_default().push(us);
            seen.record(k, i, r);
        },
    );
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(job.mix_s);
    let clients: Vec<Seen> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MIX_CLIENTS)
            .map(|c| {
                let (tree, inputs) = (&tree, &inputs);
                s.spawn(move || {
                    let mut seen = Seen::default();
                    let mut n = c * 7919;
                    while Instant::now() < end {
                        let (kind, i) = (QUERY_KINDS[n % 3], (n / 3) % QUERIES);
                        n += 1;
                        let r = run::ask(tree, inputs, kind, i, &hyt_geom::L1, &hyt_geom::L2);
                        seen.record(kind, i, r.ok().map(|(a, _)| a));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mix client panicked"))
            .collect()
    });
    let mix_s = start.elapsed().as_secs_f64();
    let mix_done: u64 = clients
        .iter()
        .map(|c| c.first.values().map(|v| v.0).sum::<u64>() + c.bad)
        .sum();
    for c in clients {
        seen.merge(c);
    }

    let mut out = String::new();
    for ((k, i), v) in &lat {
        out += &format!("L {k} {i}");
        for us in v {
            out += &format!(" {us}");
        }
        out.push('\n');
    }
    out += &format!(
        "M {mix_done} {mix_s}\nB {}\nR {}\n",
        seen.bad,
        run::peak_rss_mb()?
    );
    for ((k, i), (n, a)) in &seen.first {
        out += &format!("A {k} {i} {n}");
        match a {
            Answer::Oids(v) => v.iter().for_each(|o| out += &format!(" {o}")),
            Answer::Knn(v) => v
                .iter()
                .for_each(|(o, d)| out += &format!(" {o}:{:x}", d.to_bits())),
            Answer::Done => {}
        }
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// What the workers measured, pooled.
pub struct Pooled {
    /// Per kind, the median latency of each distinct query asked.
    pub lat: [Samples; 3],
    pub mix_qps: f64,
    /// The largest serving peak resident set of any worker, in MB.
    pub peak_rss_mb: f64,
}

fn bad_output(line: &str) -> run::Error {
    format!("unreadable worker output: {line:.80}").into()
}

/// Parent side: runs `job` in [`WORKERS`] children one after another,
/// checks every answer they report, and pools their samples.
pub fn run_workers(
    args: &[String],
    job: &Job,
    oracle: &Oracle,
    exp: &Expected,
    inputs: &inputs::Inputs,
    tally: &mut Tally,
) -> Result<Pooled> {
    let mut lat: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let (mut qps, mut rss) = (0.0, 0.0f64);
    for _ in 0..WORKERS {
        let out = Command::new(std::env::current_exe()?)
            .args(args)
            .args(job.to_args())
            .output()?;
        if !out.status.success() {
            return Err(format!(
                "worker failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            )
            .into());
        }
        for line in String::from_utf8(out.stdout)?.lines() {
            let mut f = line.split(' ');
            let mut next = || f.next().ok_or_else(|| bad_output(line));
            match next()? {
                "L" => {
                    let k: usize = next()?.parse()?;
                    let i: usize = next()?.parse()?;
                    if k >= QUERY_KINDS.len() {
                        return Err(bad_output(line));
                    }
                    let slot = lat.entry((k, i)).or_default();
                    for us in f {
                        slot.push(us.parse()?);
                    }
                }
                "M" => {
                    let done: f64 = next()?.parse()?;
                    let secs: f64 = next()?.parse()?;
                    qps += done / secs / WORKERS as f64;
                }
                "R" => rss = rss.max(next()?.parse()?),
                "B" => {
                    let bad: u64 = next()?.parse()?;
                    tally.attempted += bad;
                    tally.failed += bad;
                }
                "A" => {
                    let kind = *QUERY_KINDS
                        .get(next()?.parse::<usize>()?)
                        .ok_or_else(|| bad_output(line))?;
                    let i: usize = next()?.parse()?;
                    let n: u64 = next()?.parse()?;
                    let answer = if kind == QueryKind::Knn {
                        let mut v = Vec::new();
                        for pair in f {
                            let (o, d) = pair.split_once(':').ok_or_else(|| bad_output(line))?;
                            v.push((o.parse()?, f64::from_bits(u64::from_str_radix(d, 16)?)));
                        }
                        Answer::Knn(v)
                    } else {
                        Answer::Oids(f.map(str::parse).collect::<std::result::Result<_, _>>()?)
                    };
                    let ok = i < QUERIES && run::correct(oracle, exp, inputs, kind, i, &answer);
                    tally.attempted += n;
                    tally.failed += if ok { 0 } else { n };
                }
                _ => return Err(bad_output(line)),
            }
        }
    }
    let mut per_query: [Samples; 3] = Default::default();
    for ((k, _), v) in lat {
        per_query[k].0.push(crate::median(v));
    }
    Ok(Pooled {
        lat: per_query,
        mix_qps: qps,
        peak_rss_mb: rss,
    })
}
