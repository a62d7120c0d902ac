//! Perf-trajectory benchmark: warm repeated-query workloads per engine,
//! with and without the decoded-node cache.
//!
//! This is the machine-readable counterpart of the figure drivers. For
//! each engine it runs the same mixed workload twice — cache off
//! (decode-per-visit, the paper's baseline behavior) and cache on — and
//! records per-query latency percentiles, the number of node-decode
//! invocations (the cache's `misses` counter ticks exactly once per
//! decode, in both modes), and the cache hit rate. Answers are checked
//! bit-identical between the two modes before anything is reported, so a
//! regression in cache correctness fails the bench rather than skewing
//! the numbers. `scripts/bench.sh` serializes the report to
//! `BENCH_pr4.json`.

use crate::runner::{build_engine_cached, run_batch, BatchPolicy, BatchQuery, Engine};
use hyt_data::{uniform, BoxWorkload};
use hyt_geom::{Point, L2};
use hyt_index::IndexResult;
use std::time::Instant;

/// One engine × cache-mode measurement.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Engine display name.
    pub engine: String,
    /// Decoded-node cache capacity used (0 = off).
    pub cache_entries: usize,
    /// Queries measured (after the warm-up pass).
    pub queries: usize,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-query latency, microseconds.
    pub p95_us: f64,
    /// Node-decode invocations over the measured pass (cache misses).
    pub decodes: u64,
    /// Decoded-node cache hits over the measured pass.
    pub cache_hits: u64,
    /// `hits / (hits + misses)` over the measured pass.
    pub hit_rate: f64,
    /// Logical + sequential page reads (identical across cache modes).
    pub logical_reads: u64,
}

/// The full report: one row per engine per cache mode.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Measurement rows, cache-off and cache-on adjacent per engine.
    pub rows: Vec<BenchRow>,
    /// Dataset size the workload ran against.
    pub dataset: usize,
    /// Dataset dimensionality.
    pub dim: usize,
    /// Times the query set was repeated in the measured pass.
    pub repeats: usize,
}

impl BenchReport {
    /// Smallest cache-off/cache-on decode ratio across engines — the
    /// headline number (≥ 2 expected on a warm repeated workload).
    pub fn min_decode_reduction(&self) -> f64 {
        let mut min = f64::INFINITY;
        for off in self.rows.iter().filter(|r| r.cache_entries == 0) {
            if let Some(on) = self
                .rows
                .iter()
                .find(|r| r.engine == off.engine && r.cache_entries > 0)
            {
                if off.decodes > 0 {
                    min = min.min(off.decodes as f64 / (on.decodes.max(1)) as f64);
                }
            }
        }
        min
    }

    /// Serializes the report as a JSON object (hand-rolled; the
    /// container has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"dataset\": {},\n", self.dataset));
        s.push_str(&format!("  \"dim\": {},\n", self.dim));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!(
            "  \"min_decode_reduction\": {:.3},\n",
            self.min_decode_reduction()
        ));
        s.push_str("  \"engines\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"engine\": \"{}\", \"cache_entries\": {}, \"queries\": {}, \
                 \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"decodes\": {}, \
                 \"cache_hits\": {}, \"hit_rate\": {:.4}, \"logical_reads\": {}}}{}\n",
                r.engine,
                r.cache_entries,
                r.queries,
                r.p50_us,
                r.p95_us,
                r.decodes,
                r.cache_hits,
                r.hit_rate,
                r.logical_reads,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The mixed workload: box queries for every engine, plus kNN and
/// distance-range for engines that support them (everything but the
/// hB-tree, per the paper's §4 footnote).
fn workload(engine: Engine, data: &[Point], queries: usize) -> Vec<BatchQuery> {
    let wl = BoxWorkload::calibrated(data, queries, 0.01, 97);
    wl.queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if engine == Engine::Hb {
                return BatchQuery::Box(q.clone());
            }
            match i % 3 {
                0 => BatchQuery::Box(q.clone()),
                1 => BatchQuery::Knn(data[i * 31 % data.len()].clone(), 10),
                _ => BatchQuery::Distance(data[i * 17 % data.len()].clone(), 0.4),
            }
        })
        .collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * p) as usize).min(sorted_us.len() - 1);
    sorted_us[idx]
}

/// Runs the decode-count benchmark: every engine, cache off then on,
/// same warm repeated workload, answers asserted identical between the
/// two modes.
pub fn run_decode_bench(
    n: usize,
    dim: usize,
    queries: usize,
    repeats: usize,
    cache_entries: usize,
) -> IndexResult<BenchReport> {
    let data = uniform(n, dim, 71);
    let mut report = BenchReport {
        dataset: n,
        dim,
        repeats,
        ..BenchReport::default()
    };
    for engine in [
        Engine::Hybrid,
        Engine::Sr,
        Engine::Kdb,
        Engine::Hb,
        Engine::Scan,
    ] {
        let batch = workload(engine, &data, queries);
        let mut baseline = None;
        for entries in [0usize, cache_entries] {
            let (idx, _) = build_engine_cached(engine, &data, entries)?;
            // Warm-up pass: populates the byte pool and (when enabled)
            // the decoded-node cache.
            let answers = run_batch(idx.as_ref(), &L2, &batch, 1, &BatchPolicy::default(), None)?;
            // Bit-identity covers results and the *logical* read counters;
            // physical reads legitimately drop when a decoded-cache hit
            // skips the byte pool, so they are excluded here.
            let key: Vec<_> = answers
                .iter()
                .map(|g| {
                    let a = &g.answer;
                    (
                        g.status.clone(),
                        a.oids.clone(),
                        a.distances.clone(),
                        a.io.logical_reads,
                        a.io.seq_reads,
                    )
                })
                .collect();
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(
                    b,
                    &key,
                    "{}: cache-on answers differ from cache-off",
                    engine.name()
                ),
            }
            // Measured pass: counters reset, cache contents retained.
            idx.reset_io_stats();
            let mut lat_us = Vec::with_capacity(batch.len() * repeats);
            for _ in 0..repeats {
                for q in &batch {
                    let t = Instant::now();
                    let a = run_batch(
                        idx.as_ref(),
                        &L2,
                        std::slice::from_ref(q),
                        1,
                        &BatchPolicy::default(),
                        None,
                    )?;
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(a);
                }
            }
            lat_us.sort_by(f64::total_cmp);
            let cs = idx.cache_stats();
            let io = idx.io_stats();
            report.rows.push(BenchRow {
                engine: engine.name(),
                cache_entries: entries,
                queries: lat_us.len(),
                p50_us: percentile(&lat_us, 0.50),
                p95_us: percentile(&lat_us, 0.95),
                decodes: cs.misses,
                cache_hits: cs.hits,
                hit_rate: cs.hit_rate(),
                logical_reads: io.logical_reads + io.seq_reads,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_bench_runs_and_caching_cuts_decodes() {
        // Tiny scale: the structure of the report and the ≥2x warm-cache
        // decode reduction, not wall-clock numbers.
        let report = run_decode_bench(1500, 4, 6, 2, 4096).unwrap();
        assert_eq!(report.rows.len(), 10, "five engines, two cache modes");
        let reduction = report.min_decode_reduction();
        assert!(
            reduction >= 2.0,
            "warm repeated workload should at least halve decodes, got {reduction:.2}x"
        );
        for off in report.rows.iter().filter(|r| r.cache_entries == 0) {
            let on = report
                .rows
                .iter()
                .find(|r| r.engine == off.engine && r.cache_entries > 0)
                .unwrap();
            assert_eq!(
                off.logical_reads, on.logical_reads,
                "{}: logical I/O must not change with the cache",
                off.engine
            );
            assert!(on.hit_rate > 0.5, "{}: warm hit rate low", on.engine);
        }
        let json = report.to_json();
        assert!(json.contains("\"min_decode_reduction\""));
        assert!(json.contains("\"seq-scan\""));
    }
}
