//! Checks the benchmark's output contract at a small scale: every metric
//! named in `BENCHMARK.json` is printed with its unit, every answer is
//! right, and the deterministic counts repeat exactly for one seed.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["colhist64-cold", "fourier16-ingest"];

/// Counts that depend only on the seed, never on timing.
const DETERMINISTIC: &[&str] = &[
    "page.reads_per_box",
    "page.reads_per_range",
    "page.reads_per_knn",
    "page.writes_per_insert",
    "geom.dist_evals_per_knn",
    "geom.dist_evals_per_range",
    "geom.rect_bounds_per_knn",
    "core.height",
    "core.avg_fanout",
    "core.leaf_util",
    "core.els_bytes",
    "core.useful_leaf_frac_box",
    "core.useful_leaf_frac_range",
];

/// The value of `"key": "..."` or `"key": number` inside `obj`.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = &obj[obj.find(&format!("\"{key}\": "))? + key.len() + 4..];
    Some(match rest.strip_prefix('"') {
        Some(s) => &s[..s.find('"')?],
        None => rest[..rest.find([',', '}'])?].trim(),
    })
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json.find(&format!("\"{section}\": [")).expect("section");
    let body = &json[start..start + json[start..].find(']').expect("section end")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("name").to_string(),
                field(obj, "unit").expect("unit").to_string(),
            )
        })
        .collect()
}

struct Outcome {
    correct: bool,
    failed: u64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&scratch)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "0.05"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    let metrics_at = line.find("\"metrics\": {").expect("metrics");
    let metrics = line[metrics_at + 12..]
        .split("}, ")
        .map(|m| {
            let name = &m[m.find('"').expect("name") + 1..];
            let name = &name[..name.find('"').expect("name end")];
            let value = field(m, "value").expect("value").parse().expect("number");
            (
                name.to_string(),
                (value, field(m, "unit").expect("unit").to_string()),
            )
        })
        .collect();
    Outcome {
        correct: field(line, "correct") == Some("true"),
        failed: field(line, "failed")
            .expect("failed")
            .parse()
            .expect("count"),
        metrics,
    }
}

fn assert_matches_declaration(o: &Outcome, section: &str, what: &str) {
    assert!(o.correct && o.failed == 0, "{what}: run not correct");
    let want = declared(section);
    assert_eq!(o.metrics.len(), want.len(), "{what}: metric count");
    for (name, unit) in want {
        let (_, got) = o
            .metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(got, &unit, "{what}: unit of {name}");
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        assert_matches_declaration(&run(w, 5, false), "end_to_end", w);
    }
}

#[test]
fn traced_counts_repeat_exactly_for_one_seed() {
    for w in WORKLOADS {
        let a = run(w, 9, true);
        let b = run(w, 9, true);
        assert_matches_declaration(&a, "per_layer", w);
        for name in DETERMINISTIC {
            assert_eq!(a.metrics[*name].0, b.metrics[*name].0, "{w}: {name}");
        }
    }
}

#[test]
fn stored_bytes_repeat_exactly_for_one_seed() {
    let w = "fourier16-ingest";
    let (a, b) = (run(w, 3, false), run(w, 3, false));
    let key = "bytes_per_user_byte";
    assert!(a.metrics[key].0 > 1.0);
    assert_eq!(a.metrics[key].0, b.metrics[key].0);
}
