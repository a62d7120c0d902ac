//! End-to-end test of the `hyt` command-line tool: generate → build →
//! persist → reopen in a fresh process → query, with results checked
//! against an in-process brute-force oracle.

use std::path::PathBuf;
use std::process::Command;

fn hyt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hyt"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_build_query_pipeline() {
    let dir = workdir();
    let csv = dir.join("vectors.csv");
    let pages = dir.join("db.pages");
    let meta = dir.join("db.meta");

    // 1. generate
    let out = hyt()
        .args([
            "generate", "--kind", "uniform", "--n", "2000", "--dim", "4", "--seed", "7", "--out",
        ])
        .arg(&csv)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. build (bulk path)
    let out = hyt()
        .args(["build", "--input"])
        .arg(&csv)
        .args(["--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--bulk"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("built 2000 entries"));

    // 3. stats on the persisted index (separate process)
    let out = hyt()
        .args(["stats", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stats.contains("entries            2000"));
    assert!(stats.contains("dimensionality     4"));

    // 4. box query, checked against the CSV itself.
    let body = std::fs::read_to_string(&csv).unwrap();
    let vectors: Vec<Vec<f32>> = body
        .lines()
        .map(|l| l.split(',').map(|t| t.parse().unwrap()).collect())
        .collect();
    let lo = [0.2f32, 0.2, 0.2, 0.2];
    let hi = [0.6f32, 0.7, 0.8, 0.9];
    let mut want: Vec<u64> = vectors
        .iter()
        .enumerate()
        .filter(|(_, v)| {
            v.iter().zip(&lo).all(|(x, l)| x >= l) && v.iter().zip(&hi).all(|(x, h)| x <= h)
        })
        .map(|(i, _)| i as u64)
        .collect();
    want.sort_unstable();
    let out = hyt()
        .args(["box", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--lo", "0.2,0.2,0.2,0.2", "--hi", "0.6,0.7,0.8,0.9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got: Vec<u64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().parse().unwrap())
        .collect();
    assert_eq!(got, want);

    // 5. knn: the nearest neighbor of a stored vector is itself.
    let q = body.lines().nth(42).unwrap();
    let out = hyt()
        .args(["knn", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--query", q, "--k", "1", "--metric", "l2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .unwrap()
        .to_string();
    assert!(
        line.starts_with("42\t"),
        "expected oid 42 first, got {line}"
    );

    // 6. scrub: the freshly built index verifies clean (exit 0)...
    let out = hyt()
        .args(["scrub", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // ...and a single flipped bit in the page file makes scrub exit 1.
    let mut bytes = std::fs::read(&pages).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&pages, &bytes).unwrap();
    let out = hyt()
        .args(["scrub", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "scrub missed an injected bit flip: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("problem"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_usage_on_bad_input() {
    let out = hyt().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));

    let out = hyt().args(["knn", "--index"]).output().unwrap();
    assert!(!out.status.success());

    let out = hyt()
        .args([
            "generate",
            "--kind",
            "nope",
            "--n",
            "5",
            "--dim",
            "2",
            "--out",
            "/dev/null",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn scrub_passes_an_index_built_without_els() {
    // With ELS off the table is empty by design; scrub must not ask a
    // non-empty child for an entry.
    let dir = std::env::temp_dir().join(format!("hyt_cli_els0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("vectors.csv");
    let pages = dir.join("db.pages");
    let meta = dir.join("db.meta");
    let out = hyt()
        .args([
            "generate", "--kind", "uniform", "--n", "3000", "--dim", "4", "--seed", "3", "--out",
        ])
        .arg(&csv)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = hyt()
        .args(["build", "--input"])
        .arg(&csv)
        .args(["--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--els-bits", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hyt()
        .args(["scrub", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_inputs_are_errors_not_panics() {
    // Rust's float parsers accept `nan` and `inf`; every path that reads
    // a vector or an lp order must refuse them with an error line instead
    // of handing them to a constructor that asserts.
    let dir = std::env::temp_dir().join(format!("hyt_cli_nan_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(at("good.csv"), "0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n").unwrap();
    std::fs::write(at("bad.csv"), "0.1,0.2,0.3,0.4\nnan,0.2,0.3,0.4\n").unwrap();
    std::fs::write(at("batch.txt"), "knn nan,0.1,0.2,0.3 3\n").unwrap();
    let build = |csv: &str, db: &str| {
        let (pages, meta) = (at(&format!("{db}.pages")), at(&format!("{db}.meta")));
        [
            "build",
            "--input",
            &at(csv),
            "--index",
            &pages,
            "--meta",
            &meta,
        ]
        .map(String::from)
    };
    let out = hyt().args(build("good.csv", "db")).output().unwrap();
    assert!(out.status.success());
    let (pages, meta, batch) = (at("db.pages"), at("db.meta"), at("batch.txt"));
    let on_db = |cmd: &str, rest: &[&str]| {
        let mut args = vec![cmd, "--index", &pages, "--meta", &meta];
        args.extend(rest);
        args.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let cases = [
        on_db("knn", &["--query", "nan,0.1,0.2,0.3"]),
        on_db("range", &["--query", "inf,0.1,0.2,0.3", "--radius", "0.1"]),
        on_db(
            "box",
            &["--lo", "nan,0.1,0.1,0.1", "--hi", "0.9,0.9,0.9,0.9"],
        ),
        on_db("batch", &["--queries", &batch]),
        // `Lp::new` asserts a finite order, and `nan < 1.0` is false.
        on_db("knn", &["--query", "0.1,0.1,0.1,0.1", "--metric", "lp:nan"]),
        on_db("knn", &["--query", "0.1,0.1,0.1,0.1", "--metric", "lp:inf"]),
        build("bad.csv", "bad").to_vec(),
    ];
    for args in cases {
        let out = hyt().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{args:?} accepted a non-finite value"
        );
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_sizes_are_errors_or_answers_not_panics() {
    // A page size outside 64..=65536 is refused before any file is
    // written (near `usize::MAX` it must neither overflow the frame
    // arithmetic nor allocate a page that size); a `k` beyond the index's
    // size returns every point.
    let dir = std::env::temp_dir().join(format!("hyt_cli_sizes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(at("pts.csv"), "0.1,0.2\n0.5,0.6\n0.9,0.1\n").unwrap();
    let build = |db: &str, extra: &[&str]| {
        let (pages, meta) = (at(&format!("{db}.pages")), at(&format!("{db}.meta")));
        hyt()
            .args(["build", "--input", &at("pts.csv"), "--index", &pages])
            .args(["--meta", &meta])
            .args(extra)
            .output()
            .unwrap()
    };

    let refused = |out: std::process::Output| {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains("error:") && err.contains("page size"), "{err}");
    };
    for size in ["0", "18446744073709551615", "18446744073709551000", "70000"] {
        refused(build(size, &["--page-size", size]));
        assert!(!std::path::Path::new(&at(&format!("{size}.pages"))).exists());
    }
    std::fs::write(at("empty.pages"), []).unwrap();
    let scrub = ["scrub", "--index", &at("empty.pages")];
    refused(
        hyt()
            .args(scrub)
            .args(["--page-size", &usize::MAX.to_string()])
            .output()
            .unwrap(),
    );

    assert!(build("db", &[]).status.success());
    let out = hyt()
        .args(["knn", "--index", &at("db.pages"), "--meta", &at("db.meta")])
        .args(["--query", "0.5,0.5", "--k", &usize::MAX.to_string()])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_hyt_quietly() {
    // `hyt knn … | head -1`: the answer is far larger than the pipe's
    // buffer, so hyt is still writing when the reader goes away.
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("hyt_cli_epipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (csv, pages, meta) = (at("pts.csv"), at("db.pages"), at("db.meta"));
    let out = hyt()
        .args([
            "generate", "--kind", "uniform", "--n", "20000", "--dim", "2",
        ])
        .args(["--out", &csv])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = hyt()
        .args([
            "build", "--input", &csv, "--index", &pages, "--meta", &meta, "--bulk",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let mut child = hyt()
        .args([
            "knn", "--index", &pages, "--meta", &meta, "--query", "0.5,0.5",
        ])
        .args(["--k", &usize::MAX.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    reader.read_line(&mut first).unwrap();
    assert!(first.contains('\t'), "{first}");
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(out.status.success(), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_refuses_unknown_names_scales_and_unwritable_dirs() {
    let dir = std::env::temp_dir().join(format!("hyt_cli_figures_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain.txt");
    std::fs::write(&file, "not a directory").unwrap();
    let under_file = file.join("results");
    let cases: [(&[&str], &str); 3] = [
        (&["--only", "nosuch"], "known: table1, table2"),
        (&["--scale", "huge"], "unknown scale `huge`"),
        (
            &["--only", "table2", "--out", under_file.to_str().unwrap()],
            "plain.txt",
        ),
    ];
    for (args, expect) in cases {
        let out = hyt().arg("figures").args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("error:") && err.contains(expect),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran a figure before refusing"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_options_are_refused_per_command() {
    let dir = std::env::temp_dir().join(format!("hyt_cli_opts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(at("pts.csv"), "0.1,0.2\n0.5,0.6\n0.9,0.1\n").unwrap();
    std::fs::write(at("batch.txt"), "knn 0.5,0.5 2\n").unwrap();
    let (pages, meta) = (at("db.pages"), at("db.meta"));
    let db = ["--index", &pages, "--meta", &meta];
    let out = hyt()
        .args(["build", "--input", &at("pts.csv")])
        .args(db)
        .output()
        .unwrap();
    assert!(out.status.success());
    let cases: [(&str, &[&str], &str); 4] = [
        ("knn", &["--query", "0.5,0.5", "--kk", "2"], "--kk"),
        (
            "batch",
            &["--queries", &at("batch.txt"), "--max-inflight", "2"],
            "--max-inflight",
        ),
        // The decoded-node cache can act only where queries share it.
        (
            "stats",
            &["--node-cache-entries", "8"],
            "--node-cache-entries",
        ),
        (
            "box",
            &["--lo", "0,0", "--hi", "1,1", "--stream"],
            "--stream",
        ),
    ];
    for (cmd, args, name) in cases {
        let out = hyt().arg(cmd).args(db).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {args:?}: {err}");
        assert!(
            err.contains(&format!("error: unknown option {name} for `{cmd}`")),
            "{cmd} {args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{cmd} {args:?} ran before refusing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `run_batch`'s worker count is the batch's one concurrency bound, and
/// the answers do not depend on it: a mixed batch prints the same bytes
/// and reads the same pages on one thread as on four.
#[test]
fn batch_output_does_not_depend_on_threads() {
    let dir = std::env::temp_dir().join(format!("hyt_cli_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (csv, pages, meta) = (at("pts.csv"), at("db.pages"), at("db.meta"));
    let out = hyt()
        .args(["generate", "--kind", "colhist", "--n", "4000", "--dim", "8"])
        .args(["--seed", "5", "--out", &csv])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = hyt()
        .args(["build", "--input", &csv, "--index", &pages, "--meta", &meta])
        .arg("--bulk")
        .output()
        .unwrap();
    assert!(out.status.success());
    let body = std::fs::read_to_string(&csv).unwrap();
    let mut lines = String::new();
    for (i, p) in body.lines().step_by(97).take(24).enumerate() {
        let coords: Vec<f32> = p.split(',').map(|t| t.parse().unwrap()).collect();
        let lo: Vec<String> = coords.iter().map(|c| (c - 0.1).to_string()).collect();
        let hi: Vec<String> = coords.iter().map(|c| (c + 0.1).to_string()).collect();
        lines.push_str(&match i % 3 {
            0 => format!("box {} {}\n", lo.join(","), hi.join(",")),
            1 => format!("range {p} 0.15\n"),
            _ => format!("knn {p} 7\n"),
        });
    }
    std::fs::write(at("batch.txt"), lines).unwrap();
    let run = |threads: &str| {
        let out = hyt()
            .args(["batch", "--index", &pages, "--meta", &meta])
            .args(["--queries", &at("batch.txt"), "--threads", threads])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{err}");
        // "[24 queries on N thread(s) in Ts — R page reads, …"
        let reads = err
            .split(" — ")
            .nth(1)
            .and_then(|s| s.split(" page reads").next())
            .unwrap_or_else(|| panic!("no page-read total in {err}"))
            .to_string();
        (out.stdout, reads)
    };
    let (serial, serial_reads) = run("1");
    let (parallel, parallel_reads) = run("4");
    assert_eq!(String::from_utf8_lossy(&serial).lines().count(), 24);
    assert_eq!(serial, parallel);
    assert_eq!(serial_reads, parallel_reads);
    assert!(serial_reads.parse::<u64>().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
