//! `hyt` — command-line front end for the hybrid tree.
//!
//! ```text
//! hyt generate --kind colhist --n 20000 --dim 32 --out data.csv
//! hyt build    --input data.csv --index db.pages --meta db.meta
//! hyt stats    --index db.pages --meta db.meta
//! hyt knn      --index db.pages --meta db.meta --query 0.1,0.2,... --k 5 --metric l1
//! hyt range    --index db.pages --meta db.meta --query 0.1,0.2,... --radius 0.4
//! hyt box      --index db.pages --meta db.meta --lo 0.1,0.1 --hi 0.4,0.4
//! hyt batch    --index db.pages --meta db.meta --queries batch.txt --threads 4
//! hyt figures  --only fig5c,table1 --scale quick --out results
//! ```
//!
//! Vectors are CSV lines of `f32`; the object id is the 0-based line
//! number. The index persists as a page file plus a catalog sidecar
//! (root/height/config/ELS), so build and query can run in separate
//! processes.

// The CLI parses outside input and writes files.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use hybridtree_repro::core::{scrub_index, scrub_pages, HybridTree, HybridTreeConfig};
use hybridtree_repro::data::{colhist, fourier, uniform};
use hybridtree_repro::eval::figures::FIGURES;
use hybridtree_repro::eval::{run_batch, total_io, Scale};
use hybridtree_repro::geom::{Chebyshev, Lp, Metric, Point, Rect, L1, L2};
use hybridtree_repro::index::{MultidimIndex, Query, QueryContext, QueryOutcome};
use hybridtree_repro::page::DurableStorage;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hyt generate --kind colhist|fourier|uniform --n N --dim D [--seed S] --out FILE
  hyt build    --input FILE --index PAGES --meta META [--page-size 4096]
               [--els-bits 4] [--bulk] [--node-cache-entries 0]
  hyt stats    --index PAGES --meta META
  hyt knn      --index PAGES --meta META --query V [--k 10] [--metric l2]
               [--stream] [--timeout-ms T] [--max-reads N]
  hyt range    --index PAGES --meta META --query V --radius R [--metric l2]
               [--timeout-ms T] [--max-reads N]
  hyt box      --index PAGES --meta META --lo V --hi V [--timeout-ms T] [--max-reads N]
  hyt batch    --index PAGES --meta META --queries FILE [--threads N] [--metric l2]
               [--timeout-ms T] [--max-reads N] [--node-cache-entries N]
  hyt scrub    --index PAGES [--meta META] [--page-size 4096]
  hyt figures  [--only NAME[,NAME…]] [--scale quick|paper] [--out DIR]
metrics: l1, l2, linf, lp:<p>     V: comma-separated f32 coordinates
batch file: one query per line — `box LO HI` | `range CENTER R` | `knn CENTER K`
--timeout-ms caps wall time (whole batch for `batch`), --max-reads caps page
reads per query; a query hitting a limit returns its partial answer, marked
degraded. --threads bounds the queries in flight at once.
--stream prints each neighbor as soon as it is proven (incremental distance
browsing) instead of after the search completes; same answers, same I/O.
--node-cache-entries sets the decoded-node cache size (build persists it;
batch overrides it for the run; 0 decodes per visit); query results and
page-read counts are unaffected, only decode work.
scrub verifies every page checksum (and, with --meta, every tree invariant)
without loading the index; exits 1 if any corruption is found
figures regenerates the paper's tables and figures (all, or --only the named
ones, in that order) at quick or paper scale, prints each report, and with
--out also writes it to DIR/NAME.txt";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    // Each command accepts exactly the options its USAGE line lists.
    let opts = |accepted: &str| parse_opts(cmd, accepted, rest);
    let out = &mut Out(io::stdout().lock());
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "generate" => done(generate(&opts("kind n dim seed out")?, out)),
        "build" => done(build(
            &opts("input index meta page-size els-bits bulk node-cache-entries")?,
            out,
        )),
        "stats" => done(stats(&opts("index meta")?, out)),
        "knn" => done(knn(
            &opts("index meta query k metric stream timeout-ms max-reads")?,
            out,
        )),
        "range" => done(range(
            &opts("index meta query radius metric timeout-ms max-reads")?,
            out,
        )),
        "box" => done(box_query(
            &opts("index meta lo hi timeout-ms max-reads")?,
            out,
        )),
        "batch" => done(batch(
            &opts("index meta queries threads metric timeout-ms max-reads node-cache-entries")?,
            out,
        )),
        "scrub" => scrub(&opts("index meta page-size")?, out),
        "figures" => done(figures(&opts("only scale out")?, out)),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The command's locked stdout: `writeln!(out, …)` returns the command's
/// error type, and where `println!` would panic on a reader that has gone
/// away (`hyt knn … | head -2`), the process ends quietly with success.
struct Out(io::StdoutLock<'static>);

impl Out {
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), String> {
        match self.0.write_fmt(args) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
            r => r.map_err(|e| format!("writing to stdout: {e}")),
        }
    }
}

fn scrub(opts: &HashMap<String, String>, out: &mut Out) -> Result<ExitCode, String> {
    let index = req(opts, "index")?;
    let report = match opts.get("meta") {
        Some(meta) => scrub_index(index, meta).map_err(|e| e.to_string())?,
        None => {
            let page_size = parse_page_size(opts)?;
            scrub_pages(index, page_size).map_err(|e| e.to_string())?
        }
    };
    writeln!(
        out,
        "pages     {} slots ({} live, {} free), logical page size {}",
        report.slots, report.live, report.free, report.page_size
    )?;
    if let Some(cat) = &report.catalog {
        writeln!(
            out,
            "catalog   {} entries, height {}, committed at epoch {}",
            cat.len, cat.height, cat.epoch
        )?;
    }
    for d in &report.damage {
        writeln!(out, "DAMAGED   {}: {}", d.page, d.detail)?;
    }
    if let Some(cat) = &report.catalog {
        for issue in &cat.issues {
            writeln!(out, "ISSUE     {issue}")?;
        }
    }
    if report.is_clean() {
        writeln!(out, "clean: every checksum and invariant verifies")?;
        Ok(ExitCode::SUCCESS)
    } else {
        writeln!(out, "scrub found {} problem(s)", report.problem_count())?;
        Ok(ExitCode::FAILURE)
    }
}

/// Runs the chosen figure drivers in order, printing each report as it
/// completes and, with `--out DIR`, writing the same bytes to
/// `DIR/<name>.txt`.
fn figures(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let scale = match opts.get("scale").map(String::as_str) {
        None | Some("quick") => Scale::quick(),
        Some("paper") => Scale::paper(),
        Some(other) => return Err(format!("unknown scale `{other}` (quick, paper)")),
    };
    let chosen = match opts.get("only") {
        None => FIGURES.to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                FIGURES
                    .iter()
                    .find(|(known, _)| *known == name)
                    .copied()
                    .ok_or_else(|| {
                        let known: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
                        format!("unknown figure `{name}` (known: {})", known.join(", "))
                    })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let dir = opts.get("out").map(Path::new);
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    for (name, driver) in chosen {
        let started = Instant::now();
        let text = format!("{}\n", driver(&scale).map_err(|e| format!("{name}: {e}"))?);
        write!(out, "{text}")?;
        if let Some(dir) = dir {
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        eprintln!("[{name} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Parses `--name value` pairs and the value-less `--bulk` and
/// `--stream`, refusing any option not in `cmd`'s space-separated
/// `accepted` list.
fn parse_opts(
    cmd: &str,
    accepted: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, found `{key}`"));
        };
        if !accepted.split(' ').any(|a| a == name) {
            return Err(format!("unknown option --{name} for `{cmd}`"));
        }
        if name == "bulk" || name == "stream" {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{name} needs a value"));
        };
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}"))
}

/// Reads `--page-size` and refuses what a hybrid tree does not accept
/// (64 to 65536 bytes) before any page file is created or opened.
fn parse_page_size(opts: &HashMap<String, String>) -> Result<usize, String> {
    let size: usize = opt_parse(opts, "page-size", 4096)?;
    if !(64..=65536).contains(&size) {
        return Err(format!("page size must be 64 to 65536 bytes, got {size}"));
    }
    Ok(size)
}

fn opt_parse<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

/// Parses comma-separated coordinates. `f32`'s parser accepts `nan` and
/// `inf`, which no point or box may hold, so those are refused here.
fn parse_vector(s: &str) -> Result<Vec<f32>, String> {
    s.split(',')
        .map(|t| match t.trim().parse::<f32>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(format!("bad coordinate `{t}`")),
        })
        .collect()
}

fn parse_metric(s: &str) -> Result<Box<dyn Metric>, String> {
    match s {
        "l1" => Ok(Box::new(L1)),
        "l2" => Ok(Box::new(L2)),
        "linf" => Ok(Box::new(Chebyshev)),
        other => {
            if let Some(p) = other.strip_prefix("lp:") {
                let p: f64 = p.parse().map_err(|_| format!("bad lp order `{p}`"))?;
                if !(p.is_finite() && p >= 1.0) {
                    return Err("lp order must be finite and >= 1".into());
                }
                Ok(Box::new(Lp::new(p)))
            } else {
                Err(format!("unknown metric `{other}` (l1, l2, linf, lp:<p>)"))
            }
        }
    }
}

fn generate(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let kind = req(opts, "kind")?;
    let n: usize = req(opts, "n")?.parse().map_err(|_| "bad --n")?;
    let dim: usize = req(opts, "dim")?.parse().map_err(|_| "bad --dim")?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let path = req(opts, "out")?;
    let data = match kind {
        "colhist" => colhist(n, dim, seed),
        "fourier" => fourier(n, dim, seed),
        "uniform" => uniform(n, dim, seed),
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    let mut body = String::with_capacity(n * dim * 10);
    for p in &data {
        let line: Vec<String> = p.coords().iter().map(|c| format!("{c}")).collect();
        body.push_str(&line.join(","));
        body.push('\n');
    }
    std::fs::write(path, body).map_err(|e| e.to_string())?;
    writeln!(out, "wrote {n} {kind} vectors ({dim}-d) to {path}")?;
    Ok(())
}

fn load_csv(path: &str) -> Result<Vec<Point>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let coords = parse_vector(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        out.push(Point::new(coords));
    }
    if out.is_empty() {
        return Err(format!("{path} holds no vectors"));
    }
    let dim = out[0].dim();
    if out.iter().any(|p| p.dim() != dim) {
        return Err(format!("{path} mixes dimensionalities"));
    }
    Ok(out)
}

fn build(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let input = req(opts, "input")?;
    let index = req(opts, "index")?;
    let meta = req(opts, "meta")?;
    let page_size = parse_page_size(opts)?;
    let els_bits: u8 = opt_parse(opts, "els-bits", 4)?;
    let node_cache_entries: usize = opt_parse(opts, "node-cache-entries", 0)?;
    let bulk = opts.contains_key("bulk");
    let data = load_csv(input)?;
    let dim = data[0].dim();
    let cfg = HybridTreeConfig {
        page_size,
        els_bits,
        node_cache_entries,
        ..HybridTreeConfig::default()
    };
    let start = Instant::now();
    let mut tree = if bulk {
        let storage = DurableStorage::create(index, page_size).map_err(|e| e.to_string())?;
        let entries: Vec<(Point, u64)> = data
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        HybridTree::bulk_load_into(storage, cfg, entries).map_err(|e| e.to_string())?
    } else {
        let storage = DurableStorage::create(index, page_size).map_err(|e| e.to_string())?;
        let mut tree = HybridTree::with_storage(dim, cfg, storage).map_err(|e| e.to_string())?;
        for (i, p) in data.into_iter().enumerate() {
            tree.insert(p, i as u64).map_err(|e| e.to_string())?;
        }
        tree
    };
    tree.persist(meta).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "built {} entries ({dim}-d) in {:.2}s — height {}, {} data-entries/page, \
         ELS encoded size {} bytes\nindex: {index}\ncatalog: {meta}",
        tree.len(),
        start.elapsed().as_secs_f64(),
        tree.height(),
        tree.data_capacity(),
        tree.els_overhead_bytes(),
    )?;
    Ok(())
}

fn open_tree(opts: &HashMap<String, String>) -> Result<HybridTree<DurableStorage>, String> {
    let index = req(opts, "index")?;
    let meta = req(opts, "meta")?;
    match opts.get("node-cache-entries") {
        Some(n) => {
            let entries: usize = n.parse().map_err(|_| "bad --node-cache-entries")?;
            HybridTree::open_with_node_cache(index, meta, entries)
        }
        None => HybridTree::open(index, meta),
    }
    .map_err(|e| e.to_string())
}

fn stats(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let tree = open_tree(opts)?;
    let st = tree.structure_stats().map_err(|e| e.to_string())?;
    writeln!(out, "entries            {}", tree.len())?;
    writeln!(out, "dimensionality     {}", tree.dim())?;
    writeln!(out, "height             {}", st.height)?;
    writeln!(
        out,
        "pages              {} ({} index, {} data)",
        st.total_nodes, st.index_nodes, st.data_nodes
    )?;
    writeln!(out, "avg fanout         {:.1}", st.avg_fanout)?;
    writeln!(
        out,
        "leaf utilization   {:.0}%",
        st.avg_leaf_utilization * 100.0
    )?;
    writeln!(out, "overlap fraction   {:.5}", st.avg_overlap_fraction)?;
    writeln!(
        out,
        "split dims used    {} of {}",
        st.distinct_split_dims,
        tree.dim()
    )?;
    writeln!(
        out,
        "ELS encoded size   {} bytes at {} bits per boundary",
        tree.els_overhead_bytes(),
        tree.config().els_bits
    )?;
    writeln!(
        out,
        "decoded cache      {} entries capacity",
        tree.config().node_cache_entries
    )?;
    Ok(())
}

fn query_point(
    opts: &HashMap<String, String>,
    tree: &HybridTree<DurableStorage>,
) -> Result<Point, String> {
    let q = parse_vector(req(opts, "query")?)?;
    if q.len() != tree.dim() {
        return Err(format!(
            "query has {} coordinates, index is {}-d",
            q.len(),
            tree.dim()
        ));
    }
    Ok(Point::new(q))
}

/// Builds the [`QueryContext`] from `--timeout-ms` / `--max-reads`.
fn parse_query_context(opts: &HashMap<String, String>) -> Result<QueryContext, String> {
    let mut ctx = QueryContext::default();
    if let Some(ms) = opts.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --timeout-ms")?;
        ctx = ctx.with_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = opts.get("max-reads") {
        let n: u64 = n.parse().map_err(|_| "bad --max-reads")?;
        ctx = ctx.with_max_reads(n);
    }
    Ok(ctx)
}

/// Unwraps a query outcome, warning on stderr when the answer is
/// partial.
fn settle<T>(outcome: QueryOutcome<T>) -> T {
    if let Some(reason) = outcome.degrade_reason() {
        eprintln!("[degraded: {reason} — results below are partial]");
    }
    outcome.into_results()
}

fn knn(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let tree = open_tree(opts)?;
    let q = query_point(opts, &tree)?;
    let k: usize = opt_parse(opts, "k", 10)?;
    let metric = parse_metric(opts.get("metric").map(String::as_str).unwrap_or("l2"))?;
    let ctx = parse_query_context(opts)?;
    tree.reset_io_stats();
    if opts.contains_key("stream") {
        // Incremental distance browsing: each neighbor is printed the
        // moment the cursor proves no closer object remains, instead of
        // after the whole search settles.
        let mut cursor = tree
            .knn_stream(&q, metric.as_ref(), &ctx)
            .map_err(|e| e.to_string())?;
        for (oid, d) in std::iter::from_fn(|| cursor.next()).take(k) {
            writeln!(out, "{oid}\t{d:.6}")?;
        }
        if let Some(e) = cursor.take_error() {
            return Err(e.to_string());
        }
        if let Some(reason) = cursor.degrade_reason() {
            eprintln!("[degraded: {reason} — results above are partial]");
        }
        eprintln!("[{} page reads]", tree.io_stats().logical_reads);
        return Ok(());
    }
    let query = Query::Knn { q, k, epsilon: 0.0 };
    let (outcome, _) = tree
        .execute(&query, metric.as_ref(), &ctx)
        .map_err(|e| e.to_string())?;
    let hits = settle(outcome).into_hits();
    for (oid, d) in &hits {
        writeln!(out, "{oid}\t{d:.6}")?;
    }
    eprintln!("[{} page reads]", tree.io_stats().logical_reads);
    Ok(())
}

fn range(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let tree = open_tree(opts)?;
    let q = query_point(opts, &tree)?;
    let radius: f64 = req(opts, "radius")?.parse().map_err(|_| "bad --radius")?;
    let metric = parse_metric(opts.get("metric").map(String::as_str).unwrap_or("l2"))?;
    let ctx = parse_query_context(opts)?;
    print_oids(
        out,
        &tree,
        &Query::Range { q, radius },
        metric.as_ref(),
        &ctx,
    )
}

/// Runs a box or range query and prints its oids in ascending order.
fn print_oids(
    out: &mut Out,
    tree: &HybridTree<DurableStorage>,
    query: &Query,
    metric: &dyn Metric,
    ctx: &QueryContext,
) -> Result<(), String> {
    tree.reset_io_stats();
    let (outcome, _) = tree
        .execute(query, metric, ctx)
        .map_err(|e| e.to_string())?;
    let mut hits = settle(outcome).oids;
    hits.sort_unstable();
    for oid in &hits {
        writeln!(out, "{oid}")?;
    }
    eprintln!(
        "[{} results, {} page reads]",
        hits.len(),
        tree.io_stats().logical_reads
    );
    Ok(())
}

/// Parses one batch-file line into a query against a `dim`-d index.
fn parse_batch_line(line: &str, dim: usize) -> Result<Query, String> {
    let mut parts = line.split_whitespace();
    let kind = parts.next().ok_or("empty query line")?;
    let q = match kind {
        "box" => {
            let lo = parse_vector(parts.next().ok_or("box needs LO and HI")?)?;
            let hi = parse_vector(parts.next().ok_or("box needs LO and HI")?)?;
            if lo.len() != dim || hi.len() != dim {
                return Err(format!("box corners must have {dim} coordinates"));
            }
            if lo.iter().zip(&hi).any(|(l, h)| l > h) {
                return Err("box LO must be <= HI in every dimension".into());
            }
            Query::Box(Rect::new(lo, hi))
        }
        "range" => {
            let c = parse_vector(parts.next().ok_or("range needs CENTER and R")?)?;
            let r: f64 = parts
                .next()
                .ok_or("range needs CENTER and R")?
                .parse()
                .map_err(|_| "bad range radius")?;
            if c.len() != dim {
                return Err(format!("range center must have {dim} coordinates"));
            }
            Query::Range {
                q: Point::new(c),
                radius: r,
            }
        }
        "knn" => {
            let c = parse_vector(parts.next().ok_or("knn needs CENTER and K")?)?;
            let k: usize = parts
                .next()
                .ok_or("knn needs CENTER and K")?
                .parse()
                .map_err(|_| "bad knn k")?;
            if c.len() != dim {
                return Err(format!("knn center must have {dim} coordinates"));
            }
            Query::Knn {
                q: Point::new(c),
                k,
                epsilon: 0.0,
            }
        }
        other => return Err(format!("unknown query kind `{other}`")),
    };
    if parts.next().is_some() {
        return Err("trailing tokens after query".into());
    }
    Ok(q)
}

fn batch(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let tree = open_tree(opts)?;
    let path = req(opts, "queries")?;
    let threads: usize = opt_parse(opts, "threads", 1)?;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    let metric = parse_metric(opts.get("metric").map(String::as_str).unwrap_or("l2"))?;
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut queries = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        queries.push(
            parse_batch_line(line, tree.dim()).map_err(|e| format!("{path}:{}: {e}", i + 1))?,
        );
    }
    if queries.is_empty() {
        return Err(format!("{path} holds no queries"));
    }
    let ctx = parse_query_context(opts)?;
    let start = Instant::now();
    let answers =
        run_batch(&tree, metric.as_ref(), &queries, threads, &ctx).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let mut degraded = 0usize;
    for (i, (outcome, io)) in answers.iter().enumerate() {
        let status = match outcome.degrade_reason() {
            None => "complete".to_string(),
            Some(reason) => {
                degraded += 1;
                format!("degraded ({reason})")
            }
        };
        writeln!(
            out,
            "#{i}\t{} results\t{} page reads\t{status}",
            outcome.results().oids.len(),
            io.logical_reads
        )?;
    }
    let total = total_io(&answers);
    eprintln!(
        "[{} queries on {} thread(s) in {:.3}s — {} page reads, {:.1} weighted accesses, \
         {} complete, {degraded} degraded]",
        answers.len(),
        threads,
        elapsed.as_secs_f64(),
        total.logical_reads,
        total.weighted_accesses(),
        answers.len() - degraded,
    );
    let cs = tree.cache_stats();
    eprintln!(
        "[{} decoded-cache hits, {} misses ({:.0}% hit rate)]",
        cs.hits,
        cs.misses,
        cs.hit_rate() * 100.0
    );
    Ok(())
}

fn box_query(opts: &HashMap<String, String>, out: &mut Out) -> Result<(), String> {
    let tree = open_tree(opts)?;
    let lo = parse_vector(req(opts, "lo")?)?;
    let hi = parse_vector(req(opts, "hi")?)?;
    if lo.len() != tree.dim() || hi.len() != tree.dim() {
        return Err(format!("--lo/--hi must have {} coordinates", tree.dim()));
    }
    if lo.iter().zip(&hi).any(|(l, h)| l > h) {
        return Err("--lo must be <= --hi in every dimension".into());
    }
    let ctx = parse_query_context(opts)?;
    print_oids(out, &tree, &Query::Box(Rect::new(lo, hi)), &L2, &ctx)
}
