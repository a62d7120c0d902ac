//! One driver per table and figure of the paper's evaluation (§4),
//! plus the ablations called out in DESIGN.md.
//!
//! Each driver builds its datasets/workloads from [`Scale`], runs the
//! experiment, and returns a [`FigureReport`] that prints as an aligned
//! text table. Absolute numbers differ from the paper (different data
//! stand-ins and hardware) but the *shapes* — who wins, how costs move
//! with dimensionality/size/precision — are the reproduction targets and
//! are recorded in EXPERIMENTS.md.

use crate::report::{fnum, FigureReport};
use crate::runner::{
    build_engine, compare_box, compare_distance, run_box_queries, CompareRow, Engine,
};
use crate::scale::Scale;
use hybrid_tree::{HybridTree, HybridTreeConfig, SplitPolicy};
use hyt_data::{clustered, colhist, fourier, BoxWorkload, DistanceWorkload};
use hyt_geom::Point;
use hyt_index::{IndexResult, MultidimIndex};
use hyt_kdbtree::KdbTree;
use hyt_page::DEFAULT_PAGE_SIZE;
use std::time::Instant;

/// A figure driver: runs one experiment at a [`Scale`] and returns its
/// table.
pub type Driver = fn(&Scale) -> IndexResult<FigureReport>;

/// Every table, figure, ablation and extra, under the name its report is
/// archived as (`<name>.txt`); `hyt figures` runs them.
pub const FIGURES: &[(&str, Driver)] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig5ab", fig5ab),
    ("fig5c", fig5c),
    ("fig6ab", fig6ab),
    ("fig6cd", fig6cd),
    ("fig7ab", fig7ab),
    ("fig7cd", fig7cd),
    ("ablate_split_dim", ablate_split_dim),
    ("ablate_split_pos", ablate_split_pos),
    ("ablate_dim_elim", ablate_dim_elim),
    ("ablate_overlap", ablate_overlap),
    ("knn_comparison", knn_comparison),
    ("build_costs", build_costs),
];

/// COLHIST dimensionalities used throughout the paper.
const COLHIST_DIMS: [usize; 3] = [16, 32, 64];
/// FOURIER dimensionalities used in Fig 6(a,b).
const FOURIER_DIMS: [usize; 3] = [8, 12, 16];

fn colhist_workload(scale: &Scale, dim: usize, n: usize) -> (Vec<Point>, BoxWorkload) {
    let data = colhist(n, dim, scale.seed + dim as u64);
    let wl = BoxWorkload::calibrated(
        &data,
        scale.queries,
        Scale::COLHIST_SELECTIVITY,
        scale.seed ^ 0xc01,
    );
    (data, wl)
}

fn push_rows(report: &mut FigureReport, prefix: &str, rows: &[CompareRow]) {
    for r in rows {
        report.row(vec![
            prefix.into(),
            r.engine.clone(),
            fnum(r.avg_accesses),
            format!("{:.1}", r.avg_cpu.as_secs_f64() * 1e6),
            fnum(r.normalized_io),
            fnum(r.normalized_cpu),
            fnum(r.avg_results),
        ]);
    }
}

fn comparison_columns() -> Vec<&'static str> {
    vec![
        "config",
        "engine",
        "accesses/q",
        "cpu(us)/q",
        "norm-io",
        "norm-cpu",
        "results/q",
    ]
}

/// Figure 5(a,b): EDA-optimal vs VAMSplit node splitting — average disk
/// accesses and CPU time per query vs COLHIST dimensionality.
pub fn fig5ab(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 5(a,b): EDA-optimal vs VAMSplit (COLHIST box queries)",
        vec!["dim", "split", "accesses/q", "cpu(us)/q", "results/q"],
    );
    for dim in COLHIST_DIMS {
        let (data, wl) = colhist_workload(scale, dim, scale.colhist_n);
        for (label, engine) in [
            ("eda-optimal", Engine::Hybrid),
            ("vam-split", Engine::HybridVam),
        ] {
            let (idx, _) = build_engine(engine, &data)?;
            let cost = run_box_queries(idx.as_ref(), &wl.queries)?;
            rep.row(vec![
                dim.to_string(),
                label.into(),
                fnum(cost.avg_accesses),
                format!("{:.1}", cost.avg_cpu.as_secs_f64() * 1e6),
                fnum(cost.avg_results),
            ]);
        }
    }
    rep.note(
        "paper shape: EDA-optimal below VAMSplit at every dimensionality, gap widening with dim",
    );
    Ok(rep)
}

/// Figure 5(c): effect of ELS precision (bits per boundary) on disk
/// accesses, for 16/32/64-d COLHIST.
pub fn fig5c(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 5(c): ELS precision sweep (COLHIST box queries)",
        vec!["dim", "els-bits", "accesses/q", "els-overhead(bytes)"],
    );
    for dim in COLHIST_DIMS {
        let (data, wl) = colhist_workload(scale, dim, scale.colhist_n);
        for bits in [0u8, 1, 2, 4, 8, 12, 16] {
            let mut tree = HybridTree::new(
                dim,
                HybridTreeConfig {
                    els_bits: bits,
                    ..HybridTreeConfig::default()
                },
            )?;
            for (i, p) in data.iter().enumerate() {
                tree.insert(p.clone(), i as u64)?;
            }
            let cost = run_box_queries(&tree, &wl.queries)?;
            rep.row(vec![
                dim.to_string(),
                bits.to_string(),
                fnum(cost.avg_accesses),
                tree.els_overhead_bytes().to_string(),
            ]);
        }
    }
    rep.note("paper shape: steep drop from 0 to 4 bits, little improvement beyond 4 bits");
    Ok(rep)
}

/// Figure 6(a,b): normalized I/O and CPU cost vs dimensionality on
/// FOURIER — hybrid vs hB-tree vs SR-tree vs linear scan.
pub fn fig6ab(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 6(a,b): scalability with dimensionality (FOURIER box queries)",
        comparison_columns(),
    );
    for dim in FOURIER_DIMS {
        let data = fourier(scale.fourier_n, dim, scale.seed + dim as u64);
        let wl = BoxWorkload::calibrated(
            &data,
            scale.queries,
            Scale::FOURIER_SELECTIVITY,
            scale.seed ^ 0xf00,
        );
        let rows = compare_box(
            &[Engine::Hybrid, Engine::Hb, Engine::Sr],
            &data,
            &wl.queries,
        )?;
        push_rows(&mut rep, &format!("{dim}-d"), &rows);
    }
    rep.note("paper shape: hybrid < hB < 0.1 (scan) < SR in I/O at higher dims; hybrid lowest CPU");
    Ok(rep)
}

/// Figure 6(c,d): normalized I/O and CPU cost vs dimensionality on
/// COLHIST.
pub fn fig6cd(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 6(c,d): scalability with dimensionality (COLHIST box queries)",
        comparison_columns(),
    );
    for dim in COLHIST_DIMS {
        let (data, wl) = colhist_workload(scale, dim, scale.colhist_n);
        let rows = compare_box(
            &[Engine::Hybrid, Engine::HybridBulk, Engine::Hb, Engine::Sr],
            &data,
            &wl.queries,
        )?;
        push_rows(&mut rep, &format!("{dim}-d"), &rows);
    }
    rep.note("paper shape: hybrid wins at all dims; SR-tree degrades fastest with dimensionality");
    rep.note(
        "hybrid-bulk isolates the structure from insertion-order effects (see EXPERIMENTS.md)",
    );
    Ok(rep)
}

/// Figure 7(a,b): normalized I/O and CPU cost vs database size
/// (64-d COLHIST).
pub fn fig7ab(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 7(a,b): scalability with database size (64-d COLHIST box queries)",
        comparison_columns(),
    );
    for n in scale.size_sweep {
        let (data, wl) = colhist_workload(scale, 64, n);
        let rows = compare_box(
            &[Engine::Hybrid, Engine::Hb, Engine::Sr],
            &data,
            &wl.queries,
        )?;
        push_rows(&mut rep, &format!("n={n}"), &rows);
    }
    rep.note("paper shape: hybrid an order of magnitude below others; its normalized cost falls as n grows (sublinear absolute cost)");
    Ok(rep)
}

/// Figure 7(c,d): distance-based queries (L1 / Manhattan, as in MARS) —
/// hybrid vs SR-tree vs scan (hB-tree unsupported, paper §4 footnote 2).
pub fn fig7cd(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Figure 7(c,d): distance-based queries, L1 metric (COLHIST)",
        comparison_columns(),
    );
    for dim in COLHIST_DIMS {
        let data = colhist(scale.colhist_n, dim, scale.seed + dim as u64);
        // Distance queries model query-by-example similarity search (the
        // MARS workload): query centers are images from the collection.
        let wl = DistanceWorkload::calibrated_from_data(
            &data,
            scale.queries,
            Scale::COLHIST_SELECTIVITY,
            &hyt_geom::L1,
            scale.seed ^ 0xd15,
        );
        let rows = compare_distance(
            &[Engine::Hybrid, Engine::Sr],
            &data,
            &wl.centers,
            wl.radius,
            &hyt_geom::L1,
        )?;
        push_rows(&mut rep, &format!("{dim}-d"), &rows);
    }
    rep.note("paper shape: hybrid outperforms SR-tree and scan for L1 range queries at every dim");
    Ok(rep)
}

/// Table 1: splitting strategies of the index structures, measured on
/// built trees (64-d COLHIST) rather than asserted.
pub fn table1(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Table 1: splitting strategies, measured on 64-d COLHIST",
        vec![
            "engine",
            "fanout",
            "overlap-frac",
            "leaf-util",
            "split-dims",
            "redundant-bytes",
            "height",
        ],
    );
    let data = colhist(scale.colhist_n, 64, scale.seed + 64);
    for engine in [Engine::Hybrid, Engine::Kdb, Engine::Hb, Engine::Sr] {
        let (idx, _) = build_engine(engine, &data)?;
        let st = idx.structure_stats()?;
        rep.row(vec![
            engine.name(),
            fnum(st.avg_fanout),
            fnum(st.avg_overlap_fraction),
            fnum(st.avg_leaf_utilization),
            st.distinct_split_dims.to_string(),
            st.redundant_bytes.to_string(),
            st.height.to_string(),
        ]);
    }
    rep.note("paper claims: kDB/hB/hybrid fanout high & dim-independent, SR(R-tree) fanout low;");
    rep.note("hybrid overlap low but nonzero; hB redundancy > 0; hybrid+hB+SR keep utilization");
    Ok(rep)
}

/// Table 2: hybrid vs BR-based vs kd-tree-based structures — the feature
/// matrix, with the measurable cells filled from real trees.
pub fn table2(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Table 2: hybrid tree vs BR-based vs kd-tree-based index structures",
        vec!["property", "BR-based (SR)", "kd-based (kDB/hB)", "hybrid"],
    );
    rep.row(vec![
        "representation".into(),
        "array of BRs".into(),
        "kd-tree".into(),
        "kd-tree + 2 split positions".into(),
    ]);
    rep.row(vec![
        "subspaces".into(),
        "may overlap".into(),
        "strictly disjoint".into(),
        "may overlap".into(),
    ]);
    rep.row(vec![
        "split dims/node".into(),
        "all k".into(),
        "1 or more".into(),
        "1".into(),
    ]);
    rep.row(vec![
        "dead-space elim.".into(),
        "yes (BRs)".into(),
        "no".into(),
        "yes (ELS)".into(),
    ]);
    // Measured support: overlap fraction + ELS benefit on a small build.
    let data = colhist(scale.colhist_n.min(10_000), 32, scale.seed);
    let wl = BoxWorkload::calibrated(&data, scale.queries, Scale::COLHIST_SELECTIVITY, 3);
    let (sr, _) = build_engine(Engine::Sr, &data)?;
    let (kdb, _) = build_engine(Engine::Kdb, &data)?;
    let (els0, _) = build_engine(Engine::HybridEls(0), &data)?;
    let (els4, _) = build_engine(Engine::HybridEls(4), &data)?;
    let a_sr = run_box_queries(sr.as_ref(), &wl.queries)?.avg_accesses;
    let a_kdb = run_box_queries(kdb.as_ref(), &wl.queries)?.avg_accesses;
    let a0 = run_box_queries(els0.as_ref(), &wl.queries)?.avg_accesses;
    let a4 = run_box_queries(els4.as_ref(), &wl.queries)?.avg_accesses;
    rep.row(vec![
        "measured accesses/q (32-d)".into(),
        fnum(a_sr),
        fnum(a_kdb),
        format!("{} (ELS off: {})", fnum(a4), fnum(a0)),
    ]);
    Ok(rep)
}

/// Beyond the paper: k-nearest-neighbor cost across engines. The paper
/// states the hybrid tree supports NN queries (§3.5) but reports no NN
/// experiment; this fills that gap with the standard best-first search
/// on every engine that supports distance queries.
pub fn knn_comparison(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Extra: 10-NN query cost, L2 (COLHIST)",
        vec!["dim", "engine", "accesses/q", "cpu(us)/q"],
    );
    for dim in [16usize, 64] {
        let data = colhist(scale.colhist_n, dim, scale.seed + dim as u64);
        let queries: Vec<Point> = data
            .iter()
            .step_by(data.len() / scale.queries)
            .cloned()
            .collect();
        for engine in [
            Engine::Hybrid,
            Engine::HybridBulk,
            Engine::Sr,
            Engine::Kdb,
            Engine::Scan,
        ] {
            let (idx, _) = build_engine(engine, &data)?;
            idx.reset_io_stats();
            let start = Instant::now();
            for q in &queries {
                idx.knn(q, 10, &hyt_geom::L2)?;
            }
            let cpu = start.elapsed().as_secs_f64() / queries.len() as f64;
            let acc = idx.io_stats().weighted_accesses() / queries.len() as f64;
            rep.row(vec![
                dim.to_string(),
                engine.name(),
                fnum(acc),
                format!("{:.1}", cpu * 1e6),
            ]);
        }
    }
    rep.note("query points are collection members (query-by-example); k = 10");
    Ok(rep)
}

/// Beyond the paper: construction cost — wall time and pages — for every
/// engine, including the bulk loader.
pub fn build_costs(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Extra: build cost (32-d COLHIST)",
        vec!["engine", "build(ms)", "pages", "leaf-util", "height"],
    );
    let data = colhist(scale.colhist_n, 32, scale.seed + 32);
    for engine in [
        Engine::Hybrid,
        Engine::HybridBulk,
        Engine::Hb,
        Engine::Sr,
        Engine::Kdb,
        Engine::Scan,
    ] {
        let (idx, build) = build_engine(engine, &data)?;
        let st = idx.structure_stats()?;
        rep.row(vec![
            engine.name(),
            format!("{:.0}", build.as_secs_f64() * 1e3),
            st.total_nodes.to_string(),
            fnum(st.avg_leaf_utilization),
            st.height.to_string(),
        ]);
    }
    rep.note("all engines are fully dynamic; bulk loading is the hybrid tree's fast path");
    Ok(rep)
}

/// Ablation: data-node split *dimension* policy (max-extent vs
/// max-variance vs round-robin), paper §3.2 discussion.
pub fn ablate_split_dim(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Ablation: split dimension choice (COLHIST box queries)",
        vec!["dim", "policy", "accesses/q", "distinct-split-dims"],
    );
    for dim in [16usize, 64] {
        let (data, wl) = colhist_workload(scale, dim, scale.colhist_n.min(20_000));
        for (label, policy) in [
            ("max-extent (paper)", SplitPolicy::EdaOptimal),
            ("max-variance", SplitPolicy::Vam),
            ("round-robin", SplitPolicy::RoundRobin),
        ] {
            let mut tree = HybridTree::new(
                dim,
                HybridTreeConfig {
                    split_policy: policy,
                    ..HybridTreeConfig::default()
                },
            )?;
            for (i, p) in data.iter().enumerate() {
                tree.insert(p.clone(), i as u64)?;
            }
            let cost = run_box_queries(&tree, &wl.queries)?;
            let st = tree.structure_stats()?;
            rep.row(vec![
                dim.to_string(),
                label.into(),
                fnum(cost.avg_accesses),
                st.distinct_split_dims.to_string(),
            ]);
        }
    }
    rep.note("expected: max-extent lowest accesses; round-robin wastes splits on non-discriminating dims");
    Ok(rep)
}

/// Ablation: data-node split *position* (middle vs median), isolating
/// the §3.2 footnote-1 rule.
pub fn ablate_split_pos(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Ablation: split position, middle vs median (COLHIST box queries)",
        vec!["dim", "position", "accesses/q"],
    );
    for dim in [16usize, 64] {
        let (data, wl) = colhist_workload(scale, dim, scale.colhist_n.min(20_000));
        for (label, policy) in [
            ("middle (paper)", SplitPolicy::EdaOptimal),
            ("median", SplitPolicy::MaxExtentMedian),
        ] {
            let mut tree = HybridTree::new(
                dim,
                HybridTreeConfig {
                    split_policy: policy,
                    ..HybridTreeConfig::default()
                },
            )?;
            for (i, p) in data.iter().enumerate() {
                tree.insert(p.clone(), i as u64)?;
            }
            let cost = run_box_queries(&tree, &wl.queries)?;
            rep.row(vec![dim.to_string(), label.into(), fnum(cost.avg_accesses)]);
        }
    }
    rep.note("paper: middle splits give more cubic BRs, hence fewer accesses");
    Ok(rep)
}

/// Ablation: implicit dimensionality reduction (Lemma 1) — how many
/// dimensions each policy ever splits, on data with non-discriminating
/// dimensions.
pub fn ablate_dim_elim(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Ablation: implicit dimensionality reduction (64-d COLHIST)",
        vec!["policy", "distinct-split-dims", "of-dims", "accesses/q"],
    );
    let (data, wl) = colhist_workload(scale, 64, scale.colhist_n.min(20_000));
    for (label, policy) in [
        ("eda-optimal", SplitPolicy::EdaOptimal),
        ("round-robin", SplitPolicy::RoundRobin),
    ] {
        let mut tree = HybridTree::new(
            64,
            HybridTreeConfig {
                split_policy: policy,
                ..HybridTreeConfig::default()
            },
        )?;
        for (i, p) in data.iter().enumerate() {
            tree.insert(p.clone(), i as u64)?;
        }
        let cost = run_box_queries(&tree, &wl.queries)?;
        let st = tree.structure_stats()?;
        rep.row(vec![
            label.into(),
            st.distinct_split_dims.to_string(),
            "64".into(),
            fnum(cost.avg_accesses),
        ]);
    }
    rep.note("Lemma 1: EDA-optimal splitting never touches non-discriminating dims");
    Ok(rep)
}

/// Ablation: relaxed (overlapping) splits vs forced-clean splits — the
/// hybrid tree vs the kDB-tree on clustered data, with cascade counters.
pub fn ablate_overlap(scale: &Scale) -> IndexResult<FigureReport> {
    let mut rep = FigureReport::new(
        "Ablation: overlap relaxation vs clean cascading splits (clustered 8-d)",
        vec![
            "engine",
            "accesses/q",
            "leaf-util",
            "total-splits",
            "forced-splits",
            "empty-pages",
        ],
    );
    let n = scale.colhist_n.min(20_000);
    let data = clustered(n, 8, 10, 0.01, scale.seed);
    let wl = BoxWorkload::calibrated(&data, scale.queries, 0.005, scale.seed ^ 0xab);

    let mut hybrid = HybridTree::new(8, HybridTreeConfig::default())?;
    let start = Instant::now();
    for (i, p) in data.iter().enumerate() {
        hybrid.insert(p.clone(), i as u64)?;
    }
    let _ = start;
    let hc = run_box_queries(&hybrid, &wl.queries)?;
    let hst = hybrid.structure_stats()?;
    rep.row(vec![
        "hybrid".into(),
        fnum(hc.avg_accesses),
        fnum(hst.avg_leaf_utilization),
        "-".into(),
        "0".into(),
        "0".into(),
    ]);

    let mut kdb = KdbTree::new(8, DEFAULT_PAGE_SIZE)?;
    for (i, p) in data.iter().enumerate() {
        kdb.insert(p.clone(), i as u64)?;
    }
    let kc = run_box_queries(&kdb, &wl.queries)?;
    let kst = kdb.structure_stats()?;
    let ks = kdb.split_stats();
    rep.row(vec![
        "kdb-tree".into(),
        fnum(kc.avg_accesses),
        fnum(kst.avg_leaf_utilization),
        ks.total_splits.to_string(),
        ks.forced_splits.to_string(),
        ks.empty_pages_created.to_string(),
    ]);
    rep.note("paper §3.1: relaxing cleanliness avoids cascades and preserves utilization");
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    /// A tiny scale so figure drivers run in CI-test time.
    fn tiny() -> Scale {
        Scale {
            fourier_n: 2_000,
            colhist_n: 1_500,
            size_sweep: [400, 800, 1200, 1500],
            queries: 6,
            seed: 99,
        }
    }

    /// Every registered driver's report at [`tiny`], run once and shared
    /// by the tests below.
    fn report(name: &str) -> &'static FigureReport {
        static REPORTS: OnceLock<HashMap<&str, FigureReport>> = OnceLock::new();
        let reports = REPORTS.get_or_init(|| {
            FIGURES
                .iter()
                .map(|(name, driver)| {
                    let rep = driver(&tiny()).unwrap_or_else(|e| panic!("{name}: {e}"));
                    (*name, rep)
                })
                .collect()
        });
        &reports[name]
    }

    #[test]
    fn the_registry_holds_every_public_driver_once_and_each_yields_rows() {
        // A driver is any `pub fn NAME(scale: &Scale)` in this file.
        let mut drivers: Vec<&str> = include_str!("figures.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub fn "))
            .filter_map(|l| l.strip_suffix("(scale: &Scale) -> IndexResult<FigureReport> {"))
            .collect();
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        drivers.sort_unstable();
        names.sort_unstable();
        assert_eq!(names, drivers);
        for name in names {
            assert!(!report(name).rows.is_empty(), "{name} produced no rows");
        }
    }

    #[test]
    fn fig5ab_produces_rows() {
        let rep = report("fig5ab");
        assert_eq!(rep.rows.len(), 6); // 3 dims x 2 policies
        assert!(rep.to_string().contains("eda-optimal"));
    }

    #[test]
    fn fig5c_produces_sweep() {
        let rep = report("fig5c");
        assert_eq!(rep.rows.len(), 21); // 3 dims x 7 precisions
    }

    #[test]
    fn fig6_and_fig7_produce_all_engines() {
        let s = report("fig6cd").to_string();
        for e in ["hybrid", "hb-tree", "sr-tree", "seq-scan"] {
            assert!(s.contains(e), "{e} missing from fig6cd");
        }
        let s = report("fig7cd").to_string();
        assert!(s.contains("hybrid") && s.contains("sr-tree"));
        assert!(!s.contains("hb-tree"), "hB-tree must be absent from 7(c,d)");
    }

    #[test]
    fn tables_render() {
        assert_eq!(report("table1").rows.len(), 4);
        assert!(report("table2").rows.len() >= 5);
    }

    #[test]
    fn ablations_run() {
        assert!(report("ablate_split_pos").rows.len() == 4);
        assert!(report("ablate_dim_elim").rows.len() == 2);
        assert!(report("ablate_overlap").rows.len() == 2);
    }
}
