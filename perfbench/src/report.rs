//! Metric names, units and the result line.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("box_p50_us", "us"),
    ("box_p99_us", "us"),
    ("range_p50_us", "us"),
    ("range_p99_us", "us"),
    ("knn_p50_us", "us"),
    ("knn_p99_us", "us"),
    ("mix_qps", "1/s"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("delete_p50_us", "us"),
    ("commit_p50_ms", "ms"),
    ("bytes_per_user_byte", "B/B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("page.checksum_read_us", "us"),
    ("page.file_read_us", "us"),
    ("page.storage_busy_frac", "frac"),
    ("page.storage_reads_per_query", "count"),
    ("page.reads_per_box", "count"),
    ("page.reads_per_range", "count"),
    ("page.reads_per_knn", "count"),
    ("page.cache_hit_rate", "frac"),
    ("page.cache_evictions", "count"),
    ("page.cache_invalidations", "count"),
    ("page.writes_per_insert", "count"),
    ("page.checksum_write_us", "us"),
    ("page.file_write_us", "us"),
    ("page.bytes_written_per_user_byte", "B/B"),
    ("page.sync_ms", "ms"),
    ("core.decode_index_us", "us"),
    ("core.decode_data_us", "us"),
    ("core.view_parse_us", "us"),
    ("core.nav_self_us_per_knn", "us"),
    ("core.nav_self_us_per_range", "us"),
    ("core.useful_leaf_frac_box", "frac"),
    ("core.useful_leaf_frac_range", "frac"),
    ("core.insert_self_us", "us"),
    ("core.height", "count"),
    ("core.avg_fanout", "count"),
    ("core.leaf_util", "frac"),
    ("core.els_bytes", "B"),
    ("core.build_s", "s"),
    ("core.persist_ms", "ms"),
    ("core.open_ms", "ms"),
    ("geom.dist_evals_per_knn", "count"),
    ("geom.dist_evals_per_range", "count"),
    ("geom.rect_bounds_per_knn", "count"),
    ("geom.early_abandon_frac", "frac"),
    ("geom.metric_us_per_knn", "us"),
    ("trace.overhead_frac", "frac"),
];

/// The result line: every metric of `table`, in its order, with its unit.
/// A metric that is missing or not finite makes the run incorrect.
pub fn result_line(
    table: &[(&str, &str)],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
    mut correct: bool,
) -> String {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let v = match v {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("metric {name} has no finite value ({other:?})");
                correct = false;
                0.0
            }
        };
        metrics.push(format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#));
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        correct && failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn missing_metric_marks_run_incorrect() {
        let line = result_line(&[("a", "s"), ("b", "s")], &[("a", 1.5)], 3, 0, true);
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "s"}, "b": {"value": 0.0, "unit": "s"}}}"#
        );
    }
}
