#!/usr/bin/env bash
# Deterministic-count gate: runs perfbench's traced script on both
# workloads and compares every count that depends only on the seed with
# the committed results/perfbench_counts.json.
#
#   scripts/counts.sh            # check (exit 1 and print a diff on change)
#   scripts/counts.sh --update   # rewrite the committed file
#
# The counts are page reads per box/range/kNN query, page writes per
# insert, the decoded-node cache's hit rate, evictions and invalidations,
# distance evaluations and rectangle bounds per query, the tree's
# shape (height, fanout, leaf utilization, ELS bytes) and the share of
# data pages that held a result. Timings are never part of the gate.
#
# Update rule: a change that means to move a count updates
# results/perfbench_counts.json in the same diff (run with --update) and
# lists every changed key as old -> new, with the reason, in CHANGES.md.
# A count that moves without that is a defect in the program, not in the
# file.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=results/perfbench_counts.json
WORKLOADS=(colhist64-cold fourier16-ingest)
# The keys of DETERMINISTIC in perfbench/tests/output.rs, plus the three
# decoded-node cache counters. perfbench's own tests leave those out of
# DETERMINISTIC, yet the traced script runs on one thread, so its cache
# sees one fixed sequence of lookups, inserts and invalidations and the
# counters repeat exactly. They pin the cache's sharding and LRU policy.
KEYS=(
    page.reads_per_box
    page.reads_per_range
    page.reads_per_knn
    page.writes_per_insert
    page.cache_hit_rate
    page.cache_evictions
    page.cache_invalidations
    geom.dist_evals_per_knn
    geom.dist_evals_per_range
    geom.rect_bounds_per_knn
    core.height
    core.avg_fanout
    core.leaf_util
    core.els_bytes
    core.useful_leaf_frac_box
    core.useful_leaf_frac_range
)

case "${1:-}" in
    "") update=0 ;;
    --update) update=1 ;;
    *) echo "usage: scripts/counts.sh [--update]" >&2; exit 2 ;;
esac

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="$PWD/perfbench/target/release/perfbench"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# `"key": <raw value>` from perfbench's one-line JSON result, as printed.
field() { grep -o "\"$1\": [^,}]*" <<<"$2" | head -n1 | sed 's/.*: //'; }
metric() { grep -o "\"$1\": {\"value\": [^,}]*" <<<"$2" | sed 's/.*: //'; }

{
    echo "{"
    for i in "${!WORKLOADS[@]}"; do
        w=${WORKLOADS[$i]}
        line=$(cd "$work" && "$bin" --workload "$w" --trace 1 --scale 0.25 --seed 1 --seconds 2 |
            tail -n1)
        echo "  \"$w\": {"
        echo "    \"correct\": $(field correct "$line"),"
        echo "    \"failed\": $(field failed "$line"),"
        for j in "${!KEYS[@]}"; do
            k=${KEYS[$j]}
            v=$(metric "$k" "$line")
            [ -n "$v" ] || { echo "counts: $w printed no $k" >&2; exit 1; }
            sep=","
            [ "$j" -eq $((${#KEYS[@]} - 1)) ] && sep=""
            echo "    \"$k\": $v$sep"
        done
        sep=","
        [ "$i" -eq $((${#WORKLOADS[@]} - 1)) ] && sep=""
        echo "  }$sep"
    done
    echo "}"
} >"$work/counts.json"

if [ "$update" -eq 1 ]; then
    cp "$work/counts.json" "$GOLDEN"
    echo "counts: wrote $GOLDEN"
elif diff -u "$GOLDEN" "$work/counts.json"; then
    echo "counts: identical to $GOLDEN"
else
    echo "counts: deterministic counts differ from $GOLDEN (see the update rule in $0)" >&2
    exit 1
fi
