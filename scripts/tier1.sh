#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from the repository root before sending a change for review.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (warnings are errors; the unwrap/expect and unsafe-comment denials are crate attributes)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test --release hyt-page (the CRC-32 kernel is unsafe code: test it optimized too)"
cargo test --release -q -p hyt-page

echo "== perfbench tests (a separate workspace: build it against the changed crates and check its answers against the brute-force oracle)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== deterministic counts (perfbench's traced page, distance and structure counts must equal results/perfbench_counts.json)"
scripts/counts.sh

echo "== chaos queries (governed batches under fault load; must finish, not hang)"
timeout 120 cargo test -q --test chaos_queries

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== cargo doc hyt-exec (kernel contract docs must build clean, private items included)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p hyt-exec --document-private-items --quiet

echo "tier-1 green"
