#!/usr/bin/env sh
# Tier-1 verification: style, lints, release build, full test suite, repo
# hygiene lint, fuzz + bench smoke. Any failing step fails the script.
#
# This mirrors the CI matrix (.github/workflows/ci.yml) in one process:
#   lint job  -> rustfmt --check, clippy -D warnings, xtask-lint
#   test job  -> release build + root and workspace test suites
#                (CI also repeats the test job on beta)
#   serve job -> `wcc serve --self-check` + a reduced `wcc bench serve`
#                (CI runs 1000 connections and gates the JSON report)
#   bench job -> trajectory run + the bench-regression gate against
#                ci/bench-baseline.json; every gate is a row of the TABLE in
#                crates/bench/src/trajectory.rs
# The baseline comparison is CI-only, but the trajectory smoke run below
# still runs every gate that judges the run alone.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> xtask-lint"
cargo run --quiet --bin xtask-lint

echo "==> xtask-lint --waivers (stale-waiver audit)"
cargo run --quiet --bin xtask-lint -- --waivers

echo "==> wcc fuzz (smoke)"
./target/release/wcc fuzz --iters 25 --seed 1 --shrink

echo "==> wcc replay --shards 2 (smoke)"
# Single-trace sharded replay: drives the arena-allocated event path and
# the batched cross-shard window delivery end to end.
./target/release/wcc replay --trace epa --protocol invalidation --scale 20 --shards 2

echo "==> wcc replay --inval-batch 8 (smoke)"
# Batched invalidation proposer: per-write fan-out coalesced into
# InvalidateBatch rounds (count threshold 8) with adaptive per-document
# leases; the replay must still report zero consistency violations.
./target/release/wcc replay --trace epa --protocol invalidation --scale 20 \
  --inval-batch 8 --adaptive-lease

echo "==> wcc replay --family (smoke)"
# Scenario-family path: the flash-crowd federation replayed sharded. The
# nightly workflow sweeps all five families sequential-vs-sharded; this
# just proves the family generator and multi-origin replay path run.
./target/release/wcc replay --family flash-crowd --scale 20 --shards 2

echo "==> wcc serve --self-check (smoke)"
# Serving-tier self-check: spawn an origin+proxy daemon pair, push two
# pipelined GETs over a real socket, scrape /metrics, shut down cleanly.
timeout 60 ./target/release/wcc serve --self-check

echo "==> wcc bench serve (smoke)"
# 64 keep-alive connections through the readiness reactor; exits non-zero
# on any stale serve. CI's serve job runs the same bench at 1000
# connections and gates the JSON report.
timeout 120 ./target/release/wcc bench serve --connections 64 --requests 8 --in-process >/dev/null

echo "==> bench trajectory (smoke)"
# Exits non-zero if a gate that judges the run alone fails (byte-identity,
# dropped or stale serves, the memory, recycle, decode and proposer bounds).
./target/release/trajectory --scale 100 --shards 2 --out /tmp/BENCH_replay.smoke.json

echo "verify: OK"
