#!/usr/bin/env bash
# Full local gate: everything CI would require before merging.
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Hard perf-regression gates: desbench wheel throughput vs BENCH_des.json,
# the planetary scale scenario's events/s vs BENCH_scale.json, the
# overload spike scenario's events/s vs BENCH_overload.json, the
# tcp-offload scenario's events/s vs BENCH_tcp.json, and the full
# design-space grid's cells/s vs BENCH_dse.json.
echo "==> perf gates (baselines BENCH_des.json, BENCH_scale.json, BENCH_overload.json, BENCH_tcp.json, BENCH_dse.json)"
./scripts/perf_gate.sh

# Sharded-DES determinism: two same-seed 8-shard pod runs must write
# byte-identical canonical exports.
echo "==> pardesbench determinism (8 shards, same seed twice)"
cargo run --release -q -p ipipe-bench --bin pardesbench -- --export /tmp/pardes_a.jsonl --shards 8
cargo run --release -q -p ipipe-bench --bin pardesbench -- --export /tmp/pardes_b.jsonl --shards 8
diff /tmp/pardes_a.jsonl /tmp/pardes_b.jsonl
echo "pardesbench exports are byte-identical"

# Multi-group scale smoke (mirrors the CI scale-smoke job): the reduced
# rkv-scale scenario must run audit-clean, two same-seed 4-shard runs must
# export byte-identically, and the serial run must match the sharded one.
echo "==> rkv-scale smoke (16 groups, 1e5 users; determinism + shard invariance)"
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-scale --groups 16 --users 100000 --seed 11 \
    --shards 4 --out /tmp/scale_a > /tmp/scale_summary_a.txt
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-scale --groups 16 --users 100000 --seed 11 \
    --shards 4 --out /tmp/scale_b > /tmp/scale_summary_b.txt
diff -u /tmp/scale_summary_a.txt /tmp/scale_summary_b.txt
diff -r /tmp/scale_a /tmp/scale_b
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-scale --groups 16 --users 100000 --seed 11 \
    --shards 1 --out /tmp/scale_serial > /tmp/scale_summary_serial.txt
diff -u /tmp/scale_summary_serial.txt /tmp/scale_summary_a.txt
diff -r /tmp/scale_serial /tmp/scale_a
echo "rkv-scale exports are byte-identical (same seed twice, 1 vs 4 shards)"

# Overload smoke (mirrors the CI overload-smoke job): the reduced
# rkv-overload scenario (10x spike + compaction storm + ingress admission)
# must run audit-clean with its SLO held, two same-seed 4-shard runs must
# export byte-identically, and the serial run must match the sharded one.
echo "==> rkv-overload smoke (16 groups, 1e5 users; determinism + shard invariance)"
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-overload --groups 16 --users 100000 --seed 11 \
    --shards 4 --out /tmp/overload_a > /tmp/overload_summary_a.txt
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-overload --groups 16 --users 100000 --seed 11 \
    --shards 4 --out /tmp/overload_b > /tmp/overload_summary_b.txt
diff -u /tmp/overload_summary_a.txt /tmp/overload_summary_b.txt
diff -r /tmp/overload_a /tmp/overload_b
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario rkv-overload --groups 16 --users 100000 --seed 11 \
    --shards 1 --out /tmp/overload_serial > /tmp/overload_summary_serial.txt
diff -u /tmp/overload_summary_serial.txt /tmp/overload_summary_a.txt
diff -r /tmp/overload_serial /tmp/overload_a
echo "rkv-overload exports are byte-identical (same seed twice, 1 vs 4 shards)"

# Shed-conservation property sweep (mirrors the CI overload-smoke job).
echo "==> shed-conservation proptests"
cargo test -q --release --test properties overload_shed

# TCP offload smoke (mirrors the CI tcp-smoke job): the tcp-offload
# scenario must run audit-clean (byte conservation + exactly-once in-order
# delivery), two same-seed runs must export byte-identically, and the
# serial run must match the 4-shard one.
echo "==> tcp-offload smoke (determinism + shard invariance)"
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario tcp-offload --seed 11 --out /tmp/tcp_a > /tmp/tcp_summary_a.txt
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario tcp-offload --seed 11 --out /tmp/tcp_b > /tmp/tcp_summary_b.txt
diff -u /tmp/tcp_summary_a.txt /tmp/tcp_summary_b.txt
diff -r /tmp/tcp_a /tmp/tcp_b
cargo run --release -q -p ipipe-bench --bin traceview -- \
    --scenario tcp-offload --seed 11 --shards 4 \
    --out /tmp/tcp_sharded > /tmp/tcp_summary_sharded.txt
diff -u /tmp/tcp_summary_a.txt /tmp/tcp_summary_sharded.txt
diff -r /tmp/tcp_a /tmp/tcp_sharded
echo "tcp-offload exports are byte-identical (same seed twice, 1 vs 4 shards)"

# TCP delivery property sweep (mirrors the CI tcp-smoke job).
echo "==> tcp exactly-once delivery proptests"
cargo test -q --release --test properties tcp_delivery

# The benchmark's drive loops must stay byte-identical to the library's
# scenario drivers (mirrors the CI tcp-smoke job).
echo "==> perfbench faithfulness tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# DSE smoke (mirrors the CI dse-smoke job): the 16-design smoke grid's
# canonical export must be byte-identical between a serial run and a
# parallel run with the same seed, the Pareto engine must survive its
# property suite, and the spec-calibration unit tests must hold.
echo "==> dse smoke (16-design grid; serial vs parallel byte-diff)"
cargo run --release -q -p ipipe-bench --bin dse -- \
    --smoke --seed 17 --serial --export /tmp/dse_serial.txt > /dev/null
cargo run --release -q -p ipipe-bench --bin dse -- \
    --smoke --seed 17 --export /tmp/dse_parallel.txt > /dev/null
diff /tmp/dse_serial.txt /tmp/dse_parallel.txt
echo "dse smoke exports are byte-identical (serial vs parallel)"
echo "==> pareto proptests + spec calibration + shard-invariance unit tests"
cargo test -q --release -p ipipe-bench --test pareto_props
cargo test -q --release -p ipipe-nicsim --lib
cargo test -q --release -p ipipe-bench --lib differential::tests::dse_grid_is_schedule_and_shard_invariant

echo "==> all checks passed"
