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
# the serial events/s of the rkv-scale, rkv-overload and tcp-offload
# scenarios vs BENCH_{scale,overload,tcp}.json, and the full design-space
# grid's cells/s vs BENCH_dse.json.
echo "==> perf gates (baselines BENCH_des.json, BENCH_scale.json, BENCH_overload.json, BENCH_tcp.json, BENCH_dse.json)"
./scripts/perf_gate.sh

# Scenario smoke (mirrors the CI scenario-smoke matrix): every scenario at
# its smoke size must export byte-identically for the same seed twice and
# under every listed shard count. Entries: <scenario> <seed> <shards...>.
for entry in "rkv 2 1 3" "rkv-fault 7 1" "rkv-scale 11 4 1" "rkv-overload 11 4 1" \
    "tcp-offload 11 1 4" "pod 64 8 1"; do
    echo "==> scenario smoke: $entry"
    # shellcheck disable=SC2086 # word-splitting the entry is the point
    ./scripts/scenario_smoke.sh $entry
done
grep -q '"fault.drop.loss"' /tmp/scenario-smoke/rkv-fault/a/metrics.jsonl
grep -q '"fault.drop.node"' /tmp/scenario-smoke/rkv-fault/a/metrics.jsonl

# The committed pod: threaded 2/4/8-shard exports must byte-match serial.
echo "==> pod figure (threaded shards vs serial byte-diff)"
cargo run --release -q -p ipipe-bench --bin bench -- --scenario pod --json > /dev/null

# The scenarios' property sweeps and suites (mirror the CI matrix checks).
echo "==> fault recovery, shed-conservation and tcp exactly-once delivery tests"
cargo test -q --release -p ipipe-bench --test fault_recovery
cargo test -q --release --test properties overload_shed
cargo test -q --release --test properties tcp_delivery

# The benchmark's drive loops must stay byte-identical to the library's
# scenario drivers (mirrors the CI tcp-offload matrix entry).
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
