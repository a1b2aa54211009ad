#!/usr/bin/env bash
# Perf-regression gates: measured throughput must stay within 30% of the
# committed baselines.
#
#   * desbench — timing-wheel microbenchmark events/s vs BENCH_des.json
#   * bench    — serial events/s of each gated scenario (`bench --scenario
#                <name> --json`) vs its BENCH_*.json: rkv-scale,
#                rkv-overload, tcp-offload
#   * dse      — full design-space grid cells/s vs BENCH_dse.json
#
# The baselines are machine-dependent; regenerate them on the reference
# machine whenever the hardware or a workload definition changes:
#   cargo run --release -p ipipe-bench --bin desbench > BENCH_des.json
#   cargo run --release -p ipipe-bench --bin bench -- --scenario rkv-scale --json > BENCH_scale.json
#   (likewise rkv-overload > BENCH_overload.json, tcp-offload > BENCH_tcp.json)
#   cargo run --release -p ipipe-bench --bin dse > BENCH_dse.json
set -euo pipefail
cd "$(dirname "$0")/.."

# a numeric rate field inside the named JSON object of a one-line bench
# output.
extract_rate() { # <object-name> <field> <json-text>
    echo "$3" | grep -o "\"$1\":{[^}]*}" | grep -o "\"$2\":[0-9.]*" | cut -d: -f2
}

# gate <label> <object-name> <baseline-file> <current-output> [<field>]
gate() {
    local label=$1 object=$2 basefile=$3 out=$4 field=${5:-events_per_sec}
    local base cur
    base=$(extract_rate "$object" "$field" "$(cat "$basefile")")
    cur=$(extract_rate "$object" "$field" "$out")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "FAIL: could not extract $object $field (base='$base' cur='$cur')"
        exit 1
    fi
    if awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c < 0.7 * b) }'; then
        echo "FAIL: $label throughput ${cur} ${field} regressed >30% below baseline ${base}"
        exit 1
    fi
    echo "perf gate: $label ${cur} vs baseline ${base} ${field} — within 30%"
}

out=$(cargo run --release -q -p ipipe-bench --bin desbench)
echo "$out"
gate "wheel" "wheel" BENCH_des.json "$out"

# <scenario>:<json object>:<baseline file>
for entry in rkv-scale:scale:BENCH_scale.json rkv-overload:overload:BENCH_overload.json \
    tcp-offload:tcp:BENCH_tcp.json; do
    IFS=: read -r scenario object basefile <<< "$entry"
    out=$(cargo run --release -q -p ipipe-bench --bin bench -- --scenario "$scenario" --json)
    echo "$out"
    gate "$object" "$object" "$basefile" "$out"
done

out=$(cargo run --release -q -p ipipe-bench --bin dse)
echo "$out"
gate "dse" "dse" BENCH_dse.json "$out" cells_per_sec
