#!/usr/bin/env bash
# Determinism smoke for one scenario at its CI (--smoke) size:
#
#   ./scripts/scenario_smoke.sh <scenario> <seed> <shards> [<shards>...]
#
# Runs `bench` twice at the first shard count, then once per further shard
# count; stdout and the `--out` exports (metrics.jsonl, chrome.json) must be
# byte-identical throughout. Outputs stay in /tmp/scenario-smoke/<scenario>/
# (`a`, `b`, `shards-N`).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ]; then
    echo "usage: $0 <scenario> <seed> <shards> [<shards>...]" >&2
    exit 2
fi
scenario=$1 seed=$2 first=$3
shift 3

dir=/tmp/scenario-smoke/$scenario
rm -rf "$dir"
mkdir -p "$dir"

cargo build --release -q -p ipipe-bench --bin bench
run() { # <shards> <name>
    ./target/release/bench --scenario "$scenario" --smoke --seed "$seed" \
        --shards "$1" --out "$dir/$2" > "$dir/$2.txt"
}

run "$first" a
run "$first" b
diff -u "$dir/a.txt" "$dir/b.txt"
diff -r "$dir/a" "$dir/b"
echo "$scenario: same seed twice at $first shard(s) is byte-identical"

for shards in "$@"; do
    run "$shards" "shards-$shards"
    diff -u "$dir/a.txt" "$dir/shards-$shards.txt"
    diff -r "$dir/a" "$dir/shards-$shards"
    echo "$scenario: $shards shard(s) matches $first shard(s) byte for byte"
done
