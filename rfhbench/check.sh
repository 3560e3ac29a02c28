#!/usr/bin/env bash
# CI for the benchmark, offline: build it, run its unit tests, then one
# quick traced run of every workload. `run` itself fails when an operation
# fails or a run reports other metrics than BENCHMARK.json declares; the
# checks below restate that on the result file.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=rfhbench/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

out=rfhbench/out/check.json
start=$SECONDS
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --quick --traced --out "$out"
echo "quick run: $((SECONDS - start)) s"

fail() { echo "check.sh: $*" >&2; exit 1; }
grep -q '"schema":"rfh-benchmark-v1"' "$out" || fail "no result file"
for w in paper_repro compile_large sim_suite daemon_edit; do
    grep -q "\"$w\":{\"attempted\":[0-9]*,\"failed\":0,\"correct\":true" "$out" \
        || fail "$w failed operations"
done
# Every declared metric, and no other, for every workload.
declared=$(grep -o '"name": "[^"]*"' BENCHMARK.json | cut -d'"' -f4 | sort)
workload_names=$(printf '%s\n' paper_repro compile_large sim_suite daemon_edit | sort)
declared_metrics=$(comm -23 <(echo "$declared") <(echo "$workload_names"))
reported=$(grep -o '"[a-z0-9_.]*":{"unit"' "$out" | cut -d'"' -f2 | sort -u)
[ "$declared_metrics" = "$reported" ] || fail "reported metrics differ from BENCHMARK.json"
echo "check.sh: ok"
