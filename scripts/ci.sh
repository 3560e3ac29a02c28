#!/usr/bin/env sh
# Hermetic CI gate: everything here must pass with an empty cargo
# registry. `--offline` is load-bearing — the workspace has no non-path
# dependencies (rfh-testkit replaces proptest/rand in-repo),
# and this script is what keeps it that way.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
# Also the panic gate: the hardened library crates (isa, alloc, analysis,
# sim, oracle, chaos, lint, rfhd) deny `.unwrap()`, `panic!`,
# `unreachable!` and `todo!` outside `cfg(test)` in their `lib.rs`, and
# so does `rfh_testkit::json`, whose parser the protocol chaos layer feeds
# hostile bytes; `.expect("reason")` is allowed — the reason is the
# review gate.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> analyses read the kernel (no public rfh-analysis fn takes &mut Kernel)"
# Strand marking, liveness, def-use, absint and the last-use hints return
# their facts as values; `rfh_alloc::allocate` alone writes the strand ends
# and placements. The one exception is the HW baseline's dead-bit encoder,
# `liveness::annotate_dead` and `annotate_dead_excluding`. A signature is
# read from `pub fn` up to its opening brace, so multi-line ones count.
writers=$(awk '/^[[:space:]]*pub fn / { sig = ""; on = 1 }
    on { sig = sig $0; if ($0 ~ /\{/) { on = 0; if (sig ~ /&mut Kernel/) print FILENAME ": " sig } }' \
    crates/analysis/src/*.rs | grep -v -E 'pub fn annotate_dead(_excluding)?\(' || true)
if [ -n "$writers" ]; then
    echo "public rfh-analysis functions that write the kernel:"
    echo "$writers"
    exit 1
fi

echo "==> cargo build --release"
# The smokes below run member binaries (e.g. `repro`), so every member
# must be built; `--workspace` says so explicitly, on top of the root
# manifest's `default-members`.
cargo build --release --offline --workspace

echo "==> shipped dependency trees exclude the frozen oracles"
# rfh-oracle is test-only: the release rfhc and the daemon must not link it.
for pkg in rfh rfh-rfhd; do
    if cargo tree --offline -e normal -p "$pkg" | grep -q rfh-oracle; then
        echo "$pkg depends on rfh-oracle"
        exit 1
    fi
done

echo "==> cargo test"
mkdir -p target
test_log=target/ci-test.log
if ! cargo test -q --offline > "$test_log" 2>&1; then
    cat "$test_log"
    exit 1
fi
cat "$test_log"

echo "==> documented test counts match the suite"
# README, DESIGN, TESTING and the verify notes each state how many tests
# a bare `cargo test` runs: the sum of its `N passed` counts.
total=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$test_log" |
    awk '{ s += $1 } END { print s }')
for doc in README.md DESIGN.md docs/TESTING.md .claude/skills/verify/SKILL.md; do
    stated=$(grep -o '[0-9][0-9]* tests' "$doc" | awk '{ print $1 }' | sort -u)
    if [ "$stated" != "$total" ]; then
        echo "$doc states $(echo $stated) tests; cargo test passed $total"
        exit 1
    fi
done
echo "every doc states the suite's $total tests"

echo "==> chaos smoke (bounded fault-injection run)"
RFH_CHAOS_CASES=200 cargo test -p rfh-chaos -q --offline

echo "==> exec differential smoke (SoA engine vs frozen reference oracle)"
# The differential conformance suite must hold at both ends of the pool:
# serial, and with 8 workers (whose fold order must not matter). The full
# 1000-case sweep runs in `cargo test` above; these runs pin the job-count
# invariance with a bounded budget.
RFH_JOBS=1 RFH_EXEC_DIFF_CASES=100 cargo test -q --offline --test exec_differential
RFH_JOBS=8 RFH_EXEC_DIFF_CASES=100 cargo test -q --offline --test exec_differential
# A deeper serial sweep of the generator: 5000 cases, about 6 s for the
# whole test binary (the opcode table included) on 2 CPUs.
RFH_JOBS=1 RFH_EXEC_DIFF_CASES=5000 cargo test -q --offline --test exec_differential
echo "exec differential suite green under RFH_JOBS=1 and RFH_JOBS=8, and at 5000 cases"

echo "==> placement + lint chaos smoke (every placement judge, and lint's soundness oracle)"
# The placement layer asks four judges about each placement mutant once:
# `validate_placements`, hierarchy execution's tag model, replay from one
# recorded baseline stream, and the storage-faithful oracle (rfh-oracle).
# What the validator accepts must compute the reference image on the
# oracle and pass execution and replay; replay must reject what the
# oracle computes wrongly; execution and replay accept the same mutants
# with equal counts; what execution accepts, the oracle accepts
# identically; and what execution accepts, pricing from the stream's
# issue counts counts as execution does (the experiments price their SW
# cells that way). `validate_placements` and lint's RFH-L006/L007 report the
# findings of one static placement model
# (`rfh_alloc::validate::placement_findings`), and the lint layer is
# lint's soundness oracle. Bounded runs, serially and with 8 workers; the
# full budget runs in `cargo test` above.
RFH_JOBS=1 RFH_CHAOS_CASES=100 cargo test -q --offline -p rfh-chaos --test trichotomy -- placement_layer replay_layer lint_layer
RFH_JOBS=8 RFH_CHAOS_CASES=100 cargo test -q --offline -p rfh-chaos --test trichotomy -- placement_layer replay_layer lint_layer
echo "placement and lint layers green under RFH_JOBS=1 and RFH_JOBS=8"

echo "==> timing differential smoke (flat engine vs frozen reference)"
# Same contract for the timing-model pair: the full 600-case sweep runs
# in `cargo test` above; these bounded runs pin job-count invariance of
# the 35-workload grid and the generated-trace generator.
RFH_JOBS=1 RFH_TIMING_DIFF_CASES=100 cargo test -q --offline --test timing_differential
RFH_JOBS=8 RFH_TIMING_DIFF_CASES=100 cargo test -q --offline --test timing_differential
# A deeper serial sweep of both generator families: 5000 cases each,
# about 4 s for the whole test binary on 2 CPUs.
RFH_JOBS=1 RFH_TIMING_DIFF_CASES=5000 cargo test -q --offline --test timing_differential
echo "timing differential suite green under RFH_JOBS=1 and RFH_JOBS=8, and at 5000 cases"

echo "==> timing chaos smoke (mutated traces and configs on both engines)"
# Seeded trace and config mutants must replay identically on the flat
# engine and the frozen reference, or fail with identical structured
# errors, serially and with 8 workers.
RFH_JOBS=1 RFH_CHAOS_CASES=100 cargo test -q --offline -p rfh-chaos --test trichotomy timing_layer
RFH_JOBS=8 RFH_CHAOS_CASES=100 cargo test -q --offline -p rfh-chaos --test trichotomy timing_layer
echo "timing layer green under RFH_JOBS=1 and RFH_JOBS=8"

echo "==> repro smoke (parallel run must reproduce the committed goldens)"
# Regenerate the golden CSVs with two pool workers and diff byte-for-byte
# against results/*.csv: parallelism and memoization must not change a
# single byte of any figure. `hints.csv` is the one golden `repro all`
# does not write; the next step checks it.
artifacts=target/ci-artifacts
rm -rf "$artifacts"
mkdir -p "$artifacts/csv"
RFH_JOBS=2 ./target/release/repro --csv "$artifacts/csv" all > "$artifacts/repro.txt"
for f in results/*.csv; do
    [ "$(basename "$f")" = hints.csv ] && continue
    cmp "$f" "$artifacts/csv/$(basename "$f")"
done
# The serial pool must agree too. The printed tables (encoding, the
# split-vs-unified line) have no CSV golden, so stdout is compared with
# the two-worker run.
RFH_JOBS=1 ./target/release/repro --csv "$artifacts/csv-jobs1" all > "$artifacts/repro.jobs1.txt"
for f in results/*.csv; do
    [ "$(basename "$f")" = hints.csv ] && continue
    cmp "$f" "$artifacts/csv-jobs1/$(basename "$f")"
done
cmp "$artifacts/repro.txt" "$artifacts/repro.jobs1.txt"
echo "repro goldens byte-identical under RFH_JOBS=1 and RFH_JOBS=2"
# The context prices its SW cells from one issue-count vector per
# workload instead of replaying them. The pricing oracle test compares
# every SW cell `repro all` and `hints` fill, on all 35 workloads, with a
# tag-checked replay, serially and with 8 workers.
for jobs in 1 8; do
    RFH_JOBS=$jobs cargo test -q --offline -p rfh-experiments --lib \
        priced_sw_cells_equal_tag_checked_replays > /dev/null
done
echo "priced SW cells equal tag-checked replays under RFH_JOBS=1 and RFH_JOBS=8"
# The arms that read the context's recorded baseline stream, run alone:
# each fills a fresh context itself instead of after fig11's sweep, so
# this pins that their output does not depend on arm order. `hints` is the
# only arm that checks hint-allocated kernels (whose guarded ORF entries
# are read under the same guard) in hierarchy mode.
for jobs in 1 2; do
    out="$artifacts/alone-jobs$jobs"
    RFH_JOBS=$jobs ./target/release/repro --csv "$out" characterize perf hints > /dev/null
    for f in characterize perf hints; do
        cmp "results/$f.csv" "$out/$f.csv"
    done
done
echo "characterize, perf and hints goldens byte-identical alone under RFH_JOBS=1 and RFH_JOBS=2"

echo "==> lint smoke + golden diagnostics report"
# The analyzer must accept the repo's own kernels: `rfhc lint` on a known
# workload exits 0, and the full report over the corpus + all workloads
# (unallocated and allocated) is byte-identical to the committed golden,
# parallelism notwithstanding.
printf '%s\n' '.kernel smoke' 'BB0:' '  mov r0, %tid.x' '  st.global r0, r0' '  exit' \
    | ./target/release/rfhc lint --json - > /dev/null \
    || { echo "rfhc lint smoke FAILED"; exit 1; }
# `--deny-warnings` turns every finding — warnings and notes included —
# into exit code 8: a clean kernel still passes, a kernel with one
# constant-fold note (RFH-L011) must fail.
printf '%s\n' '.kernel smoke' 'BB0:' '  mov r0, %tid.x' '  st.global r0, r0' '  exit' \
    | ./target/release/rfhc lint --deny-warnings - > /dev/null \
    || { echo "rfhc lint --deny-warnings rejected a clean kernel"; exit 1; }
set +e
printf '%s\n' '.kernel noteful' 'BB0:' '  mov r0, 5' '  iadd r1, r0, 2' \
    '  st.global r0, r1' '  exit' \
    | ./target/release/rfhc lint --deny-warnings - > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 8 ] || { echo "lint --deny-warnings exited $rc on a noteful kernel, want 8"; exit 1; }
# Serially, with two workers and with eight: the pool's fold order must
# not change the order in which findings come out.
for jobs in 1 2 8; do
    RFH_JOBS=$jobs ./target/release/lint_report > "$artifacts/lint_report.jobs$jobs.txt"
    cmp results/lint_report.txt "$artifacts/lint_report.jobs$jobs.txt"
done
echo "lint report byte-identical under RFH_JOBS=1, 2 and 8"
# Large-kernel pin: absint facts, allocations (hints off and on) and lint
# diagnostics of the 48 seeded compile_large-shaped kernels, digested per
# kernel. The test writes its fresh digest under target/tmp.
cargo test -q --offline --test large_kernels > /dev/null
cmp results/large_kernels_digest.txt target/tmp/large_kernels_digest.txt
echo "large-kernel digest byte-identical"

echo "==> trace smoke + golden structured trace"
# The structured trace exporter must be deterministic at any pool size:
# `rfhc trace --json` over the golden kernel is byte-identical to the
# committed golden under RFH_JOBS=1 and RFH_JOBS=8, and the per-strand
# energy profile and the `--chrome` timeline match their goldens too. The
# regenerated artifacts stay in target/ci-artifacts for inspection.
RFH_JOBS=1 ./target/release/rfhc trace --json examples/trace_golden.rfasm \
    > "$artifacts/trace_golden.jsonl" 2> /dev/null
cmp results/trace_golden.jsonl "$artifacts/trace_golden.jsonl"
RFH_JOBS=8 ./target/release/rfhc trace --json examples/trace_golden.rfasm \
    > "$artifacts/trace_golden.jobs8.jsonl" 2> /dev/null
cmp results/trace_golden.jsonl "$artifacts/trace_golden.jobs8.jsonl"
RFH_JOBS=1 ./target/release/rfhc trace --profile examples/trace_golden.rfasm \
    > "$artifacts/strand_profile_golden.txt" 2> /dev/null
cmp results/strand_profile_golden.txt "$artifacts/strand_profile_golden.txt"
RFH_JOBS=1 ./target/release/rfhc trace --chrome examples/trace_golden.rfasm \
    > "$artifacts/trace_chrome_golden.json" 2> /dev/null
cmp results/trace_chrome_golden.json "$artifacts/trace_chrome_golden.json"
echo "trace (JSON lines, Chrome) + strand profile byte-identical under RFH_JOBS=1 and RFH_JOBS=8"

echo "==> daemon smoke (rfhd serve/client over a unix socket)"
# A live daemon must survive a request mix that includes a malformed
# frame and a timeout-inducing kernel, keep serving, and drain to exit 0
# — under a serial pool and an 8-worker pool alike.
for jobs in 1 8; do
    sock="$artifacts/rfhd-$jobs.sock"
    RFH_JOBS=$jobs ./target/release/rfhc serve --unix "$sock" --workers 2 &
    serve_pid=$!
    tries=0
    while [ ! -S "$sock" ]; do
        tries=$((tries + 1))
        [ "$tries" -le 50 ] || { echo "daemon socket never appeared"; exit 1; }
        sleep 0.1
    done
    # Well-formed mix: a verified workload simulation and an assemble.
    ./target/release/rfhc client --unix "$sock" \
        --op simulate --workload vectoradd > /dev/null
    ./target/release/rfhc client --unix "$sock" \
        --op assemble examples/trace_golden.rfasm > /dev/null
    # A 1 MiB kernel (64k `iadd` lines) round-trips in well under the
    # limit because the daemon and the client decode JSON strings in time
    # linear in the frame length; a quadratic decoder took 49 s here.
    awk 'BEGIN { print ".kernel big"; print "BB0:"; print "  mov r0, 0";
        for (i = 0; i < 65536; i++) print "  iadd r0 r0, 1"; print "  exit" }' \
        | timeout 10 ./target/release/rfhc client --unix "$sock" --op assemble - \
        > /dev/null \
        || { echo "1 MiB assemble request failed or took over 10 s"; exit 1; }
    # An unparseable kernel comes back as a structured parse error frame,
    # which the client maps to the local parse exit code (3).
    set +e
    printf 'this is not a kernel\n' \
        | ./target/release/rfhc client --unix "$sock" --op assemble - \
        > /dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 3 ] || { echo "remote parse error exited $rc, want 3"; exit 1; }
    # One malformed frame: the framing layer must answer a structured
    # protocol error frame (client maps it to exit 9), not die.
    set +e
    ./target/release/rfhc client --unix "$sock" --malformed-probe 2> /dev/null
    rc=$?
    set -e
    [ "$rc" -eq 9 ] || { echo "malformed-frame probe exited $rc, want 9"; exit 1; }
    # One timeout-inducing kernel: the spin loop must be stopped by the
    # wall-clock timeout (9) — or, on a very fast machine, by the
    # instruction budget (6). Either way the boundary held.
    set +e
    ./target/release/rfhc client --unix "$sock" \
        --op simulate --timeout-ms 200 examples/spin.rfasm > /dev/null 2>&1
    rc=$?
    set -e
    { [ "$rc" -eq 9 ] || [ "$rc" -eq 6 ]; } \
        || { echo "spin kernel exited $rc, want 9 (timeout) or 6 (budget)"; exit 1; }
    # The daemon is still healthy: four concurrent verified workload
    # simulations, each client's exit status checked. Concurrent
    # closed-loop load is rfhbench's daemon_edit, which the benchmark step
    # below runs.
    pids=""
    for w in vectoradd reduction mandelbrot sobolqrng; do
        ./target/release/rfhc client --unix "$sock" \
            --op simulate --workload "$w" > /dev/null &
        pids="$pids $!"
    done
    for pid in $pids; do
        wait "$pid" || { echo "a concurrent simulate failed"; exit 1; }
    done
    # Strand reuse across requests: simulating a kernel that was just
    # allocated must splice every one of its strands from the strand
    # cache, so the `stats` op's strand-cache hits rise by exactly the
    # allocate answer's strand count.
    strand_hits() {
        ./target/release/rfhc client --unix "$sock" --op stats \
            | grep -o '"strand_cache":{[^}]*}' | grep -o '"hits":[0-9]*' | cut -d: -f2
    }
    strands=$(./target/release/rfhc client --unix "$sock" \
        --op allocate examples/trace_golden.rfasm \
        | grep -o '"strands":[0-9]*' | cut -d: -f2)
    hits_before=$(strand_hits)
    ./target/release/rfhc client --unix "$sock" \
        --op simulate examples/trace_golden.rfasm > /dev/null
    hits_after=$(strand_hits)
    [ -n "$strands" ] && [ "$strands" -gt 0 ] \
        && [ "$((hits_after - hits_before))" -eq "$strands" ] \
        || { echo "strand-cache hits rose ${hits_before:-?} -> ${hits_after:-?}, want +${strands:-?}"; exit 1; }
    # Nothing was shed: the smoke never opens more connections or queues
    # more requests than `--workers 2` plus the default queue of 16, so
    # a shed here means admission misfires.
    stats=$(./target/release/rfhc client --unix "$sock" --op stats)
    printf '%s' "$stats" | grep -q '"shed":0,' \
        || { echo "the daemon shed load it had room for: $stats"; exit 1; }
    # Drain: shutdown is acknowledged, the serve process exits 0, and the
    # socket file is cleaned up.
    ./target/release/rfhc client --unix "$sock" --op shutdown > /dev/null
    wait "$serve_pid" || { echo "daemon exited non-zero after drain"; exit 1; }
    [ ! -S "$sock" ] || { echo "socket file survived the drain"; exit 1; }
done
echo "daemon smoke green under RFH_JOBS=1 and RFH_JOBS=8"

echo "==> benchmark (build, unit tests, one quick traced run)"
# rfhbench/ is its own cargo workspace, so nothing above compiles it; this
# catches a library change that breaks the benchmark.
bash rfhbench/check.sh

echo "CI OK"
