#!/bin/bash
# CI gate: build, tests (both thread configs), formatting, lints, the static
# analyzer over every model in the zoo, bench smoke runs, the serving bench
# (dynamic batching + chaos-under-traffic), traced host benchmark smoke
# runs, and the perf-regression gate against the checked-in baselines.
#
# Usage:
#   ./ci.sh                      # run every stage in order
#   ./ci.sh <stage>              # run one stage: build | test-par | test-serial
#                                #   | test-release-kernels (sod2-kernels and
#                                #   sod2-tensor tests in release, with the
#                                #   exhaustive exp/tanh sweep) | fmt
#                                #   | clippy | zoo | analyze | chaos | bench
#                                #   | serve | hostbench (short traced host
#                                #   benchmark runs) | gate
#   ./ci.sh --update-baselines   # run bench + serve, then overwrite the
#                                #   checked-in BENCH_kernels.json /
#                                #   BENCH_zoo.json / BENCH_serve.json with
#                                #   fresh results (use after an intentional
#                                #   perf change; commit the new files)
#
# Per-stage wall times accumulate into target/ci/stage_timings.json (the
# GitHub workflow runs one stage per step and uploads the file as an
# artifact); the accumulator resets whenever the build stage runs.
#
# The perf gate compares only deterministic metrics (cost-model latency,
# memory-plan peaks, allocation counts, pool chunk counts — see
# crates/bench/src/gate.rs); wallclock numbers are recorded but never gated.
# Tolerance defaults to 10%, override with SOD2_BENCH_TOL=0.15 or
# `perf_gate --tol`.
set -euo pipefail
cd "$(dirname "$0")"

CLI=./target/release/sod2-cli
CI_OUT=target/ci
MODE=all
UPDATE_BASELINES=0

for arg in "$@"; do
    case "$arg" in
        --update-baselines) UPDATE_BASELINES=1 ;;
        build|test-par|test-serial|test-release-kernels|fmt|clippy|zoo|analyze|chaos|bench|serve|hostbench|gate|all) MODE="$arg" ;;
        *)
            echo "usage: ./ci.sh [build|test-par|test-serial|test-release-kernels|fmt|clippy|zoo|analyze|chaos|bench|serve|hostbench|gate] [--update-baselines]" >&2
            exit 2
            ;;
    esac
done

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""

print_summary() {
    local status=$?
    if [[ ${#STAGE_NAMES[@]} -gt 0 ]]; then
        echo
        echo "=== stage timing summary ==="
        local total=0
        for i in "${!STAGE_NAMES[@]}"; do
            printf '  %-20s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
            total=$((total + STAGE_SECS[i]))
        done
        printf '  %-20s %4ds\n' "total" "$total"
        write_stage_timings
    fi
    if [[ $status -ne 0 && -n "$CURRENT_STAGE" ]]; then
        echo "CI FAILED in stage: $CURRENT_STAGE" >&2
    fi
}
trap print_summary EXIT

# Appends this invocation's stage times to a tsv accumulator and regenerates
# target/ci/stage_timings.json from it. The accumulator survives across
# `./ci.sh <stage>` invocations (the GitHub workflow runs one stage per
# step); stage_build truncates it, marking the start of a fresh CI run.
write_stage_timings() {
    local tsv="$CI_OUT/.stage_timings.tsv"
    mkdir -p "$CI_OUT"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '%s\t%s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" >> "$tsv"
    done
    awk -F'\t' 'BEGIN { printf "{\n  \"stages\": [" }
        { printf "%s\n    {\"stage\": \"%s\", \"seconds\": %d}", (NR>1 ? "," : ""), $1, $2
          total += $2 }
        END { printf "\n  ],\n  \"total_seconds\": %d\n}\n", total }' \
        "$tsv" > "$CI_OUT/stage_timings.json"
}

# run_stage NAME FUNCTION — times FUNCTION and records it for the summary;
# skipped entirely unless MODE is `all` or NAME.
run_stage() {
    local name="$1" fn="$2"
    if [[ "$MODE" != all && "$MODE" != "$name" ]]; then
        return 0
    fi
    echo "=== $name ==="
    CURRENT_STAGE="$name"
    local t0=$SECONDS
    "$fn"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - t0)))
    CURRENT_STAGE=""
}

stage_build() {
    # First stage of a fresh CI run: reset the stage-timing accumulator.
    : > "$CI_OUT/.stage_timings.tsv"
    cargo build --release --workspace
    # The observability and fault-injection kill switches must keep
    # compiling: builds with probes compiled out are the zero-overhead
    # configurations.
    cargo build --release -p sod2-obs --features compile-off
    cargo build --release -p sod2-faults --features compile-off
    # The host benchmark is a workspace of its own, so the build above
    # never compiles it; build it here (sharing target/) so an API change
    # that breaks it fails CI instead of the next benchmark run.
    cargo build --release --offline --manifest-path hostbench/Cargo.toml --target-dir target
}

stage_test_par() {
    SOD2_THREADS=4 cargo test --workspace -q
}

stage_test_serial() {
    SOD2_THREADS=1 cargo test --workspace -q
}

stage_test_release_kernels() {
    # The kernels' bitwise suites, and the tests of the run walk they read
    # broadcast operands through (sod2-tensor), in the optimized build that
    # actually serves: code generation there may reorder float operands,
    # which the debug stages above never see. The optimized build also
    # runs the exhaustive accuracy test of `sod2_kernels::math` (every f32
    # through `exp` and `tanh` against f64; ignored in debug builds), about
    # 40 s of this stage on two cores.
    cargo test --release -p sod2-kernels -p sod2-tensor -q
}

stage_fmt() {
    cargo fmt --all --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_zoo() {
    if [[ ! -x "$CLI" ]]; then
        echo "FATAL: $CLI not built; run ./ci.sh build first" >&2
        exit 1
    fi
    local models
    models=$($CLI list | awk 'NR>1 {print $1}')
    if [[ -z "$models" ]]; then
        echo "FATAL: '$CLI list' returned no models — the zoo is empty or the" >&2
        echo "       listing format changed; the analyzer loop below would have" >&2
        echo "       silently tested nothing." >&2
        exit 1
    fi
    local count=0
    for m in $models; do
        echo "--- analyze $m ---"
        $CLI analyze "$m" --json > /dev/null
        # End-to-end inference on the register-machine tape in SEP's
        # order, accounted against the DMP plan.
        $CLI run "$m" > /dev/null
        count=$((count + 1))
    done
    echo "analyzed + ran $count models"
    # Profile end-to-end: the Chrome trace must be written, and `profile`
    # exits non-zero unless its kernel coverage (outermost kernel spans
    # inside inference on the calling thread, over infer wall) lies in
    # [0, 1]. BranchyDemo and StableDiffusion-Enc are the models whose
    # coverage read above 100% when compile-time and pool-worker kernel
    # spans were booked as inference.
    $CLI profile CodeBERT --iters 3 --chrome-trace "$CI_OUT/profile_codebert_trace.json" > /dev/null
    for m in BranchyDemo StableDiffusion-Enc; do
        $CLI profile "$m" --iters 3 > /dev/null
    done
    # Persistent MVC compilation cache, cold-then-warm: the first tune must
    # miss, run the GA and time the host playoff; the second must hit the
    # on-disk version table with zero GA generations and zero playoff
    # timings and execute the choices the cold playoff made; and model
    # outputs (fully priced/deterministic `run` stdout) must be
    # bitwise-identical between the cold-tuned and warm-loaded engines.
    echo "--- mvc cache cold/warm ---"
    local cache="$CI_OUT/mvc-cache"
    rm -rf "$cache"
    SOD2_MVC_CACHE="$cache" $CLI tune --json > "$CI_OUT/tune_cold.json"
    grep -q '"provenance": "miss"' "$CI_OUT/tune_cold.json"
    grep -Eq '"playoff_timings": [1-9]' "$CI_OUT/tune_cold.json"
    for m in CodeBERT DGNet; do
        SOD2_MVC_CACHE="$cache" $CLI run "$m"
    done > "$CI_OUT/run_mvc_cold.txt"
    SOD2_MVC_CACHE="$cache" $CLI tune --json > "$CI_OUT/tune_warm.json"
    grep -q '"provenance": "hit"' "$CI_OUT/tune_warm.json"
    grep -q '"ga_generations": 0' "$CI_OUT/tune_warm.json"
    grep -q '"playoff_timings": 0' "$CI_OUT/tune_warm.json"
    diff <(grep -o '"executed": "[a-z]*"' "$CI_OUT/tune_cold.json") \
        <(grep -o '"executed": "[a-z]*"' "$CI_OUT/tune_warm.json")
    for m in CodeBERT DGNet; do
        SOD2_MVC_CACHE="$cache" $CLI run "$m"
    done > "$CI_OUT/run_mvc_warm.txt"
    diff "$CI_OUT/run_mvc_cold.txt" "$CI_OUT/run_mvc_warm.txt"
    echo "mvc cache: cold miss -> warm hit, same executed choices, outputs bitwise-identical"
}

stage_analyze() {
    if [[ ! -x "$CLI" ]]; then
        echo "FATAL: $CLI not built; run ./ci.sh build first" >&2
        exit 1
    fi
    # Typed certificate checks, asserted in-binary by `analyze --check`
    # (exit code is the contract — no JSON scraping here): zero
    # fixpoint-audit violations and error-free diagnostics per model, a
    # nonzero aggregate count of proven-finite tensors (the certificates
    # that elide nan-guard fences at runtime; the runtime counter itself is
    # gated via BENCH_zoo.json), and BranchyDemo's dead-Switch-arm
    # certificate (the priced win it buys is gated via BENCH_zoo.json).
    $CLI analyze --check --all --min-finite 1 --expect-dead-arms BranchyDemo=1
    # Keep the per-model fact dumps as CI artifacts for debugging.
    local models
    models=$($CLI list | awk 'NR>1 {print $1}')
    for m in $models BranchyDemo; do
        $CLI analyze "$m" --facts --json > "$CI_OUT/facts_$m.json"
    done
    # Full-scale diagnostics: the memory-plan verifier, the planner
    # cross-check and the tape verifier on the plans the paper tables and
    # the host benchmark run (Tiny plans stop at a few dozen lifetimes,
    # Full ones reach several hundred). `analyze --json` exits non-zero on
    # any error-severity diagnostic.
    for m in $models BranchyDemo; do
        $CLI analyze "$m" --scale full --json > "$CI_OUT/diag_full_$m.json"
    done
}

stage_chaos() {
    if [[ ! -x "$CLI" ]]; then
        echo "FATAL: $CLI not built; run ./ci.sh build first" >&2
        exit 1
    fi
    # Deterministic fault sweep over the whole zoo: every injection site
    # (plus the deadline/budget hardening paths) must end in a typed error
    # or a recovered inference, and the engine must stay reusable with
    # bitwise-identical outputs. Any WEDGED/PANICKED/unexpected cell exits
    # non-zero, and so does a fault site no cell injects.
    $CLI chaos --all --seed 42
}

stage_bench() {
    mkdir -p "$CI_OUT"
    ./target/release/bench_kernels --json "$CI_OUT/BENCH_kernels.json"
    ./target/release/bench_zoo --json "$CI_OUT/BENCH_zoo.json" --iters 5
    if [[ "$UPDATE_BASELINES" == 1 ]]; then
        cp "$CI_OUT/BENCH_kernels.json" BENCH_kernels.json
        cp "$CI_OUT/BENCH_zoo.json" BENCH_zoo.json
        echo "baselines updated: BENCH_kernels.json BENCH_zoo.json (commit them)"
    fi
}

stage_serve() {
    local serve=./target/release/bench_serve
    if [[ ! -x "$serve" ]]; then
        echo "FATAL: $serve not built; run ./ci.sh build first" >&2
        exit 1
    fi
    mkdir -p "$CI_OUT"
    # Deterministic serving bench: dynamic batching by RDP shape class over
    # the zoo, with batched outputs asserted bitwise-identical to solo runs
    # and typed budget rejections checked in-binary. A scripted-fault replay
    # of the same trace exercises retry budgets, supervised stall rebuilds,
    # circuit breakers and predictive admission; its recovery metrics are
    # asserted bit-stable across two in-binary runs. All reported metrics
    # are priced (virtual-time), so the JSON is bit-stable across runs and
    # gated against the checked-in baseline in stage_gate.
    "$serve" --json "$CI_OUT/BENCH_serve.json"
    # Chaos-under-traffic: every fault-site (stalls/hangs included) × model
    # × recovery-off/on cell must leave the other tenants' responses
    # bitwise-clean and inside their deadlines; with recovery on, every
    # victim must be retried to a bitwise-clean completion and every stalled
    # replica rebuilt. Any cross-tenant corruption, wedged replica, or
    # leaked thread exits non-zero.
    "$serve" --chaos
    if [[ "$UPDATE_BASELINES" == 1 ]]; then
        cp "$CI_OUT/BENCH_serve.json" BENCH_serve.json
        echo "baseline updated: BENCH_serve.json (commit it)"
    fi
}

stage_hostbench() {
    # Host benchmark smoke: a short traced run of a closed-loop and the
    # open-loop workload, reusing the build stage's binary in target/. A
    # run reports `"correct": true` only when every response is bitwise
    # the reference's and, on the closed loop, the traced split adds up
    # with at most 5% of `infer` outside a phase span — so a change that
    # leaves per-inference work outside a phase fails here, not in the
    # next benchmark run.
    for w in short-seq serve-open; do
        echo "--- hostbench $w ---"
        local last
        last=$(CARGO_TARGET_DIR=target python3 hostbench/run.py \
            --workload "$w" --seed 1 --seconds 4 --trace 1 | tail -n 1)
        echo "$last"
        echo "$last" | python3 -c \
            'import json, sys; sys.exit(0 if json.load(sys.stdin).get("correct") is True else 1)' \
            || { echo "FATAL: hostbench $w is not correct" >&2; exit 1; }
    done
}

stage_gate() {
    local gate=./target/release/perf_gate
    for f in "$CI_OUT/BENCH_kernels.json" "$CI_OUT/BENCH_zoo.json" "$CI_OUT/BENCH_serve.json"; do
        if [[ ! -f "$f" ]]; then
            echo "FATAL: $f missing — run ./ci.sh bench and ./ci.sh serve before ./ci.sh gate" >&2
            exit 1
        fi
    done
    # The gate gates itself: identity must pass, an injected ≥10% synthetic
    # regression must fail.
    "$gate" --self-test --baseline BENCH_kernels.json
    "$gate" --self-test --baseline BENCH_zoo.json
    "$gate" --self-test --baseline BENCH_serve.json
    "$gate" --baseline BENCH_kernels.json --current "$CI_OUT/BENCH_kernels.json" --label kernels
    "$gate" --baseline BENCH_zoo.json --current "$CI_OUT/BENCH_zoo.json" --label zoo
    "$gate" --baseline BENCH_serve.json --current "$CI_OUT/BENCH_serve.json" --label serve
}

mkdir -p "$CI_OUT"
run_stage build stage_build
run_stage test-par stage_test_par
run_stage test-serial stage_test_serial
run_stage test-release-kernels stage_test_release_kernels
run_stage fmt stage_fmt
run_stage clippy stage_clippy
run_stage zoo stage_zoo
run_stage analyze stage_analyze
run_stage chaos stage_chaos
run_stage bench stage_bench
run_stage serve stage_serve
run_stage hostbench stage_hostbench
run_stage gate stage_gate

echo "=== CI OK ==="
