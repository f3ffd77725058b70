#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, tests, clause verification,
# fault-injection sweep. The full and quick gates run every stage even
# after one fails, then exit 1 naming each failed stage.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # fmt + clippy + tests + kernels + nofastpath + cli + verify + chaos
#                    # + churn + mc + serve; skips the release build, scale, figures and mc_defects
#   ./ci.sh cli      # each of the six tools: --help exits 0, an unknown flag exits 2 with
#                    # its usage and no panic; a malformed OMPSS_BENCH_JOBS exits 2 naming it
#   ./ci.sh verify   # only the ompss-verify sweep over the apps
#   ./ci.sh chaos    # only the fault-injection sweep over the apps
#   ./ci.sh churn    # elastic-membership grid: joins/drains/kill races
#                    # (verify, chaos, churn and mc each fail if their stdout
#                    # moved from the committed tests/golden/*.json, or if
#                    # their stderr shows a panic)
#   ./ci.sh bench    # host-time gate: benchmark medians vs BENCH_baseline.json
#   ./ci.sh scale    # 1000-node demo, 1M-process RSS bound, 64-node weak scaling (release)
#   ./ci.sh figures  # regenerate results/ and fail if any committed byte moved
#   ./ci.sh mc       # bounded model-check of matmul+stream schedules
#   ./ci.sh mc_defects  # seeded-defect corpus the model checker must catch
#   ./ci.sh serve    # job-server soak: overload, cancels, fairness
#   ./ci.sh nofastpath  # ompss-sim tests with the DES host fast paths off
#   ./ci.sh kernels  # ompss-apps unit tests in release: the kernel bodies' bit-exactness
#                    # proptests on the optimised code the benchmark runs
set -euo pipefail
cd "$(dirname "$0")"

# Run a deterministic command and fail if its stdout moved from the
# committed tests/golden/<name>.json, the way `figures` guards results/.
# Its stderr is printed and must not contain a panic: a finished or
# aborted run panics nowhere, so any `panicked at` line is a defect.
golden() {
    local out="tests/golden/$1.json" err status=0
    shift
    err=$("$@" 2>&1 >"$out") || status=$?
    [[ -z "$err" ]] || printf '%s\n' "$err" >&2
    if grep -q "panicked at" <<<"$err"; then
        echo "==> $out: the run printed a panic to stderr" >&2
        return 1
    fi
    ((status == 0)) || return "$status"
    git diff --exit-code -- "$out"
}

verify() {
    echo "==> ompss-verify (all apps, multi-GPU + flat cluster + sharded cluster, schedule sweep)"
    golden verify cargo run -q --release -p ompss-verify --bin verify -- --all
}

chaos() {
    echo "==> ompss-chaos (all apps, two rates x three seeds, both topologies)"
    golden chaos cargo run -q --release -p ompss-chaos --bin chaos -- --rates 0.05,0.1 --seeds 1,2,3
    echo "==> ompss-chaos --node-kill (all apps, flat clusters 2+3 + sharded cluster 3, every slave, three kill points)"
    golden node_kill cargo run -q --release -p ompss-chaos --bin chaos -- \
        --node-kill --kill-points 20,45,70
}

churn() {
    echo "==> ompss-chaos --churn (perlin+stream, flat + sharded 3-node cluster, join/drain/kill races)"
    golden churn cargo run -q --release -p ompss-chaos --bin chaos -- --churn perlin stream
}

bench() {
    echo "==> bench_gate (BENCHMARK.json workloads, 5 runs each, medians vs committed BENCH_baseline.json)"
    cargo run -q --release -p ompss-bench --bin bench_gate -- --check
}

serve() {
    echo "==> ompss-serve soak (500 mixed-priority jobs, overload bursts, cancels, drain)"
    cargo run -q --release -p ompss-serve --bin serve -- --soak 500 --jobs 4
}

scale() {
    echo "==> 1000-node cluster demonstration (release, in-memory)"
    cargo test -q --release -p ompss-runtime --test runtime_tests -- --ignored thousand_node
    echo "==> 1M stackless processes within the peak-RSS bound (release)"
    cargo test -q --release -p ompss-sim --test spawn_scale -- --ignored
    echo "==> weak scaling at 64 nodes (sharded control plane must beat the flat master)"
    cargo test -q --release -p ompss-apps --lib -- --ignored weak_scaling
}

figures() {
    echo "==> all_figures (regenerated results/ must match the committed bytes)"
    cargo run -q --release -p ompss-bench --bin all_figures
    git diff --exit-code -- results/
}

mc() {
    echo "==> ompss-mc (matmul+stream, 2-node cluster, >=1000 interleavings each)"
    golden mc cargo run -q --release -p ompss-mc --bin mc -- \
        --apps matmul,stream --nodes 2 --max-interleavings 1200 --min-interleavings 1000
}

nofastpath() {
    echo "==> ompss-sim tests with OMPSS_SIM_NO_FASTPATH=1 (the literal kernel)"
    OMPSS_SIM_NO_FASTPATH=1 cargo test -q -p ompss-sim
}

kernels() {
    echo "==> ompss-apps unit tests in release (every kernel variant vs the scalar references, opt-level 3)"
    cargo test -q --release -p ompss-apps --lib
}

cli() {
    echo "==> the six tools' command lines (--help exits 0; --no-such-flag and OMPSS_BENCH_JOBS=abc exit 2)"
    local pkg_tool pkg tool err status
    for pkg_tool in ompss-bench:all_figures ompss-bench:bench_gate ompss-verify:verify \
        ompss-mc:mc ompss-chaos:chaos ompss-serve:serve; do
        pkg=${pkg_tool%%:*} tool=${pkg_tool#*:}
        cargo run -q --release -p "$pkg" --bin "$tool" -- --help 2>/dev/null </dev/null ||
            { echo "==> $tool --help: exit $?; want 0" >&2 && return 1; }
        status=0
        err=$(cargo run -q --release -p "$pkg" --bin "$tool" -- --no-such-flag 2>&1 >/dev/null \
            </dev/null) || status=$?
        if ((status != 2)) || ! grep -q "usage:" <<<"$err" || grep -q "panicked at" <<<"$err"; then
            printf '%s\n' "$err" >&2
            echo "==> $tool --no-such-flag: exit $status; want 2, a usage line and no panic" >&2
            return 1
        fi
    done
    status=0
    err=$(OMPSS_BENCH_JOBS=abc cargo run -q --release -p ompss-bench --bin all_figures -- table1 \
        2>&1 >/dev/null </dev/null) || status=$?
    if ((status != 2)) || ! grep -q "OMPSS_BENCH_JOBS" <<<"$err" || grep -q "panicked at" <<<"$err"; then
        printf '%s\n' "$err" >&2
        echo "==> OMPSS_BENCH_JOBS=abc all_figures table1: exit $status; want 2, the variable named and no panic" >&2
        return 1
    fi
}

mc_defects() {
    echo "==> ompss-mc seeded-defect corpus (cfg mc_defects build)"
    RUSTFLAGS="--cfg mc_defects" CARGO_TARGET_DIR=target/mc-defects \
        cargo test -q -p ompss-mc --test defects
}

case "${1:-}" in
    verify | chaos | churn | bench | scale | figures | mc | mc_defects | serve | nofastpath | kernels | cli)
        "$1"
        echo "CI green."
        exit 0
        ;;
esac

fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

clippy() {
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
}

build() {
    echo "==> cargo build --release"
    cargo build --release
}

tests() {
    echo "==> cargo test"
    cargo test --workspace -q
}

# Run one stage with errexit in a subshell; record it if it fails and go
# on with the next.
failed=()
stage() {
    set +e
    (
        set -e
        "$1"
    )
    local status=$?
    set -e
    if ((status != 0)); then
        echo "==> stage '$1' FAILED (exit $status)"
        failed+=("$1")
    fi
}

stage fmt
stage clippy
if [[ "${1:-}" != "quick" ]]; then
    stage build
    stage scale
    stage figures
fi
stage tests
stage kernels
stage nofastpath
stage cli
stage verify
stage chaos
stage churn
stage mc
stage serve
if [[ "${1:-}" != "quick" ]]; then
    stage mc_defects
fi

if ((${#failed[@]} > 0)); then
    echo "CI red: failed stages: ${failed[*]}"
    exit 1
fi
echo "CI green."
