#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, tests, clause verification,
# fault-injection sweep.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # fmt + clippy + tests + nofastpath + verify + chaos + churn + mc
#                    # + serve; skips the release build, scale, figures and mc_defects
#   ./ci.sh verify   # only the ompss-verify sweep over the apps
#   ./ci.sh chaos    # only the fault-injection sweep over the apps
#   ./ci.sh churn    # elastic-membership grid: joins/drains/kill races
#   ./ci.sh bench    # wall-clock spine: fail on >20% macro regression
#   ./ci.sh scale    # 1000-node demo + 64-node weak-scaling gate (release)
#   ./ci.sh figures  # regenerate results/ and fail if any committed byte moved
#   ./ci.sh mc       # bounded model-check of matmul+stream schedules
#   ./ci.sh mc_defects  # seeded-defect corpus the model checker must catch
#   ./ci.sh serve    # job-server soak: overload, cancels, fairness
#   ./ci.sh nofastpath  # ompss-sim tests with the DES host fast paths off
set -euo pipefail
cd "$(dirname "$0")"

verify() {
    echo "==> ompss-verify (all apps, multi-GPU + flat cluster + sharded cluster, schedule sweep)"
    cargo run -q --release -p ompss-verify --bin verify -- --all
}

chaos() {
    echo "==> ompss-chaos (all apps, two rates x three seeds, both topologies)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --rates 0.05,0.1 --seeds 1,2,3
    echo "==> ompss-chaos --node-kill (all apps, flat clusters 2+3 + sharded cluster 3, every slave, three kill points)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --node-kill --kill-points 20,45,70
}

churn() {
    echo "==> ompss-chaos --churn (perlin+stream, flat + sharded 3-node cluster, join/drain/kill races)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --churn perlin stream
}

bench() {
    echo "==> bench_sim (host wall-clock vs committed BENCH_sim.json, +20% budget)"
    cargo run -q --release -p ompss-bench --bin bench_sim -- --check
    echo "==> serve --bench (daemon throughput vs committed BENCH_serve.json, -20% budget)"
    cargo run -q --release -p ompss-serve --bin serve -- --bench --check --jobs 4
}

serve() {
    echo "==> ompss-serve soak (500 mixed-priority jobs, overload bursts, cancels, drain)"
    cargo run -q --release -p ompss-serve --bin serve -- --soak 500 --jobs 4
}

scale() {
    echo "==> 1000-node cluster demonstration (release, in-memory)"
    cargo test -q --release -p ompss-runtime --test runtime_tests -- --ignored thousand_node
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
    cargo run -q --release -p ompss-mc --bin mc -- \
        --apps matmul,stream --nodes 2 --max-interleavings 1200 --min-interleavings 1000
}

nofastpath() {
    echo "==> ompss-sim tests with OMPSS_SIM_NO_FASTPATH=1 (the literal kernel)"
    OMPSS_SIM_NO_FASTPATH=1 cargo test -q -p ompss-sim
}

mc_defects() {
    echo "==> ompss-mc seeded-defect corpus (cfg mc_defects build)"
    RUSTFLAGS="--cfg mc_defects" CARGO_TARGET_DIR=target/mc-defects \
        cargo test -q -p ompss-mc --test defects
}

case "${1:-}" in
    verify | chaos | churn | bench | scale | figures | mc | mc_defects | serve | nofastpath)
        "$1"
        echo "CI green."
        exit 0
        ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
    scale
    figures
fi

echo "==> cargo test"
cargo test --workspace -q

nofastpath

verify

chaos

churn

mc

serve

if [[ "${1:-}" != "quick" ]]; then
    mc_defects
fi

echo "CI green."
