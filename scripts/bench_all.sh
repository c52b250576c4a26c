#!/usr/bin/env bash
# Rebuild the benches and regenerate every committed BENCH_*.json into the
# repository root, each at its default scale:
#
#   BENCH_tail_latency.json    bench/tail_sweep         (virtual clock only)
#   BENCH_cluster_kernel.json  bench/cluster_kernel     (virtual clock only)
#   BENCH_parallel_eval.json   bench/ablation_overlap   (wall-clock columns)
#   BENCH_interp_kernel.json   bench/micro_primitives   (wall-clock columns)
#
#   scripts/bench_all.sh [BUILD_DIR]    # default BUILD_DIR: build
#
# The two virtual-clock files reproduce byte for byte on any host; the other
# two carry the wall time of the host that ran them. Every bench exits
# non-zero when its own equivalence check fails, which stops this script.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
build=${1:-build}

cmake -B "$build" -S . >/dev/null
cmake --build "$build" -j "$(nproc)" --target \
    tail_sweep cluster_kernel ablation_overlap micro_primitives
bin=$(cd "$build/bench" && pwd)

# The job-count override would change the committed scale.
unset JAWS_BENCH_JOBS
cd "$root"
"$bin/tail_sweep"
"$bin/cluster_kernel"
"$bin/ablation_overlap"
# Only the interpolation-kernel sweep; skip the google-benchmark registrations.
"$bin/micro_primitives" --benchmark_filter='^$'
