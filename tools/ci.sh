#!/usr/bin/env bash
# CI gate: build + ctest three times — plain, under address sanitizer, and a
# thread-sanitizer leg focused on the context/hook synchronization hot path —
# so the wdg_lint static checks and both sanitizers run on every PR.
#
#   tools/ci.sh [extra ctest args...]
#
# Build trees land in build-ci/, build-ci-asan/, and build-ci-tsan/ next to
# the source tree.
set -euo pipefail

cd "$(dirname "$0")/.."

# Guard: build trees must never be tracked. The seed once committed build/
# (743 generated files); fail loudly if any build artifact sneaks back into
# the index so it cannot land again.
if tracked_build=$(git ls-files -- 'build/*' 'build-*/*' 2>/dev/null) \
    && [[ -n "${tracked_build}" ]]; then
  echo "ci: build artifacts are tracked in git — run 'git rm -r --cached <dir>':" >&2
  echo "${tracked_build}" | head -20 >&2
  exit 1
fi

run_leg() {
  local build_dir=$1 sanitize=$2 regex=$3
  shift 3
  local cmake_args=(-B "${build_dir}" -S .)
  if [[ -n "${sanitize}" ]]; then
    cmake_args+=("-DWDG_SANITIZE=${sanitize}")
  fi
  echo "=== configure ${build_dir} (sanitize='${sanitize}') ==="
  cmake "${cmake_args[@]}"
  echo "=== build ${build_dir} ==="
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ctest ${build_dir} ==="
  # until-pass:2 absorbs timing flakes in the concurrency-stress and campaign
  # suites under sanitizer slowdown + full parallelism; real failures fail twice.
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    -R "${regex}" -E context_concurrency --repeat until-pass:2 "$@"
  # No retry for the context torture suite: a torn snapshot must fail CI the
  # first time it shows.
  echo "=== ctest ${build_dir}: context_concurrency_test, no retry ==="
  ctest --test-dir "${build_dir}" --output-on-failure -R context_concurrency "$@"
}

run_leg build-ci "" . "$@"
echo "=== lint leg: shipped IR models, warnings as errors ==="
# The ctest wdg_lint_models entry runs with default policy; this leg raises
# the bar for the shipped models — any warning (iso.*, race.hook-context,
# hook.dead, ...) fails CI. Per-system invocations keep the failure pinpointed.
for system in kvs minizk minihdfs; do
  ./build-ci/tools/wdg_lint --system "${system}" --warnings-as-errors --summary
done
# The seeded-broken fixture must still fail under the same flags; a lint that
# stops catching its own regression fixtures is worse than no lint.
if ./build-ci/tools/wdg_lint --fixture bad --warnings-as-errors --summary; then
  echo "ci: wdg_lint accepted the bad fixture — the gate is broken" >&2
  exit 1
fi
echo "=== bench smoke: driver scale ==="
# Quick pass over the pooled-executor bench so a scheduler/executor regression
# shows up as a CI diff in BENCH_driver_scale.json, not a silent perf slide.
./build-ci/bench/bench_driver_scale --quick
echo "=== bench smoke: 10k sharded fleet ==="
# Fast fleet-scale tier: the 10k-checker sharded config must hold p99 queue
# delay <= 500 us with live workers capped at shards x per-shard pool size.
# The binary self-checks (--smoke-10k) and exits nonzero on a budget miss, so
# no JSON parsing is needed here; it also writes no JSON, but run it in the
# build tree anyway to keep it away from the committed artifact.
(cd build-ci/bench && ./bench_driver_scale --smoke-10k)
echo "=== bench smoke: 1M-shape sharded fleet (downscaled) ==="
# The million-checker driver shape (dispatch_batch 64, ring 8192), downscaled
# to 200k checkers at the same ~500k/sec offered rate so the gate stays
# sub-second per round: the allocation-free dispatch path must sustain at
# least half the offered rate with p99 queue delay in budget.
(cd build-ci/bench && ./bench_driver_scale --smoke-1m)
echo "=== bench smoke: context read path ==="
# Runs in the build tree so the quick-mode JSON can't clobber the committed
# full-run artifact the trend gate below reads.
(cd build-ci/bench && ./bench_context_read --quick)
echo "=== campaign smoke: fusion fault matrix ==="
# Downscaled fault-matrix campaign (1 seed per class): the fused detector must
# detect all four fault classes, beat-or-tie the best single family on >= 3/4,
# and fire zero false positives anywhere (the binary self-checks and exits
# nonzero). Runs in the build tree so no JSON lands near the committed
# BENCH_fusion.json the trend gate reads.
(cd build-ci && ./tools/wdg_campaign --smoke-fusion)
echo "=== supervised smoke: wdogd escalation under a wedged process ==="
# The §3.3 scenario the in-process plane cannot catch for itself: a kvs node
# plus its watchdog driver wedge on an injected disk hang, kicks stop, and
# the out-of-process wdogd must walk its ladder. wdogd exits nonzero when no
# escalation fires. Runs in the build tree so the quick-mode JSON can't
# clobber the committed full-run artifact the trend gate reads.
(cd build-ci && ./tools/wdogd --quick --system kvs)
echo "=== bench trend gate ==="
# Headline metrics from the committed full-run artifacts; fails the build if
# one regressed >25% against its best of the last three BENCH_TREND.json
# entries (WDG_BENCH_TREND_THRESHOLD overrides). --dry-run: CI gates but only
# a deliberate full bench run appends to the trend. The adaptive-pool storm
# metric is waived: its mode was deleted along with the pool autoscaler, and
# the last trend entries that gate it predate that. The waiver is temporary:
# delete the --allow-missing flag once none of the last three BENCH_TREND.json
# entries contains driver_adaptive_p99_queue_delay_us_256.
python3 tools/bench_trend.py --dry-run \
  --allow-missing driver_adaptive_p99_queue_delay_us_256
echo "=== benchmark self-test ==="
# The repository's benchmark (BENCHMARK.json, wdbench/) builds src/ on its own,
# in Release, into a tree inside the plain leg's build directory. Its
# self-test runs every workload briefly and checks planted defects, so a src/
# change that breaks the benchmark's build, its metric printing or its
# failure accounting fails CI here instead of at the next benchmark run.
CARGO_TARGET_DIR="${PWD}/build-ci/wdbench" python3 wdbench/run.py --self-test
run_leg build-ci-asan address . "$@"
# TSan leg: the concurrency suites that hammer the context store and batched
# hook publish, plus the pooled scheduler/executor scale suite
# (abandonment, backpressure, and shutdown races), the chaos/soak tier that
# storms fixed-size sharded pools + deadline budgets with injected faults, and
# the signal-suite/fusion tests (FusionDetector::OnFailure runs on scheduler
# threads; the suite test drives a live driver against a publisher thread).
run_leg build-ci-tsan thread \
  'context_concurrency|stress_test|driver_scale|driver_chaos|supervisor|detectors_signal' "$@"

echo "ci: all three legs green"
