#!/usr/bin/env bash
# Tier-1 verification, plus optional sanitizer passes.
#
#   tools/check.sh            # configure + build + ctest (the tier-1 gate),
#                             # then the serving dispatcher tests 30 times,
#                             # the collector checkpoint tests 20 times,
#                             # the parallel SpMV tests again at
#                             # OMP_NUM_THREADS=3, and the benchmark's
#                             # smoke runs (benchmark/run.sh all --smoke,
#                             # whose output checks fail the pass) and
#                             # self-test
#   tools/check.sh --asan     # same, in a separate build dir with
#                             # -fsanitize=address,undefined
#   tools/check.sh --tsan     # ThreadSanitizer over the concurrency tests
#                             # (thread pool, parallel collection and its
#                             # checkpoints, logger +
#                             # sharded metrics, concurrent arenas, the
#                             # online-learning loop, the pooled Matrix
#                             # Market parse); OpenMP
#                             # is disabled there because libgomp's
#                             # uninstrumented runtime trips false positives
#   tools/check.sh --simd-off # full suite with -DSPMVML_FORCE_SCALAR=ON:
#                             # the SIMD tiers compiled out, every kernel on
#                             # the scalar reference — the differential
#                             # tests must hold there too
#   tools/check.sh --chaos    # chaos smoke under asan: the scripted
#                             # fault-burst bench plus the chaos/breaker/
#                             # robustness/drain tests, with every injected
#                             # fault path running under the sanitizer
#
# Each pass uses its own build directory and leaves ./build alone. Every
# pass fails if it changes a tracked file, even one already modified
# before it ran: what a pass writes belongs in a build directory.
set -euo pipefail

cd "$(dirname "$0")/.."

# The names and the content of every tracked file that differs from HEAD:
# a pass that rewrites an already-modified file changes the checksum.
# Outside a git checkout both snapshots are equal and the check is moot.
tracked_state() {
  git status --porcelain --untracked-files=no 2>/dev/null || true
  { git diff HEAD --binary 2>/dev/null || true; } | cksum
}
tree_before=$(tracked_state)

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

run_suite() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

if [[ "${1:-}" == "--asan" ]]; then
  echo "== sanitizer pass (address;undefined) =="
  run_suite build-asan "-DSPMVML_SANITIZE=address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
elif [[ "${1:-}" == "--tsan" ]]; then
  echo "== thread sanitizer pass (concurrency tests) =="
  cmake -B build-tsan -S . -DSPMVML_SANITIZE=thread \
    -DSPMVML_ENABLE_OPENMP=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'ThreadPool|ParallelCollector|Checkpoint|Parallel\.|Obs|Serve|Ingest|Arena|Differential|Chaos|Breaker|Drain|Learn|Replay|Drift|Sell|Mmio'
elif [[ "${1:-}" == "--chaos" ]]; then
  echo "== chaos smoke (asan; scripted fault bursts + robustness tests) =="
  cmake -B build-chaos -S . "-DSPMVML_SANITIZE=address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-chaos -j "$jobs"
  ctest --test-dir build-chaos --output-on-failure -j "$jobs" \
    -R 'Chaos|Breaker|Drain'
  ./build-chaos/bench/serving_bench --chaos --smoke \
    --out build-chaos/BENCH_robustness.json
elif [[ "${1:-}" == "--simd-off" ]]; then
  echo "== scalar-fallback pass (SIMD tiers compiled out) =="
  run_suite build-simd-off -DSPMVML_FORCE_SCALAR=ON
else
  echo "== tier-1 verify =="
  # Latency and deadline math must use the monotonic clock; system_clock
  # jumps on NTP sync and breaks both (audited clean — keep it that way).
  if grep -rn 'system_clock' src bench tools examples --include='*.cpp' \
      --include='*.hpp'; then
    echo "error: std::chrono::system_clock found; use steady_clock" >&2
    exit 1
  fi
  # Serving concerns are applied once: the stage driver in serve/service.cpp
  # holds the only chaos retry loop (with_attempt + backoff). The registry's
  # single per-install swap draw is not a retry, so its file is left out.
  for pat in 'chaos::with_attempt(' 'backoff_sleep('; do
    sites=$(grep -rnF "$pat" src/serve --include='*.cpp' --include='*.hpp' |
      grep -v '^src/serve/model_registry\.cpp:' | grep -vE '^[^:]+:[0-9]+:\s*//' ||
      true)
    if (( $(grep -c . <<<"$sites") > 1 )); then
      echo "$sites"
      echo "error: '$pat' has more than one call site in src/serve/;" \
        "route chaos retries through the stage driver" >&2
      exit 1
    fi
  done
  run_suite build
  # A single run hides dispatcher races: repeat the tests that pin batch
  # composition, admission behind a busy worker, drain and sharding.
  echo "== serving dispatcher tests, repeated =="
  ctest --test-dir build --output-on-failure -j "$jobs" \
    -R 'ServeService\.(MicroBatching|AdmissionControl|ShutdownDrains)|IngestService\.ShardedDispatch' \
    --repeat until-fail:30
  # The parallel collector finishes entries out of plan order (largest
  # first, backoff requeues), so checkpoint contents vary run to run.
  echo "== collector checkpoint tests, repeated =="
  ctest --test-dir build --output-on-failure -j "$jobs" \
    -R 'LabelCollector|ParallelCollector|Checkpoint' --repeat until-fail:20
  # The parallel SpMV kernels again at an odd thread count, which splits
  # their tasks unevenly across threads (--tsan runs with OpenMP off).
  echo "== parallel SpMV at OMP_NUM_THREADS=3 =="
  OMP_NUM_THREADS=3 ctest --test-dir build --output-on-failure -j "$jobs" \
    -R 'ParallelSpmv|ParallelMatchesSerial|MergeParallel|Differential'
  echo "== sidecar self-test (binary CSR round-trip, bitwise) =="
  ./build/tools/spmvml sidecar --self-test
  # Every workload once on the small inputs: a failed request, a wrong
  # answer or a failed output check exits non-zero.
  echo "== benchmark smoke (all workloads) + self-test =="
  benchmark/run.sh all --smoke
  ctest --test-dir benchmark/build --output-on-failure -L benchmark
fi

if [[ "$(tracked_state)" != "$tree_before" ]]; then
  git status --porcelain --untracked-files=no
  echo "error: this pass changed tracked files; write outputs under a" \
    "build directory" >&2
  exit 1
fi

echo "OK"
