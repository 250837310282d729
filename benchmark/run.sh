#!/usr/bin/env bash
# Build the benchmark (and the spmvml library and CLI under test) into
# benchmark/build/, then run one workload, or all four in turn.
#
#   benchmark/run.sh [serve-hot|serve-cold|solve|train|all]
#                    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#                    [--out FILE]
#
# The workload may also be given as `--workload NAME`; without one, all
# four run. Build output goes to stderr; stdout carries the metric lines
# and, last, the result JSON line of the (last) workload. Exits non-zero
# when the build fails, a run fails, or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

workload=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke)
      args+=("$1")
      shift
      ;;
    --workload | --seed | --seconds | --trace | --out)
      if [[ $# -lt 2 ]]; then
        echo "run.sh: $1 needs a value" >&2
        exit 2
      fi
      if [[ "$1" == "--workload" ]]; then workload="$2"; else args+=("$1" "$2"); fi
      shift 2
      ;;
    -*)
      echo "run.sh: unknown option $1" >&2
      exit 2
      ;;
    *)
      if [[ -n "$workload" ]]; then
        echo "run.sh: more than one workload given" >&2
        exit 2
      fi
      workload="$1"
      shift
      ;;
  esac
done
workload="${workload:-all}"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target spmvml_bench spmvml_bench_selftest \
  -j "$(nproc)" >&2

# The results config block records the commit when run from a checkout.
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
  SPMVML_BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD)"
  SPMVML_BENCH_GIT_DIRTY=0
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    SPMVML_BENCH_GIT_DIRTY=1
  fi
  export SPMVML_BENCH_GIT_SHA SPMVML_BENCH_GIT_DIRTY
fi

if [[ "$workload" == "all" ]]; then
  status=0
  for w in serve-hot serve-cold solve train; do
    "$build/spmvml_bench" --workload "$w" "${args[@]}" || status=1
  done
  exit "$status"
fi
exec "$build/spmvml_bench" --workload "$workload" "${args[@]}"
