#!/usr/bin/env bash
# Runs the JSON-emitting ablation benches and collects their outputs.
#
#   bench/run_benchmarks.sh [build_dir] [out_dir]
#
# build_dir defaults to ./build (must already contain compiled bench
# binaries); out_dir defaults to ./bench_out. Produces:
#   BENCH_simd.json              — ablation_flat_tree, incl. the
#                                  batch scan's rows and the active
#                                  kernel tier
#   BENCH_concurrency.json       — ablation_service_concurrency thread
#                                  sweep, batched admission, tracing
#                                  overhead
#   BENCH_dynamic_grouping.json  — incremental vs recompute grouping, plus
#                                  the add/remove churn path
#   BENCH_online.json            — grouped vs full-scope per-issuance cost
#   BENCH_lifecycle.json         — admission p99 under a reconfiguration
#                                  storm vs quiescent (5x self-check)
# Sizes default to the CI smoke shape; override via FLAT_TREE_FLAGS /
# CONCURRENCY_FLAGS / DYNAMIC_GROUPING_FLAGS / ONLINE_FLAGS /
# LIFECYCLE_FLAGS. Every bench self-checks equivalence before timing and
# exits nonzero on any mismatch, so a green run is also a correctness gate.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_out}"
FLAT_TREE_FLAGS="${FLAT_TREE_FLAGS:---max_n=10 --records=1500 --max_wide_n=128}"
CONCURRENCY_FLAGS="${CONCURRENCY_FLAGS:---groups=8 --requests=20000}"
DYNAMIC_GROUPING_FLAGS="${DYNAMIC_GROUPING_FLAGS:---reps=3}"
ONLINE_FLAGS="${ONLINE_FLAGS:---issues=1000 --reps=2}"
LIFECYCLE_FLAGS="${LIFECYCLE_FLAGS:---groups=8 --requests=20000 --reps=3}"

if [[ ! -x "${BUILD_DIR}/bench/ablation_flat_tree" ]]; then
  echo "error: ${BUILD_DIR}/bench/ablation_flat_tree not built" >&2
  echo "hint: cmake --build ${BUILD_DIR} --target" \
       "ablation_flat_tree ablation_service_concurrency" \
       "ablation_dynamic_grouping ablation_online ablation_lifecycle" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

echo "== ablation_flat_tree ${FLAT_TREE_FLAGS}"
# shellcheck disable=SC2086
"${BUILD_DIR}/bench/ablation_flat_tree" ${FLAT_TREE_FLAGS} \
  "--json_out=${OUT_DIR}/BENCH_simd.json"

echo "== ablation_service_concurrency ${CONCURRENCY_FLAGS}"
# shellcheck disable=SC2086
"${BUILD_DIR}/bench/ablation_service_concurrency" ${CONCURRENCY_FLAGS} \
  "--json_out=${OUT_DIR}/BENCH_concurrency.json"

echo "== ablation_dynamic_grouping ${DYNAMIC_GROUPING_FLAGS}"
# shellcheck disable=SC2086
"${BUILD_DIR}/bench/ablation_dynamic_grouping" ${DYNAMIC_GROUPING_FLAGS} \
  "--json_out=${OUT_DIR}/BENCH_dynamic_grouping.json"

echo "== ablation_online ${ONLINE_FLAGS}"
# shellcheck disable=SC2086
"${BUILD_DIR}/bench/ablation_online" ${ONLINE_FLAGS} \
  "--json_out=${OUT_DIR}/BENCH_online.json"

echo "== ablation_lifecycle ${LIFECYCLE_FLAGS}"
# shellcheck disable=SC2086
"${BUILD_DIR}/bench/ablation_lifecycle" ${LIFECYCLE_FLAGS} \
  "--json_out=${OUT_DIR}/BENCH_lifecycle.json"

echo "== wrote:"
ls -l "${OUT_DIR}"/BENCH_*.json
