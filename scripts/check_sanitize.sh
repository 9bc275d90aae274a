#!/usr/bin/env bash
# Builds the ASan+UBSan configuration and runs the full test suite under it.
# Any sanitizer report aborts the offending test (-fno-sanitize-recover=all),
# so a green run means the suite is clean of UB and memory errors.
#
# Usage: scripts/check_sanitize.sh [ctest-args...]
#        scripts/check_sanitize.sh --chaos [chaos_soak-args...]
#        scripts/check_sanitize.sh --tsan [ctest-args...]
#        scripts/check_sanitize.sh --resilience [ctest-args...]
#        scripts/check_sanitize.sh --cluster [fig_cluster_dispatch-args...]
#
# --chaos builds and runs the chaos_soak fault-injection grid under the
# sanitizers instead of ctest: every fault path (core flush, stall resume,
# adversarial traffic merge, recovery) executes with memory/UB checking on.
# Default grid is small enough for CI; pass chaos_soak flags to widen it.
#
# --tsan builds the ThreadSanitizer configuration (its own build-tsan tree;
# TSan and ASan cannot share a process) and runs the tests that start
# threads: parallel_for and ParallelIndexMap, concurrent TraceStore
# opens, the parallel runner, an observed grid writing per-run
# telemetry and trace files (each cell's telemetry probe merging its
# counter tracks into its trace) at --jobs=1 and 3, a grouped Fig. 7 grid
# running its lockstep groups on 1 and 3 threads, and the cluster's
# parallel-rows differential (concurrent run_cluster calls sharing one
# recording and one fault plan). Pass ctest args to widen or narrow the
# selection.
#
# --resilience runs the resilient-runner proof under ASan+UBSan: journal
# codec round-trips, crash containment, and the SIGTERM/SIGKILL
# kill-and-resume byte-identity differentials.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--chaos" ]]; then
  shift
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" --target chaos_soak
  exec ./build-asan/bench/chaos_soak --schedules=12 --jobs=2 --seconds=0.005 "$@"
fi

if [[ "${1:-}" == "--resilience" ]]; then
  shift
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" --target resilience_test exp_test
  exec ctest --preset asan --output-on-failure \
    -R 'Journal|HistogramRestore|ParallelRunner|ResumeDifferential' "$@"
fi

if [[ "${1:-}" == "--cluster" ]]; then
  shift
  # Cluster-layer proof under ASan+UBSan: the shards=1 byte-identity and
  # parallel-rows differentials, dispatcher-spec parsing/fuzzing, the
  # ReplayStream fork regression, and the exactness proofs of the
  # table-driven Toeplitz (rss/fdir picks) and CRC16 kernels against their
  # bit-serial and byte-serial references — then the fig_cluster_dispatch
  # grid at --jobs=1 and --jobs=3, so every dispatcher's hot path executes
  # with memory/UB checking on and the rows run concurrently must write the
  # same artifact as the rows run one after another. Pass
  # fig_cluster_dispatch flags to widen it.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" \
    --target cluster_test registry_test traffic_test extensions_test \
    util_test fig_cluster_dispatch
  ctest --preset asan --output-on-failure \
    -R 'Cluster|DispatcherSpec|DispatcherRoundTrip|ReplayFork|Toeplitz|Crc16'
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  for jobs in 1 3; do
    ./build-asan/bench/fig_cluster_dispatch --shards=3 --cores=2 \
      --seconds=0.004 "$@" --jobs="$jobs" --json="$out/jobs$jobs.json"
  done
  cmp "$out/jobs1.json" "$out/jobs3.json"
  echo "cluster grid: --jobs=1 and --jobs=3 artifacts are byte-identical"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  if [[ $# -eq 0 ]]; then
    exec ctest --preset tsan \
      -R 'ParallelFor|ParallelIndexMap|TraceStore|ParallelRunner|ObservedGrid|LockstepGrid|ClusterDifferential.ParallelRows'
  fi
  exec ctest --preset tsan "$@"
fi

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan "$@"
