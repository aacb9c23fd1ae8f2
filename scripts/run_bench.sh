#!/usr/bin/env bash
# Bench runner: build every bench target and run them, teeing each report to
# bench-results/<target>.txt. Pass target names to run a subset.
#
# Usage: scripts/run_bench.sh [bench_fig08_exact bench_micro ...]
#
# DSD_BENCH_SCALE={small,large} sizes the registry-dataset rows in
# bench_threads/bench_peel/bench_flow: small (the default) stops at the
# ~10^6-edge rung (pl-1m), large adds the ~10^7-edge rung (pl-10m; first
# run pays a one-off generation that is then cached as .dsdg under
# bench/datasets/cache) and, in bench_flow, the whole-graph exact solve
# on pl-1m.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"
OUT_DIR="${BENCH_OUT_DIR:-bench-results}"
export DSD_BENCH_SCALE="${DSD_BENCH_SCALE:-small}"
echo "bench scale: $DSD_BENCH_SCALE"

cmake -B "$BUILD_DIR" -S . -DDSD_BUILD_BENCH=ON -DDSD_BUILD_TESTS=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ $# -gt 0 ]]; then
  targets=("$@")
else
  targets=()
  for bin in "$BUILD_DIR"/bench/bench_*; do
    [[ -x $bin && -f $bin ]] && targets+=("$(basename "$bin")")
  done
fi

mkdir -p "$OUT_DIR"
for target in "${targets[@]}"; do
  bin="$BUILD_DIR/bench/$target"
  if [[ ! -x $bin ]]; then
    echo "error: no such bench target: $target" >&2
    exit 1
  fi
  echo "==> $target"
  if [[ $target == bench_server ]]; then
    # Server trace-replay bench: machine-readable JSON (p50/p99 latency,
    # throughput, shed rate, cache hit rate per concurrency level). Every
    # ok response is parity-checked in-bench BIT-IDENTICAL against a
    # direct dsd::Solve on the same graph; a divergence means the serving
    # path corrupted an answer — fail the whole run.
    json="$OUT_DIR/BENCH_${target#bench_}.json"
    if ! "$bin" "$json"; then
      echo "FAIL: $target reported a parity violation (a served response" >&2
      echo "differed from the direct dsd::Solve answer) or a transport" >&2
      echo "failure; see the bench output above. Aborting." >&2
      exit 1
    fi
    echo "wrote $json"
  elif [[ $target == bench_flow ]]; then
    # Flow-engine bench: exact/core-exact on registry datasets across
    # thread budgets and warm/cold flow search, with the FlowNetwork work
    # counters per run. Parity (identical densest subgraph across every
    # run of a cell) and the warm-does-less-work contract are asserted
    # in-bench; either failing is a flow-layer correctness/perf bug —
    # fail the whole run.
    json="$OUT_DIR/BENCH_${target#bench_}.json"
    if ! "$bin" "$json"; then
      echo "FAIL: $target reported a parity divergence across threads or" >&2
      echo "warm/cold flow search, or the warm-started search stopped" >&2
      echo "doing less work than cold; see the bench output above." >&2
      echo "Aborting." >&2
      exit 1
    fi
    echo "wrote $json"
  elif [[ $target == bench_threads || $target == bench_peel ]]; then
    # Thread-scaling / peeling-engine benches: machine-readable JSON
    # (algo x motif x graph x threads x wall time, plus the peel engine's
    # bracket count and count time on every bench_peel record) for trend
    # tracking. Each multi-threaded row is parity-checked in-bench against
    # its sequential baseline; a divergence is a correctness bug in the
    # oracle kernels or the peel engine, not noise — fail the whole run.
    json="$OUT_DIR/BENCH_${target#bench_}.json"
    if ! "$bin" "$json"; then
      echo "FAIL: $target reported a parity divergence (a multi-threaded" >&2
      echo "answer differed from the sequential baseline); see the bench" >&2
      echo "output above. Aborting." >&2
      exit 1
    fi
    echo "wrote $json"
  elif [[ $target == bench_storage ]]; then
    # Storage bench: mmap vs fallback vs text-ingest load times on a
    # registry dataset. The >= 10x mmap-over-text contract and the
    # bitwise round-trip are asserted in-bench; either failing means the
    # storage layer regressed — fail the whole run.
    json="$OUT_DIR/BENCH_${target#bench_}.json"
    if ! "$bin" "$json"; then
      echo "FAIL: $target reported a round-trip mismatch or a blown" >&2
      echo "mmap-vs-text speedup contract; see the bench output above." >&2
      echo "Aborting." >&2
      exit 1
    fi
    echo "wrote $json"
  else
    "$bin" | tee "$OUT_DIR/$target.txt"
  fi
done

echo "Reports written to $OUT_DIR/"
