#!/usr/bin/env bash
# Determinism gate: the same seed must produce byte-identical output at
# every worker-thread count.  With the sharded parallel tick engine
# (DESIGN.md "Parallel tick engine") this is the repo's core contract:
# trials are deterministic functions of (base_seed, trial_index), tick
# outcomes of (seed, tick, shard) — DHTLB_THREADS must be inert.
#
# Four artifact families are checked across the thread matrix
# (default 1 2 8 — single-threaded reference, first parallel split,
# oversubscribed):
#   * examples/strategy_comparison text output (plus a repeat run at
#     the reference count, catching nondeterminism unrelated to threads)
#   * one reduced-trial bench binary's BENCH_*.json telemetry
#     (DHTLB_BENCH_DETERMINISTIC=1 zeroes wall_ms)
#   * a canned scenario's telemetry JSON, and the streamed-provisioning
#     scenario's (its arrival folds are a parallel phase of their own)
#   * the scenario's trace + metrics observability artifacts, plus the
#     sinks-attached run's telemetry vs the plain run's (observation
#     must not perturb the simulation)
#
# Usage: scripts/check_determinism.sh [build_dir] [nodes] [tasks] [trials]
# build_dir defaults to $DHTLB_BUILD_DIR when set (so wrappers with an
# existing configured tree need no positional argument), else "build".
# DHTLB_THREAD_MATRIX overrides the thread counts (space-separated;
# the first entry is the reference all others are compared against).
# Exit 0 on success, 1 on a determinism break, 2 when strategy_comparison
# or the dhtlb driver is missing.
set -euo pipefail

BUILD_DIR="${1:-${DHTLB_BUILD_DIR:-build}}"
NODES="${2:-100}"
TASKS="${3:-10000}"
TRIALS="${4:-3}"
THREAD_MATRIX=(${DHTLB_THREAD_MATRIX:-1 2 8})
REF="${THREAD_MATRIX[0]}"
BIN="$BUILD_DIR/examples/strategy_comparison"
DHTLB="$BUILD_DIR/examples/dhtlb"

for exe in "$BIN" "$DHTLB"; do
  if [[ ! -x "$exe" ]]; then
    echo "check_determinism: $exe not found — build the tree first" >&2
    echo "  cmake --preset audit && cmake --build --preset audit -j" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

export DHTLB_SEED=3735928559

fail=0

# compare <reference> <candidate> <message>
compare() {
  if ! cmp -s "$1" "$2"; then
    echo "check_determinism: FAIL — $3" >&2
    diff -u "$1" "$2" >&2 || true
    fail=1
  fi
}

echo "check_determinism: thread matrix: ${THREAD_MATRIX[*]} (ref t$REF)"

# Example output: repeat run at the reference count, then the matrix.
echo "check_determinism: strategy_comparison (t$REF, run A)"
DHTLB_THREADS="$REF" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_ref.txt"
echo "check_determinism: strategy_comparison (t$REF, run B)"
DHTLB_THREADS="$REF" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_rep.txt"
compare "$workdir/ex_ref.txt" "$workdir/ex_rep.txt" \
  "repeated run differs with the same seed"
for t in "${THREAD_MATRIX[@]:1}"; do
  echo "check_determinism: strategy_comparison (t$t)"
  DHTLB_THREADS="$t" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_t$t.txt"
  compare "$workdir/ex_ref.txt" "$workdir/ex_t$t.txt" \
    "strategy_comparison output depends on the thread count (t$REF vs t$t)"
done

# Bench telemetry: the batched trial fan must emit the same JSON
# records regardless of the worker-thread count.
BENCH_BIN="$BUILD_DIR/bench/table2_churn"
if [[ -x "$BENCH_BIN" ]]; then
  for t in "${THREAD_MATRIX[@]}"; do
    mkdir -p "$workdir/bench$t"
    echo "check_determinism: bench telemetry (t$t)"
    DHTLB_THREADS="$t" DHTLB_TRIALS=1 DHTLB_BENCH_DETERMINISTIC=1 \
      DHTLB_BENCH_DIR="$workdir/bench$t" "$BENCH_BIN" > /dev/null
  done
  for t in "${THREAD_MATRIX[@]:1}"; do
    compare "$workdir/bench$REF/BENCH_table2_churn.json" \
            "$workdir/bench$t/BENCH_table2_churn.json" \
      "bench JSON depends on thread count (t$REF vs t$t)"
  done
else
  echo "check_determinism: note — $BENCH_BIN not built, skipping bench JSON check"
fi

# Scenario-engine determinism: the churn-heavy parallel soak drives the
# sharded tick path (parallel departure draws, cross-arc fold, sharded
# consumption) hard enough that any ordering bug surfaces in its JSON.
SCENARIOS="$(dirname "$0")/../scenarios"
SCN_FILE="$SCENARIOS/parallel_churn_soak.scn"
SCN_JSON="BENCH_scenario_parallel_churn_soak.json"
for t in "${THREAD_MATRIX[@]}"; do
  mkdir -p "$workdir/scn$t"
  echo "check_determinism: scenario telemetry (t$t)"
  DHTLB_THREADS="$t" DHTLB_BENCH_DIR="$workdir/scn$t" \
    "$DHTLB" scenario "$SCN_FILE" --quiet > /dev/null
done
for t in "${THREAD_MATRIX[@]:1}"; do
  compare "$workdir/scn$REF/$SCN_JSON" "$workdir/scn$t/$SCN_JSON" \
    "scenario JSON depends on thread count (t$REF vs t$t)"
done

# Streamed-provisioning determinism: the arrival phase adds a third
# parallel fold (per-(tick, shard) key draws) between churn and
# consumption; the streamed scenario's telemetry must be as
# thread-inert as the preallocated one's.
STREAM_FILE="$SCENARIOS/streamed_overload.scn"
STREAM_JSON="BENCH_scenario_streamed_overload.json"
for t in "${THREAD_MATRIX[@]}"; do
  mkdir -p "$workdir/stream$t"
  echo "check_determinism: streamed scenario telemetry (t$t)"
  DHTLB_THREADS="$t" DHTLB_BENCH_DIR="$workdir/stream$t" \
    "$DHTLB" scenario "$STREAM_FILE" --quiet > /dev/null
done
for t in "${THREAD_MATRIX[@]:1}"; do
  compare "$workdir/stream$REF/$STREAM_JSON" "$workdir/stream$t/$STREAM_JSON" \
    "streamed scenario JSON depends on thread count (t$REF vs t$t)"
done

# Observability determinism: trace + metrics files from the same
# scenario must byte-compare across the matrix, and attaching the sinks
# must not change the telemetry JSON (observation invariance).
for t in "${THREAD_MATRIX[@]}"; do
  mkdir -p "$workdir/obs$t"
  echo "check_determinism: trace/metrics (t$t)"
  DHTLB_THREADS="$t" DHTLB_BENCH_DIR="$workdir/obs$t" \
    "$DHTLB" scenario "$SCN_FILE" \
    --trace="$workdir/obs$t/trace.json" \
    --metrics="$workdir/obs$t/metrics.jsonl" --quiet > /dev/null
done
for t in "${THREAD_MATRIX[@]:1}"; do
  for artifact in trace.json metrics.jsonl; do
    compare "$workdir/obs$REF/$artifact" "$workdir/obs$t/$artifact" \
      "$artifact depends on thread count (t$REF vs t$t)"
  done
done
compare "$workdir/scn$REF/$SCN_JSON" "$workdir/obs$REF/$SCN_JSON" \
  "attaching sinks changed the telemetry"

# Serving-plane determinism: `dhtlb serve` telemetry must byte-compare
# across the full (engine threads x reader threads) matrix — both are
# pure execution knobs.  Deterministic mode zeroes the wall-derived
# latency rows; every count and value stays exact.
SERVE_FILE="$SCENARIOS/serve_churn_soak.scn"
SERVE_JSON="BENCH_serve_serve_churn_soak.json"
READER_MATRIX=(${DHTLB_READER_MATRIX:-1 4 8})
ref_dir=""
for t in "${THREAD_MATRIX[@]}"; do
  for r in "${READER_MATRIX[@]}"; do
    mkdir -p "$workdir/serve_t${t}_r${r}"
    echo "check_determinism: serve telemetry (t$t, r$r)"
    DHTLB_THREADS="$t" DHTLB_BENCH_DETERMINISTIC=1 \
      DHTLB_BENCH_DIR="$workdir/serve_t${t}_r${r}" \
      "$DHTLB" serve "$SERVE_FILE" --readers "$r" --quiet > /dev/null
    if [[ -z "$ref_dir" ]]; then
      ref_dir="$workdir/serve_t${t}_r${r}"
    else
      compare "$ref_dir/$SERVE_JSON" \
              "$workdir/serve_t${t}_r${r}/$SERVE_JSON" \
        "serve JSON depends on execution knobs (t${THREAD_MATRIX[0]}/r${READER_MATRIX[0]} vs t$t/r$r)"
    fi
  done
done

# Fuzzer determinism: the generator is a pure function of
# (profile, seed) — two emit passes must produce byte-identical corpus
# files — and a small audited batch must pass the runner's own
# cross-thread telemetry comparison at 1 vs 4 workers (`dhtlb fuzz`
# exits nonzero on any auditor failure or telemetry mismatch).
for pass in a b; do
  mkdir -p "$workdir/fuzz_emit_$pass"
  echo "check_determinism: fuzz corpus emit (pass $pass)"
  "$DHTLB" fuzz --profile mixed --seed "$DHTLB_SEED" --count 5 \
    --emit-only --emit-dir "$workdir/fuzz_emit_$pass" --quiet > /dev/null
done
for scn in "$workdir"/fuzz_emit_a/*.scn; do
  compare "$scn" "$workdir/fuzz_emit_b/$(basename "$scn")" \
    "fuzz generator is not a pure function of (profile, seed)"
done
echo "check_determinism: fuzz batch (t1 vs t4, audited)"
if ! "$DHTLB" fuzz --profile mixed --seed "$DHTLB_SEED" --count 3 \
    --audit --threads-matrix 1,4 --out-dir "$workdir/fuzz_run" \
    --quiet > /dev/null; then
  echo "check_determinism: FAIL — fuzz batch telemetry differs across threads (or audit failed); artifacts under $workdir/fuzz_run" >&2
  ls "$workdir/fuzz_run" >&2 || true
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_determinism: OK — byte-identical across ${THREAD_MATRIX[*]} threads"
