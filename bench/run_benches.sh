#!/usr/bin/env bash
# Wall-clock smoke timings of the bench binaries (CI's release-bench job).
#
# Usage:  bench/run_benches.sh BUILD_DIR [OUT_JSON]
#
# Runs a fixed set of workloads from BUILD_DIR and writes one JSON object to
# OUT_JSON (default BENCH.json in the current directory):
#
#   {
#     "meta":    { "build_dir": ..., "cores": ..., "repeat": ..., "date": ... },
#     "benches": {
#       "<name>": { "wall_s": ..., "events_per_s": ... }
#     }
#   }
#
# wall_s is the best of BENCH_REPEAT (default 3) runs.  events_per_s comes
# from the binary's stderr timing line and is null when there is none (the
# harness still times it, so before/after wall-clock comparisons work
# against any revision).  PQRA_JOBS caps the parallel runs.
#
# These best-of-N wall times on a shared host are a smoke signal, not a
# measurement: performance claims are made with the benchmark suite in
# bench/suite/ (BENCHMARK.json; bench/suite/README.md), which times
# per-phase host cost over repeated reps and compares runs with compare.py.
set -u

BUILD_DIR=${1:?usage: run_benches.sh BUILD_DIR [OUT_JSON]}
OUT_JSON=${2:-BENCH.json}
REPEAT=${BENCH_REPEAT:-3}
CORES=$(nproc 2>/dev/null || echo 1)

CLI="$BUILD_DIR/examples/experiment_cli"
BENCH="$BUILD_DIR/bench"

# Refuse to record numbers from a tree that violates the project's
# determinism invariants: BENCH_*.json timings are only comparable across
# revisions when every run is byte-identically replayable, and pqra_lint is
# the source-level gate for exactly that (docs/STATIC_ANALYSIS.md).
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
LINT=$(cd "$BUILD_DIR" 2>/dev/null && pwd)/tools/lint/pqra_lint
if [ ! -x "$LINT" ]; then
  echo "run_benches.sh: $LINT not built; run" >&2
  echo "  cmake --build $BUILD_DIR --target pqra_lint" >&2
  exit 1
fi
if ! (cd "$REPO_ROOT" && "$LINT" --config .pqra-lint.toml \
        src bench examples tools); then
  echo "run_benches.sh: pqra_lint found violations; refusing to bench" >&2
  exit 1
fi

now_ns() { date +%s%N; }

# time_best VAR_PREFIX -- cmd...: best-of-$REPEAT wall seconds into
# <prefix>_wall; last run's stderr into <prefix>_err.
time_best() {
  local prefix=$1; shift
  local best="" t0 t1 wall err_file
  err_file=$(mktemp)
  for _ in $(seq "$REPEAT"); do
    t0=$(now_ns)
    "$@" >/dev/null 2>"$err_file"
    t1=$(now_ns)
    wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.4f", (b - a) / 1e9 }')
    if [ -z "$best" ] || awk -v w="$wall" -v b="$best" \
        'BEGIN { exit !(w < b) }'; then
      best=$wall
    fi
  done
  eval "${prefix}_wall=$best"
  eval "${prefix}_err=\$(cat "$err_file")"
  rm -f "$err_file"
}

# events/s from the CLI's stderr "timing: ... | N events/s" line; empty when
# the build predates that line.
events_rate() { sed -n 's/.* | \([0-9.]*\) events\/s$/\1/p' <<<"$1" | tail -1; }

json_num() { [ -n "$1" ] && printf '%s' "$1" || printf 'null'; }

declare -A WALL RATE

# 1. DES throughput, sequential: the schedule->fire hot path (EventFn +
#    shared payloads) dominates; events/s is the headline figure.
time_best cli_seq "$CLI" app=apsp graph=chain size=16 quorum=prob k=4 \
  monotone=1 sync=0 runs=20 seed=1 jobs=1
WALL[cli_apsp_seq]=$cli_seq_wall
RATE[cli_apsp_seq]=$(events_rate "$cli_seq_err")

# 2. Same workload on the parallel runner (jobs = hardware): measures the
#    replication-level speedup (1.0x expected on a single-core host).
time_best cli_par "$CLI" app=apsp graph=chain size=16 quorum=prob k=4 \
  monotone=1 sync=0 runs=20 seed=1 jobs="${PQRA_JOBS:-0}"
WALL[cli_apsp_par]=$cli_par_wall
RATE[cli_apsp_par]=$(events_rate "$cli_par_err")

# 3. Figure-2 sweep (fast preset): end-to-end harness cost, many small runs.
time_best fig2 env PQRA_FAST=1 "$BENCH/fig2_rounds"
WALL[fig2_rounds_fast]=$fig2_wall
RATE[fig2_rounds_fast]=$(events_rate "$fig2_err")

# 4. Convergence sweep over three applications (fast preset).
time_best conv env PQRA_FAST=1 "$BENCH/convergence_apps"
WALL[convergence_apps_fast]=$conv_wall
RATE[convergence_apps_fast]=$(events_rate "$conv_err")

# 5. Theorem-4 Monte Carlo (fast preset): quorum sampling throughput
#    (exercises Rng::sample_without_replacement scratch reuse).
time_best thm4 env PQRA_FAST=1 "$BENCH/theorem4_q"
WALL[theorem4_q_fast]=$thm4_wall
RATE[theorem4_q_fast]=$(events_rate "$thm4_err")

# 6. Sharded multi-key store at scale: 100k keys, 64 clients — the
#    batched-fan-out stress case (one quorum fan-out per client op).  The
#    pending set stays small: each closed-loop client has one operation
#    outstanding, so the event queue peaks at a few hundred entries.  Its
#    per-key costs are the rest: each op resolves its key's replica group
#    through the ring and probes the client's per-key record at issue and
#    at completion, and each run's spec check sorts every key's records
#    (most (client, key) pairs occur once, so nothing per key is cached).
time_best store "$CLI" app=store keys=100000 clients=64 ops=400 servers=32 \
  replicas=3 k=2 runs=3 seed=1 jobs=1
WALL[cli_store_100k]=$store_wall
RATE[cli_store_100k]=$(events_rate "$store_err")

# 7. Event-queue microbenchmark (fast preset): hold-model throughput of the
#    event queue (sim/event_queue.hpp) in isolation.
time_best qmicro env PQRA_FAST=1 "$BENCH/queue_micro"
WALL[queue_micro_fast]=$qmicro_wall
RATE[queue_micro_fast]=$(events_rate "$qmicro_err")

{
  printf '{\n'
  printf '  "meta": {\n'
  printf '    "build_dir": "%s",\n' "$BUILD_DIR"
  printf '    "cores": %s,\n' "$CORES"
  printf '    "repeat": %s,\n' "$REPEAT"
  printf '    "date": "%s"\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  },\n'
  printf '  "benches": {\n'
  first=1
  for name in cli_apsp_seq cli_apsp_par fig2_rounds_fast \
              convergence_apps_fast theorem4_q_fast cli_store_100k \
              queue_micro_fast; do
    [ $first -eq 0 ] && printf ',\n'
    first=0
    printf '    "%s": { "wall_s": %s, "events_per_s": %s }' \
      "$name" "$(json_num "${WALL[$name]:-}")" \
      "$(json_num "${RATE[$name]:-}")"
  done
  printf '\n  }\n}\n'
} > "$OUT_JSON"

echo "wrote $OUT_JSON"
