#!/usr/bin/env bash
# Smoke-run every bench binary with a tiny fleet and validate the
# machine-readable output. CI runs this on every push; locally:
#
#   cmake -B build -S . && cmake --build build -j
#   tools/bench_smoke.sh build
#
# Each bench runs with --machines=2 --threads=2 and sharply bounded
# request counts, so the whole sweep finishes in minutes; the point is
# exercising every code path and checking the BENCH_JSON schema, not
# reproducing the paper's numbers.

set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
CHECKER="$(dirname "$0")/check_bench_json.py"
FLAGS="--machines=2 --threads=2 --duration=1 --max-requests=300"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

if [ ! -d "$BENCH_DIR" ]; then
  echo "bench_smoke: no bench binaries under $BENCH_DIR" >&2
  exit 2
fi

failures=0
ran=0
for bench in "$BENCH_DIR"/fig* "$BENCH_DIR"/table* "$BENCH_DIR"/ablation* \
             "$BENCH_DIR"/extension* "$BENCH_DIR"/sec*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  out="$TMPDIR_SMOKE/$name.out"
  statsz="$TMPDIR_SMOKE/$name.statsz.json"

  # fig11 models hardware latencies only: no allocator, no telemetry line.
  min_lines=2
  statsz_arg="--statsz $statsz"
  if [ "$name" = "fig11_nuca_latency" ]; then
    min_lines=1
    statsz_arg=""
  fi
  # fig_mt_scaling runs the real-threads allocator, whose statsz
  # dump carries the contention components rather than the simulated
  # tiers; its BENCH_JSON lines are still fully validated (the checker
  # switches required components on the "exec" field).
  if [ "$name" = "fig_mt_scaling" ]; then
    statsz_arg=""
  fi

  echo "=== $name"
  if ! "$bench" $FLAGS --statsz="$statsz" >"$out" 2>&1; then
    echo "bench_smoke: $name exited non-zero" >&2
    tail -20 "$out" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! python3 "$CHECKER" --min-lines "$min_lines" $statsz_arg "$out"; then
    echo "bench_smoke: $name output failed validation" >&2
    grep "^BENCH_JSON" "$out" >&2 || echo "(no BENCH_JSON lines)" >&2
    failures=$((failures + 1))
    continue
  fi
  ran=$((ran + 1))
done

# --profile smoke: fig03 exercises the fleet path end to end, fig04 the
# raw-allocator path plus the google-benchmark flag handoff (its main
# strips the shared flags before benchmark::Initialize sees them).
# Profiles must attribute >= 95% of live bytes and be bit-identical
# across worker-thread counts.
MALLOCZ="$(dirname "$0")/mallocz.py"
fig03="$BENCH_DIR/fig03_fleet_cdf"
fig04="$BENCH_DIR/fig04_alloc_latency"

# A missing binary fails its smoke instead of silently skipping it.
require() {
  [ -x "$1" ] && return 0
  echo "bench_smoke: missing bench binary $1" >&2
  failures=$((failures + 1))
  return 1
}

if require "$fig03"; then
  echo "=== fig03_fleet_cdf --profile"
  p1="$TMPDIR_SMOKE/fig03.t1.heap.json"
  p4="$TMPDIR_SMOKE/fig03.t4.heap.json"
  if ! "$fig03" --machines=2 --threads=1 --duration=1 --max-requests=300 \
         --profile="$p1" >/dev/null 2>&1 ||
     ! "$fig03" --machines=2 --threads=4 --duration=1 --max-requests=300 \
         --profile="$p4" >/dev/null 2>&1; then
    echo "bench_smoke: fig03 --profile run failed" >&2
    failures=$((failures + 1))
  else
    if ! python3 "$CHECKER" --min-lines 0 --profile "$p1" \
           --min-attribution 0.95 /dev/null; then
      echo "bench_smoke: fig03 profile failed validation" >&2
      failures=$((failures + 1))
    fi
    if ! cmp -s "$p1" "$p4"; then
      echo "bench_smoke: fig03 profile differs across --threads" >&2
      failures=$((failures + 1))
    fi
    if ! python3 "$MALLOCZ" "$p1" --top 5 >/dev/null; then
      echo "bench_smoke: mallocz.py failed to render the fig03 profile" >&2
      failures=$((failures + 1))
    fi
  fi
fi

if require "$fig04"; then
  echo "=== fig04_alloc_latency --profile/--statsz"
  # Both flags ride along purely as the flag-strip proof: every shared
  # wsc flag must be stripped from argv before benchmark::Initialize
  # rejects it as unrecognized.
  if ! "$fig04" --max-requests=2000 --profile="$TMPDIR_SMOKE/fig04.heap.json" \
         --statsz="$TMPDIR_SMOKE/fig04.statsz.json" \
         --benchmark_filter='^$' >/dev/null 2>&1; then
    echo "bench_smoke: fig04 --profile/--statsz run failed" \
         "(flag leak into google-benchmark?)" >&2
    failures=$((failures + 1))
  fi
fi

echo
if [ "$failures" -ne 0 ]; then
  echo "bench_smoke: FAILED ($failures bench(es))"
  exit 1
fi
echo "bench_smoke: all $ran benches passed (+ profile smoke)"
