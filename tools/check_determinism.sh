#!/usr/bin/env bash
# Deterministic-mode bit-identity guard.
#
# The simulator is this repo's oracle: for a pinned fleet shape its output
# must be byte-identical for ANY --threads value (machine-level
# parallelism only changes wall clock, never results). This script runs
# fig03_fleet_cdf, fig_pressure_reclaim, fig_fleet_timeseries and
# fig_scenarios at --threads=1 and --threads=8 and compares, per bench:
#   - the BENCH_JSON stream, after masking the only legitimately
#     thread-dependent fields: the echoed "threads" count, the
#     wall-clock-derived wall_seconds / sim_requests_per_sec, and the host
#     bookkeeping listed at normalize() below;
#   - the --timeseries NDJSON sidecar, unmasked.
#
#   cmake -B build -S . && cmake --build build -j
#   tools/check_determinism.sh build

set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
FLAGS="--machines=2 --duration=1 --max-requests=300"
TMPDIR_DET="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_DET"' EXIT

# BENCH_JSON lines with wall-clock and thread-count fields masked. The
# stream line's peak_rss_kb (host RSS) and collector_peak_pending (size
# of the streaming reorder buffer, bounded by 2*threads) legitimately
# vary with the worker count; everything else must not.
normalize() {
  grep '^BENCH_JSON' "$1" | sed -E \
    -e 's/"threads":[0-9]+/"threads":_/' \
    -e 's/"(wall_seconds|sim_requests_per_sec)":[0-9.eE+-]+/"\1":_/g' \
    -e 's/"(peak_rss_kb|collector_peak_pending)":[0-9]+/"\1":_/g'
}

failures=0
checked=0
# fig_scenarios runs all four traffic presets per invocation (diurnal,
# flash-crowd, deploy-wave, antagonist), so the byte-compare covers the
# deploy-wave restart path and antagonist co-location too.
for name in fig03_fleet_cdf fig_pressure_reclaim fig_fleet_timeseries \
            fig_scenarios; do
  bench="$BENCH_DIR/$name"
  if [ ! -x "$bench" ]; then
    echo "check_determinism: missing bench binary $bench" >&2
    failures=$((failures + 1))
    continue
  fi
  o1="$TMPDIR_DET/$name.t1.out"
  o8="$TMPDIR_DET/$name.t8.out"
  ts1="$TMPDIR_DET/$name.t1.timeseries.ndjson"
  ts8="$TMPDIR_DET/$name.t8.timeseries.ndjson"
  if ! "$bench" $FLAGS --threads=1 --timeseries="$ts1" >"$o1" 2>&1 ||
     ! "$bench" $FLAGS --threads=8 --timeseries="$ts8" >"$o8" 2>&1; then
    echo "check_determinism: $name exited non-zero" >&2
    failures=$((failures + 1))
    continue
  fi
  # The interval series is captured on the logical clock and merged in
  # machine-index order: the --timeseries NDJSON sidecar carries no
  # wall-clock or thread fields, so it is byte-identical, unmasked.
  if ! cmp -s "$ts1" "$ts8"; then
    echo "check_determinism: $name --timeseries output differs between" \
         "--threads=1 and --threads=8" >&2
    failures=$((failures + 1))
    continue
  fi
  normalize "$o1" >"$TMPDIR_DET/$name.t1.norm"
  normalize "$o8" >"$TMPDIR_DET/$name.t8.norm"
  if [ ! -s "$TMPDIR_DET/$name.t1.norm" ]; then
    echo "check_determinism: $name produced no BENCH_JSON lines" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! cmp -s "$TMPDIR_DET/$name.t1.norm" "$TMPDIR_DET/$name.t8.norm"; then
    echo "check_determinism: $name differs between --threads=1 and" \
         "--threads=8:" >&2
    diff "$TMPDIR_DET/$name.t1.norm" "$TMPDIR_DET/$name.t8.norm" | \
      head -10 >&2
    failures=$((failures + 1))
    continue
  fi
  checked=$((checked + 1))
done

if [ "$failures" -ne 0 ]; then
  echo "check_determinism: FAILED ($failures bench(es))"
  exit 1
fi
echo "check_determinism: OK ($checked bench(es) bit-identical across" \
     "--threads)"
