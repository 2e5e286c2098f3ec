#!/usr/bin/env bash
# Deterministic-mode bit-identity guard.
#
# The simulator is this repo's oracle: for a pinned fleet shape its output
# must be byte-identical for ANY --threads value (machine-level
# parallelism only changes wall clock, never results). This script runs
# two fleet benches at --threads=1 and --threads=8: fig03_fleet_cdf (the
# paper's Fig. 3 fleet) and fig_pressure_reclaim (a paired A/B under
# planned pressure events). Per bench it compares:
#   - the BENCH_JSON stream, after masking the only legitimately
#     thread-dependent fields: the echoed "threads" count and the
#     wall-clock-derived wall_seconds / sim_requests_per_sec;
#   - the --statsz JSON sidecar (the final merged snapshot, histogram
#     buckets included, which BENCH_JSON flattens to counts), unmasked.
#
#   cmake -B build -S . && cmake --build build -j
#   tools/check_determinism.sh build

set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
FLAGS="--machines=2 --duration=1 --max-requests=300"
TMPDIR_DET="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_DET"' EXIT

# BENCH_JSON lines with wall-clock and thread-count fields masked;
# everything else must not vary with the worker count.
normalize() {
  grep '^BENCH_JSON' "$1" | sed -E \
    -e 's/"threads":[0-9]+/"threads":_/' \
    -e 's/"(wall_seconds|sim_requests_per_sec)":[0-9.eE+-]+/"\1":_/g'
}

failures=0
checked=0
for name in fig03_fleet_cdf fig_pressure_reclaim; do
  bench="$BENCH_DIR/$name"
  if [ ! -x "$bench" ]; then
    echo "check_determinism: missing bench binary $bench" >&2
    failures=$((failures + 1))
    continue
  fi
  o1="$TMPDIR_DET/$name.t1.out"
  o8="$TMPDIR_DET/$name.t8.out"
  sz1="$TMPDIR_DET/$name.t1.statsz.json"
  sz8="$TMPDIR_DET/$name.t8.statsz.json"
  if ! "$bench" $FLAGS --threads=1 --statsz="$sz1" >"$o1" 2>&1 ||
     ! "$bench" $FLAGS --threads=8 --statsz="$sz8" >"$o8" 2>&1; then
    echo "check_determinism: $name exited non-zero" >&2
    failures=$((failures + 1))
    continue
  fi
  # Snapshots are merged in machine-index order: the --statsz JSON
  # sidecar carries no wall-clock or thread fields, so it is
  # byte-identical, unmasked.
  if [ ! -s "$sz1" ] || ! cmp -s "$sz1" "$sz8"; then
    echo "check_determinism: $name --statsz output is missing or differs" \
         "between --threads=1 and --threads=8" >&2
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
