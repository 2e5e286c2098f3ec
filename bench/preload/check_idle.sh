#!/usr/bin/env bash
# Memory comes back without being asked: runs bench_idle's two probes on
# glibc and under the shim, prints every reading, and fails when
#
#   probe 1: the shim's RSS after 1 s of idle after a free-all exceeds
#            glibc's (the shim may take until 1.5 s, a margin against a
#            late tick), or
#   probe 2: the shim's RSS after 32 threads joined exceeds glibc's by
#            more than 4 MiB.
#
#   bench/preload/check_idle.sh [build-dir]

set -u

BUILD="${1:-build}"
BENCH="$BUILD/bench/preload/bench_idle"
SHIM="$BUILD/src/shim/libwscmalloc.so"
for f in "$BENCH" "$SHIM"; do
  if [ ! -e "$f" ]; then
    echo "check_idle: missing $f (build first)" >&2
    exit 1
  fi
done
SHIM="$(cd "$(dirname "$SHIM")" && pwd)/$(basename "$SHIM")"

for probe in 1 2; do
  glibc="$("$BENCH" --probe=$probe)" || exit 1
  shim="$(env LD_PRELOAD="$SHIM" "$BENCH" --probe=$probe)" || exit 1
  echo "$glibc"
  echo "$shim"
  python3 - "$probe" "$glibc" "$shim" <<'PY' || exit 1
import json
import sys

probe = int(sys.argv[1])
glibc, shim = (json.loads(arg) for arg in sys.argv[2:4])
if glibc["allocator"] != "system" or shim["allocator"] != "wscmalloc":
    sys.exit(f"check_idle: probe {probe}: arms ran {glibc['allocator']} "
             f"and {shim['allocator']}, not system and wscmalloc")
mib = 1 << 20
if probe == 1:
    limit = glibc["rss_1000ms"]
    best = min(shim[f"rss_{ms}ms"] for ms in (1000, 1250, 1500))
    ok = best <= limit
    what = (f"shim {best / mib:.1f} MiB by 1.5 s of idle, "
            f"glibc {limit / mib:.1f} MiB at 1 s")
else:
    limit = glibc["rss_joined"] + 4 * mib
    best = shim["rss_joined"]
    ok = best <= limit
    what = (f"shim {best / mib:.1f} MiB after join, "
            f"glibc {glibc['rss_joined'] / mib:.1f} MiB + 4 MiB")
print(f"check_idle: probe {probe}: {'OK' if ok else 'FAILED'}: {what}")
sys.exit(0 if ok else 1)
PY
done
