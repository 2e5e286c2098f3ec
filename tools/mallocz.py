#!/usr/bin/env python3
"""mallocz: render wsc-tcmalloc heap profiles and time series for humans.

Production TCMalloc exposes /mallocz and heapz handlers; this is their
offline stand-in. It reads the files written by the bench binaries
(--profile=heap.json, --timeseries=ts.ndjson) and prints pprof-style
tables.

Usage:
  tools/mallocz.py heap.json                 # callsite tables
  tools/mallocz.py heap.json --top 10        # only the 10 largest rows
  tools/mallocz.py --timeseries ts.ndjson    # interval series + sketches

Heap-profile views: live heap by callsite (with attribution coverage),
peak and cumulative bytes, sampled mean lifetimes, and per-callsite
hugepage-fragmentation attribution (stranded free bytes on hugepages the
callsite pins). Timeseries view: the --timeseries NDJSON sidecar
rendered as a per-interval fleet table (footprint spark line,
allocation/reclaim/failure deltas) plus the merged quantile-sketch
percentiles — the offline stand-in for a GWP time-series dashboard.
"""

import argparse
import collections
import json
import sys


def human_bytes(n):
    for unit, shift in (("GiB", 30), ("MiB", 20), ("KiB", 10)):
        if n >= (1 << shift):
            return f"{n / (1 << shift):.1f} {unit}"
    return f"{n} B"


def print_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:>{w}}}" for w in widths[:-1])
    fmt += "  {}"  # last column left-aligned, unpadded
    print(fmt.format(*headers))
    for row in rows:
        print(fmt.format(*row))


def render_profile(path, top):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("kind") != "heap_profile":
        sys.exit(f"mallocz: {path} is not a heap profile "
                 "(expected kind 'heap_profile')")

    total = doc["total_live_bytes"]
    attributed = doc["attributed_live_bytes"]
    coverage = 100.0 * attributed / total if total else 100.0
    print(f"Heap profile: {human_bytes(total)} live, "
          f"{coverage:.1f}% attributed to "
          f"{len(doc['callsites'])} callsites; "
          f"{doc['samples_taken']} samples taken")

    callsites = sorted(doc["callsites"],
                       key=lambda c: (-c["live_bytes"], c["name"], c["id"]))
    if top:
        dropped = len(callsites) - top
        callsites = callsites[:top]
        if dropped > 0:
            print(f"(showing top {top} by live bytes; {dropped} more "
                  "rows omitted)")

    print("\n-- Live heap by callsite --")
    rows = []
    for c in callsites:
        share = 100.0 * c["live_bytes"] / total if total else 0.0
        lifetimes = c["sampled_lifetimes"]
        mean_ms = (c["lifetime_sum_ns"] / lifetimes / 1e6
                   if lifetimes else 0.0)
        rows.append([
            human_bytes(c["live_bytes"]), f"{share:.1f}%",
            human_bytes(c["peak_live_bytes"]), human_bytes(c["cum_bytes"]),
            str(c["allocs"]), str(c["samples"]), f"{mean_ms:.3f}",
            c["name"],
        ])
    print_table(["live", "share", "peak", "cum", "allocs", "samples",
                 "mean_life_ms", "callsite"], rows)

    frag = [c for c in callsites if c["fragmented_hugepages"] > 0]
    if frag:
        print("\n-- Hugepage fragmentation attribution --")
        frag.sort(key=lambda c: (-c["fragmented_free_bytes"], c["name"]))
        rows = [[str(c["fragmented_hugepages"]),
                 human_bytes(c["fragmented_free_bytes"]), c["name"]]
                for c in frag]
        print_table(["hugepages", "stranded_free", "callsite"], rows)

    buckets = doc.get("size_lifetime", [])
    if buckets:
        print("\n-- Size x lifetime (sampled) --")
        rows = []
        for b in buckets:
            i = b["bucket"]
            lo = 0 if i == 0 else 1 << (i - 1)
            rows.append([
                f"{human_bytes(lo)}-{human_bytes(1 << i)}",
                str(b["samples"]),
                f"{b['lifetime_sum_ns'] / b['samples'] / 1e6:.3f}",
            ])
        print_table(["size_bucket", "samples", "mean_life_ms"], rows)


SPARK_CHARS = " .:-=+*#%@"


def spark(value, lo, hi):
    if hi <= lo:
        return SPARK_CHARS[-1]
    frac = (value - lo) / (hi - lo)
    return SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                           int(frac * (len(SPARK_CHARS) - 1)))]


def render_timeseries(path):
    intervals = collections.defaultdict(list)  # arm -> [interval obj]
    sketches = collections.defaultdict(list)   # arm -> [sketch obj]
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            obj = json.loads(line)
            arm = obj.get("arm", "")
            if obj.get("kind") == "timeseries":
                intervals[arm].append(obj)
            elif obj.get("kind") == "sketch":
                sketches[arm].append(obj)
    if not intervals:
        sys.exit(f"mallocz: {path} has no timeseries lines")

    for arm in sorted(intervals):
        label = f" [{arm}]" if arm else ""
        series = intervals[arm]
        bench = series[0].get("bench", "?")
        print(f"Time series: {bench}{label}, {len(series)} intervals, "
              f"{series[-1]['t_seconds']:.1f}s of logical time")

        heap = [s.get("gauges", {}).get("allocator/heap_bytes", 0.0)
                for s in series]
        lo, hi = min(heap), max(heap)
        print(f"\n-- Fleet footprint ({human_bytes(int(lo))} .. "
              f"{human_bytes(int(hi))}) --")
        print("  " + "".join(spark(v, lo, hi) for v in heap))

        print("\n-- Per-interval deltas --")
        rows = []
        for s in series:
            gauges = s.get("gauges", {})
            counters = s.get("counters", {})
            failures = sum(v for k, v in counters.items()
                           if k.startswith("failure/"))
            rows.append([
                f"{s['t_seconds']:.1f}",
                human_bytes(int(gauges.get("allocator/heap_bytes", 0))),
                human_bytes(int(gauges.get("allocator/live_bytes", 0))),
                str(counters.get("allocator/allocations", 0)),
                str(counters.get("allocator/frees", 0)),
                human_bytes(counters.get("pressure/reclaimed_bytes", 0)),
                str(failures),
            ])
        print_table(["t(s)", "heap", "live", "allocs", "frees",
                     "reclaimed", "failures"], rows)

        if sketches.get(arm):
            print("\n-- Distribution sketches (log-bucket, ~3% rel err) --")
            rows = []
            for s in sorted(sketches[arm], key=lambda x: x.get("name", "")):
                sk = s.get("sketch", {})
                q = sk.get("quantiles", {})
                rows.append([
                    str(sk.get("count", 0)),
                    f"{q.get('p50', 0):.0f}", f"{q.get('p90', 0):.0f}",
                    f"{q.get('p95', 0):.0f}", f"{q.get('p99', 0):.0f}",
                    f"{sk.get('max', 0):.0f}", s.get("name", "?"),
                ])
            print_table(["n", "p50", "p90", "p95", "p99", "max", "sketch"],
                        rows)
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("profile", nargs="?", default=None,
                        help="heap-profile JSON (--profile=heap.json)")
    parser.add_argument("--timeseries", default=None,
                        help="interval-series NDJSON "
                        "(--timeseries=timeseries.ndjson)")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the N largest callsites (0 = all)")
    args = parser.parse_args()
    if args.profile is None and args.timeseries is None:
        parser.error("nothing to render: pass a heap profile and/or "
                     "--timeseries")
    if args.profile:
        render_profile(args.profile, args.top)
    if args.timeseries:
        if args.profile:
            print()
        render_timeseries(args.timeseries)


if __name__ == "__main__":
    sys.exit(main())
