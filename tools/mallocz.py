#!/usr/bin/env python3
"""mallocz: render wsc-tcmalloc heap profiles for humans.

Production TCMalloc exposes /mallocz and heapz handlers; this is their
offline stand-in for heap profiles. It reads the file a bench binary
writes with --profile=heap.json and prints pprof-style tables.

Usage:
  tools/mallocz.py heap.json                 # callsite tables
  tools/mallocz.py heap.json --top 10        # only the 10 largest rows

Views: live heap by callsite (with attribution coverage), peak and
cumulative bytes, sampled mean lifetimes, per-callsite
hugepage-fragmentation attribution (stranded free bytes on hugepages the
callsite pins), and sampled lifetimes by size bucket.
"""

import argparse
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("profile",
                        help="heap-profile JSON (--profile=heap.json)")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the N largest callsites (0 = all)")
    args = parser.parse_args()
    render_profile(args.profile, args.top)


if __name__ == "__main__":
    sys.exit(main())
