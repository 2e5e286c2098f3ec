#!/usr/bin/env python3
"""Asserts allocation/free conservation from a preload-bench stats sidecar.

bench/preload/bench_mt with --out-dir writes DIR/mt.stats.json: one
{"phase": "pre"|"post", "stats": {...}} line per snapshot, taken around
the measured region via wscmalloc_stats_json(). Every object allocated
between the snapshots is freed before the "post" snapshot (the bench
scopes its harness containers accordingly), so the deltas must balance
exactly: a shortfall means the shim lost frees (leak), an excess means it
double-counted. The bench also joins its workers before the "post"
snapshot, and an exited thread's cache goes back to the shim, so "threads"
(caches in use) must not grow across the run.

bench/preload/bench_frag frees its whole population and releases memory
before its "post" snapshot. With --max-footprint-growth-mb=N the check
also fails when the post footprint_bytes exceeds the pre one by more than
N MiB: spans whose objects all came back must have gone back to the page
heap, and the release must have returned their pages to the OS. Only the
spans the calling thread's own cache still pins may remain.

Usage: check_preload_conservation.py <stats.json> [min_ops]
           [--max-footprint-growth-mb=N]

Self-test: check_preload_conservation.py --self-test
"""

import json
import sys

MIB = 1 << 20


def parse(path):
    pre = post = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["phase"] == "pre" and pre is None:
                pre = rec["stats"]
            elif rec["phase"] == "post":
                post = rec["stats"]
    if pre is None or post is None:
        sys.exit(f"FAIL: {path} lacks pre/post snapshots")
    return pre, post


def check_footprint(pre, post, max_growth_mb):
    growth = post["footprint_bytes"] - pre["footprint_bytes"]
    if growth > max_growth_mb * MIB:
        sys.exit(f"FAIL: footprint grew {pre['footprint_bytes']} -> "
                 f"{post['footprint_bytes']} bytes ({growth / MIB:.1f} MiB > "
                 f"{max_growth_mb:g} MiB) although everything was freed and "
                 f"released: spans did not come back")
    return growth


def check(pre, post, min_ops):
    d_alloc = post["allocations"] - pre["allocations"]
    d_free = post["frees"] - pre["frees"]
    if d_alloc != d_free:
        sys.exit(f"FAIL: allocations delta {d_alloc} != frees delta {d_free} "
                 f"(leaked {d_alloc - d_free})")
    if d_alloc < min_ops:
        sys.exit(f"FAIL: only {d_alloc} allocations between snapshots, "
                 f"expected >= {min_ops} — did the workload run?")
    if post["live_bytes"] != pre["live_bytes"]:
        sys.exit(f"FAIL: live_bytes moved {pre['live_bytes']} -> "
                 f"{post['live_bytes']} across a balanced run")
    if post["threads"] > pre["threads"]:
        sys.exit(f"FAIL: threads grew {pre['threads']} -> {post['threads']} "
                 f"although every worker joined: exited threads kept their "
                 f"caches")
    return d_alloc


def self_test():
    ok_pre = {"allocations": 10, "frees": 7, "live_bytes": 100, "threads": 2}
    ok_post = {"allocations": 1010, "frees": 1007, "live_bytes": 100,
               "threads": 1}
    assert check(ok_pre, ok_post, 1000) == 1000
    for bad_post, why in [
        ({"allocations": 1010, "frees": 1006, "live_bytes": 100,
          "threads": 1}, "leak"),
        ({"allocations": 11, "frees": 8, "live_bytes": 100, "threads": 1},
         "too few ops"),
        ({"allocations": 1010, "frees": 1007, "live_bytes": 200,
          "threads": 1}, "live_bytes drift"),
        ({"allocations": 1010, "frees": 1007, "live_bytes": 100,
          "threads": 6}, "registry growth"),
    ]:
        try:
            check(ok_pre, bad_post, 1000)
        except SystemExit:
            continue
        raise AssertionError(f"self-test: {why} not caught")
    pre_fp = {"footprint_bytes": 10 * MIB}
    assert check_footprint(pre_fp, {"footprint_bytes": 12 * MIB}, 4) == 2 * MIB
    assert check_footprint(pre_fp, {"footprint_bytes": 6 * MIB}, 4) < 0
    try:
        # Small spans never returned: the population's footprint stays.
        check_footprint(pre_fp, {"footprint_bytes": 410 * MIB}, 4)
    except SystemExit:
        pass
    else:
        raise AssertionError("self-test: footprint growth not caught")
    print("check_preload_conservation: self-test OK")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    flag = "--max-footprint-growth-mb="
    max_growth_mb = None
    args = []
    for arg in sys.argv[1:]:
        if arg.startswith(flag):
            max_growth_mb = float(arg[len(flag):])
        else:
            args.append(arg)
    if not args:
        sys.exit(__doc__)
    min_ops = int(args[1]) if len(args) > 1 else 1
    pre, post = parse(args[0])
    ops = check(pre, post, min_ops)
    print(f"check_preload_conservation: OK ({ops} allocations == frees, "
          f"live_bytes stable at {post['live_bytes']}, threads "
          f"{pre['threads']} -> {post['threads']})")
    if max_growth_mb is not None:
        growth = check_footprint(pre, post, max_growth_mb)
        print(f"check_preload_conservation: OK (footprint grew "
              f"{growth / MIB:.2f} MiB <= {max_growth_mb:g} MiB)")


if __name__ == "__main__":
    main()
