#!/usr/bin/env python3
"""Validate BENCH_JSON lines emitted by the bench binaries.

Every bench prints machine-readable `BENCH_JSON {...}` lines through the
schema-versioned serializer in bench/bench_util.h. CI pipes each bench's
output through this checker; it also validates --statsz JSON dumps and
--timeseries NDJSON sidecar files.

Usage:
  some_bench | tools/check_bench_json.py [--min-lines N] [--statsz FILE]
  tools/check_bench_json.py --min-lines 2 < bench_output.txt
  tools/check_bench_json.py --timeseries out/timeseries.ndjson /dev/null

Line kinds validated: throughput, telemetry, timeseries (per-interval
counter deltas, monotone interval index), sketch (quantile-sketch
summaries), stream (streaming-collector bookkeeping), scenario
(traffic-scenario leg bookkeeping from fig_scenarios), preload and
skipped (bench/preload/compare_allocators.sh arms). timeseries, sketch,
preload and skipped lines carry no "threads" field by design —
timeseries output is byte-identical for any --threads, and the preload
arms come from a shell driver.

Exit status is non-zero when any line is malformed or fewer than
--min-lines BENCH_JSON lines were seen.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2
TELEMETRY_SCHEMA_VERSION = 1

# The allocator tiers the paper's telemetry reports on, plus the
# memory-pressure control plane, the heap/lifetime sampler, and the
# failure/recovery counters. Every telemetry line from a full allocator
# snapshot must cover all of them ("pressure", "sampler", and "failure"
# counters are registered at allocator construction, so they appear even
# when no limit was ever set, nothing was sampled, and nothing failed).
# The tiers are a deterministic-simulation contract only: telemetry lines
# tagged "exec":"real-threads" come from the real-concurrency allocator
# (tcmalloc/real_threads.h), which instead must report its "contention"
# component (lock acquisitions and contended acquisitions per tier,
# refills that had to fetch a span) and the three tiers it shares with
# the simulator under the simulator's names: "transfer_cache" (objects
# accepted and spilled, misses, bytes cached), "central_free_list" (span
# fetches and returns) and "page_heap" (free and released bytes, runs).
REQUIRED_TIERS = (
    "cpu_cache",
    "transfer_cache",
    "central_free_list",
    "huge_page_filler",
    "huge_cache",
    "page_heap",
    "pressure",
    "sampler",
    "failure",
)

REAL_THREADS_COMPONENTS = ("contention", "transfer_cache", "central_free_list",
                           "page_heap")

EXEC_MODES = ("real-threads",)

THROUGHPUT_FIELDS = ("sim_requests", "wall_seconds", "sim_requests_per_sec")

KNOWN_KINDS = ("throughput", "telemetry", "timeseries", "sketch", "stream",
               "scenario", "preload", "skipped")

# Names fig_scenarios accepts via --scenario= (fleet::ScenarioNames()).
SCENARIO_NAMES = ("diurnal", "flash-crowd", "deploy-wave", "antagonist")

# Kinds whose lines intentionally omit "threads": timeseries/sketch lines
# must be byte-identical for any --threads (check_determinism.sh diffs
# them), preload/skipped lines come from the compare_allocators.sh shell
# driver which has no thread concept of its own.
NO_THREADS_KINDS = ("timeseries", "sketch", "preload", "skipped")

# Components that must appear in every full-snapshot timeseries interval
# (same contract as REQUIRED_TIERS for telemetry lines; the allocator
# registers all of them at construction, so they are present even when
# their counters never moved).
TIMESERIES_REQUIRED_COMPONENTS = ("allocator", "pressure", "failure")


def fail(errors, line_no, message):
    errors.append(f"line {line_no}: {message}")


def check_common(errors, line_no, obj):
    if obj.get("schema_version") != SCHEMA_VERSION:
        fail(errors, line_no,
             f"schema_version {obj.get('schema_version')!r} != {SCHEMA_VERSION}")
    if not isinstance(obj.get("bench"), str) or not obj["bench"]:
        fail(errors, line_no, "missing or empty 'bench'")
    if obj.get("kind") not in KNOWN_KINDS:
        fail(errors, line_no, f"unknown kind {obj.get('kind')!r}")
    if obj.get("kind") not in NO_THREADS_KINDS:
        if not isinstance(obj.get("threads"), int) or obj["threads"] < 1:
            fail(errors, line_no, f"bad 'threads': {obj.get('threads')!r}")
    if "exec" in obj and obj["exec"] not in EXEC_MODES:
        fail(errors, line_no, f"unknown exec mode {obj.get('exec')!r}")


def check_throughput(errors, line_no, obj):
    for field in THROUGHPUT_FIELDS:
        value = obj.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            fail(errors, line_no, f"bad '{field}': {value!r}")


def check_telemetry(errors, line_no, obj):
    if obj.get("schema_telemetry") != TELEMETRY_SCHEMA_VERSION:
        fail(errors, line_no,
             f"schema_telemetry {obj.get('schema_telemetry')!r} != "
             f"{TELEMETRY_SCHEMA_VERSION}")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        fail(errors, line_no, "missing or empty 'metrics' object")
        return
    for key, value in metrics.items():
        if "/" not in key:
            fail(errors, line_no, f"metric key {key!r} is not component/name")
        if not isinstance(value, (int, float)):
            fail(errors, line_no, f"metric {key!r} has non-numeric value")
    components = {key.split("/", 1)[0] for key in metrics}
    required = (REAL_THREADS_COMPONENTS
                if obj.get("exec") == "real-threads" else REQUIRED_TIERS)
    missing = [tier for tier in required if tier not in components]
    if missing:
        fail(errors, line_no, f"telemetry missing tiers: {', '.join(missing)}")
    if "arm" in obj and (not isinstance(obj["arm"], str) or not obj["arm"]):
        fail(errors, line_no, "bad 'arm' label")


def check_timeseries(errors, line_no, obj, last_intervals):
    """One kind=timeseries line: a per-interval delta snapshot.

    last_intervals maps (bench, arm) -> previous interval index so the
    strictly-monotone contract is checked across the whole stream.
    """
    interval = obj.get("interval")
    if not isinstance(interval, int) or interval < 0:
        fail(errors, line_no, f"bad 'interval': {interval!r}")
        return
    key = (obj.get("bench"), obj.get("arm", ""))
    prev = last_intervals.get(key)
    if prev is not None and interval <= prev:
        fail(errors, line_no,
             f"interval index not monotone: {interval} after {prev}")
    last_intervals[key] = interval
    t_seconds = obj.get("t_seconds")
    if not isinstance(t_seconds, (int, float)) or t_seconds < 0:
        fail(errors, line_no, f"bad 't_seconds': {t_seconds!r}")
    counters = obj.get("counters")
    if not isinstance(counters, dict):
        fail(errors, line_no, "missing 'counters' object")
        return
    for name, delta in counters.items():
        if "/" not in name:
            fail(errors, line_no, f"counter key {name!r} is not component/name")
        if not isinstance(delta, int) or delta < 0:
            fail(errors, line_no, f"counter {name!r} delta {delta!r} "
                 "is not a non-negative integer")
    gauges = obj.get("gauges")
    if not isinstance(gauges, dict):
        fail(errors, line_no, "missing 'gauges' object")
        return
    for name, value in gauges.items():
        if not isinstance(value, (int, float)):
            fail(errors, line_no, f"gauge {name!r} has non-numeric value")
    components = {k.split("/", 1)[0] for k in counters} | \
                 {k.split("/", 1)[0] for k in gauges}
    missing = [c for c in TIMESERIES_REQUIRED_COMPONENTS
               if c not in components]
    if missing:
        fail(errors, line_no,
             f"timeseries missing components: {', '.join(missing)}")
    for name, hist in obj.get("histograms", {}).items():
        if not isinstance(hist.get("count"), int) or hist["count"] < 0:
            fail(errors, line_no, f"histogram {name!r} bad 'count'")
        buckets = hist.get("buckets")
        if not isinstance(buckets, list) or any(
                not isinstance(b, int) or b < 0 for b in buckets):
            fail(errors, line_no, f"histogram {name!r} bad 'buckets'")


def check_sketch(errors, line_no, obj):
    if not isinstance(obj.get("name"), str) or not obj["name"]:
        fail(errors, line_no, "sketch missing 'name'")
    sketch = obj.get("sketch")
    if not isinstance(sketch, dict):
        fail(errors, line_no, "missing 'sketch' object")
        return
    count = sketch.get("count")
    if not isinstance(count, int) or count < 0:
        fail(errors, line_no, f"sketch bad 'count': {count!r}")
    quantiles = sketch.get("quantiles")
    if not isinstance(quantiles, dict):
        fail(errors, line_no, "sketch missing 'quantiles'")
    elif count > 0:
        order = [quantiles.get(q) for q in ("p50", "p90", "p95", "p99")]
        if any(not isinstance(v, (int, float)) for v in order):
            fail(errors, line_no, f"sketch quantiles not numeric: {quantiles!r}")
        elif any(a > b for a, b in zip(order, order[1:])):
            fail(errors, line_no, f"sketch quantiles not monotone: {order!r}")
    points = sketch.get("points")
    if not isinstance(points, list) or any(
            not (isinstance(p, list) and len(p) == 2 and
                 isinstance(p[1], int) and p[1] > 0) for p in points):
        fail(errors, line_no, "sketch 'points' is not a [value,count] list")
    elif count > 0 and sum(p[1] for p in points) != count:
        fail(errors, line_no, "sketch point counts do not sum to 'count'")


def check_stream(errors, line_no, obj):
    for field in ("machines", "processes", "total_requests", "intervals",
                  "collector_peak_pending", "peak_rss_kb"):
        value = obj.get(field)
        if not isinstance(value, int) or value < 0:
            fail(errors, line_no, f"bad '{field}': {value!r}")


def check_scenario(errors, line_no, obj):
    """One kind=scenario line: a fig_scenarios leg's bookkeeping.

    Every field is deterministic across --threads values (host-dependent
    fields like peak_rss_kb intentionally stay on the human-readable
    lines), so this line is part of the determinism byte-compare.
    """
    if obj.get("scenario") not in SCENARIO_NAMES:
        fail(errors, line_no, f"unknown scenario {obj.get('scenario')!r}")
    for field in ("machines", "processes", "total_requests", "oom_kills",
                  "deploy_restarts", "antagonists", "failed_allocations",
                  "intervals"):
        value = obj.get(field)
        if not isinstance(value, int) or value < 0:
            fail(errors, line_no, f"bad '{field}': {value!r}")
    if obj.get("scenario") == "deploy-wave" and obj.get(
            "deploy_restarts") == 0:
        fail(errors, line_no, "deploy-wave leg saw no deploy restarts")


def check_preload(errors, line_no, obj):
    for field in ("arm", "bench_binary", "allocator"):
        if not isinstance(obj.get(field), str) or not obj[field]:
            fail(errors, line_no, f"preload missing '{field}'")
    ns_per_op = obj.get("ns_per_op")
    if not isinstance(ns_per_op, (int, float)) or ns_per_op <= 0:
        fail(errors, line_no, f"preload bad 'ns_per_op': {ns_per_op!r}")


def check_skipped(errors, line_no, obj):
    for field in ("arm", "reason"):
        if not isinstance(obj.get(field), str) or not obj[field]:
            fail(errors, line_no, f"skipped line missing '{field}'")


def check_timeseries_file(errors, path):
    """--timeseries FILE: a RenderNdjson sidecar (no BENCH_JSON prefix)."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        errors.append(f"timeseries {path}: {exc}")
        return 0
    last_intervals = {}
    file_errors = []
    kinds = {"timeseries": 0, "sketch": 0}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(file_errors, line_no, f"invalid JSON: {exc}")
            continue
        check_common(file_errors, line_no, obj)
        kind = obj.get("kind")
        if kind == "timeseries":
            kinds["timeseries"] += 1
            check_timeseries(file_errors, line_no, obj, last_intervals)
        elif kind == "sketch":
            kinds["sketch"] += 1
            check_sketch(file_errors, line_no, obj)
        else:
            fail(file_errors, line_no,
                 f"unexpected kind {kind!r} in timeseries file")
    if kinds["timeseries"] == 0:
        file_errors.append("no timeseries lines in file")
    errors.extend(f"timeseries {path}: {e}" for e in file_errors)
    return kinds["timeseries"] + kinds["sketch"]


def check_statsz(errors, path):
    try:
        with open(path, encoding="utf-8") as handle:
            dump = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"statsz {path}: {exc}")
        return
    if dump.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        errors.append(f"statsz {path}: bad schema_version "
                      f"{dump.get('schema_version')!r}")
    metrics = dump.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        errors.append(f"statsz {path}: missing or empty 'metrics'")
        return
    components = set()
    for i, metric in enumerate(metrics):
        for field in ("component", "name", "kind"):
            if not isinstance(metric.get(field), str) or not metric[field]:
                errors.append(f"statsz {path}: metric {i} bad '{field}'")
        if metric.get("kind") == "histogram":
            if not isinstance(metric.get("buckets"), list):
                errors.append(f"statsz {path}: metric {i} missing buckets")
            bounds = metric.get("bounds", [])
            if len(metric.get("buckets", [])) != len(bounds) + 1:
                errors.append(f"statsz {path}: metric {i} bucket/bound "
                              "count mismatch")
        elif "value" not in metric:
            errors.append(f"statsz {path}: metric {i} missing value")
        components.add(metric.get("component"))
    missing = [tier for tier in REQUIRED_TIERS if tier not in components]
    if missing:
        errors.append(f"statsz {path}: missing tiers: {', '.join(missing)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-lines", type=int, default=1,
                        help="minimum number of BENCH_JSON lines expected")
    parser.add_argument("--statsz", default=None,
                        help="also validate this statsz JSON dump")
    parser.add_argument("--timeseries", default=None,
                        help="also validate this --timeseries NDJSON file")
    parser.add_argument("input", nargs="?", default="-",
                        help="bench output file ('-' = stdin)")
    args = parser.parse_args()

    stream = sys.stdin if args.input == "-" else open(args.input,
                                                      encoding="utf-8")
    errors = []
    seen = 0
    kinds = {kind: 0 for kind in KNOWN_KINDS}
    last_intervals = {}
    with stream:
        for line_no, line in enumerate(stream, start=1):
            if not line.startswith("BENCH_JSON "):
                continue
            seen += 1
            try:
                obj = json.loads(line[len("BENCH_JSON "):])
            except json.JSONDecodeError as exc:
                fail(errors, line_no, f"invalid JSON: {exc}")
                continue
            check_common(errors, line_no, obj)
            kind = obj.get("kind")
            if kind in kinds:
                kinds[kind] += 1
            if kind == "throughput":
                check_throughput(errors, line_no, obj)
            elif kind == "telemetry":
                check_telemetry(errors, line_no, obj)
            elif kind == "timeseries":
                check_timeseries(errors, line_no, obj, last_intervals)
            elif kind == "sketch":
                check_sketch(errors, line_no, obj)
            elif kind == "stream":
                check_stream(errors, line_no, obj)
            elif kind == "scenario":
                check_scenario(errors, line_no, obj)
            elif kind == "preload":
                check_preload(errors, line_no, obj)
            elif kind == "skipped":
                check_skipped(errors, line_no, obj)

    if seen < args.min_lines:
        errors.append(f"saw {seen} BENCH_JSON line(s), expected at least "
                      f"{args.min_lines}")
    if args.statsz:
        check_statsz(errors, args.statsz)
    ts_lines = 0
    if args.timeseries:
        ts_lines = check_timeseries_file(errors, args.timeseries)

    if errors:
        for error in errors:
            print(f"check_bench_json: {error}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{count} {kind}" for kind, count in kinds.items()
                        if count > 0) or "none"
    print(f"check_bench_json: OK ({seen} line(s): {summary}"
          + (", statsz valid" if args.statsz else "")
          + (f", timeseries file valid ({ts_lines} lines)"
             if args.timeseries else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
