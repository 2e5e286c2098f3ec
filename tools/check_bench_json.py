#!/usr/bin/env python3
"""Validate BENCH_JSON lines emitted by the bench binaries.

Every bench prints machine-readable `BENCH_JSON {...}` lines through the
schema-versioned serializer in bench/bench_util.h. CI pipes each bench's
output through this checker; it also validates --statsz JSON dumps and
--profile heap-profile JSON files.

Usage:
  some_bench | tools/check_bench_json.py [--min-lines N] [--statsz FILE]
  tools/check_bench_json.py --min-lines 2 < bench_output.txt
  tools/check_bench_json.py --profile heap.json [--min-attribution 0.95] \
      /dev/null
  tools/check_bench_json.py --min-lines 0 --trajectory BENCH_TRAJECTORY.json \
      /dev/null

Line kinds validated: throughput, telemetry, preload and skipped
(bench/preload/compare_allocators.sh arms). preload and skipped lines
carry no "threads" field by design: the preload arms come from a shell
driver.

Heap profiles (--profile=heap.json, read by tools/mallocz.py) are checked
for their schema version, well-formed callsite rows, and
attributed_live_bytes / total_live_bytes at or above --min-attribution.

The performance trajectory (--trajectory BENCH_TRAJECTORY.json, one record
appended per change) is checked for its schema version and, in every
record, the commit and its parent, the box stamp, the wscbench end-to-end
medians of parent and change for every workload, the preload benches'
ns/op and RSS, fig03's wall and CPU time and tier-1's wall time.

Exit status is non-zero when any line is malformed or fewer than
--min-lines BENCH_JSON lines were seen.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2
TELEMETRY_SCHEMA_VERSION = 1
PROFILE_SCHEMA_VERSION = 1

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

KNOWN_KINDS = ("throughput", "telemetry", "preload", "skipped")

# Kinds whose lines intentionally omit "threads": preload/skipped lines
# come from the compare_allocators.sh shell driver, which has no thread
# concept of its own.
NO_THREADS_KINDS = ("preload", "skipped")

TRAJECTORY_SCHEMA_VERSION = 1

# What every BENCH_TRAJECTORY.json record measures (see ROADMAP.md, the
# measurement item): the wscbench workloads and their end-to-end metrics,
# and the box the numbers come from.
WSCBENCH_WORKLOADS = ("rpc_server", "phase_heap", "sim_fleet")
WSCBENCH_END_TO_END = ("setup_s", "ops_per_s", "requests_per_s",
                       "request_p50_us", "request_p99_us", "peak_rss_mb",
                       "steady_rss_mb", "drained_rss_mb")
BOX_FIELDS = ("nproc", "cpu", "kernel", "glibc", "compiler", "build_type")


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


def check_profile(errors, path, min_attribution):
    """--profile FILE: a RenderHeapProfileJson document.

    Returns (callsite rows, attribution) for the summary line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"profile {path}: {exc}")
        return 0, 0.0
    if doc.get("schema_version") != PROFILE_SCHEMA_VERSION:
        errors.append(f"profile {path}: bad schema_version "
                      f"{doc.get('schema_version')!r}")
    for field in ("total_live_bytes", "attributed_live_bytes",
                  "samples_taken"):
        if not isinstance(doc.get(field), int) or doc[field] < 0:
            errors.append(f"profile {path}: bad '{field}'")
            return 0, 0.0
    callsites = doc.get("callsites")
    if not isinstance(callsites, list) or not callsites:
        errors.append(f"profile {path}: missing or empty 'callsites'")
        return 0, 0.0
    for i, row in enumerate(callsites):
        if not isinstance(row.get("name"), str) or not row["name"]:
            errors.append(f"profile {path}: callsite {i} bad 'name'")
        for field in ("id", "allocs", "frees", "live_bytes",
                      "peak_live_bytes", "cum_bytes", "samples"):
            if not isinstance(row.get(field), int) or row[field] < 0:
                errors.append(f"profile {path}: callsite {i} bad "
                              f"'{field}'")
        if row.get("live_bytes", 0) > row.get("peak_live_bytes", 0):
            errors.append(f"profile {path}: callsite {i} live_bytes above "
                          "its peak")

    total = doc["total_live_bytes"]
    attributed = doc["attributed_live_bytes"]
    coverage = attributed / total if total > 0 else 1.0
    if coverage < min_attribution:
        errors.append(f"profile {path}: attribution {coverage:.1%} below "
                      f"the {min_attribution:.0%} floor "
                      f"({attributed}/{total} bytes)")
    return len(callsites), coverage


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 0)


def check_arms(errors, where, obj, fields):
    """obj["parent"] and obj["change"] each carry every one of `fields`."""
    for arm in ("parent", "change"):
        values = obj.get(arm)
        if not isinstance(values, dict):
            errors.append(f"{where}: missing '{arm}' object")
            continue
        for field in fields:
            if not is_number(values.get(field)):
                errors.append(f"{where}: bad {arm} '{field}': "
                              f"{values.get(field)!r}")


def check_runs(errors, where, obj, field="runs"):
    if not isinstance(obj.get(field), int) or obj[field] < 1:
        errors.append(f"{where}: bad '{field}': {obj.get(field)!r}")


def reports_ns_per_op(bench):
    return (isinstance(bench, dict) and isinstance(bench.get("parent"), dict)
            and "ns_per_op" in bench["parent"])


def check_trajectory_record(errors, where, record):
    if not isinstance(record.get("commit"), str) or not record["commit"]:
        errors.append(f"{where}: missing 'commit'")
    parent = record.get("parent")
    if (not isinstance(parent, str) or not 7 <= len(parent) <= 40
            or any(c not in "0123456789abcdef" for c in parent)):
        errors.append(f"{where}: 'parent' is not a commit hash: {parent!r}")
    box = record.get("box")
    if not isinstance(box, dict):
        errors.append(f"{where}: missing 'box' stamp")
    else:
        for field in BOX_FIELDS:
            if field not in box or box[field] in ("", None):
                errors.append(f"{where}: box stamp missing '{field}'")
        if not isinstance(box.get("nproc"), int) or box["nproc"] < 1:
            errors.append(f"{where}: bad box 'nproc'")

    runs = record.get("wscbench")
    if not isinstance(runs, list) or not runs:
        errors.append(f"{where}: missing 'wscbench' runs")
        runs = []
    seen = set()
    for i, run in enumerate(runs):
        at = f"{where}: wscbench[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{at}: not an object")
            continue
        if run.get("workload") not in WSCBENCH_WORKLOADS:
            errors.append(f"{at}: unknown workload {run.get('workload')!r}")
        seen.add(run.get("workload"))
        if not isinstance(run.get("seed"), int):
            errors.append(f"{at}: bad 'seed'")
        check_runs(errors, at, run, "pairs")
        check_arms(errors, at, run, WSCBENCH_END_TO_END)
    missing = [w for w in WSCBENCH_WORKLOADS if w not in seen]
    if missing:
        errors.append(f"{where}: no wscbench medians for "
                      f"{', '.join(missing)}")

    preload = record.get("preload")
    if not isinstance(preload, list) or not preload:
        errors.append(f"{where}: missing 'preload' benches")
        preload = []
    for i, bench in enumerate(preload):
        at = f"{where}: preload[{i}]"
        if not isinstance(bench, dict) or not isinstance(
                bench.get("bench"), str):
            errors.append(f"{at}: missing 'bench'")
            continue
        check_runs(errors, at, bench)
        # Every preload bench reports RSS; the throughput benches also
        # report ns/op (bench_frag measures only memory).
        fields = ("rss_mb",)
        if reports_ns_per_op(bench):
            fields += ("ns_per_op",)
        check_arms(errors, at, bench, fields)
    if not any(reports_ns_per_op(bench) for bench in preload):
        errors.append(f"{where}: no preload bench reports ns_per_op")

    for name, fields in (("fig03", ("wall_s", "cpu_s")),
                         ("tier1", ("wall_s",))):
        entry = record.get(name)
        if not isinstance(entry, dict):
            errors.append(f"{where}: missing '{name}'")
            continue
        if not isinstance(entry.get("command"), str) or not entry["command"]:
            errors.append(f"{where}: {name} missing 'command'")
        check_runs(errors, f"{where}: {name}", entry)
        check_arms(errors, f"{where}: {name}", entry, fields)


def check_trajectory(errors, path):
    """--trajectory FILE: BENCH_TRAJECTORY.json. Returns its record count."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"trajectory {path}: {exc}")
        return 0
    if doc.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
        errors.append(f"trajectory {path}: bad schema_version "
                      f"{doc.get('schema_version')!r}")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        errors.append(f"trajectory {path}: missing or empty 'records'")
        return 0
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            errors.append(f"trajectory {path}: record {i} is not an object")
            continue
        check_trajectory_record(errors, f"trajectory {path}: record {i}",
                                record)
    return len(records)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-lines", type=int, default=1,
                        help="minimum number of BENCH_JSON lines expected")
    parser.add_argument("--statsz", default=None,
                        help="also validate this statsz JSON dump")
    parser.add_argument("--profile", default=None,
                        help="also validate this --profile heap-profile "
                        "JSON file")
    parser.add_argument("--min-attribution", type=float, default=0.95,
                        help="minimum attributed/total live-byte ratio "
                        "of the --profile file")
    parser.add_argument("--trajectory", default=None,
                        help="also validate this BENCH_TRAJECTORY.json "
                        "file")
    parser.add_argument("input", nargs="?", default="-",
                        help="bench output file ('-' = stdin)")
    args = parser.parse_args()

    stream = sys.stdin if args.input == "-" else open(args.input,
                                                      encoding="utf-8")
    errors = []
    seen = 0
    kinds = {kind: 0 for kind in KNOWN_KINDS}
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
            elif kind == "preload":
                check_preload(errors, line_no, obj)
            elif kind == "skipped":
                check_skipped(errors, line_no, obj)

    if seen < args.min_lines:
        errors.append(f"saw {seen} BENCH_JSON line(s), expected at least "
                      f"{args.min_lines}")
    if args.statsz:
        check_statsz(errors, args.statsz)
    if args.profile:
        profile_rows, attribution = check_profile(errors, args.profile,
                                                  args.min_attribution)
    if args.trajectory:
        records = check_trajectory(errors, args.trajectory)

    if errors:
        for error in errors:
            print(f"check_bench_json: {error}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{count} {kind}" for kind, count in kinds.items()
                        if count > 0) or "none"
    print(f"check_bench_json: OK ({seen} line(s): {summary}"
          + (", statsz valid" if args.statsz else "")
          + (f", profile valid ({profile_rows} callsites, attribution "
             f"{attribution:.1%})" if args.profile else "")
          + (f", trajectory valid ({records} records)"
             if args.trajectory else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
