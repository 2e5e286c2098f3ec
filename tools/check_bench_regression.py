#!/usr/bin/env python3
"""Perf-regression gate over BENCH_JSON output.

Compares a bench run against its checked-in baseline
(bench/baselines/<bench>.json) with per-metric tolerance bands. CI wall
clock is too noisy to gate on, but this simulator's cost model is
deterministic: for a pinned fleet shape the request count and the
simulated malloc cost per allocation are machine-independent, so the gate
keys on those. wall_seconds is recorded in baselines for human reference
only and never gated.

Gated metrics, derived from each bench's BENCH_JSON lines:
  sim_requests          total simulated requests (throughput line);
                        deterministic, so the band only absorbs
                        compiler-to-compiler floating-point drift
  malloc_ns_per_alloc   sum of allocator/cycles_* over all telemetry
                        lines divided by the summed allocator/allocations
                        -- the simulated cost of the allocator itself
  scaling_efficiency    real-threads benches only (fig_mt_scaling): the
                        final throughput line's hardware-normalized
                        multi-thread efficiency. Higher is better, so the
                        gate only fires when it DROPS below the band --
                        a floor against a refill path that re-serializes
                        (SNIPPETS.md Snippet 1).

A baseline may set a metric's tolerance to null to exclude it from the
gate (e.g. real-threads benches have no simulated malloc cost).

Usage:
  tools/check_bench_regression.py out/fig03.out out/fig_pressure.out
  tools/check_bench_regression.py --update out/*.out   # (re)write baselines
  tools/check_bench_regression.py --self-test out/*.out

--self-test proves the gate has teeth: after the real comparison passes,
it replays the comparison with a synthetic 10% slowdown applied to every
measured malloc_ns_per_alloc and requires that the gate now fails.

Exit status: 0 when every bench is within its bands (and, under
--self-test, the synthetic slowdown is caught); 1 otherwise.
"""

import argparse
import json
import os
import sys

# Default relative tolerance bands; a baseline file can override either
# via its "tolerance" object. The malloc-cost band must stay below the
# 10% synthetic slowdown or --self-test will (rightly) fail the gate.
DEFAULT_TOLERANCE = {
    "sim_requests": 0.005,
    "malloc_ns_per_alloc": 0.05,
}

# Metrics where bigger is better: only the low side of the band gates.
HIGHER_IS_BETTER = {"scaling_efficiency"}


def parse_bench_output(path):
    """Extracts {bench, sim_requests, wall_seconds, malloc_ns_per_alloc}."""
    bench = None
    sim_requests = None
    wall_seconds = None
    scaling_efficiency = None
    cycles = 0.0
    allocations = 0.0
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.startswith("BENCH_JSON "):
                continue
            obj = json.loads(line[len("BENCH_JSON "):])
            bench = obj.get("bench", bench)
            if obj.get("kind") == "throughput":
                sim_requests = obj.get("sim_requests")
                wall_seconds = obj.get("wall_seconds")
                scaling_efficiency = obj.get("scaling_efficiency",
                                             scaling_efficiency)
            elif obj.get("kind") == "telemetry":
                metrics = obj.get("metrics", {})
                for key, value in metrics.items():
                    if key.startswith("allocator/cycles_"):
                        cycles += value
                allocations += metrics.get("allocator/allocations", 0.0)
    if bench is None or sim_requests is None:
        raise ValueError(f"{path}: no BENCH_JSON throughput line")
    measured = {"sim_requests": float(sim_requests),
                "wall_seconds": float(wall_seconds)}
    if allocations > 0:
        measured["malloc_ns_per_alloc"] = cycles / allocations
    if scaling_efficiency is not None:
        measured["scaling_efficiency"] = float(scaling_efficiency)
    return bench, measured


def check_one(bench, measured, baseline, errors, slowdown=1.0):
    tolerance = dict(DEFAULT_TOLERANCE)
    tolerance.update(baseline.get("tolerance", {}))
    # null tolerance = metric explicitly ungated for this bench.
    tolerance = {k: v for k, v in tolerance.items() if v is not None}
    captured = baseline.get("captured", {})
    for metric, tol in sorted(tolerance.items()):
        base = captured.get(metric)
        got = measured.get(metric)
        if base is None or got is None:
            errors.append((bench, f"metric '{metric}' missing from "
                           f"{'baseline' if base is None else 'bench output'}"))
            continue
        if metric == "malloc_ns_per_alloc":
            got *= slowdown
        # sim_requests is two-sided (any drift is a behavior change);
        # cost metrics only gate the slow direction -- getting faster is
        # the point of the repo -- and higher-is-better metrics only the
        # low side.
        low = base * (1.0 - tol)
        high = base * (1.0 + tol)
        if metric == "sim_requests":
            bad = got < low or got > high
        elif metric in HIGHER_IS_BETTER:
            bad = got < low
        else:
            bad = got > high
        status = "REGRESSION" if bad else "ok"
        print(f"check_bench_regression: {bench}: {metric} "
              f"{got:.6g} vs baseline {base:.6g} "
              f"(band ±{tol:.1%}): {status}")
        if bad:
            errors.append((bench, f"{metric} {got:.6g} outside "
                           f"[{low:.6g}, {high:.6g}]"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of <bench>.json baseline files")
    parser.add_argument("--update", action="store_true",
                        help="write/overwrite baselines from the outputs")
    parser.add_argument("--flags", default="",
                        help="with --update: record the flag string the "
                             "outputs were produced with")
    parser.add_argument("--self-test", action="store_true",
                        help="also require that a synthetic 10%% slowdown "
                             "trips the gate")
    parser.add_argument("outputs", nargs="+",
                        help="bench output files with BENCH_JSON lines")
    args = parser.parse_args()

    parsed = []
    for path in args.outputs:
        try:
            parsed.append(parse_bench_output(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"check_bench_regression: {exc}", file=sys.stderr)
            return 1

    if args.update:
        os.makedirs(args.baselines, exist_ok=True)
        for bench, measured in parsed:
            path = os.path.join(args.baselines, f"{bench}.json")
            body = {
                "bench": bench,
                "flags": args.flags,
                "captured": {k: round(v, 6) for k, v in measured.items()},
                "tolerance": DEFAULT_TOLERANCE,
            }
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(body, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"check_bench_regression: wrote {path}")
        return 0

    errors = []
    baselines = {}
    for bench, measured in parsed:
        path = os.path.join(args.baselines, f"{bench}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except OSError:
            errors.append((bench, f"no baseline at {path} "
                           "(capture one with --update)"))
            continue
        check_one(bench, measured, baseline, errors)
        baselines[bench] = (path, baseline)

    if errors:
        for bench, error in errors:
            print(f"check_bench_regression: FAIL: {bench}: {error}",
                  file=sys.stderr)
        # Point straight at the offending baseline and how to accept the
        # new numbers, so an INTENDED perf change is a one-liner to land
        # rather than an archaeology session through CI logs.
        outputs_by_bench = dict(zip((b for b, _ in parsed), args.outputs))
        for bench in sorted({b for b, _ in errors}):
            if bench not in baselines:
                continue
            path, baseline = baselines[bench]
            flags = baseline.get("flags", "")
            output = outputs_by_bench.get(bench, f"<{bench} output>")
            print(f"check_bench_regression: offending baseline: {path} "
                  f"(captured with flags: {flags or '<none recorded>'})",
                  file=sys.stderr)
            print(f"check_bench_regression: if this change is intended, "
                  f"re-baseline with: tools/check_bench_regression.py "
                  f"--update --flags '{flags}' {output}", file=sys.stderr)
        return 1

    if args.self_test:
        synthetic = []
        for bench, measured in parsed:
            path = os.path.join(args.baselines, f"{bench}.json")
            with open(path, encoding="utf-8") as handle:
                baseline = json.load(handle)
            check_one(bench, measured, baseline, synthetic, slowdown=1.10)
        if not synthetic:
            print("check_bench_regression: FAIL: synthetic 10% slowdown "
                  "was not caught -- tolerance bands are toothless",
                  file=sys.stderr)
            return 1
        print(f"check_bench_regression: self-test OK (synthetic slowdown "
              f"tripped {len(synthetic)} band(s))")

    print(f"check_bench_regression: OK ({len(parsed)} bench(es) within "
          "tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
