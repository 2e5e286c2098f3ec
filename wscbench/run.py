#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 wscbench/run.py --workload rpc_server --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout. The first run builds the
allocator sources and the benchmark's drivers into .bench_build (or
$CARGO_TARGET_DIR when set). Workloads:

  rpc_server  closed-loop RPC server under LD_PRELOAD=libwscmalloc.so
  phase_heap  a heap that grows, changes size band and drains, preloaded
  sim_fleet   fig03's deterministic fleet plus a simulated-allocator replay

--trace 0 prints the end-to-end metrics (medians over several process
launches); --trace 1 runs the per-layer arms instead (preload, direct
untraced, direct traced, glibc reference). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rpc_server", "phase_heap", "sim_fleet")
# Seed reserved for confirming a claimed gain on inputs its change was not
# tuned on.
HELD_OUT_SEED = 424242
# Process launches per untraced malloc run; every metric is their median.
LAUNCHES = 7
# sim_fleet launches per run: set-up only (setup_s is their median), then
# short replays, half before the fleet and half after it. Replays run one
# at a time: run side by side they slowed each other by 25-60%, by an
# amount that changed from run to run.
SIM_SETUP_LAUNCHES = 9
SIM_REPLAYS = 12
# A launch's timed phase is a fixed amount of work, so the run-to-run
# spread is the allocator's and the box's, not the amount of work done
# (rpc_server's RSS grows with every churned thread). The work is the
# launch's share of `seconds` times this nominal per-worker request rate
# (about the rate the shim reaches on a 4-CPU Xeon box), so a run
# measures for about `seconds`; a launch stops at 1.5x its share in any
# case, which bounds a run's length on a slower box.
REQUESTS_PER_WORKER_PER_S = {"rpc_server": 200000, "phase_heap": 70000}
TIME_CAP = 1.5
# Timed requests per worker in the traced direct arm (phase_heap: one
# stream pass).
TRACED_REQUESTS = {"rpc_server": 6000, "phase_heap": 1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_us": "us",
    "request_p99_us": "us",
    "peak_rss_mb": "MiB",
    "steady_rss_mb": "MiB",
    "drained_rss_mb": "MiB",
}

PER_LAYER = {
    "shim.ns_per_call": "ns",
    "shim.bootstrap_kb": "KiB",
    "shim.time_share": "ratio",
    "thread_cache.alloc_hit_rate": "ratio",
    "thread_cache.free_hit_rate": "ratio",
    "thread_cache.alloc_hit_ns_p50": "ns",
    "thread_cache.free_hit_ns_p50": "ns",
    "thread_cache.time_share": "ratio",
    "middle.alloc_miss_ns_p50": "ns",
    "middle.alloc_miss_ns_p99": "ns",
    "middle.free_miss_ns_p50": "ns",
    "middle.free_miss_ns_p99": "ns",
    "middle.time_share": "ratio",
    "transfer.remove_miss_rate": "ratio",
    "transfer.insert_overflow_rate": "ratio",
    "cfl.refill_stall_rate": "ratio",
    "cfl.steal_yield": "ratio",
    "cfl.carves": "count",
    "lock.transfer_contended_rate": "ratio",
    "lock.cfl_contended_rate": "ratio",
    "large.alloc_ns_p50": "ns",
    "large.alloc_ns_p99": "ns",
    "large.free_ns_p50": "ns",
    "large.free_ns_p99": "ns",
    "large.fresh_carve_rate": "ratio",
    "large.time_share": "ratio",
    "release.call_ms_p50": "ms",
    "release.released_mb": "MiB",
    "release.recommitted_mb": "MiB",
    "release.time_share": "ratio",
    "registry.register_us_p50": "us",
    "registry.threads_registered": "count",
    "registry.retained_kb_per_exited_thread": "KiB",
    "registry.time_share": "ratio",
    "backing.footprint_mb": "MiB",
    "backing.arena_used_mb": "MiB",
    "backing.rss_over_live": "ratio",
    "backing.thp_fraction": "ratio",
    "fleet.plan_s": "s",
    "fleet.run_s": "s",
    "sim_alloc.allocate_ns_p50": "ns",
    "sim_alloc.allocate_ns_p99": "ns",
    "sim_alloc.free_ns_p50": "ns",
    "sim_alloc.free_ns_p99": "ns",
    "sim_alloc.maintain_us_p50": "us",
    "sim_alloc.share_of_run": "ratio",
    "sim.allocations": "count",
    "sim.cpu_cache_hit_rate": "ratio",
    "sim.transfer_cache_hit_rate": "ratio",
    "sim.cfl_returned_spans": "count",
    "sim.hugepage_coverage": "ratio",
    "sim.external_fragmentation_mb": "MiB",
    "trace.overhead_fraction": "ratio",
    "ref.system.ops_per_s": "1/s",
    "ref.system.request_p50_us": "us",
    "ref.system.request_p99_us": "us",
    "ref.system.peak_rss_mb": "MiB",
    "ref.system.drained_rss_mb": "MiB",
}

# Counts the direct arm reads from TelemetrySnapshot() deltas.
DIRECT_COUNTS = [k for k in PER_LAYER if k.split(".")[0] in (
    "transfer", "cfl", "lock", "release", "registry", "backing")
    and k not in ("release.call_ms_p50", "release.time_share",
                  "registry.register_us_p50", "registry.time_share")] + [
    "large.fresh_carve_rate"]
# Metrics the traced direct arm derives from spans.
SPAN_METRICS = [k for k in PER_LAYER if k.startswith((
    "thread_cache.", "middle.", "large.", "release.call", "release.time",
    "registry.register", "registry.time", "shim.time"))
    and k != "large.fresh_carve_rate"]
SIM_TRACED = [k for k in PER_LAYER if k.startswith(("fleet.", "sim_alloc.",
                                                    "sim."))]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logpath, "w") as f:
        steps = [["cmake", "-S", BENCH_DIR, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(logpath) as g:
                    sys.stderr.write(g.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return out


def launch(cmd, env=None, timeout=170):
    """Runs one driver process; returns its RESULT object."""
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise BenchError("%s exited with %d" % (cmd[0], p.returncode))
    lines = [l for l in p.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("%s printed no RESULT line" % cmd[0])
    return json.loads(lines[-1][len("RESULT "):])


def median(values):
    return statistics.median(values)


def pooled_quantile(results, q):
    """q-quantile of the request latencies of several launches pooled.

    Each launch reports its distribution as an evenly spaced quantile grid;
    each grid point stands for an equal share of that launch's samples.
    Pooling, rather than taking the median of per-launch quantiles, keeps
    the estimate smooth when launches land in different machine states.
    """
    points = []
    for r in results:
        grid = r["latency_grid_us"]
        points += [(v, r["latency_samples"] / len(grid)) for v in grid]
    points.sort()
    target = q * sum(w for _, w in points)
    acc = 0.0
    for v, w in points:
        acc += w
        if acc >= target:
            return v
    return points[-1][0]


def latency_metrics(results, problems):
    """p50 of the launches' pooled requests; p99 as the median of the
    launches' own p99 (each with ten samples beyond it), so one launch
    with a heavy tail does not set it."""
    if any(r["request_p99_us"] < 0 for r in results):
        problems.append("fewer than 1000 request samples for p99")
    return {"request_p50_us": pooled_quantile(results, 0.5),
            "request_p99_us": median([r["request_p99_us"] for r in results])}


def box_stamp(shim_reserved_mb=None):
    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""
    cpu = next((l.split(":", 1)[1].strip() for l in
                read("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), "unknown")
    thp = read("/sys/kernel/mm/transparent_hugepage/enabled").strip()
    try:
        cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cxx = "unknown"
    stamp = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "thp": thp,
        "glibc": "-".join(platform.libc_ver()),
        "compiler": cxx,
        "build_type": "RelWithDebInfo",
        "held_out_seed": HELD_OUT_SEED,
    }
    if shim_reserved_mb is not None:
        stamp["shim_reserved_mb"] = shim_reserved_mb
    log("box " + json.dumps(stamp, sort_keys=True))


def load_goldens():
    with open(os.path.join(BENCH_DIR, "sim_goldens.json")) as f:
        return json.load(f)


def check_sim(result, problems):
    """The fleet's exact counts must equal the values recorded for its seed."""
    golden = load_goldens().get(str(result["fleet_seed"]))
    if golden is None:
        problems.append("no recorded sim counts for fleet seed %s"
                        % result["fleet_seed"])
        return
    for key, want in golden.items():
        if result.get(key) != want:
            problems.append("%s = %s, recorded %s" % (key, result.get(key),
                                                      want))


def check_malloc(results, problems):
    hashes = {r["stream_hash"] for r in results}
    if len(hashes) != 1:
        problems.append("launches saw different op streams: %s" % hashes)
    for r in results:
        if r["check_failures"]:
            problems.append("%s: %d failed content/alignment/usable-size "
                            "checks" % (r["arm"], r["check_failures"]))
        if not r["balanced"]:
            problems.append("%s: allocation/free deltas do not balance "
                            "(%s vs %s)" % (r["arm"], r.get("alloc_delta"),
                                            r.get("free_delta")))


def preload_env(bdir):
    env = dict(os.environ)
    env["LD_PRELOAD"] = os.path.abspath(
        os.path.join(bdir, "src", "shim", "libwscmalloc.so"))
    return env


def malloc_cmd(bdir, workload, seed, extra):
    return [os.path.join(bdir, "wscbench_malloc"), "--workload=" + workload,
            "--seed=%d" % seed] + extra


def work(workload, seconds):
    return ["--max-requests=%d" % max(
        1000, int(seconds * REQUESTS_PER_WORKER_PER_S[workload])),
            "--seconds=%g" % (TIME_CAP * seconds)]


def run_malloc(bdir, workload, seed, seconds):
    args = work(workload, seconds / LAUNCHES) + ["--require-shim"]
    results = [launch(malloc_cmd(bdir, workload, seed, args),
                      env=preload_env(bdir)) for _ in range(LAUNCHES)]
    problems = []
    check_malloc(results, problems)
    # Rates over the launches' pooled work and time; memory and set-up as
    # medians.
    secs = sum(r["timed_s"] for r in results)
    metrics = {
        "ops_per_s": sum(r["calls"] for r in results) / secs,
        "requests_per_s": sum(r["requests"] for r in results) / secs,
    }
    metrics.update(latency_metrics(results, problems))
    for k in ("setup_s", "peak_rss_mb", "steady_rss_mb", "drained_rss_mb"):
        metrics[k] = median([r[k] for r in results])
    log("stream_hash %d (seed %d)" % (results[0]["stream_hash"], seed))
    box_stamp(results[0]["reserved_mb"])
    log("latency samples per launch: %s" %
        [r["latency_samples"] for r in results])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return metrics, attempted, failed, problems


def run_sim(bdir, seed, seconds):
    sim = os.path.join(bdir, "wscbench_sim")
    setups = [launch([sim, "--part=setup"])["setup_s"]
              for _ in range(SIM_SETUP_LAUNCHES)]
    replay = [sim, "--part=replay", "--seed=%d" % seed,
              "--seconds=%g" % (0.2 * seconds / SIM_REPLAYS)]
    replays = [launch(replay) for _ in range(SIM_REPLAYS // 2)]
    fleet = launch([sim, "--part=fleet"])
    replays += [launch(replay) for _ in range(SIM_REPLAYS // 2)]
    problems = []
    check_sim(fleet, problems)
    if len({r["stream_hash"] for r in replays}) != 1:
        problems.append("replays saw different op streams")
    if any(r["request_p99_us"] < 0 for r in replays):
        problems.append("fewer than 1000 request samples for p99")
    # The replay's speed is bimodal from launch to launch: the same input
    # on the same CPU, with or without address randomisation, reads a p50
    # of about 3.3 or about 5.8 us. So, as timeit takes the best of its
    # repeats, the p50 is the lowest launch's; the p99 is the launches'
    # median, as on the malloc workloads.
    metrics = {
        "request_p50_us": min(r["request_p50_us"] for r in replays),
        "request_p99_us": median([r["request_p99_us"] for r in replays]),
    }
    for k in ("peak_rss_mb", "steady_rss_mb", "drained_rss_mb"):
        metrics[k] = median([r[k] for r in replays])
    metrics["setup_s"] = median(setups)
    metrics["ops_per_s"] = fleet["fleet_calls_per_s"]
    metrics["requests_per_s"] = fleet["requests_per_s"]
    log("stream_hash %d (seed %d); fleet seed %d, sim_requests %d" %
        (replays[0]["stream_hash"], seed, fleet["fleet_seed"],
         fleet["sim.requests"]))
    box_stamp()
    attempted = fleet["attempted"] + sum(r["attempted"] for r in replays)
    failed = fleet["failed"] + sum(r["failed"] for r in replays)
    return metrics, attempted, failed, problems


def run_traced(bdir, workload, seed, seconds):
    metrics = {k: 0.0 for k in PER_LAYER}
    problems = []
    if workload == "sim_fleet":
        r = launch([os.path.join(bdir, "wscbench_sim"), "--seed=%d" % seed,
                    "--traced"])
        check_sim(r, problems)
        box_stamp()
        for k in SIM_TRACED + ["trace.overhead_fraction"]:
            metrics[k] = r[k]
        return metrics, r["attempted"], r["failed"], problems

    per = work(workload, seconds / (2 * LAUNCHES))
    direct_bin = os.path.join(bdir, "wscbench_direct")
    base = ["--workload=" + workload, "--seed=%d" % seed]
    # The preload and direct arms alternate; shim.ns_per_call is the
    # difference of their medians.
    preloads, directs = [], []
    for _ in range(3):
        preloads.append(launch(malloc_cmd(bdir, workload, seed,
                                          per + ["--require-shim"]),
                               env=preload_env(bdir)))
        directs.append(launch([direct_bin] + base + per))
    preload = sorted(preloads, key=lambda r: r["ns_per_call"])[1]
    direct = sorted(directs, key=lambda r: r["ns_per_call"])[1]
    system = launch(malloc_cmd(bdir, workload, seed, per))
    traced = launch([direct_bin] + base + [
        "--traced", "--max-requests=%d" % TRACED_REQUESTS[workload],
        "--spans-out=" + os.path.join(bdir, "spans-%s.bin" % workload)])
    results = preloads + directs + [system, traced]
    check_malloc(results, problems)
    # Self times add up to the traced call time only over a well-formed
    # span tree; and the request spans must fit in the request time the
    # executor measured with its own clock reads.
    if traced["trace.tree_errors"]:
        problems.append("%d malformed spans (unclosed, mis-parented or "
                        "outside their parent)" % traced["trace.tree_errors"])
    if traced["trace.request_ns"] > traced["trace.busy_ns"]:
        problems.append("request spans (%.0f ns) exceed the measured request "
                        "time (%.0f ns)" % (traced["trace.request_ns"],
                                            traced["trace.busy_ns"]))
    box_stamp(preload["reserved_mb"])
    log("traced call time %.0f ns = layer self %.0f ns + %d call spans x "
        "%.0f ns; %d spans, %d malformed; calls take %.1f%% of request time"
        % (traced["trace.call_ns"], traced["trace.layer_self_ns"],
           traced["trace.call_spans"], traced["trace.empty_span_ns"],
           traced["trace.spans"], traced["trace.tree_errors"],
           100 * traced["trace.call_ns"] / max(1, traced["trace.busy_ns"])))

    metrics["shim.ns_per_call"] = preload["ns_per_call"] - direct["ns_per_call"]
    metrics["shim.bootstrap_kb"] = preload["bootstrap_kb"]
    metrics["trace.overhead_fraction"] = (traced["ns_per_call"] /
                                          direct["ns_per_call"] - 1)
    for k in DIRECT_COUNTS:
        metrics[k] = direct[k]
    for k in SPAN_METRICS:
        metrics[k] = traced[k]
    for k in ("ops_per_s", "request_p50_us", "request_p99_us",
              "peak_rss_mb", "drained_rss_mb"):
        metrics["ref.system." + k] = system[k]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return metrics, attempted, failed, problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        out = build()
        if args.trace:
            metrics, attempted, failed, problems = run_traced(
                out, args.workload, args.seed, args.seconds)
            units = PER_LAYER
        elif args.workload == "sim_fleet":
            metrics, attempted, failed, problems = run_sim(
                out, args.seed, args.seconds)
            units = END_TO_END
        else:
            metrics, attempted, failed, problems = run_malloc(
                out, args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("wscbench: %s\n" % e)
        return 1

    for p in problems:
        log("CHECK FAILED: " + p)
    log("failed_op_fraction %.3g (%d of %d calls)" %
        (failed / attempted if attempted else 0, failed, attempted))
    for name, unit in units.items():
        log("%-40s %16.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }), flush=True)
    # A violated check fails the run.
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
