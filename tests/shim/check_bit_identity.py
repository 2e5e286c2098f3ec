#!/usr/bin/env python3
"""Simulator bit-identity guard next to the shim tests.

The malloc behind the shim and the simulated Allocator share code (size
classes, config, telemetry); changes to the malloc must leave the
simulator untouched: fig03 with the pinned fleet shape must keep
producing the golden sim_requests for ANY --threads value, byte-identical
BENCH_JSON apart from the thread count and wall-clock fields. This is the
same contract tools/check_determinism.sh enforces in CI; this test
re-checks it next to the shim tests so a malloc change that leaks into the
shared paths fails the shim suite too, with the golden value pinned
explicitly.

Usage: check_bit_identity.py <fig03_fleet_cdf-binary>
"""

import json
import re
import subprocess
import sys

FLAGS = ["--machines=2", "--duration=1", "--max-requests=300"]
GOLDEN_SIM_REQUESTS = 1200
THREADS = [1, 4]

VOLATILE = re.compile(
    r'"(threads)":[0-9]+|"(wall_seconds|sim_requests_per_sec)":[0-9.eE+-]+'
)


def bench_json_lines(bench, threads):
    out = subprocess.run(
        [bench] + FLAGS + [f"--threads={threads}"],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"FAIL: {bench} --threads={threads} exited "
                 f"{out.returncode}\n{out.stderr[-2000:]}")
    lines = [l for l in out.stdout.splitlines() if l.startswith("BENCH_JSON")]
    if not lines:
        sys.exit(f"FAIL: no BENCH_JSON lines from --threads={threads}")
    return lines


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bench = sys.argv[1]

    runs = {t: bench_json_lines(bench, t) for t in THREADS}

    # Golden pin: the simulated fleet shape serves exactly 1200 requests.
    for t, lines in runs.items():
        payload = json.loads(lines[0][len("BENCH_JSON "):])
        got = payload.get("sim_requests")
        if got != GOLDEN_SIM_REQUESTS:
            sys.exit(f"FAIL: --threads={t} sim_requests={got}, "
                     f"golden={GOLDEN_SIM_REQUESTS}")

    # Bit identity across thread counts, masking only the legitimately
    # thread-dependent fields.
    normalized = {
        t: [VOLATILE.sub("_", l) for l in lines] for t, lines in runs.items()
    }
    base_t = THREADS[0]
    for t in THREADS[1:]:
        if normalized[t] != normalized[base_t]:
            for a, b in zip(normalized[base_t], normalized[t]):
                if a != b:
                    sys.exit(f"FAIL: BENCH_JSON differs between "
                             f"--threads={base_t} and --threads={t}:\n"
                             f"  {a}\n  {b}")
            sys.exit(f"FAIL: BENCH_JSON line count differs between "
                     f"--threads={base_t} and --threads={t}")

    print(f"check_bit_identity: OK (sim_requests={GOLDEN_SIM_REQUESTS} "
          f"for --threads={THREADS})")


if __name__ == "__main__":
    main()
