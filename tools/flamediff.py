#!/usr/bin/env python3
"""Differential flame graphs: compare two folded self-profiles.

Computes each frame's self share (samples where the frame is the leaf,
as a fraction of all samples) and total share (samples anywhere under
the frame) in BASELINE and HEAD, prints a delta table sorted by
|self-share delta|, and optionally renders a diff flame graph of HEAD
colored by delta (red = grew vs baseline, blue = shrank, grey = flat).

The simulator's profiles are deterministic, so on simulated benches any
nonzero delta is a real code-path shift, not sampling noise; real-threads
profiles (fig_mt_scaling) jitter with thread scheduling and need a looser
budget.

Usage:
  tools/flamediff.py base.folded head.folded
  tools/flamediff.py base.folded head.folded --budget 0.05
  tools/flamediff.py base.folded head.folded --svg diff.svg
  tools/flamediff.py --self-test

--budget X fails (exit 1) when any frame's SELF share grew by more than
X absolute (e.g. 0.05 = five percentage points) — the same "who got
slower" question the paper's continuous-profiling loop asks fleet-wide.
--table N limits the printed table to the top N rows (default 20).

Exit status: 0 when within budget (or no budget given); 1 on a budget
violation or bad input.
"""

import argparse
import sys

import flamegraph


def frame_shares(stacks):
    """Returns (self_share, total_share) dicts: frame -> fraction [0,1]."""
    total = sum(stacks.values())
    self_counts = {}
    total_counts = {}
    for frames, count in stacks.items():
        self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + count
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + count
    if total == 0:
        return {}, {}
    return ({f: c / total for f, c in self_counts.items()},
            {f: c / total for f, c in total_counts.items()})


def diff_rows(base_stacks, head_stacks):
    """Per-frame deltas, sorted by |self delta| descending.

    Returns rows of (frame, base_self, head_self, self_delta,
    base_total, head_total).
    """
    base_self, base_total = frame_shares(base_stacks)
    head_self, head_total = frame_shares(head_stacks)
    rows = []
    for frame in sorted(set(base_self) | set(head_self)):
        bs = base_self.get(frame, 0.0)
        hs = head_self.get(frame, 0.0)
        rows.append((frame, bs, hs, hs - bs,
                     base_total.get(frame, 0.0), head_total.get(frame, 0.0)))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    return rows


def format_table(rows, limit):
    width = max([len("frame")] + [len(r[0]) for r in rows[:limit]])
    lines = [f"{'frame':<{width}}  {'self(base)':>10}  {'self(head)':>10}  "
             f"{'delta':>8}  {'total(base)':>11}  {'total(head)':>11}"]
    for frame, bs, hs, delta, bt, ht in rows[:limit]:
        lines.append(
            f"{frame:<{width}}  {100 * bs:>9.2f}%  {100 * hs:>9.2f}%  "
            f"{100 * delta:>+7.2f}%  {100 * bt:>10.2f}%  {100 * ht:>10.2f}%")
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more frames (use --table N)")
    return "\n".join(lines)


def delta_color_fn(rows):
    """Color frames by self-share delta: red grew, blue shrank, grey flat."""
    deltas = {frame: delta for frame, _, _, delta, _, _ in rows}
    max_abs = max([abs(d) for d in deltas.values()] + [1e-9])

    def color(frame):
        delta = deltas.get(frame, 0.0)
        strength = min(1.0, abs(delta) / max_abs)
        fade = int(200 * (1.0 - strength))
        if delta > 1e-12:
            return f"rgb(255,{55 + fade},{55 + fade})"
        if delta < -1e-12:
            return f"rgb({55 + fade},{55 + fade},255)"
        return "rgb(224,224,224)"

    return color


def run_diff(base_stacks, head_stacks, budget=None, svg_path=None,
             table_limit=20, title="flamediff", out=sys.stdout):
    rows = diff_rows(base_stacks, head_stacks)
    print(format_table(rows, table_limit), file=out)

    if svg_path is not None:
        svg = flamegraph.render_svg(
            head_stacks, title=title, min_percent=0.0,
            color_fn=delta_color_fn(rows),
            subtitle="red = self-share grew vs baseline, blue = shrank")
        with open(svg_path, "w", encoding="utf-8") as f:
            f.write(svg)
        print(f"flamediff: wrote {svg_path}", file=out)

    if budget is not None:
        violations = [(frame, delta) for frame, _, _, delta, _, _ in rows
                      if delta > budget]
        if violations:
            for frame, delta in violations:
                print(
                    f"flamediff: FAIL: frame '{frame}' self-share grew "
                    f"{100 * delta:+.2f}% (budget {100 * budget:.2f}%)",
                    file=out)
            return 1
        print(f"flamediff: OK: no frame grew past "
              f"{100 * budget:.2f}% self-share budget", file=out)
    return 0


def self_test():
    import io

    base = flamegraph.parse_folded(
        "main;alloc;fast 700\n"
        "main;alloc;slow 100\n"
        "main;free 200\n")
    # Identical profiles pass any budget.
    rc = run_diff(base, dict(base), budget=0.0001, out=io.StringIO())
    assert rc == 0, "identical profiles must pass"

    # Inject a synthetic hot frame taking ~30% of head samples: the budget
    # must trip and the table must rank it first.
    head = dict(base)
    head[("main", "alloc", "lut_miss")] = 430
    rows = diff_rows(base, head)
    assert rows[0][0] == "lut_miss", rows[0]
    assert rows[0][3] > 0.25, rows[0]
    capture = io.StringIO()
    rc = run_diff(base, head, budget=0.05, out=capture)
    assert rc == 1, "synthetic hot frame must trip the budget"
    assert "lut_miss" in capture.getvalue()

    # The budget is growth-only: the shrinking lut_miss frame itself must
    # not trip it. (Shares are relative, so OTHER frames inflate when a
    # hot one disappears — use a budget above that inflation.)
    capture = io.StringIO()
    rc = run_diff(head, base, budget=0.25, out=capture)
    assert rc == 0, "shrinking frames are not regressions"
    assert "lut_miss" not in capture.getvalue().splitlines()[-1]

    # Diff SVG renders with the delta palette.
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        svg_path = os.path.join(tmp, "diff.svg")
        rc = run_diff(base, head, svg_path=svg_path, out=io.StringIO())
        assert rc == 0
        with open(svg_path, encoding="utf-8") as f:
            svg = f.read()
        assert 'data-frame="lut_miss"' in svg
        assert "rgb(255," in svg, "grown frame must render red"

    print("flamediff.py: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="baseline .folded file")
    parser.add_argument("head", nargs="?", help="head .folded file")
    parser.add_argument("--budget", type=float, default=None,
                        help="max allowed absolute self-share growth "
                             "(0.05 = 5 percentage points)")
    parser.add_argument("--svg", help="write a diff flame graph SVG here")
    parser.add_argument("--table", type=int, default=20,
                        help="rows to print in the delta table")
    parser.add_argument("--title", default=None, help="diff SVG title")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.head:
        parser.error("baseline and head folded files are required "
                     "(or --self-test)")

    with open(args.baseline, encoding="utf-8") as f:
        base_stacks = flamegraph.parse_folded(f.read())
    with open(args.head, encoding="utf-8") as f:
        head_stacks = flamegraph.parse_folded(f.read())
    title = args.title or f"{args.head} vs {args.baseline}"
    return run_diff(base_stacks, head_stacks, budget=args.budget,
                    svg_path=args.svg, table_limit=args.table, title=title)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not a diff failure.
        sys.exit(0)
