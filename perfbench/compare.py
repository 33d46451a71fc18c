"""Compare saved benchmark results of two commits, one workload at a time.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is written by ``run.py --out`` (one run, untraced).  Results whose
kernel backends differ are not compared: a compiled ``_aberth`` extension
moves ``numeric`` by far more than any bound.  For every end-to-end metric
the script prints both sides' medians and quartiles over runs, how many
paired runs the new side won, and whether the new median is worse than the
base median by more than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import ROOT, quartiles


def load(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("need at least one result on each side", file=sys.stderr)
        return 2
    runs = base + new
    for key in ("kernel_backend", "workload"):
        seen = {r["provenance"][key] for r in runs}
        if len(seen) != 1:
            print(f"refusing to compare: {key} differs between results: {sorted(seen)}", file=sys.stderr)
            return 2
    for key in ("python", "nproc", "platform"):
        seen = {str(r["provenance"][key]) for r in runs}
        if len(seen) != 1:
            print(f"note: {key} differs between results: {sorted(seen)}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(f"workload {runs[0]['provenance']['workload']}: {len(base)} base runs, {len(new)} new runs")
    worse = False
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        b = [r["summary"][name] for r in base]
        n = [r["summary"][name] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        sign = 1 if m["better"] == "lower" else -1
        change = sign * (mn - mb) / mb  # positive = worse
        wins = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
        verdict = "WORSE beyond bound" if change > bound else "within bound"
        worse = worse or change > bound
        bq, nq = quartiles(b), quartiles(n)
        print(f"  {name:<12} base {mb:.6f} [{bq[0]:.6f} .. {bq[1]:.6f}]  new {mn:.6f} "
              f"[{nq[0]:.6f} .. {nq[1]:.6f}] {m['unit']}  worse by {100 * change:+.1f}% "
              f"(bound {100 * bound:.0f}%), new wins {wins}/{min(len(b), len(n))} pairs: {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
