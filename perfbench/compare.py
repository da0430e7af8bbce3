"""Compare two sets of benchmark runs of one workload.

Each argument is a file holding the stdout of one ``perfbench/run.py``
run.  Files before ``--`` are the base, files after it the change::

    python3 perfbench/compare.py base1.txt base2.txt ... -- new1.txt new2.txt ...

Refuses a run that is invalid (its generator fell behind schedule) or
failed its output checks, and runs that do not share one workload and
one fingerprint (codec and sim-kernel lanes, event loop, nproc, Python
version, platform): an A/B test of a lane is the same command run once
with and once without ``REPRO_ACCEL=0``, and is read side by side, not
compared.  Otherwise prints each metric's median and quartiles per side,
and the change in the median against the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> Tuple[str, str, Dict[str, Any]]:
    workload = fingerprint = ""
    result: Dict[str, Any] = {}
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    for line in lines:
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("fingerprint "):
            fingerprint = line[len("fingerprint "):]
        elif line.startswith("INVALID: "):
            raise SystemExit(f"{path}: invalid run ({line[len('INVALID: '):]})")
    if lines:
        result = json.loads(lines[-1])
    if not workload or not fingerprint or "metrics" not in result:
        raise SystemExit(f"{path}: not the output of one perfbench/run.py run")
    return workload, fingerprint, result


def bounds() -> Dict[str, Tuple[str, float]]:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m.get("bound", 0.0)) for m in spec["end_to_end"]}


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    cut = argv.index("--")
    sides = [[load(p) for p in argv[:cut]], [load(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        print("need at least one run on each side")
        return 2
    runs = sides[0] + sides[1]
    if len({w for w, _f, _r in runs}) != 1:
        print("refused: the runs are of different workloads")
        return 2
    prints = {f for _w, f, _r in runs}
    if len(prints) != 1:
        print("refused: the runs' fingerprints differ:")
        for fp in sorted(prints):
            print("  " + fp)
        return 2
    if any(not r["correct"] for _w, _f, r in runs):
        print("refused: a run failed its output checks")
        return 2
    limits = bounds()
    print(f"workload {runs[0][0]}; base n={len(sides[0])}, change n={len(sides[1])}")
    for name in runs[0][2]["metrics"]:
        cols = []
        for side in sides:
            values = [r["metrics"][name]["value"] for _w, _f, r in side]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            cols.append((statistics.median(values), q[0], q[2]))
        (m0, lo0, hi0), (m1, lo1, hi1) = cols
        line = (f"{name:14s} base {m0:.5g} [{lo0:.5g}, {hi0:.5g}]  "
                f"change {m1:.5g} [{lo1:.5g}, {hi1:.5g}]")
        if name in limits and m0:
            better, bound = limits[name]
            worse = (m1 - m0) / m0 if better == "lower" else (m0 - m1) / m0
            spread = (hi0 - lo0) / m0
            if spread > bound:
                verdict = "unresolved (base spread exceeds bound)"
            elif worse > bound:
                verdict = "WORSE than bound"
            else:
                verdict = "within bound"
            line += f"  worse by {worse:+.1%} (bound {bound:.0%}): {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
