"""Pin the sim_storm scenario summaries the benchmark checks against.

Runs every scenario of the seed pool through the DES and writes each
``RunMetrics.summary()`` to ``expected_sim.json``.  When the file already
exists, the run is compared against it instead and any difference is
reported, so the same command checks a lane for parity::

    PYTHONPATH=src python3 perfbench/record_sim.py              # record / check
    REPRO_ACCEL=0 PYTHONPATH=src python3 perfbench/record_sim.py  # pure lane
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "expected_sim.json")


def main() -> int:
    sys.path.insert(0, HERE)
    from run import SIM_POOL
    from sut import lanes, sim_config, sim_script

    from repro.core import run_scenario

    summaries = {}
    for seed in range(SIM_POOL):
        wl, script = sim_script(seed)
        summaries[str(seed)] = run_scenario(sim_config(wl), script=script).metrics.summary()
    if not os.path.exists(PATH):
        with open(PATH, "w") as fh:
            json.dump({"recorded_on_lanes": lanes(), "summaries": summaries},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(summaries)} scenarios on lanes {lanes()}")
        return 0
    with open(PATH) as fh:
        pinned = json.load(fh)["summaries"]
    bad = sorted(seed for seed in summaries if pinned.get(seed) != summaries[seed])
    print(f"lanes {lanes()}: {len(summaries) - len(bad)}/{len(summaries)} "
          f"scenarios match the pinned summaries")
    for seed in bad:
        print(f"  seed {seed} differs")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
