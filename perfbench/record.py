"""Re-record ``expected.json``: the verdicts the benchmark's passes are
checked against, taken from one pass of each workload at the recorded
seed.

Run from the repository root after a change that is *meant* to alter
verdicts, and review the diff::

    python3 perfbench/record.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (EXPECTED_PATH, RECORDED_SEED, AppBatch,  # noqa: E402
                       Soundness, Verify)

#: A published app cell is *decisive* when it lost at least this many of
#: its launches at the recorded seed.  The lowest such cell loses about
#: 18 times in 2000 on average, so a seed on which it loses none has a
#: probability near e**-18.
DECISIVE_LOSSES = 10


def _verdicts(workload):
    with tempfile.TemporaryDirectory() as cache_dir:
        report, _ = workload.run_pass(cache_dir)
        return report, workload.verdicts(report)


def main():
    recorded = {"seed": RECORDED_SEED}

    _, sound = _verdicts(Soundness(RECORDED_SEED))
    if sound["violations"]:
        raise SystemExit("soundness: %d violations" % sound["violations"])
    recorded["soundness"] = {"cells": sound["cells"], "weak": sound["weak"]}

    campaign, losses = _verdicts(AppBatch(RECORDED_SEED))
    fenced = {"%s@%s" % result.spec.key for result in campaign
              if result.spec.scenario.fenced}
    if any(losses[cell] for cell in fenced):
        raise SystemExit("app-batch: a fenced cell lost")
    decisive = {cell for cell, lost in losses.items()
                if cell not in fenced and lost >= DECISIVE_LOSSES}
    recorded["app-batch"] = {
        "fenced": sorted(fenced), "decisive": sorted(decisive),
        "undecided": sorted(set(losses) - fenced - decisive)}

    report, cells = _verdicts(Verify(RECORDED_SEED))
    recorded["verify"] = {
        "states": {cell: cells[cell][0] for cell in sorted(cells)},
        "lost": sorted(cell for cell, verdict in cells.items() if verdict[1]),
        "fenced": sorted("%s@%s" % (row.scenario, row.chip)
                         for row in report.rows if row.fenced)}

    with open(EXPECTED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % EXPECTED_PATH)


if __name__ == "__main__":
    main()
