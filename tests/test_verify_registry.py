"""Exact pins of the DPOR exploration of every registry cell.

``tests/data/verify_registry.json`` records, for every scenario of the
registry on every result chip, what a serial uncached
``verify_scenarios`` reports: reachable states, complete executions,
transitions, losing executions, the ``bounded`` flag and the first
losing execution trace.  Transition counts and witnesses depend on the
order DPOR visits states, so any change to that order on a registry
cell fails here, not only a change of verdict.

Regenerate (only when a change is meant to alter the exploration)::

    PYTHONPATH=src python tests/test_verify_registry.py
"""

import json
import os

from repro.apps.scenario import select_scenarios
from repro.exhaustive import exhaustive_session, verify_scenarios
from repro.sim.chip import RESULT_CHIPS

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "verify_registry.json")


def registry_record():
    """``{"scenario@chip": pinned fields}`` over the registry x chips."""
    report = verify_scenarios(select_scenarios(["all"]), RESULT_CHIPS,
                              session=exhaustive_session(jobs=1,
                                                         cache=False))
    return {"%s@%s" % (row.scenario, row.chip): {
        "states": row.states, "executions": row.executions,
        "transitions": row.transitions, "losses": row.losses,
        "bounded": row.bounded,
        "witness": None if row.witness is None else row.witness.lines()}
        for row in report.rows}


def test_registry_exploration_matches_the_recorded_pins():
    with open(DATA) as handle:
        recorded = json.load(handle)
    got = registry_record()
    assert len(recorded) == 22 * 7
    assert sorted(got) == sorted(recorded)
    differing = [cell for cell in recorded if got[cell] != recorded[cell]]
    assert not differing, [(cell, got[cell], recorded[cell])
                           for cell in differing[:3]]


if __name__ == "__main__":
    with open(DATA, "w") as handle:
        json.dump(registry_record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
