"""The benchmark's three closed-loop workloads, one client each.

Every workload drives the public entry point the ``repro-litmus`` CLI
calls for one of the paper's questions, in this process, with
``jobs=1`` (no worker pools):

* ``soundness`` -- :func:`repro.api.conformance.run_soundness`, the
  Sec. 5.4 check that every observed diy outcome is allowed by the PTX
  model, as CI runs it (first 40 tests of the length-4 corpus, fences
  cta/gl, scopes dev/cta, 4 chips, fast engine, 300 iterations).
* ``app-batch`` -- :func:`repro.apps.run_app_campaign`, the Secs. 3.2/7
  loss campaign over the whole scenario registry x the 7 result chips
  on the batch engine at 2000 launches per cell, stress intensity.
* ``verify`` -- :func:`repro.exhaustive.verify_scenarios`, the Sec. 6
  exhaustive (DPOR) check of the fence fixes over the registry x the 7
  result chips, with witness traces for losing cells.

A *pass* is one CLI-equivalent invocation on a disk cache directory:
input generation, the campaign and the rendering of its report.  The
seed generates the inputs: the simulation seed of ``soundness``, the
launch seed of ``app-batch`` and the sweep order of ``verify`` (whose
verdicts are seed-free by construction).

Each workload turns a pass's report into plain *verdicts* and checks
them: against the reference engine run on the same seed and the set
recorded in ``expected.json`` for ``soundness``, against recorded
loss verdicts for ``app-batch`` (fenced cells lose nothing; published
cells that lost decisively at the recorded seed still lose -- verdicts,
not counts, because the batch engine's contract is distribution
equivalence), and against the recorded LOST set and reachable-state
counts for ``verify``.
"""

import json
import os
import random

# Entry points are called through their modules, so the traced run's
# wrappers (installed on the module attributes) see every call.
from repro import apps, diy, exhaustive
from repro.api import Session, conformance
from repro.apps import STRESS, select_scenarios
from repro.sim.chip import RESULT_CHIPS

#: The seed the recorded verdicts were taken at (CI's soundness seed).
RECORDED_SEED = 17

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_recorded():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def _cell(name, chip):
    return "%s@%s" % (name, chip)


def _render(*parts):
    """Format a report the way the CLI prints it.  The pass pays for the
    formatting; the text itself is dropped instead of printed."""
    return "\n".join(parts)


def _mismatch(what, got, want):
    """One problem line for a set-valued verdict that differs."""
    got, want = set(got), set(want)
    return ("%s differ: unexpected %s, missing %s"
            % (what, sorted(got - want)[:5], sorted(want - got)[:5]))


class Soundness:
    name = "soundness"
    chips = conformance.SOUNDNESS_CHIPS
    iterations = 300
    max_tests = 40

    def __init__(self, seed):
        self.seed = seed

    def corpus(self, max_tests=None):
        """The CLI's default length-4 corpus, name-sorted like ``_corpus``."""
        pool = diy.default_pool(scopes=diy.scopes_from_names(["dev", "cta"]),
                                fences=diy.fences_from_names(["cta", "gl"]))
        tests = diy.generate_tests(pool, max_length=4,
                                   max_tests=max_tests or self.max_tests)
        return sorted(tests, key=lambda test: test.name)

    def _campaign(self, tests, chips, cache_dir):
        report = conformance.run_soundness(
            tests, chips, iterations=self.iterations, seed=self.seed, jobs=1,
            cache_dir=cache_dir, engine="fast", model_engine="fast")
        _render(report.summary_table(max_rows=40), report.coverage_table(),
                report.summary(), *report.violation_lines())
        return report, {key: value + report.model_stats[key]
                        for key, value in report.sim_stats.items()}

    def run_pass(self, cache_dir):
        """One pass; returns ``(report, stats)``, where ``stats`` is the
        :class:`~repro.api.session.SessionStats` snapshot of what the
        pass's sessions did."""
        return self._campaign(self.corpus(), self.chips, cache_dir)

    def minimal_pass(self, cache_dir):
        return self._campaign(self.corpus(max_tests=1), self.chips[:1],
                              cache_dir)

    def verdicts(self, report):
        return {"cells": len(report.cells),
                "violations": len(report.violations),
                "weak": sorted(_cell(cell.test, cell.chip)
                               for cell in report.cells if cell.observations)}

    def expected(self):
        """The reference engine's weak cells on this seed (bit-identical
        to the fast engine by contract), cross-checked against the
        recorded set at the recorded seed.  Returns ``(expected,
        problems)``."""
        campaign = Session(engine="reference", cache=False).campaign(
            self.corpus(), self.chips, iterations=self.iterations,
            seed=self.seed)
        weak = sorted(_cell(*result.spec.key) for result in campaign
                      if result.observations)
        problems = []
        recorded = load_recorded()[self.name]
        if self.seed == RECORDED_SEED and weak != recorded["weak"]:
            problems.append("reference engine: " + _mismatch(
                "weak cells at the recorded seed", weak, recorded["weak"]))
        return {"cells": recorded["cells"], "violations": 0,
                "weak": weak}, problems

    def check(self, verdicts, expected):
        problems = []
        for key in ("cells", "violations"):
            if verdicts[key] != expected[key]:
                problems.append("%d %s, expected %d"
                                % (verdicts[key], key, expected[key]))
        if verdicts["weak"] != expected["weak"]:
            problems.append(_mismatch("weak cells", verdicts["weak"],
                                      expected["weak"]))
        return problems


class AppBatch:
    name = "app-batch"
    runs = 2000

    def __init__(self, seed):
        self.seed = seed

    def _campaign(self, scenarios, chips, cache_dir):
        # The CLI builds the session itself and hands it over.
        session = apps.app_session(jobs=1, cache_dir=cache_dir)
        campaign = apps.run_app_campaign(scenarios, chips, runs=self.runs,
                                         seed=self.seed, intensity=STRESS,
                                         engine="batch", session=session)
        _render(campaign.summary_table(), campaign.summary())
        return campaign, session.stats.snapshot()

    def run_pass(self, cache_dir):
        return self._campaign(select_scenarios(["all"]), RESULT_CHIPS,
                              cache_dir)

    def minimal_pass(self, cache_dir):
        return self._campaign(select_scenarios(["all"])[:1],
                              RESULT_CHIPS[:1], cache_dir)

    def verdicts(self, campaign):
        """Loss count per cell."""
        return {_cell(*result.spec.key): result.observations
                for result in campaign}

    def expected(self):
        return load_recorded()[self.name], []

    def check(self, verdicts, expected):
        problems = []
        cells = set(expected["fenced"]) | set(expected["decisive"]) \
            | set(expected["undecided"])
        if set(verdicts) != cells:
            problems.append(_mismatch("cells", verdicts, cells))
        lossy = [cell for cell in expected["fenced"] if verdicts.get(cell)]
        if lossy:
            problems.append("fenced cells lost: %s" % lossy[:5])
        safe = [cell for cell in expected["decisive"]
                if not verdicts.get(cell)]
        if safe:
            problems.append("published cells no longer lose: %s" % safe[:5])
        return problems


class Verify:
    name = "verify"

    def __init__(self, seed):
        self.seed = seed
        order = random.Random(seed)
        self.scenarios = select_scenarios(["all"])
        order.shuffle(self.scenarios)
        self.chips = list(RESULT_CHIPS)
        order.shuffle(self.chips)

    def _verify(self, scenarios, chips, cache_dir):
        session = exhaustive.exhaustive_session(jobs=1, cache_dir=cache_dir)
        report = exhaustive.verify_scenarios(scenarios, chips,
                                             session=session, witnesses=True)
        _render(*report.lines())
        return report, session.stats.snapshot()

    def run_pass(self, cache_dir):
        return self._verify(self.scenarios, self.chips, cache_dir)

    def minimal_pass(self, cache_dir):
        return self._verify(select_scenarios(["all"])[:1], RESULT_CHIPS[:1],
                            cache_dir)

    def verdicts(self, report):
        """``[reachable states, lost, has witness]`` per cell."""
        return {_cell(row.scenario, row.chip):
                [row.states, not row.verified, row.witness is not None]
                for row in report.rows}

    def expected(self):
        return load_recorded()[self.name], []

    def check(self, verdicts, expected):
        problems = []
        states = {cell: verdict[0] for cell, verdict in verdicts.items()}
        if states != expected["states"]:
            problems.append(_mismatch(
                "reachable-state counts",
                ["%s=%d" % item for item in states.items()],
                ["%s=%d" % item for item in expected["states"].items()]))
        lost = [cell for cell, verdict in verdicts.items() if verdict[1]]
        if sorted(lost) != expected["lost"]:
            problems.append(_mismatch("LOST cells", lost, expected["lost"]))
        unverified = [cell for cell in expected["fenced"]
                      if verdicts.get(cell, [0, True])[1]]
        if unverified:
            problems.append("fenced cells not verified: %s" % unverified[:5])
        bare = [cell for cell, verdict in verdicts.items()
                if verdict[1] and not verdict[2]]
        if bare:
            problems.append("LOST cells without a witness: %s" % bare[:5])
        return problems


WORKLOADS = {workload.name: workload
             for workload in (Soundness, AppBatch, Verify)}
