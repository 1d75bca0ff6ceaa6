"""Contracts of the app backend's exact tier.

On a cache miss the session asks :meth:`AppBackend.exact` before it
samples: when a complete DPOR exploration reaches a single projected
final state ``s``, every engine's histogram of the cell is ``{s: N}``
for any seed, so the session returns that without executing a shard.
Enforced here:

* on every registry cell the answer is ``None`` or equal to the unrouted
  backend's histogram, under the fast and (with numpy) batch engines;
* the proved cells are exactly the pinned list
  ``tests/data/proved_cells.json``, recorded with
  :func:`~repro.exhaustive.explore.explore_test` (``bounded`` false and
  one projected reachable state) at the default stress intensity;
* the probe gives up, without raising, on a loop-bound hit and past its
  transition budget;
* sessions count proved cells, cache them with their provenance and
  serve them warm.

Regenerate the pin (only when a change is meant to alter reachable
sets)::

    PYTHONPATH=src python tests/test_exact_tier.py
"""

import dataclasses
import json
import os

import pytest

from repro.analysis import AnalysisBackend
from repro.api import ModelBackend, RunSpec, SimBackend
from repro.api.result import PROVED
from repro.apps import (SCENARIOS, STRESS, AppBackend, ScenarioSpec,
                        app_session, run_app_campaign, select_scenarios)
from repro.errors import ExplorationLimit
from repro.exhaustive import ExhaustiveBackend
from repro.exhaustive.explore import Explorer, explore_test
from repro.litmus import library
from repro.sim import have_numpy
from repro.sim.chip import CHIPS, RESULT_CHIPS

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "proved_cells.json")


def _name(spec):
    return "%s@%s" % spec.key


def proved_record():
    """The registry cells whose complete exploration reaches one
    projected final state, as sorted ``scenario@chip`` names."""
    cells = []
    for name, scenario in SCENARIOS.items():
        for chip in RESULT_CHIPS:
            result = explore_test(scenario.test(), CHIPS[chip],
                                  intensity=STRESS)
            projected = {scenario.project(state)
                         for state in result.reachable}
            if not result.bounded and len(projected) == 1:
                cells.append("%s@%s" % (name, chip))
    return sorted(cells)


def load_proved():
    with open(DATA) as handle:
        return json.load(handle)


def registry_specs(runs, seed=17, engine="fast"):
    return [ScenarioSpec.make(name, chip, runs=runs, seed=seed,
                              intensity=STRESS, engine=engine)
            for name in SCENARIOS for chip in RESULT_CHIPS]


@pytest.fixture(scope="module")
def backend():
    return AppBackend()


class TestContract:
    def test_pin_holds_the_70_determined_cells(self):
        proved = load_proved()
        assert len(proved) == 70 == len(set(proved))
        # Every fenced lock, isolation and ticket scenario on every chip.
        fenced = [cell for cell in proved if "+fenced@" in cell]
        assert len(fenced) == 8 * len(RESULT_CHIPS)

    @pytest.mark.parametrize("seed", (17, 5))
    def test_exact_equals_unrouted_fast(self, backend, seed):
        proved = []
        for spec in registry_specs(300, seed=seed):
            exact = backend.exact(spec)
            if exact is not None:
                proved.append(_name(spec))
                assert (exact.histogram.counts
                        == backend.run(spec).histogram.counts), _name(spec)
        assert sorted(proved) == load_proved()

    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_exact_equals_unrouted_batch(self, backend):
        proved = []
        for spec in registry_specs(2000, engine="batch"):
            exact = backend.exact(spec)
            if exact is not None:
                proved.append(_name(spec))
                assert (exact.histogram.counts
                        == backend.run(spec).histogram.counts), _name(spec)
        assert sorted(proved) == load_proved()

    def test_answer_counts_every_launch(self, backend):
        spec = ScenarioSpec.make("ticket+fenced", "Titan", runs=123)
        exact = backend.exact(spec)
        (count,) = exact.histogram.counts.values()
        assert count == 123
        assert exact.meta is None and exact.stats is None


class TestProbe:
    def _explorer(self, name, chip="Titan", **kwargs):
        scenario = SCENARIOS[name]
        return scenario, Explorer(scenario.test(), CHIPS[chip],
                                  intensity=STRESS, **kwargs)

    def test_loop_bound_hit_gives_up(self):
        # Naive enumeration keeps no state cache, so the spin hits the
        # bound; every execution it completes still reaches the one
        # correct count.
        scenario, explorer = self._explorer("ticket+fenced", loop_bound=1,
                                            strategy="naive")
        full = explore_test(scenario.test(), CHIPS["Titan"],
                            intensity=STRESS, loop_bound=1, strategy="naive")
        assert full.bounded
        assert len({scenario.project(s) for s in full.reachable}) == 1
        assert explorer.probe(scenario.project, 10 ** 6) is None
        assert explorer.bounded
        assert explorer.transitions < full.transitions

    def test_budget_hit_gives_up_without_raising(self):
        scenario, explorer = self._explorer("dot-cbe+fenced")
        full = explore_test(scenario.test(), CHIPS["Titan"],
                            intensity=STRESS)
        (state,) = {scenario.project(s) for s in full.reachable}
        assert explorer.probe(scenario.project, full.transitions - 1) is None
        assert explorer.probe(scenario.project, full.transitions) == state
        # The per-branch budget of ordinary runs is left as it was.
        assert explorer.run().reachable == full.reachable
        with pytest.raises(ExplorationLimit):
            Explorer(scenario.test(), CHIPS["Titan"], intensity=STRESS,
                     max_transitions=5).run()

    def test_second_projected_state_stops_early(self):
        scenario, explorer = self._explorer("deque-mp")
        full = explore_test(scenario.test(), CHIPS["Titan"],
                            intensity=STRESS)
        assert explorer.probe(scenario.project, 10 ** 6) is None
        assert explorer.transitions < full.transitions

    def test_budget_is_launches_times_static_ops(self, backend):
        # dot-cbe+fenced on Titan: 36 transitions over 12 static ops,
        # so 2 launches (24) are too few to prove it and 3 (36) enough.
        scenario, explorer = self._explorer("dot-cbe+fenced")
        assert (explorer.static_ops, explorer.run().transitions) == (12, 36)
        assert backend.exact(ScenarioSpec.make(
            "dot-cbe+fenced", "Titan", runs=2)) is None
        exact = backend.exact(ScenarioSpec.make("dot-cbe+fenced", "Titan",
                                                runs=3))
        assert sum(exact.histogram.counts.values()) == 3


class TestSession:
    def test_cold_proves_and_warm_hits(self, tmp_path):
        scenarios = select_scenarios(["all"])
        cold = app_session(cache_dir=str(tmp_path))
        first = run_app_campaign(scenarios, RESULT_CHIPS, runs=100, seed=17,
                                 session=cold)
        assert cold.stats.proved == 70
        assert cold.stats.executed == 154
        assert cold.stats.shards_executed == 84
        assert cold.stats.simulated_iterations == 84 * 100
        proved = sorted("%s@%s" % key for key, result
                        in first.results.items()
                        if result.provenance == PROVED)
        assert proved == load_proved()
        assert {result.provenance for result in first} == {PROVED, "fast"}

        warm = app_session(cache_dir=str(tmp_path))
        second = run_app_campaign(scenarios, RESULT_CHIPS, runs=100,
                                  seed=17, session=warm)
        assert warm.stats.cache_hits == 154
        assert warm.stats.executed == warm.stats.proved == 0
        for key, result in second.results.items():
            assert result.cached
            assert result.histogram.counts == first.get(*key).histogram.counts
            assert result.provenance == first.get(*key).provenance

    def test_proved_twins_are_deduplicated(self):
        session = app_session()
        spec = ScenarioSpec.make("isolation+fenced", "GTX6", runs=50)
        first, twin = session.run_specs([spec, spec])
        assert (session.stats.proved, session.stats.deduplicated) == (1, 1)
        assert first.provenance == twin.provenance == PROVED
        assert twin.histogram.counts == first.histogram.counts

    def test_summary_names_the_provenance(self):
        session = app_session(cache=False)
        proved, sampled = session.run_specs([
            ScenarioSpec.make("ticket+fenced", "Titan", runs=50),
            ScenarioSpec.make("ticket", "Titan", runs=50)])
        assert "via app (exhaustive)" in proved.summary()
        assert "via app (fast)" in sampled.summary()

    def test_stale_l1_chips_are_sampled(self):
        # The explorer cannot enumerate stale-L1 reads, so a chip with
        # the legacy staleness switched on is sampled, not refused.
        chip = dataclasses.replace(CHIPS["Titan"], p_stale=0.1)
        spec = ScenarioSpec.make("ticket+fenced", chip, runs=50)
        assert AppBackend().exact(spec) is None
        session = app_session(cache=False)
        result = session.run_specs([spec])[0]
        assert (session.stats.proved, result.provenance) == (0, "fast")

    def test_only_the_app_backend_answers_exactly(self):
        spec = ScenarioSpec.make("ticket+fenced", "Titan", runs=50)
        litmus = RunSpec.make(library.build("mp"), "Titan", iterations=50)
        assert AnalysisBackend().exact(spec) is None
        assert ExhaustiveBackend().exact(spec) is None
        assert SimBackend().exact(litmus) is None
        assert ModelBackend().exact(litmus) is None
        assert AppBackend().exact(spec) is not None


if __name__ == "__main__":
    with open(DATA, "w") as handle:
        json.dump(proved_record(), handle, indent=1)
        handle.write("\n")
