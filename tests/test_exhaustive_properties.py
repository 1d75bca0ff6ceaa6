"""Property tests for the exhaustive explorer and its backend.

The contracts the tentpole stands on:

* **Pruning soundness** — DPOR explores a subset of the naive
  interleaving tree (never more transitions) with the *identical*
  reachable-state set, across a randomized diy corpus and both a weak
  and an in-order chip;
* **Determinism** — verdicts are a pure function of the spec:
  identical across ``--jobs``, executor kinds and repeat runs, and
  cache round-trips reproduce them bit for bit;
* the typed result codec round-trips, cache signatures separate
  exactly what exploration depends on (structural intent, loop bound,
  strategy — not the numeric intensity), the loop bound flags bounded
  verdicts, the transition budget fails loudly, and witnesses index
  into PR 4's relation machinery.
"""

import pytest

from repro.apps.scenario import ScenarioSpec, get_scenario
from repro.diy import (default_pool, fences_from_names, generate_tests,
                       scopes_from_names)
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.exhaustive import (DEFAULT_LOOP_BOUND, ExhaustiveBackend,
                              ExhaustiveMeta, VERIFIED_TEXT,
                              encode_exhaustive_histogram, execution_graph,
                              exhaustive_session, exhaustive_verdict,
                              explore_test, verify_scenarios)
from repro.errors import ExplorationLimit
from repro.harness.histogram import Histogram
from repro.litmus import library
from repro.sim import CHIPS


def diy_corpus(max_tests=14):
    """A small deterministic diy corpus (seeded pool, fixed order)."""
    pool = default_pool(scopes=scopes_from_names(["dev", "cta"]),
                        fences=fences_from_names(["cta", "gl"]))
    return generate_tests(pool, max_length=4, max_tests=max_tests)


class TestPruningSoundness:
    @pytest.mark.parametrize("chip_short", ("Titan", "GTX280"))
    def test_dpor_subset_of_naive_with_identical_states(self, chip_short):
        chip = CHIPS[chip_short]
        for test in diy_corpus():
            dpor = explore_test(test, chip, strategy="dpor")
            naive = explore_test(test, chip, strategy="naive")
            assert dpor.transitions <= naive.transitions, test.name
            assert dpor.reachable == naive.reachable, test.name
            assert dpor.losses == 0 or naive.losses > 0, test.name

    @pytest.mark.parametrize("scenario_name",
                             ("deque-mp", "deque-mp+fenced", "isolation",
                              "ticket+fenced"))
    def test_scenario_strategies_agree(self, scenario_name):
        test = get_scenario(scenario_name).test()
        chip = CHIPS["Titan"]
        dpor = explore_test(test, chip, strategy="dpor")
        naive = explore_test(test, chip, strategy="naive")
        assert dpor.reachable == naive.reachable
        assert dpor.transitions <= naive.transitions
        assert (dpor.losses == 0) == (naive.losses == 0)
        # DPOR's state cache can complete a spin loop that stateless
        # naive enumeration still truncates at the bound — but never
        # the other way around: naive replays every path DPOR explores,
        # so a bounded DPOR run implies a bounded naive run.
        assert naive.bounded or not dpor.bounded

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            explore_test(library.build("mp"), CHIPS["Titan"],
                         strategy="bogus")


class TestDeterminism:
    def _specs(self):
        return [ScenarioSpec(scenario=get_scenario(name),
                             chip=CHIPS["Titan"], iterations=1, seed=seed,
                             intensity=intensity)
                for name, seed, intensity in (("deque-mp", 0, 1.0),
                                              ("isolation+fenced", 5, 100.0))]

    def test_identical_across_jobs_and_executors(self):
        baseline = [result.histogram.counts
                    for result in exhaustive_session(cache=False)
                    .run_specs(self._specs())]
        for jobs, executor in ((2, "thread"), (2, "process")):
            session = exhaustive_session(jobs=jobs, executor=executor,
                                         cache=False)
            got = [result.histogram.counts
                   for result in session.run_specs(self._specs())]
            assert got == baseline, (jobs, executor)

    def test_cache_round_trip(self, tmp_path):
        specs = self._specs()
        first = exhaustive_session(cache_dir=str(tmp_path))
        cold = [r.histogram.counts for r in first.run_specs(specs)]
        second = exhaustive_session(cache_dir=str(tmp_path))
        warm = [r.histogram.counts for r in second.run_specs(specs)]
        assert warm == cold
        assert second.stats.cache_hits == len(specs)

    def test_repeat_exploration_is_bit_identical(self):
        test = get_scenario("deque-mp").test()
        first = explore_test(test, CHIPS["Titan"])
        second = explore_test(test, CHIPS["Titan"])
        assert first.reachable == second.reachable
        assert first.transitions == second.transitions
        assert first.witness == second.witness


class TestBackendEncoding:
    def test_histogram_round_trip(self):
        result = explore_test(library.build("mp"), CHIPS["Titan"])
        encoded = encode_exhaustive_histogram(result)
        assert set(encoded.histogram.counts) == set(result.reachable)
        assert ExhaustiveMeta.from_json(encoded.meta.to_json()) \
            == encoded.meta
        verdict = exhaustive_verdict(encoded,
                                     library.build("mp").condition)
        assert verdict["executions"] == result.executions
        assert verdict["transitions"] == result.transitions
        assert verdict["losses"] == result.losses
        assert verdict["bounded"] == result.bounded
        assert verdict["verified"] == result.verified
        assert verdict["witness"] == result.witness
        assert len(verdict["losing_states"]) > 0

    def test_verdict_rejects_results_without_exhaustive_meta(self):
        from repro.api.result import ShardResult
        with pytest.raises(ReproError):
            exhaustive_verdict(ShardResult(Histogram()),
                               library.build("mp").condition)

    def test_cache_signature_is_intensity_structural(self):
        backend = ExhaustiveBackend()
        spec = ScenarioSpec(scenario=get_scenario("deque-mp"),
                            chip=CHIPS["Titan"], iterations=1, seed=0,
                            intensity=1.0)
        stress = ScenarioSpec(scenario=get_scenario("deque-mp"),
                              chip=CHIPS["Titan"], iterations=500, seed=9,
                              intensity=100.0)
        zero = ScenarioSpec(scenario=get_scenario("deque-mp"),
                            chip=CHIPS["Titan"], iterations=1, seed=0,
                            intensity=0.0)
        assert backend.cache_signature(spec) == backend.cache_signature(
            stress)
        assert backend.cache_signature(spec) != backend.cache_signature(zero)
        assert backend.cache_signature(spec) != ExhaustiveBackend(
            loop_bound=DEFAULT_LOOP_BOUND + 1).cache_signature(spec)
        assert backend.cache_signature(spec) != ExhaustiveBackend(
            strategy="naive").cache_signature(spec)

    def test_make_backend_resolves_exhaustive(self):
        from repro.api import make_backend
        assert make_backend("exhaustive").name == "exhaustive"
        with pytest.raises(ReproError, match="exhaustive"):
            make_backend("bogus")


class TestBoundsAndWitnesses:
    def test_state_cache_completes_spin_loops(self):
        # Unrolled, the fenced ticket lock's spin always hits the retry
        # bound ("bounded" verdict); a spin back into a state the cache
        # holds ends the branch before the bound is checked, so the DPOR
        # exploration is complete — and stays complete at deeper bounds.
        test = get_scenario("ticket+fenced").test()
        result = explore_test(test, CHIPS["Titan"])
        assert result.complete and not result.bounded
        assert result.verified
        deeper = explore_test(test, CHIPS["Titan"], loop_bound=5)
        assert deeper.complete and deeper.verified
        assert deeper.reachable == result.reachable

    def test_loop_bound_flags_bounded_verdicts(self):
        # Naive enumeration keeps no state cache, so the spin unrolls
        # to the bound — and its truncations flag the verdict.
        test = get_scenario("ticket+fenced").test()
        result = explore_test(test, CHIPS["Titan"], strategy="naive")
        assert result.bounded and not result.complete
        assert result.verified

    def test_invalid_loop_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            explore_test(library.build("mp"), CHIPS["Titan"], loop_bound=0)

    def test_transition_budget_fails_loudly(self):
        with pytest.raises(ExplorationLimit) as excinfo:
            explore_test(library.build("mp"), CHIPS["Titan"],
                         max_transitions=5)
        message = str(excinfo.value)
        # The abort names the cell and chip, reports how far it got and
        # points at both remedies.
        assert "mp" in message and "Titan" in message
        assert "--max-transitions" in message
        assert "--loop-bound" in message
        assert issubclass(ExplorationLimit, SimulationError)

    def test_witness_reaches_a_losing_state(self):
        scenario = get_scenario("deque-mp")
        result = explore_test(scenario.test(), CHIPS["Titan"])
        assert result.losses > 0
        witness = result.witness
        assert witness is not None and len(witness.events) > 0
        assert scenario.test().condition.holds(witness.state)
        assert any("store" in line or "load" in line
                   for line in witness.lines())

    def test_execution_graph_builds_relation_rows(self):
        result = explore_test(get_scenario("deque-mp").test(),
                              CHIPS["Titan"])
        index, relations = execution_graph(result.witness)
        po, com, hb = relations["po"], relations["com"], relations["hb"]
        assert set(po.pairs()) <= set(hb.pairs())
        assert set(com.pairs()) <= set(hb.pairs())
        # po is same-thread order along the trace, so it is transitive
        # already; hb adds the communication edges.
        assert len(set(hb.pairs())) >= len(set(po.pairs()))


class TestVerifyReport:
    def test_fenced_rows_use_the_verbatim_sentence(self):
        report = verify_scenarios(["deque-mp+fenced"], ["Titan"])
        (row,) = report.rows
        assert row.verified and row.fenced
        assert VERIFIED_TEXT == "verified: 0 losses over all executions"
        assert VERIFIED_TEXT in row.verdict()
        assert report.ok

    def test_unfenced_rows_carry_a_witness(self):
        report = verify_scenarios(["deque-mp"], ["Titan"])
        (row,) = report.rows
        assert not row.verified and not row.fenced
        assert row.witness is not None
        assert report.ok, "unfenced losses are expected, not failures"
        assert any("losing execution" in line for line in report.lines())

    def test_fenced_loss_would_fail_the_report(self):
        from repro.exhaustive.verify import VerifyReport, VerifyRow
        row = VerifyRow(scenario="x+fenced", chip="Titan", fenced=True,
                        states=1, executions=2, transitions=3, losses=1,
                        bounded=False, witness=None)
        report = VerifyReport(rows=(row,), loop_bound=3)
        assert not report.ok
        assert any("UNEXPECTED" in line for line in report.lines())
