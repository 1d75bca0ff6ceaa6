"""Tests for the repro.api execution layer: specs, backends, sharding,
sessions, caching and campaign aggregation."""

import random

import pytest

from repro.api import (BEST, CampaignResult, ModelBackend, ResultCache,
                       RunSpec, Session, SimBackend, SpecResult, make_backend,
                       matrix, parse_incantations, plan_shards, shard_seed)
from repro.errors import ReproError
from repro.harness import Histogram, Incantations, efficacy
from repro.litmus import library
from repro.litmus.condition import FinalState
from repro.model.models import load_model
from repro.sim import CHIPS, compile_cell, run_batch
from repro.sim.chip import resolve_chips


def spec_for(name="mp", chip="Titan", iterations=300, seed=3,
             incantations=BEST):
    return RunSpec.make(library.build(name), chip, incantations=incantations,
                        iterations=iterations, seed=seed)


class TestRunSpec:
    def test_make_resolves_chip_and_incantations(self):
        spec = spec_for()
        assert spec.chip.short == "Titan"
        assert isinstance(spec.incantations, Incantations)
        # BEST resolves to the paper's reporting configuration.
        assert spec.incantations.column == 12

    def test_none_means_bare_setup(self):
        spec = spec_for(incantations=None)
        assert spec.incantations == Incantations.none()

    def test_unknown_chip_rejected(self):
        with pytest.raises(ReproError):
            spec_for(chip="GTX9999")

    def test_zero_iterations_rejected_not_defaulted(self):
        with pytest.raises(ReproError):
            spec_for(iterations=0)
        with pytest.raises(ReproError):
            spec_for(iterations=-10)

    def test_fingerprint_memoised(self):
        spec = spec_for()
        first = spec.fingerprint()
        assert spec.fingerprint() is first  # cached digest, same object

    def test_fingerprint_is_stable(self):
        assert spec_for().fingerprint() == spec_for().fingerprint()

    def test_fingerprint_depends_on_every_field(self):
        base = spec_for()
        variants = [
            spec_for(name="lb"),
            spec_for(chip="GTX6"),
            spec_for(iterations=301),
            spec_for(seed=4),
            spec_for(incantations="none"),
        ]
        fingerprints = {base.fingerprint()}
        for variant in variants:
            assert variant.fingerprint() not in fingerprints
            fingerprints.add(variant.fingerprint())

    def test_matrix_is_cartesian(self):
        tests = [library.build("mp"), library.build("lb")]
        specs = matrix(tests, ["Titan", "GTX6"], iterations=10)
        assert [spec.key for spec in specs] == [
            ("mp", "Titan"), ("mp", "GTX6"),
            ("lb", "Titan"), ("lb", "GTX6")]


class TestParseIncantations:
    def test_best_sentinel(self):
        assert parse_incantations("best") is BEST

    def test_none_and_all(self):
        assert parse_incantations("none") == Incantations.none()
        assert parse_incantations("all") == Incantations.all()

    def test_column(self):
        assert parse_incantations("12") == Incantations.from_column(12)

    def test_flags(self):
        assert parse_incantations("stress+sync+random") == Incantations(
            memory_stress=True, thread_sync=True, thread_rand=True)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ReproError):
            parse_incantations("stress+banana")

    def test_out_of_range_column_rejected_cleanly(self):
        with pytest.raises(ReproError):
            parse_incantations("17")


class TestShardPlanning:
    def test_single_shard_for_small_specs(self):
        shards = plan_shards(spec_for(iterations=300), shard_size=1000)
        assert len(shards) == 1
        assert shards[0].iterations == 300

    def test_shard_zero_uses_the_spec_seed(self):
        spec = spec_for(seed=17)
        assert plan_shards(spec, 100)[0].seed == 17

    def test_decomposition_covers_iterations_exactly(self):
        spec = spec_for(iterations=250)
        shards = plan_shards(spec, 100)
        assert [shard.iterations for shard in shards] == [100, 100, 50]
        assert [shard.index for shard in shards] == [0, 1, 2]

    def test_later_shards_have_distinct_deterministic_seeds(self):
        spec = spec_for(iterations=500)
        seeds = [shard.seed for shard in plan_shards(spec, 100)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [shard.seed for shard in plan_shards(spec, 100)]

    def test_shard_seeds_differ_between_specs(self):
        assert (shard_seed(spec_for(seed=1), 1)
                != shard_seed(spec_for(seed=2), 1))


class TestDeterministicParallelism:
    """Acceptance: jobs>1 merges bit-identically to the serial path."""

    def test_threaded_jobs_match_serial(self):
        spec = spec_for(iterations=450, seed=3)
        serial = Session(jobs=1, shard_size=100, cache=False).run(spec)
        parallel = Session(jobs=4, shard_size=100, cache=False).run(spec)
        assert serial.histogram.counts == parallel.histogram.counts
        assert serial.histogram.total == 450

    def test_process_jobs_match_serial(self):
        spec = spec_for(iterations=200, seed=9)
        serial = Session(jobs=1, shard_size=50, cache=False).run(spec)
        parallel = Session(jobs=2, shard_size=50, cache=False,
                           executor="process").run(spec)
        assert serial.histogram.counts == parallel.histogram.counts

    def test_worker_count_does_not_affect_results(self):
        spec = spec_for(name="lb", chip="HD7970", iterations=300, seed=5)
        histograms = [Session(jobs=jobs, shard_size=64, cache=False)
                      .run(spec).histogram.counts
                      for jobs in (1, 2, 7)]
        assert histograms[0] == histograms[1] == histograms[2]

    def test_single_shard_matches_legacy_runner_stream(self):
        """Shard 0 reuses the spec seed, so a one-shard session run is
        bit-identical to the pre-api serial loop."""
        test = library.build("mp")
        chip = CHIPS["Titan"]
        incantations = Incantations.all()
        cell = compile_cell(
            test, chip, intensity=efficacy(chip.vendor, test.idiom or "mp",
                                           incantations),
            shuffle_placement=incantations.thread_rand)
        serial = run_batch(cell, 400, random.Random(11))
        direct = Session(cache=False).run(
            RunSpec.make(test, "Titan", incantations=incantations,
                         iterations=400, seed=11))
        assert serial.counts == direct.histogram.counts


class _ShardFailure(ReproError):
    """What :class:`_FailingSim` raises."""


class _FailingSim(SimBackend):
    """The sim backend, except that every shard of test ``fail`` raises."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def run_shard(self, spec, shard):
        if spec.test.name == self.fail:
            raise _ShardFailure("shard of %s failed" % self.fail)
        return super().run_shard(spec, shard)


class _UnplannableSim(SimBackend):
    """The sim backend, except that planning test ``fail`` raises."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def shards(self, spec, shard_size):
        if spec.test.name == self.fail:
            raise _ShardFailure("planning %s failed" % self.fail)
        return super().shards(spec, shard_size)


class TestCrashSafePlans:
    """A failing spec loses only itself and the specs after it: the
    finished specs before it are already cached."""

    NAMES = ("mp", "sb", "lb", "coRR", "mp-L1")

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_rerun_executes_only_the_failed_spec_onwards(self, tmp_path,
                                                         executor):
        specs = [spec_for(name=name, iterations=60, seed=2)
                 for name in self.NAMES]
        failing = Session(backend=_FailingSim(fail="lb"), jobs=2,
                          executor=executor, shard_size=25,
                          cache_dir=str(tmp_path))
        with pytest.raises(_ShardFailure):
            failing.run_specs(specs)
        assert failing.stats.executed == 2
        rerun = Session(jobs=2, executor=executor, shard_size=25,
                        cache_dir=str(tmp_path))
        results = rerun.run_specs(specs)
        assert [result.cached for result in results] \
            == [True, True, False, False, False]
        assert (rerun.stats.cache_hits, rerun.stats.executed) == (2, 3)
        fresh = Session(shard_size=25, cache=False).run_specs(specs)
        assert [result.histogram.counts for result in results] \
            == [result.histogram.counts for result in fresh]

    def test_serial_plan_keeps_the_specs_before_one_that_fails_to_plan(
            self, tmp_path):
        # A serial session plans each spec just before running it.
        specs = [spec_for(name=name, iterations=60, seed=2)
                 for name in self.NAMES]
        failing = Session(backend=_UnplannableSim(fail="lb"), shard_size=25,
                          cache_dir=str(tmp_path))
        with pytest.raises(_ShardFailure):
            failing.run_specs(specs)
        assert failing.stats.executed == 2
        rerun = Session(shard_size=25, cache_dir=str(tmp_path))
        results = rerun.run_specs(specs)
        assert [result.cached for result in results] \
            == [True, True, False, False, False]
        assert (rerun.stats.cache_hits, rerun.stats.executed) == (2, 3)


class TestCaching:
    """Acceptance: a warm cache performs zero new simulations."""

    def test_repeated_campaign_hits_memory_cache(self):
        session = Session(jobs=2, shard_size=100)
        tests = [library.build("mp"), library.build("lb")]
        first = session.campaign(tests, ["Titan", "GTX6"], iterations=250)
        executed_after_first = session.stats.executed
        simulated_after_first = session.stats.simulated_iterations
        second = session.campaign(tests, ["Titan", "GTX6"], iterations=250)
        assert session.stats.executed == executed_after_first
        assert session.stats.simulated_iterations == simulated_after_first
        assert session.stats.cache_hits == len(second)
        assert second.cached_cells == len(second)
        for key, result in second.results.items():
            assert result.histogram.counts == first.get(*key).histogram.counts

    def test_disk_cache_survives_sessions(self, tmp_path):
        spec = spec_for(iterations=200, seed=2)
        warm = Session(cache_dir=str(tmp_path))
        original = warm.run(spec)
        assert warm.stats.executed == 1

        cold = Session(cache_dir=str(tmp_path))
        replayed = cold.run(spec)
        assert cold.stats.executed == 0
        assert cold.stats.simulated_iterations == 0
        assert replayed.cached
        assert replayed.histogram.counts == original.histogram.counts

    def test_different_seeds_do_not_collide(self):
        session = Session()
        a = session.run(spec_for(seed=1))
        b = session.run(spec_for(seed=2))
        assert session.stats.executed == 2
        assert a.spec.fingerprint() != b.spec.fingerprint()

    def test_cache_disabled(self):
        session = Session(cache=False)
        session.run(spec_for())
        session.run(spec_for())
        assert session.stats.executed == 2

    def test_different_shard_decompositions_cached_separately(self, tmp_path):
        """The histogram is a function of the shard decomposition (seeds
        derive per shard), so sessions with different effective
        decompositions must not share cache entries."""
        spec = spec_for(iterations=400, seed=3)
        fine = Session(shard_size=100, cache_dir=str(tmp_path))
        coarse = Session(shard_size=25000, cache_dir=str(tmp_path))
        fine_result = fine.run(spec)
        coarse_result = coarse.run(spec)
        assert coarse.stats.executed == 1  # not served from fine's entry
        assert not coarse_result.cached
        fresh = Session(shard_size=25000, cache=False).run(spec)
        assert coarse_result.histogram.counts == fresh.histogram.counts
        assert fine_result.histogram.counts != coarse_result.histogram.counts

    def test_covering_shard_sizes_share_cache_entries(self):
        """Any two shard sizes >= iterations produce the identical single
        shard, so their results are interchangeable cache entries."""
        cache = ResultCache()
        Session(shard_size=1000, cache=cache).run(spec_for(iterations=400))
        session = Session(shard_size=9999, cache=cache)
        session.run(spec_for(iterations=400))
        assert session.stats.executed == 0

    def test_duplicate_specs_in_one_plan_execute_once(self):
        session = Session(cache=False)
        spec = spec_for(iterations=200)
        results = session.run_specs([spec, spec, spec_for(name="lb"), spec])
        assert session.stats.executed == 2
        assert session.stats.deduplicated == 2
        assert results[0].histogram.counts == results[3].histogram.counts
        assert results[2].spec.key[0] == "lb"

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        session.run(spec_for())
        for path in tmp_path.iterdir():
            path.write_text("{ not json")
        cold = Session(cache_dir=str(tmp_path))
        result = cold.run(spec_for())
        assert cold.stats.executed == 1
        assert not result.cached

    def test_shared_cache_instance_across_sessions(self):
        cache = ResultCache()
        Session(cache=cache).run(spec_for())
        session = Session(cache=cache)
        session.run(spec_for())
        assert session.stats.executed == 0


class TestBackends:
    def test_make_backend_resolves_names(self):
        assert make_backend("sim").name == "sim"
        assert make_backend("model").name == "model:ptx"
        assert make_backend("model:sc").name == "model:sc"
        backend = SimBackend()
        assert make_backend(backend) is backend

    def test_make_backend_rejects_unknown_model(self):
        with pytest.raises(ReproError, match="unknown backend 'model:nope'"):
            make_backend("model:nope")

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ReproError):
            make_backend("quantum")

    def test_model_backend_matches_axiomatic_verdicts(self):
        session = Session(backend="model")
        model = load_model("ptx")
        for name in ("mp", "mp+membar.gls", "coRR"):
            test = library.build(name)
            result = session.run(test, "Titan", iterations=1)
            assert result.allowed == model.allows_condition(test)

    def test_sim_and_model_share_result_shape(self):
        test = library.build("mp")
        sim = Session(backend="sim").run(test, "Titan", iterations=200)
        model = Session(backend="model").run(test, "Titan", iterations=1)
        for result in (sim, model):
            assert result.test.name == "mp"
            assert result.chip.short == "Titan"
            assert isinstance(result.observations, int)
            assert "mp on Titan" in result.summary()

    def test_model_campaign_enumerates_each_test_once_across_chips(self):
        """A verdict depends only on the test, so sweeping chips must
        not repeat the exhaustive enumeration per chip."""
        session = Session(backend="model")
        campaign = session.campaign([library.build("mp")],
                                    ["Titan", "GTX6", "HD7970"],
                                    iterations=1)
        assert len(campaign) == 3
        assert session.stats.executed == 1
        answers = [result.answer for result in campaign]
        assert answers[0] == answers[1] == answers[2]

    def test_model_cache_signature_still_tracks_test_content(self):
        session = Session(backend="model")
        session.run(library.build("mp"), "Titan", iterations=1)
        session.run(library.build("lb"), "Titan", iterations=1)
        assert session.stats.executed == 2

    def test_cached_histograms_are_mutation_safe(self):
        session = Session()
        spec = spec_for(iterations=100)
        first = session.run(spec)
        pristine = dict(first.histogram.counts)
        first.histogram.add(next(iter(first.histogram.counts)), 999)
        second = session.run(spec)
        assert second.cached
        assert second.histogram.counts == pristine

    def test_model_results_cache_separately_from_sim(self):
        cache = ResultCache()
        Session(backend="sim", cache=cache).run(spec_for())
        session = Session(backend="model", cache=cache)
        session.run(spec_for())
        assert session.stats.executed == 1  # not satisfied by the sim entry


class TestSessionApi:
    def test_run_requires_chip_without_spec(self):
        with pytest.raises(ReproError):
            Session().run(library.build("mp"))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ReproError):
            Session(jobs=0)
        with pytest.raises(ReproError):
            Session(executor="fiber")
        with pytest.raises(ReproError):
            Session(shard_size=0)

    def test_run_specs_preserves_plan_order(self):
        session = Session()
        specs = [spec_for(name="lb"), spec_for(name="mp"),
                 spec_for(name="sb")]
        results = session.run_specs(specs)
        assert [result.spec.key[0] for result in results] == ["lb", "mp", "sb"]

    def test_pooled_campaign_executes_each_cell_once(self):
        session = Session(jobs=2, shard_size=100)
        campaign = session.campaign([library.build("mp")], ["Titan", "GTX6"],
                                    iterations=150, seed=1)
        assert set(campaign.results) == {("mp", "Titan"), ("mp", "GTX6")}
        assert session.stats.executed == 2


class TestCampaignResult:
    def _campaign(self):
        session = Session()
        tests = [library.build("mp"), library.build("lb")]
        return session.campaign(tests, ["Titan", "HD7970"], iterations=250,
                                seed=1)

    def test_views(self):
        campaign = self._campaign()
        assert campaign.tests == ["mp", "lb"]
        assert campaign.chips == ["Titan", "HD7970"]
        assert set(campaign.by_test("mp")) == {"Titan", "HD7970"}
        assert set(campaign.by_chip("Titan")) == {"mp", "lb"}
        assert len(campaign) == 4
        assert ("mp", "Titan") in campaign

    def test_summary_table_shape(self):
        table = self._campaign().summary_table()
        lines = table.splitlines()
        assert lines[0].split() == ["obs/100k", "Titan", "HD7970"]
        assert len(lines) == 4  # header, rule, two test rows

    def test_summary_table_with_paper_counts(self):
        table = self._campaign().summary_table(
            paper={("mp", "Titan"): 2921})
        assert "paper" in table

    def test_summary_table_grid_with_gaps(self):
        """Rows and columns in first-seen order, a missing cell reads
        n/a even where a paper count exists, and a paper count of 0
        still shows."""
        weak_states = {"mp": {(1, "r1"): 1, (1, "r2"): 0},
                       "lb": {(0, "r1"): 1, (1, "r2"): 1},
                       "sb": {(0, "r2"): 0, (1, "r2"): 0}}
        campaign = CampaignResult()
        for name, chip, weak in (("mp", "Titan", 3), ("lb", "HD7970", 0),
                                 ("mp", "HD7970", 40), ("sb", "GTX280", 1),
                                 ("lb", "Titan", 7)):
            histogram = Histogram()
            histogram.add(FinalState.make({}, {}), 1000 - weak)
            if weak:
                histogram.add(FinalState.make(weak_states[name], {}), weak)
            campaign.add(SpecResult(
                spec=RunSpec.make(library.build(name), chip,
                                  iterations=1000),
                backend="sim", answer=histogram))
        table = campaign.summary_table(paper={
            ("mp", "Titan"): 2921, ("sb", "Titan"): 5, ("lb", "HD7970"): 0})
        assert table.splitlines() == [
            "obs/100k  Titan             HD7970       GTX280",
            "--------  ----------------  -----------  ------",
            "mp        300 (paper 2921)  4000         n/a",
            "lb        700               0 (paper 0)  n/a",
            "sb        n/a               n/a          100"]

    def test_weak_cells_and_totals(self):
        campaign = self._campaign()
        assert set(campaign.weak_cells()) <= set(campaign.results)
        assert campaign.total_iterations == 4 * 250
        assert "4 cells" in campaign.summary()


class TestRepeatedChips:
    """A chip named twice is swept once: each planner gives the same
    report for ``[Titan, Titan]`` as for ``[Titan]``, with no in-plan
    twin reported as cached."""

    TWICE = ["Titan", CHIPS["Titan"]]

    def test_first_occurrence_wins(self):
        chips = resolve_chips(["GTX6", "Titan", "GTX6", CHIPS["Titan"]])
        assert [chip.short for chip in chips] == ["GTX6", "Titan"]
        with pytest.raises(ReproError):
            resolve_chips(["Titan", "bogus"])

    def test_matrix_and_campaign(self):
        tests = [library.build("mp"), library.build("sb")]
        assert matrix(tests, self.TWICE, iterations=100) \
            == matrix(tests, ["Titan"], iterations=100)
        session = Session(cache=False)
        twice = session.campaign(tests, self.TWICE, iterations=100)
        once = Session(cache=False).campaign(tests, ["Titan"],
                                             iterations=100)
        assert twice.summary() == once.summary()
        assert twice.summary_table() == once.summary_table()
        assert session.stats.deduplicated == 0

    def test_app_matrix_and_campaign(self):
        from repro.apps import app_matrix, app_session, run_app_campaign
        assert app_matrix(["deque-mp"], self.TWICE, runs=30) \
            == app_matrix(["deque-mp"], ["Titan"], runs=30)
        session = app_session(cache=False)
        twice = run_app_campaign(["deque-mp"], self.TWICE, runs=30,
                                 session=session)
        once = run_app_campaign(["deque-mp"], ["Titan"], runs=30)
        assert twice.summary() == once.summary()
        assert twice.summary_table() == once.summary_table()
        assert session.stats.deduplicated == 0

    def test_run_soundness(self):
        from repro.api import run_soundness
        tests = [library.build("mp"), library.build("lb")]
        twice = run_soundness(tests, self.TWICE, iterations=100)
        once = run_soundness(tests, ["Titan"], iterations=100)
        assert twice.summary() == once.summary()
        assert twice.summary_table() == once.summary_table()
        assert twice.cells == once.cells
        assert twice.sim_stats["deduplicated"] == 0

    def test_verify_scenarios(self):
        from repro.exhaustive import verify_scenarios
        twice = verify_scenarios(["deque-mp+fenced", "deque-mp"],
                                 self.TWICE)
        once = verify_scenarios(["deque-mp+fenced", "deque-mp"], ["Titan"])
        assert twice.lines() == once.lines()
        assert len(twice.rows) == 2
