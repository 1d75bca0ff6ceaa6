"""Tests for the scenario campaign subsystem (apps on the Session stack).

Covers the PR's contracts:

* fast/reference engine parity for every registered scenario across the
  chip table (bit-identical projected histograms), checked on the
  backend itself, below the session's exact tier, so every cell samples;
* sharded/serial and thread/process RNG-stream parity, with the cells a
  DPOR proof fixes answered exactly (no shard executed);
* single-shard backend runs reproduce the ``run_batch`` stream of the
  scenario's launch test (serial driver parity);
* two-tier cache-hit correctness for the app backend, including engine
  separation;
* the paper's behaviours: every published (unfenced) scenario loses on
  the weak chips under stress, every fenced variant stays clean on the
  whole table;
* the satellite fixes: ``_as_chip`` raises ``ConfigurationError``, the
  trivial condition replaces the placeholder hack, ``repro-litmus app``
  and the scenario listing work.
"""

import hashlib
import json
import os
import random
from dataclasses import replace

import pytest

from repro import cli
from repro.api import CampaignResult, Session, make_backend
from repro.api.cache import ResultCache
from repro.api.result import PROVED
from repro.apps import (AppBackend, SCENARIOS, ScenarioSpec, app_session,
                        build_launch_test, dot_product_scenario,
                        get_scenario, run_app_campaign, select_scenarios)
from repro.apps.scenario import ticket_counter_scenario
from repro.compiler.cuda import Kernel, Load, Store
from repro.errors import ConfigurationError, ReproError
from repro.litmus.condition import Always, trivial_condition
from repro.sim.chip import CHIPS, RESULT_CHIPS
from repro.sim.engine import run_batch
from repro.sim.machine import build_machine

STRESS = 100.0

#: The chip table the parity tests sweep: every result chip plus the
#: strong GTX 280.
CHIP_TABLE = list(RESULT_CHIPS) + ["GTX280"]

UNFENCED = sorted(name for name, s in SCENARIOS.items() if not s.fenced)
FENCED = sorted(name for name, s in SCENARIOS.items() if s.fenced)

#: The scenarios a DPOR proof fixes on the Titan (see
#: ``tests/test_exact_tier.py``): the session answers them exactly.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "proved_cells.json")) as _handle:
    PROVED_ON_TITAN = {cell.split("@")[0] for cell in json.load(_handle)
                       if cell.endswith("@Titan")}


@pytest.fixture(scope="module")
def session():
    """One shared session: the compiled-cell memo and the result cache
    persist across tests, which is exactly the production shape."""
    return app_session()


class TestRegistry:
    def test_every_scenario_has_a_fenced_twin(self):
        for name in UNFENCED:
            assert name + "+fenced" in SCENARIOS
        assert len(UNFENCED) == len(FENCED)

    def test_registry_is_validated(self):
        for scenario in SCENARIOS.values():
            scenario.validate()
            # Loss predicates read only projected locations.
            projection = set(scenario.projection) or {
                location for location, _ in scenario.init_mem}
            assert scenario.loss.locations() <= projection

    def test_expected_families_present(self):
        names = set(SCENARIOS)
        for family in ("deque-mp", "deque-lb", "deque-rt", "isolation",
                       "ticket", "dot-cbe", "dot-cbe-cta", "dot-so",
                       "dot-so-cta", "dot-heyu", "dot-heyu-cta"):
            assert family in names and family + "+fenced" in names

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_scenario("nope")
        assert "deque-mp" in str(excinfo.value)

    def test_select_scenarios(self):
        both = select_scenarios(["deque-mp"])
        assert [s.name for s in both] == ["deque-mp", "deque-mp+fenced"]
        off = select_scenarios(["deque-mp"], fenced="off")
        assert [s.name for s in off] == ["deque-mp"]
        assert len(select_scenarios(["all"])) == len(SCENARIOS)
        with pytest.raises(ConfigurationError):
            select_scenarios(["bogus"])
        with pytest.raises(ConfigurationError):
            select_scenarios(["all"], fenced="sometimes")

    def test_scenario_test_condition_is_loss_predicate(self):
        scenario = get_scenario("dot-cbe")
        assert scenario.test().condition is scenario.loss


class TestSpec:
    def test_fingerprint_excludes_engine(self):
        fast = ScenarioSpec.make("deque-mp", "Titan", runs=100, seed=1)
        ref = replace(fast, engine="reference")
        assert fast.fingerprint() == ref.fingerprint()

    def test_fingerprint_covers_content(self):
        base = ScenarioSpec.make("deque-mp", "Titan", runs=100, seed=1)
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=100, seed=2).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=101, seed=1).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=100, seed=1,
            intensity=50.0).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "GTX6", runs=100, seed=1).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp+fenced", "Titan", runs=100, seed=1).fingerprint()

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            ScenarioSpec.make("deque-mp", "Titan", runs=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.make("deque-mp", "NoSuchChip")

    @pytest.mark.parametrize("intensity", (-1, -0.5, float("nan"),
                                           float("inf"), float("-inf")))
    def test_intensity_must_be_finite_and_non_negative(self, intensity):
        with pytest.raises(ReproError) as excinfo:
            ScenarioSpec.make("deque-mp", "Titan", intensity=intensity)
        assert repr(float(intensity)) in str(excinfo.value)
        # Direct construction (as verify does) is checked too.
        with pytest.raises(ReproError):
            ScenarioSpec(scenario=get_scenario("deque-mp"),
                         chip=ScenarioSpec.make("deque-mp", "Titan").chip,
                         iterations=1, intensity=float(intensity))

    def test_zero_intensity_stays_legal(self):
        assert ScenarioSpec.make("deque-mp", "Titan",
                                 intensity=0).intensity == 0.0

    def test_key_and_runs(self):
        spec = ScenarioSpec.make("ticket", "GTX6", runs=42)
        assert spec.key == ("ticket", "GTX6")
        assert spec.runs == spec.iterations == 42


class TestHistogramDigests:
    """The registry's sampled histograms, pinned: ``AppBackend().run``
    (below the session, so the exact tier answers nothing) on the 22 x 7
    registry cells at stress intensity and seed 17, one line per cell,
    ``name@chip sorted(counts.items(), key=str)``, then the first 16 hex
    digits of the sha256 of the lines joined by newlines."""

    @pytest.mark.parametrize("engine,runs,digest", (
        ("fast", 300, "3d5199736ec5bc62"),
        ("reference", 100, "bb9373211720136a"),
    ))
    def test_registry_digest(self, engine, runs, digest):
        backend = AppBackend()
        lines = []
        for scenario in select_scenarios(["all"]):
            for chip in RESULT_CHIPS:
                spec = ScenarioSpec.make(scenario, chip, runs=runs, seed=17,
                                         intensity=STRESS, engine=engine)
                counts = backend.run(spec).answer.counts
                lines.append("%s@%s %s" % (scenario.name, chip,
                                           sorted(counts.items(), key=str)))
        assert len(lines) == 22 * 7
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] \
            == digest


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fast_matches_reference_across_chip_table(self, name):
        scenario = SCENARIOS[name]
        backend = AppBackend()
        for chip in CHIP_TABLE:
            spec = ScenarioSpec.make(scenario, chip, runs=20, seed=3,
                                     intensity=STRESS, engine="fast")
            fast = backend.run(spec).answer
            ref = backend.run(replace(spec, engine="reference")).answer
            assert fast.counts == ref.counts, \
                "engine divergence: %s on %s" % (name, chip)
            assert (fast.observations(scenario.loss)
                    == ref.observations(scenario.loss))


class TestShardingParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sharded_equals_serial(self, name):
        serial = app_session(cache=False, shard_size=13)
        threaded = app_session(cache=False, shard_size=13, jobs=3)
        spec = ScenarioSpec.make(name, "Titan", runs=40, seed=5,
                                 intensity=STRESS)
        a = serial.run_specs([spec])[0]
        b = threaded.run_specs([spec])[0]
        assert a.histogram.counts == b.histogram.counts
        if name in PROVED_ON_TITAN:
            assert serial.stats.shards_executed == 0
            assert a.provenance == b.provenance == PROVED
        else:
            assert serial.stats.shards_executed == 4  # ceil(40 / 13)

    def test_process_pool_parity(self):
        spec = ScenarioSpec.make("deque-mp", "Titan", runs=60, seed=5,
                                 intensity=STRESS)
        serial = app_session(cache=False, shard_size=17)
        process = app_session(cache=False, shard_size=17, jobs=2,
                              executor="process")
        a = serial.run_specs([spec])[0]
        b = process.run_specs([spec])[0]
        assert a.histogram.counts == b.histogram.counts

    def test_session_shards_at_the_backend_size(self):
        """A session given no shard size takes the app backend's 10,000
        launches, so it reproduces the serial ``AppBackend.run``."""
        spec = ScenarioSpec.make("deque-mp", "Titan", runs=12000, seed=3,
                                 intensity=STRESS)
        session = Session(backend="app", cache=False)
        result = session.run_specs([spec])[0]
        serial = AppBackend().run(spec)
        assert result.histogram.counts == serial.answer.counts
        assert session.stats.shards_executed == 2
        assert session._cache_key(spec).startswith("app-shard10000-")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_single_shard_reproduces_the_serial_stream(self, name):
        """One campaign shard consumes the ``Random`` stream of a plain
        ``run_batch`` of the scenario's launch test."""
        scenario = SCENARIOS[name]
        spec = ScenarioSpec.make(scenario, "HD7970", runs=30, seed=7,
                                 intensity=STRESS, engine="reference")
        result = AppBackend().run(spec)
        machine = build_machine("reference", scenario.test(),
                                CHIPS["HD7970"], intensity=STRESS)
        expected = scenario.project_histogram(
            run_batch(machine, 30, random.Random(7)))
        assert result.answer.counts == expected.counts


class TestAppBackendCache:
    def test_memory_tier_hit(self):
        session = app_session()
        spec = ScenarioSpec.make("isolation", "Titan", runs=30, seed=1)
        first = session.run_specs([spec])[0]
        assert not first.cached
        second = session.run_specs([spec])[0]
        assert second.cached
        assert second.histogram.counts == first.histogram.counts
        assert session.stats.executed == 1
        assert session.stats.cache_hits == 1

    def test_disk_tier_survives_sessions(self, tmp_path):
        spec = ScenarioSpec.make("ticket", "GTX6", runs=25, seed=4)
        first = app_session(cache_dir=str(tmp_path)).run_specs([spec])[0]
        fresh = app_session(cache_dir=str(tmp_path))
        second = fresh.run_specs([spec])[0]
        assert second.cached
        assert second.histogram.counts == first.histogram.counts
        assert fresh.stats.executed == 0

    def test_engines_never_share_cache_entries(self):
        cache = ResultCache()
        fast_session = app_session(cache=cache)
        ref_session = app_session(cache=cache)
        spec = ScenarioSpec.make("deque-lb", "Titan", runs=20, seed=2)
        fast_session.run_specs([spec])
        ref_session.run_specs([replace(spec, engine="reference")])
        # Same fingerprint, different engines: both executed, no cross-hit.
        assert ref_session.stats.cache_hits == 0
        assert ref_session.stats.executed == 1

    def test_campaign_runs_on_the_sessions_engine(self):
        """``engine=None`` means the engine of the session given."""
        session = Session(backend="app", engine="reference", cache=False)
        (result,) = run_app_campaign(["dot-cbe"], ["Titan"], runs=20,
                                     seed=1, session=session)
        assert result.spec.engine == "reference"
        assert result.provenance == "reference"

    def test_in_plan_deduplication(self):
        session = app_session()
        spec = ScenarioSpec.make("deque-rt", "TesC", runs=20, seed=9)
        results = session.run_specs([spec, spec])
        assert session.stats.deduplicated == 1
        assert results[0].histogram.counts == results[1].histogram.counts

    def test_make_backend_resolves_app(self):
        assert isinstance(make_backend("app"), AppBackend)
        with pytest.raises(ReproError) as excinfo:
            make_backend("appp")
        assert "'app'" in str(excinfo.value)


class TestPaperBehaviours:
    @pytest.mark.parametrize("name", UNFENCED)
    def test_published_code_loses_on_weak_chips(self, name, session):
        campaign = run_app_campaign([name], ["Titan"], runs=150, seed=1,
                                    intensity=STRESS, session=session)
        assert campaign.get(name, "Titan").observations > 0, \
            "%s showed no losses on the Titan under stress" % name

    @pytest.mark.parametrize("name", FENCED)
    def test_fenced_variants_stay_clean_on_the_whole_table(self, name,
                                                           session):
        campaign = run_app_campaign([SCENARIOS[name]], CHIP_TABLE, runs=80,
                                    seed=2, intensity=STRESS,
                                    session=session)
        assert campaign.weak_cells() == []

    def test_strong_chip_shows_nothing(self, session):
        campaign = run_app_campaign(select_scenarios(["all"], fenced="off"),
                                    ["GTX280"], runs=60, seed=3,
                                    intensity=STRESS, session=session)
        assert campaign.weak_cells() == []

    def test_campaign_grid_shape(self, session):
        campaign = run_app_campaign(select_scenarios(["deque-mp"]),
                                    ["Titan", "GTX7"], runs=40, seed=1,
                                    session=session)
        assert isinstance(campaign, CampaignResult)
        assert len(campaign) == 4
        assert campaign.get("deque-mp", "Titan").observations >= 0
        table = campaign.summary_table()
        assert "deque-mp+fenced" in table and "Titan" in table


class TestRuntimeSatellites:
    def test_unknown_chip_is_a_configuration_error(self):
        test = build_launch_test([Kernel([Store("x", 1)])], {"x": 0})
        with pytest.raises(ConfigurationError) as excinfo:
            Session(cache=False).run(test, "GTX999", incantations="none",
                                     iterations=1)
        message = str(excinfo.value)
        assert "GTX999" in message and "Titan" in message

    def test_trivial_condition(self):
        condition = trivial_condition()
        assert isinstance(condition.expr, Always)
        assert condition.registers() == set()
        assert condition.locations() == set()
        test = build_launch_test([Kernel([Store("x", 1)])], {"x": 0})
        assert isinstance(test.condition.expr, Always)
        result = Session(cache=False).run(test, "GTX280",
                                          incantations="none", iterations=3)
        (state,) = result.histogram.counts
        assert condition.holds(state)
        assert result.observations == 3

    def test_launch_engines_bit_identical(self):
        test = build_launch_test(
            [Kernel([Store("x", 1)]), Kernel([Load("v", "x")])], {"x": 0})
        fast, ref = (run_batch(build_machine(engine, test, CHIPS["Titan"],
                                             intensity=STRESS),
                               50, random.Random(6))
                     for engine in ("fast", "reference"))
        assert fast.counts == ref.counts

    def test_custom_locals_build_adhoc_scenario(self):
        scenario = dot_product_scenario("cbe", fenced=False, locals_=(1, 2, 3))
        result = run_app_campaign([scenario], ["GTX280"], runs=20, seed=1,
                                  intensity=1.0).get("dot-cbe", "GTX280")
        assert (result.observations, result.iterations) == (0, 20)

    def test_ticket_counter_honours_locals(self):
        # A single ticket has no handoff race: always correct, unlike
        # the default two-ticket client under stress.
        alone = run_app_campaign([ticket_counter_scenario(False,
                                                          locals_=(1,))],
                                 ["Titan"], runs=50, seed=1, intensity=STRESS)
        racing = run_app_campaign(["ticket"], ["Titan"], runs=50, seed=1,
                                  intensity=STRESS)
        assert alone.get("ticket", "Titan").observations == 0
        assert racing.get("ticket", "Titan").observations > 0

    def test_dot_product_scenario_unknown_lock(self):
        with pytest.raises(ConfigurationError):
            dot_product_scenario("mystery", fenced=False)


class TestCli:
    def test_list_includes_scenarios(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "deque-rt+fenced" in out
        assert "ticket" in out
        assert "app scenario families" in out

    def test_app_subcommand(self, capsys):
        code = cli.main(["app", "--scenario", "deque-mp", "--chips",
                         "Titan", "GTX280", "--runs", "60", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "deque-mp+fenced" in out
        assert "losses per 100k" in out

    def test_app_subcommand_rejects_bad_selector(self):
        with pytest.raises(SystemExit):
            cli.main(["app", "--scenario", "bogus"])
