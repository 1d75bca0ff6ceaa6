"""Tests for the static pre-screening analyzer (repro.analysis).

Covers the classification engine over the full scenario registry and the
litmus library, the guard diagnostics, the AnalysisBackend behind the
Session machinery, the prescreen triage flow, the consistency oracles,
the backend registry, and the CLI ``analyze`` subcommand.
"""

import pytest

from repro.analysis import (CLEAN, RACY, UNKNOWN, AnalysisBackend,
                            AnalysisMeta, analyze_test, condition_skippable,
                            prescreen, run_prescreened)
from repro.analysis.consistency import check_library, check_scenarios
from repro.api.backends import make_backend
from repro.api.cache import ResultCache, cache_key
from repro.api.result import SpecResult
from repro.api.session import Session
from repro.api.spec import RunSpec, matrix
from repro.apps import app_matrix, app_session, select_scenarios
from repro.apps.scenario import SCENARIOS
from repro.cli import main
from repro.compiler import Kernel, compile_kernel
from repro.errors import ConfigurationError, ReproError
from repro.litmus import library, parse_litmus
from repro.model.models import load_model


#: The full 22-scenario registry, classified by hand against Sec. 3.2:
#: every published (unfenced) variant is provably racy; every fenced
#: variant is provably ordered except deque-lb+fenced — its pop thread
#: takes then re-publishes the task in straight-line code (no control
#: dependency to hang a lock-style acquire on) and the republished task
#: store has no trailing fence, so one direction of the task pair keeps
#: a candidate ordering edge and the analyzer stays conservative.
EXPECTED_SCENARIO_VERDICTS = {
    "deque-lb": RACY, "deque-lb+fenced": UNKNOWN,
    "deque-mp": RACY, "deque-mp+fenced": CLEAN,
    "deque-rt": RACY, "deque-rt+fenced": CLEAN,
    "dot-cbe": RACY, "dot-cbe+fenced": CLEAN,
    "dot-cbe-cta": RACY, "dot-cbe-cta+fenced": CLEAN,
    "dot-heyu": RACY, "dot-heyu+fenced": CLEAN,
    "dot-heyu-cta": RACY, "dot-heyu-cta+fenced": CLEAN,
    "dot-so": RACY, "dot-so+fenced": CLEAN,
    "dot-so-cta": RACY, "dot-so-cta+fenced": CLEAN,
    "isolation": RACY, "isolation+fenced": CLEAN,
    "ticket": RACY, "ticket+fenced": CLEAN,
}


class TestScenarioVerdicts:
    def test_registry_matrix(self):
        assert set(EXPECTED_SCENARIO_VERDICTS) == set(SCENARIOS)
        got = {name: analyze_test(SCENARIOS[name].test()).verdict
               for name in SCENARIOS}
        assert got == EXPECTED_SCENARIO_VERDICTS

    def test_every_published_lock_is_provably_racy(self):
        # The acceptance bar: the three published dot-product locks
        # (CUDA by Example, Stuart-Owens, He-Yu) x both scope placements.
        for family in ("dot-cbe", "dot-so", "dot-heyu"):
            for name in (family, family + "-cta"):
                assert analyze_test(SCENARIOS[name].test()).verdict == RACY
                fixed = analyze_test(SCENARIOS[name + "+fenced"].test())
                assert fixed.verdict == CLEAN

    def test_racy_reasons_name_the_rule(self):
        report = analyze_test(SCENARIOS["dot-heyu"].test())
        assert any("annuls atomic" in pair.reason
                   for pair in report.racy_pairs)
        report = analyze_test(SCENARIOS["deque-mp"].test())
        assert any("no covering fence" in pair.reason
                   for pair in report.racy_pairs)

    def test_fenced_locks_certified_by_the_lock_rule(self):
        report = analyze_test(SCENARIOS["dot-cbe+fenced"].test())
        ordered = [pair for pair in report.pairs if pair.verdict == "ordered"]
        assert ordered and all("lock" in pair.reason for pair in ordered)

    def test_fenced_deque_certified_by_the_handshake_rule(self):
        report = analyze_test(SCENARIOS["deque-mp+fenced"].test())
        ordered = [pair for pair in report.pairs if pair.verdict == "ordered"]
        assert ordered and all("handshake" in pair.reason for pair in ordered)


class TestLibraryVerdicts:
    def test_weak_tests_are_racy(self):
        for name in ("mp", "sb", "lb", "coRR", "cas-sl", "exch-sl",
                     "sl-future", "dlb-mp", "dlb-lb", "mp-L1"):
            assert analyze_test(library.build(name)).verdict == RACY, name

    def test_fence_only_fixes_stay_unknown(self):
        # Fences without a dependency give candidate edges the analyzer
        # cannot discharge: conservative, not certified.
        for name in ("mp+membar.gls", "lb+membar.gls", "mp-L1+membar.gls",
                     "mp-fig14", "dlb-lb+membar.gls"):
            assert analyze_test(library.build(name)).verdict == UNKNOWN, name

    def test_dependency_plus_fence_fixes_are_clean(self):
        for name in ("cas-sl+membar.gls", "dlb-mp+membar.gls",
                     "sl-future+fixed", "mp-volatile"):
            assert analyze_test(library.build(name)).verdict == CLEAN, name

    def test_volatile_clean_carries_no_sc_obligation(self):
        # mp-volatile is race-free by intent but volatiles order nothing
        # (Fig. 5): clean must NOT imply SC there.
        report = analyze_test(library.build("mp-volatile"))
        assert report.verdict == CLEAN
        assert report.volatile_sync_pairs > 0
        assert not report.sc_obligation

    def test_lock_idiom_clean_does_carry_sc_obligation(self):
        for name in ("cas-sl+membar.gls", "sl-future+fixed"):
            report = analyze_test(library.build(name))
            assert report.verdict == CLEAN
            assert report.sc_obligation, name

    def test_report_lines_render(self):
        report = analyze_test(library.build("mp"))
        lines = report.lines()
        assert lines[0].startswith("mp: racy")
        assert any("pair" in line for line in lines[1:])


SPIN_DEAD = """GPU_PTX spin-dead
{
 0:.reg .pred p0;
 0:.reg .s32 r0;
}
 T0                    | T1               ;
 WHILE0:               | st.cg.s32 [y], 1 ;
 ld.cg.s32 r0, [x]     |                  ;
 setp.ne.s32 p0, r0, 1 |                  ;
 @p0 bra WHILE0        |                  ;
ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
exists (x=0)
"""

WARP_DIV = """GPU_PTX warp-div
{
 0:.reg .pred p0;
 0:.reg .s32 r0;
}
 T0                    | T1               ;
 WHILE0:               | membar.gl        ;
 ld.cg.s32 r0, [x]     | st.cg.s32 [x], 1 ;
 setp.ne.s32 p0, r0, 1 |                  ;
 @p0 bra WHILE0        |                  ;
ScopeTree (grid (cta (warp T0 T1)))
exists (x=1)
"""


class TestDiagnostics:
    def test_spin_deadlock_when_nobody_stores_the_exit_value(self):
        report = analyze_test(parse_litmus(SPIN_DEAD))
        kinds = {diag.kind for diag in report.diagnostics}
        assert "spin-deadlock" in kinds

    def test_warp_divergence_for_intra_warp_spin(self):
        report = analyze_test(parse_litmus(WARP_DIV))
        kinds = {diag.kind for diag in report.diagnostics}
        assert "warp-divergence" in kinds

    def test_unordered_guard_on_published_deque(self):
        report = analyze_test(SCENARIOS["deque-mp"].test())
        kinds = {diag.kind for diag in report.diagnostics}
        assert "unordered-guard" in kinds

    def test_annulled_atomic_on_he_yu_lock(self):
        report = analyze_test(SCENARIOS["dot-heyu"].test())
        kinds = {diag.kind for diag in report.diagnostics}
        assert "annulled-atomic" in kinds

    def test_fenced_variants_are_diagnostic_free(self):
        for name in ("deque-mp+fenced", "dot-heyu+fenced"):
            assert not analyze_test(SCENARIOS[name].test()).diagnostics


class TestVerdictEncoding:
    def test_round_trip(self, tmp_path):
        # Every verdict survives the disk cache as a typed answer.
        backend = AnalysisBackend()
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        for verdict in (CLEAN, UNKNOWN, RACY):
            key = cache_key(backend.name, verdict)
            ResultCache(cache_dir=str(tmp_path)).put(key, SpecResult(
                spec=spec, backend=backend.name,
                answer=AnalysisMeta(verdict)))
            again = ResultCache(cache_dir=str(tmp_path)).get(
                key, spec, backend.name, backend.answer_type)
            assert again.cached
            assert again.answer == AnalysisMeta(verdict)

    def test_rejects_missing_verdict(self):
        with pytest.raises(KeyError):
            AnalysisMeta.from_json({})

    def test_rejects_foreign_verdict(self):
        with pytest.raises(ValueError):
            AnalysisMeta.from_json({"verdict": "maybe"})

    def test_merge_keeps_the_most_severe_verdict(self):
        metas = [AnalysisMeta(CLEAN), AnalysisMeta(RACY),
                 AnalysisMeta(UNKNOWN)]
        for first in metas:
            for second in metas:
                assert AnalysisMeta.merge([first, second]) \
                    == AnalysisMeta.merge([second, first])
        assert AnalysisMeta.merge([AnalysisMeta(CLEAN),
                                   AnalysisMeta(UNKNOWN)]).verdict == UNKNOWN
        assert AnalysisMeta.merge([AnalysisMeta(UNKNOWN),
                                   AnalysisMeta(RACY)]).verdict == RACY
        assert AnalysisMeta.merge(metas).verdict == RACY


class TestAnalysisBackend:
    def test_make_backend_resolves_analysis(self):
        backend = make_backend("analysis")
        assert isinstance(backend, AnalysisBackend)
        assert backend.name == "analysis"

    def test_make_backend_error_lists_every_backend(self):
        with pytest.raises(ReproError) as err:
            make_backend("bogus")
        message = str(err.value)
        for name in ("'analysis'", "'app'", "'model'", "'sim'",
                     "model:NAME"):
            assert name in message
        from repro.model.models import MODELS
        for name in MODELS:
            assert name in message

    def test_session_verdicts_and_zero_iteration_accounting(self):
        session = Session(backend="analysis", cache=False)
        specs = [RunSpec.make(library.build("mp"), "Titan", iterations=50),
                 RunSpec.make(library.build("mp"), "GTX7", iterations=999,
                              seed=7)]
        results = session.run_specs(specs)
        verdicts = [r.answer.verdict for r in results]
        assert verdicts == [RACY, RACY]
        # The signature covers only the litmus text: the second chip's
        # cell deduplicates in-plan, and nothing counts as simulated.
        assert session.stats.deduplicated == 1
        assert session.stats.executed == 1
        assert session.stats.simulated_iterations == 0
        assert results[1].cached

    def test_verdicts_round_trip_through_the_disk_cache(self, tmp_path):
        spec = RunSpec.make(library.build("cas-sl+membar.gls"), "Titan",
                            iterations=10)
        first = Session(backend="analysis", cache_dir=str(tmp_path))
        result = first.run_specs([spec])[0]
        assert result.answer.verdict == CLEAN
        assert first.stats.cache_hits == 0
        second = Session(backend="analysis", cache_dir=str(tmp_path))
        again = second.run_specs([spec])[0]
        assert second.stats.cache_hits == 1
        assert again.answer.verdict == CLEAN

    def test_scenario_specs_run_through_the_backend(self):
        session = Session(backend="analysis", cache=False)
        specs = app_matrix(select_scenarios(["ticket"]), ["Titan"], runs=10)
        verdicts = [r.answer.verdict for r in session.run_specs(specs)]
        assert verdicts == [RACY, CLEAN]


class TestPrescreen:
    def test_prescreen_aligns_with_specs(self):
        specs = app_matrix(select_scenarios(["deque-mp"]), ["Titan"],
                           runs=20, seed=1)
        assert prescreen(specs) == [RACY, CLEAN]

    def test_run_prescreened_skips_only_clean_cells(self):
        specs = app_matrix(select_scenarios(["deque-mp"]), ["Titan"],
                           runs=20, seed=1)
        session = app_session(cache=False)
        results, verdicts = run_prescreened(specs, session)
        assert verdicts == [RACY, CLEAN]
        racy, clean = results
        assert racy.backend == "app" and racy.iterations == 20
        assert clean.backend == "analysis"
        assert clean.answer == AnalysisMeta(CLEAN)
        assert clean.observations == 0 and not clean.sampled
        with pytest.raises(ReproError):
            clean.histogram
        assert session.stats.executed == 1

    def test_litmus_cells_skip_only_on_the_condition_proof(self):
        # Clean, SC-implied and SC-forbidden: skipped.  mp-volatile is
        # clean too, but its condition is observable; mp is racy.
        tests = [library.build(name) for name in
                 ("cas-sl+membar.gls", "mp-volatile", "mp")]
        specs = matrix(tests, ["Titan", "GTX7"], iterations=20, seed=1)
        session = Session(cache=False)
        results, verdicts = run_prescreened(specs, session)
        assert verdicts == [CLEAN, CLEAN, CLEAN, CLEAN, RACY, RACY]
        assert [result.backend for result in results] == [
            "analysis", "analysis", "sim", "sim", "sim", "sim"]
        assert session.stats.executed == 4

    def test_a_mixed_plan_applies_each_kinds_rule(self):
        # A clean scenario cell is skipped on its verdict alone; a clean
        # litmus cell whose condition is observable still runs.
        specs = (app_matrix(select_scenarios(["deque-mp+fenced"]),
                            ["Titan"], runs=20, seed=1)
                 + matrix([library.build("mp-volatile")], ["Titan"],
                          iterations=20, seed=1))
        results, verdicts = run_prescreened(specs, Session(cache=False))
        assert verdicts == [CLEAN, CLEAN]
        assert [result.backend for result in results] == ["analysis",
                                                          "sim"]

    def test_condition_skippable_needs_the_full_proof(self):
        # Clean + SC-implied + SC-forbidden condition: skippable.
        assert condition_skippable(library.build("cas-sl+membar.gls"))
        # Clean but the volatile exemption voids the SC implication —
        # mp-volatile's weak condition really is observable.
        assert not condition_skippable(library.build("mp-volatile"))
        # Racy tests are never skippable.
        assert not condition_skippable(library.build("mp"))


class TestConsistency:
    def test_library_check_is_clean(self):
        rows, problems = check_library()
        assert problems == []
        by_name = {name: (verdict, note) for name, verdict, note in rows}
        assert by_name["cas-sl+membar.gls"][0] == CLEAN
        assert by_name["cas-sl+membar.gls"][1].startswith("SC")
        assert "no SC obligation" in by_name["mp-volatile"][1]

    def test_scenario_check_spots_no_contradictions(self):
        rows, problems = check_scenarios(
            scenarios=select_scenarios(["deque-mp"]), chips=["Titan"],
            runs=30, seed=0)
        assert problems == []
        verdicts = {name: verdict for name, verdict, _, _ in rows}
        assert verdicts == {"deque-mp": RACY, "deque-mp+fenced": CLEAN}


class TestCompileKernelErrors:
    def test_unknown_statement_names_itself_and_the_known_set(self):
        class Bogus:
            def __repr__(self):
                return "Bogus()"

        with pytest.raises(ConfigurationError) as err:
            compile_kernel(Kernel([Bogus()]), 0)
        message = str(err.value)
        assert "Bogus" in message
        assert "Store" in message and "Load" in message

    def test_configuration_error_is_a_repro_error(self):
        assert issubclass(ConfigurationError, ReproError)


class TestCli:
    def test_analyze_library_tests(self, capsys):
        assert main(["analyze", "mp", "mp-volatile"]) == 0
        out = capsys.readouterr().out
        assert "mp: racy" in out
        assert "mp-volatile: clean" in out
        assert "verdicts: 1 racy, 1 clean" in out

    def test_analyze_scenarios_with_detail(self, capsys):
        assert main(["analyze", "--scenario", "dot-heyu", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "annulled-atomic" in out
        assert "pair" in out

    def test_analyze_without_a_selection_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_analyze_cross_check_library_only(self, capsys):
        assert main(["analyze", "cas-sl+membar.gls", "--cross-check"]) == 0
        out = capsys.readouterr().out
        assert "consistency: ok" in out

    def test_analyze_cross_check_analyses_each_scenario_once(
            self, capsys, monkeypatch):
        """The verdict lines and both scenario oracles share one report
        per test (they used to analyse every scenario three times)."""
        from repro.analysis import races
        for scenario in SCENARIOS.values():
            scenario.test().__dict__.pop("_analysis", None)
        analysed = []
        summarize = races.summarize_test

        def counting(test):
            analysed.append(test.name)
            return summarize(test)

        monkeypatch.setattr(races, "summarize_test", counting)
        assert main(["analyze", "--scenario", "all", "--cross-check",
                     "--runs", "50", "--chips", "Titan"]) == 0
        assert "consistency: ok (22 scenarios" in capsys.readouterr().out
        assert sorted(analysed) == sorted(SCENARIOS)
        assert len(analysed) == 22

    def test_app_prescreen_skips_fenced_cells(self, capsys):
        rc = main(["app", "-s", "deque-mp", "--chips", "Titan",
                   "--prescreen", "--runs", "30", "--executor", "thread"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prescreen:" in out
        assert "deque-mp+fenced" in out

    def test_campaign_prescreen_keeps_observable_conditions(self, capsys):
        rc = main(["campaign", "mp-volatile", "cas-sl+membar.gls",
                   "--chips", "Titan", "--iterations", "30", "--prescreen",
                   "--executor", "thread"])
        assert rc == 0
        out = capsys.readouterr().out
        # cas-sl+membar.gls is skipped by proof; mp-volatile must run
        # (clean but its weak condition is observable).
        skip_line = [line for line in out.splitlines()
                     if "zero observations" in line][0]
        assert "cas-sl+membar.gls" in skip_line
        assert "mp-volatile" not in skip_line


class TestModelAgreement:
    def test_clean_sc_obligated_tests_really_are_sc(self):
        ptx, sc = load_model("ptx"), load_model("sc")
        for name in ("cas-sl+membar.gls", "sl-future+fixed"):
            test = library.build(name)
            assert set(ptx.allowed_outcomes(test, fuel=128)) <= \
                set(sc.allowed_outcomes(test, fuel=128))

    def test_mp_volatile_is_clean_yet_weak(self):
        # The pair that motivates the volatile exemption: the PTX model
        # allows mp-volatile's weak outcome even though the analyzer
        # (correctly) reports no data race.
        test = library.build("mp-volatile")
        assert analyze_test(test).verdict == CLEAN
        ptx, sc = load_model("ptx"), load_model("sc")
        assert set(ptx.allowed_outcomes(test, fuel=128)) - \
            set(sc.allowed_outcomes(test, fuel=128))
