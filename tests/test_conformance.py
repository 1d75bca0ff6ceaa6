"""Tests for the Sec. 5.4 conformance subsystem: the dual-backend
soundness pipeline, the report, streaming corpus execution and the
``repro-litmus soundness`` CLI."""

import pytest

from repro.api import (CellConformance, ConformanceReport, Session,
                      Violation, run_soundness, uniquify_tests)
from repro import cli
from repro.cli import main
from repro.errors import ReproError
from repro.litmus import library
from repro.litmus.condition import FinalState


def _tests(*names):
    return [library.build(name) for name in names]


class TestRunSoundness:
    def test_ptx_model_sound_on_library_corpus(self):
        report = run_soundness(_tests("mp", "sb", "lb", "coRR"),
                               ["Titan", "GTX6"], iterations=400, seed=3)
        assert report.ok
        assert report.violations == []
        assert len(report.cells) == 4 * 2
        assert report.tests == ["mp", "sb", "lb", "coRR"]
        assert report.chips == ["Titan", "GTX6"]
        # Every test got a non-empty allowed set.
        assert all(count > 0 for count in report.allowed_counts.values())

    def test_model_enumerates_once_per_test_not_per_chip(self):
        report = run_soundness(_tests("mp", "sb"),
                               ["Titan", "GTX6", "GTX7"], iterations=200)
        assert report.model_stats["executed"] == 2
        assert report.sim_stats["executed"] == 6

    def test_injected_violation_is_reported_not_swallowed(self):
        # SC forbids mp's weak outcome; the simulated Titan observes it
        # under the paper's incantations — a deliberately wrong model
        # must surface as violations, not be silently merged away.
        report = run_soundness(_tests("mp"), ["Titan"], model="sc",
                               iterations=2000, seed=3)
        assert not report.ok
        assert report.violations
        violation = report.violations[0]
        assert violation.test == "mp" and violation.chip == "Titan"
        assert violation.count > 0
        assert "forbids" in violation.describe()
        assert any("mp on Titan" in line for line in report.violation_lines())
        # The unsound cell is flagged in the rendered grid.
        assert "forbidden" in report.summary_table()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate test name"):
            run_soundness(_tests("mp", "mp"), ["Titan"], iterations=100)

    def test_uniquify_tests_renames_deterministically(self):
        family = uniquify_tests(_tests("mp", "sb", "mp", "mp"))
        assert [test.name for test in family] == ["mp", "sb", "mp-2", "mp-3"]
        # First occurrence keeps its identity (same object, same text).
        assert family[0].name == "mp"
        report = run_soundness(family, ["Titan"], iterations=100)
        assert len(report.cells) == 4

    def test_streaming_chunks_cover_whole_corpus(self):
        tests = _tests("mp", "sb", "lb", "coRR", "dlb-lb")
        report = run_soundness(tests, ["Titan"], iterations=100,
                               chunk_size=2)
        assert len(report.cells) == 5
        assert report.tests == [test.name for test in tests]

    def test_streams_the_corpus_chunk_by_chunk(self):
        """A chunk's cells are finished before the next test is pulled
        from the corpus, so a generated corpus never materialises."""

        class Pulled(Exception):
            pass

        def corpus():
            yield library.build("mp")
            raise Pulled("the second test was pulled")

        seen = []
        with pytest.raises(Pulled):
            run_soundness(corpus(), ["Titan", "GTX6"], iterations=100,
                          chunk_size=1, progress=seen.append)
        assert [(cell.test, cell.chip) for cell in seen] == [
            ("mp", "Titan"), ("mp", "GTX6")]

    def test_chunking_does_not_change_the_cells(self):
        """Streaming a test at a time yields the cells of one chunk."""
        tests = _tests("mp", "sb", "lb")
        whole = run_soundness(tests, ["Titan", "GTX6"], iterations=150,
                              seed=2, chunk_size=64)
        streamed = run_soundness(tests, ["Titan", "GTX6"], iterations=150,
                                 seed=2, chunk_size=1)
        assert streamed.cells == whole.cells
        assert streamed.allowed_counts == whole.allowed_counts

    @pytest.mark.parametrize("chunk_size", (0, -7))
    def test_stream_rejects_bad_chunk_size(self, chunk_size):
        """Rejected before the corpus is pulled; it used to run with
        chunks of one test."""

        def corpus():
            raise AssertionError("the corpus was pulled")
            yield

        with pytest.raises(ReproError, match="chunk_size .*%d" % chunk_size):
            run_soundness(corpus(), ["Titan"], iterations=100,
                          chunk_size=chunk_size)

    def test_accepts_generator_corpus(self):
        report = run_soundness((library.build(name) for name in ("mp", "sb")),
                               ["Titan"], iterations=100, chunk_size=1)
        assert len(report.cells) == 2

    def test_second_run_served_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "soundness-cache")
        first = run_soundness(_tests("mp", "sb"), ["Titan", "GTX6"],
                              iterations=200, cache_dir=cache_dir)
        second = run_soundness(_tests("mp", "sb"), ["Titan", "GTX6"],
                               iterations=200, cache_dir=cache_dir)
        assert first.sim_stats["executed"] == 4
        assert second.sim_stats["executed"] == 0
        assert second.sim_stats["cache_hits"] == 4
        assert second.model_stats["executed"] == 0
        assert second.cached_cells == 4
        # Identical verdicts either way.
        assert first.ok and second.ok
        assert [cell.observations for cell in first.cells] == \
            [cell.observations for cell in second.cells]

    def test_shared_pool_parallel_matches_serial(self):
        serial = run_soundness(_tests("mp", "sb"), ["Titan"],
                               iterations=300, seed=5)
        parallel = run_soundness(_tests("mp", "sb"), ["Titan"],
                                 iterations=300, seed=5, jobs=4)
        assert [cell.observations for cell in serial.cells] == \
            [cell.observations for cell in parallel.cells]

    def test_needs_a_chip(self):
        with pytest.raises(ReproError):
            run_soundness(_tests("mp"), [], iterations=100)

    @pytest.mark.parametrize("setting", ("jobs", "executor", "cache",
                                         "cache_dir"))
    def test_sim_session_refuses_session_settings(self, setting, tmp_path):
        """Beside a sim session these configured only the model half, or
        (the cache ones) nothing; refused before the corpus is pulled."""
        cache_dir = tmp_path / "cache"
        value = {"jobs": 2, "executor": "process", "cache": False,
                 "cache_dir": str(cache_dir)}[setting]

        def corpus():
            raise AssertionError("the corpus was pulled")
            yield

        with pytest.raises(ReproError, match="%s=.*sim_session" % setting):
            run_soundness(corpus(), ["Titan"], iterations=50,
                          sim_session=Session(), **{setting: value})
        assert not cache_dir.exists()

    def test_sim_session_shares_its_cache_with_the_model(self):
        session = Session()
        first = run_soundness(_tests("mp"), ["Titan"], iterations=50,
                              sim_session=session, jobs=1)
        second = run_soundness(_tests("mp"), ["Titan"], iterations=50,
                               sim_session=session)
        assert (first.sim_stats["executed"], first.model_stats["executed"]) \
            == (1, 1)
        assert (second.sim_stats["cache_hits"],
                second.model_stats["cache_hits"]) == (1, 1)


class TestConformanceReport:
    def _cell(self, test="mp", chip="Titan", observations=3,
              violations=()):
        return CellConformance(
            test=test, chip=chip, incantations="stress", iterations=1000,
            observations=observations, per_100k=observations * 100.0,
            distinct_states=4, cached=False, violations=tuple(violations))

    def test_coverage_by_chip_and_incantations(self):
        report = ConformanceReport(model="model:ptx")
        report.add_test("mp", 4)
        report.add_cell(self._cell(chip="Titan"))
        report.add_cell(self._cell(chip="GTX6", observations=0))
        by_chip = report.coverage_by_chip()
        assert by_chip["Titan"]["weak"] == 1
        assert by_chip["GTX6"]["weak"] == 0
        assert report.coverage_by_incantations()["stress"]["cells"] == 2
        assert "Titan" in report.coverage_table()
        assert "stress" in report.incantation_table()

    def test_summary_table_elides_sound_rows_but_keeps_violations(self):
        state = FinalState.make({(0, "r1"): 1}, {"x": 1})
        report = ConformanceReport(model="model:ptx")
        for index in range(6):
            name = "t%d" % index
            report.add_test(name, 2)
            violations = ()
            if index == 5:
                violations = (Violation(test=name, chip="Titan",
                                        state=state, count=2),)
            report.add_cell(self._cell(test=name, violations=violations))
        table = report.summary_table(max_rows=2)
        assert "t0" in table and "t1" in table
        assert "t5" in table            # unsound row survives the cap
        assert "t3" not in table
        assert "elided" in table

    def _report_with_one_unsound_test(self):
        state = FinalState.make({(0, "r1"): 1}, {"x": 1})
        report = ConformanceReport(model="model:ptx")
        for name in ("t0", "t1", "t2"):
            report.add_test(name, 2)
            violations = ()
            if name == "t1":
                violations = (Violation(test=name, chip="Titan",
                                        state=state, count=2),)
            report.add_cell(self._cell(test=name, violations=violations))
        return report

    def test_zero_rows_shows_only_unsound_rows(self):
        rows = self._report_with_one_unsound_test().summary_table(
            max_rows=0).splitlines()
        assert [row.split()[0] for row in rows[2:]] == ["t1", "..."]
        assert rows[-1] == "... (2 sound rows elided)"

    @pytest.mark.parametrize("max_rows", (-1, -5))
    def test_negative_max_rows_is_rejected(self, max_rows):
        report = self._report_with_one_unsound_test()
        with pytest.raises(ReproError, match="max_rows .*%d" % max_rows):
            report.summary_table(max_rows=max_rows)

    def test_summary_counts(self):
        report = ConformanceReport(model="model:ptx")
        report.add_test("mp", 4)
        report.add_cell(self._cell())
        assert "1 tests x 1 chips" in report.summary()
        assert report.total_iterations == 1000


class TestSessionStreaming:
    def test_external_pool_not_shut_down(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as pool:
            session = Session(jobs=2, cache=False, pool=pool)
            first = session.run(library.build("mp"), "Titan", iterations=100)
            # A second plan on the same pool still works (the session
            # must not have closed it).
            second = session.run(library.build("sb"), "Titan",
                                 iterations=100)
        assert first.histogram.total == second.histogram.total == 100


class TestSoundnessCli:
    def test_soundness_subcommand(self, capsys):
        code = main(["soundness", "--length", "3", "--max-tests", "4",
                     "--chips", "Titan", "GTX6", "--iterations", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "soundness vs model:ptx" in out
        assert "0 violations" in out
        assert "model session:" in out

    def test_soundness_unsound_model_exits_nonzero(self, capsys):
        # SC is deliberately too strong for GPU observations.
        code = main(["soundness", "--length", "3", "--max-tests", "4",
                     "--chips", "Titan", "--iterations", "2000",
                     "--model", "sc", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION:" in out

    def test_negative_max_rows_exits_before_the_corpus(self, monkeypatch):
        def generate_tests(*args, **kwargs):
            raise AssertionError("the corpus was generated")

        monkeypatch.setattr(cli, "generate_tests", generate_tests)
        with pytest.raises(SystemExit) as exit_info:
            main(["soundness", "--max-tests", "2", "--chips", "Titan",
                  "--max-rows", "-1"])
        assert str(exit_info.value) == "--max-rows must be 0 or more, got -1"

    def test_zero_max_rows_lists_no_sound_row(self, capsys):
        assert main(["soundness", "--length", "3", "--max-tests", "3",
                     "--chips", "Titan", "--iterations", "100",
                     "--max-rows", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2] == "... (3 sound rows elided)"

    def test_soundness_empty_corpus_exits(self):
        with pytest.raises(SystemExit):
            main(["soundness", "--length", "2", "--max-tests", "0",
                  "--chips", "Titan"])

    def test_generate_is_name_sorted_and_shaped(self, capsys):
        assert main(["generate", "--length", "3", "--fences", "none"]) == 0
        out = capsys.readouterr().out
        assert "membar" not in out
        names = [line.split()[1] for line in out.splitlines()
                 if line.startswith("GPU_PTX")]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_generate_scope_restriction(self, capsys):
        assert main(["generate", "--length", "3", "--fences", "none",
                     "--scopes", "dev"]) == 0
        dev_only = capsys.readouterr().out
        # cta-scoped pools produce intra-CTA placements the dev pool lacks.
        assert main(["generate", "--length", "3", "--fences", "none",
                     "--scopes", "cta"]) == 0
        cta_only = capsys.readouterr().out
        assert dev_only != cta_only

    def test_generate_max_alias_still_works(self, capsys):
        assert main(["generate", "--length", "3", "--max", "2"]) == 0
        out = capsys.readouterr()
        assert out.err.strip().endswith("2 tests")
