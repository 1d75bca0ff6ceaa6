"""Tests for the Sorensen operational model (Sec. 6) and the CLI."""

import pytest

from repro.cli import main
from repro.litmus import library
from repro.model.operational import (SorensenOperationalModel,
                                     unsoundness_witness)
from repro.sim import chip

#: Runs the CLI on ``sys.argv[1:]`` in a fresh interpreter.
_CLI = """
import sys
from repro.cli import main
status = main(sys.argv[1:])
"""


def _cli_subprocess(argv, timeout=120, before="", after=""):
    """Run ``repro-litmus argv`` in a fresh interpreter, with the
    ``before`` source run first and ``after`` run once the command has
    returned; the CLI's exit status is the process's."""
    import os
    import subprocess
    import sys

    import repro
    env = dict(os.environ, REPRO_ITERS="50",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    source = before + _CLI + after + "\nraise SystemExit(status)\n"
    return subprocess.run([sys.executable, "-c", source] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestSorensenModel:
    def test_forbids_lb_with_cta_fences(self):
        model = SorensenOperationalModel(chip("Titan"))
        assert not model.allows_condition(library.build("lb+membar.ctas"))

    def test_scope_blind_machine_never_witnesses_it(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb+membar.ctas")
        assert not model.observes_condition(test, runs=1500, seed=0)

    def test_allows_plain_lb(self):
        model = SorensenOperationalModel(chip("Titan"))
        assert model.allows_condition(library.build("lb"))
        assert model.observes_condition(library.build("lb"), runs=1500, seed=0)

    def test_unsoundness_witness_on_titan(self):
        """The paper's refutation: forbidden by the model, observed on the
        chip (586/100k on Titan; 19/100k on GTX 660)."""
        forbids, observed = unsoundness_witness(chip("Titan"), runs=4000,
                                                seed=2)
        assert forbids
        assert observed > 0

    def test_sampled_outcomes_subset_of_axiomatic(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb")
        from repro.model.enumerate import (allowed_final_states,
                                           enumerate_executions)
        allowed = allowed_final_states(enumerate_executions(test),
                                       model=model._axiomatic)
        assert model.sample_outcomes(test, runs=400, seed=1) <= allowed

    def test_unsoundness_witness_on_gtx660(self):
        """The other refutation chip of Sec. 6 — a far rarer observation
        than Titan's (19/100k vs 586/100k), so the sampling budget is
        bigger."""
        forbids, observed = unsoundness_witness(chip("GTX6"), runs=20000,
                                                seed=2)
        assert forbids
        assert observed > 0

    def test_no_witness_on_the_in_order_chip(self):
        """GTX280 reorders nothing, so the model stays forbidding and
        the hardware never observes the outcome: no refutation there."""
        forbids, observed = unsoundness_witness(chip("GTX280"), runs=4000,
                                                seed=2)
        assert forbids
        assert observed == 0

    def test_sample_outcomes_are_seed_deterministic(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb")
        first = model.sample_outcomes(test, runs=300, seed=4)
        second = model.sample_outcomes(test, runs=300, seed=4)
        assert first == second

    def test_exhaustive_explorer_confirms_the_refutation(self):
        """Sec. 6 closed loop: the outcome the scope-blind model forbids
        is exhaustively *reachable* on the chip semantics, with a
        concrete witness trace — the refutation is a proof, not a
        sampling artefact."""
        from repro.exhaustive import explore_test

        test = library.build("lb+membar.ctas")
        model = SorensenOperationalModel(chip("Titan"))
        assert not model.allows_condition(test)
        result = explore_test(test, chip("Titan"))
        assert result.losses > 0
        assert result.witness is not None
        assert test.condition.holds(result.witness.state)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "coRR" in out and "Titan" in out and "ptx" in out

    def test_run_library_test(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "coRR", "--chip", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "Histogram" in out and "coRR on Titan" in out

    def test_model_verdict(self, capsys):
        assert main(["model", "coRR"]) == 0
        out = capsys.readouterr().out
        assert "Allowed" in out

    def test_model_forbidden(self, capsys):
        assert main(["model", "mp+membar.gls", "--model", "ptx"]) == 0
        assert "Forbidden" in capsys.readouterr().out

    def test_run_litmus_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "100")
        from repro.litmus import write_litmus
        path = tmp_path / "sb.litmus"
        path.write_text(write_litmus(library.build("sb")))
        assert main(["run", str(path), "--chip", "GTX7"]) == 0

    def test_unknown_test_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-test"])

    def test_run_incantations_none_reproduces_bare_setup(self, capsys,
                                                         monkeypatch):
        """The bare Sec. 4.2 configuration: no incantations, hence no
        weak observations on Nvidia chips."""
        monkeypatch.setenv("REPRO_ITERS", "400")
        assert main(["run", "mp", "--chip", "Titan",
                     "--incantations", "none"]) == 0
        out = capsys.readouterr().out
        assert "[none]" in out
        assert "0/400 weak" in out

    def test_run_incantations_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "mp", "--chip", "Titan",
                     "--incantations", "stress+sync+random"]) == 0
        assert "[stress+sync+random]" in capsys.readouterr().out

    def test_run_incantations_bad_value_exits(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "100")
        with pytest.raises(SystemExit):
            main(["run", "mp", "--incantations", "banana"])

    def test_run_with_jobs_and_backend_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "mp", "--chip", "Titan", "--jobs", "2"]) == 0
        assert "via sim" in capsys.readouterr().out

    def test_campaign_subcommand(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ITERS", "200")
        argv = ["campaign", "mp", "lb", "--chips", "Titan", "HD7970",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "obs/100k" in out and "Titan" in out and "HD7970" in out
        assert "4 cells" in out

        # Warm disk cache: the rerun performs zero new simulations.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated iterations" in out

    def test_campaign_model_backend(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "50")
        assert main(["campaign", "mp", "--chips", "Titan",
                     "--backend", "model"]) == 0
        # The model answers with its allowed states, not a sample: the
        # table counts the allowed weak states instead of a rate.
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["weak", "states", "Titan"]
        assert table[2].split() == ["mp", "1"]

    def test_generate(self, capsys):
        assert main(["generate", "--length", "3", "--max", "5"]) == 0
        out = capsys.readouterr().out
        assert "GPU_PTX" in out

    def test_verify_fenced_scenario(self, capsys):
        assert main(["verify", "-s", "isolation", "--fenced", "on",
                     "--chips", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "verified: 0 losses over all executions" in out

    def test_verify_unfenced_scenario_reports_the_loss(self, capsys):
        """An unfenced cell losing is the expected result, not a
        failure: exit 0, but with a concrete losing trace."""
        assert main(["verify", "-s", "deque-mp", "--fenced", "off",
                     "--chips", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "LOST" in out and "losing execution" in out

    def test_verify_warm_rerun_executes_nothing(self, capsys, tmp_path):
        argv = ["verify", "-s", "deque-mp", "--chips", "Titan", "HD7970",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        warm = capsys.readouterr().out.splitlines()
        assert cold[-1].startswith("session: 4 cells executed, 0 cache hits")
        assert warm[-1] == "session: 0 cells executed, 4 cache hits, " \
            "0 deduplicated, 0 shards"
        assert warm[:-1] == cold[:-1]

    def test_unknown_backend_mentions_exhaustive(self):
        from repro.api import make_backend
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="exhaustive"):
            make_backend("banana")

    @pytest.mark.parametrize("argv,message", (
        (["run", "mp", "--backend", "app"], "repro-litmus app"),
        (["campaign", "mp", "--backend", "app"], "repro-litmus app"),
        (["run", "mp", "--backend", "model:nope"], "unknown backend"),
        (["campaign", "mp", "--backend", "model:nope"], "unknown backend"),
    ))
    def test_bad_backend_exits_without_traceback(self, argv, message):
        proc = _cli_subprocess(argv)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stdout + proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("argv,value", (
        (["verify", "--scenario", "deque-mp", "--chips", "Titan",
          "--intensity", "-1"], "-1.0"),
        (["verify", "--scenario", "deque-mp", "--chips", "Titan",
          "--intensity", "nan"], "nan"),
        (["app", "--scenario", "deque-mp", "--chips", "Titan",
          "--intensity", "-1"], "-1.0"),
        (["app", "--scenario", "deque-mp", "--chips", "Titan",
          "--intensity", "nan"], "nan"),
        (["app", "--scenario", "deque-mp", "--chips", "Titan",
          "--intensity", "inf"], "inf"),
        (["analyze", "--scenario", "deque-mp", "--cross-check",
          "--chips", "Titan", "--intensity", "-1"], "-1.0"),
        (["verify", "--scenario", "deque-mp", "dot-cbe", "--chips",
          "Titan", "--intensity", "0"], "0.0"),
    ))
    def test_bad_intensity_exits_without_traceback(self, argv, value):
        """A negative or NaN intensity disables every relaxation, which
        used to "verify" the published, losing deque-mp; so does 0 for
        ``verify``, where it used to print "4/4 cells verified"."""
        proc = _cli_subprocess(argv)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "verified" not in proc.stdout
        (line,) = proc.stderr.splitlines()
        assert "intensity" in line and value in line

    def test_model_backend_refuses_a_sim_engine(self):
        """``--engine`` is the engine of the session's backend, and the
        model backend has no batch engine."""
        proc = _cli_subprocess(["run", "mp", "--backend", "model",
                                "--engine", "batch"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        (line,) = proc.stderr.splitlines()
        assert "'batch'" in line
        assert "'fast'" in line and "'reference'" in line

    @pytest.mark.parametrize("argv,flag", (
        (["generate", "--max-tests", "-1"], "--max-tests"),
        (["generate", "--length", "1"], "--length"),
        (["soundness", "--max-tests", "-1"], "--max-tests"),
        (["soundness", "--length", "1"], "--length"),
    ))
    def test_bad_corpus_flags_exit_without_traceback(self, argv, flag):
        """Both used to print an empty corpus and exit 0."""
        proc = _cli_subprocess(argv)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stdout + proc.stderr
        (line,) = proc.stderr.splitlines()
        assert flag in line

    @pytest.mark.parametrize("budget", ("0", "-5"))
    def test_bad_transition_budget_exits_without_traceback(self, budget):
        """Both used to abort every cell "after 1 transitions" and ask
        for a larger budget."""
        proc = _cli_subprocess(["verify", "--scenario", "deque-mp",
                                "--chips", "Titan", "--max-transitions",
                                budget])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        (line,) = proc.stderr.splitlines()
        assert "max_transitions" in line and budget in line

    @pytest.mark.parametrize("chunk_size", ("0", "-7"))
    def test_bad_chunk_size_exits_without_traceback(self, chunk_size):
        """Both used to run with chunks of one test and exit 0."""
        proc = _cli_subprocess(["soundness", "--max-tests", "3",
                                "--iterations", "50", "--chips", "Titan",
                                "--chunk-size", chunk_size])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert "chunk_size" in line and chunk_size in line

    @pytest.mark.parametrize("max_rows", ("-1", "-7"))
    def test_negative_max_rows_exits_without_traceback(self, max_rows):
        """``--max-rows -1`` used to drop the last row, report it elided
        and exit 0."""
        proc = _cli_subprocess(["soundness", "--max-tests", "3",
                                "--iterations", "50", "--chips", "Titan",
                                "--max-rows", max_rows])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert "--max-rows" in line and max_rows in line

    @pytest.mark.parametrize("argv", (
        ["run", "mp", "--chip", "Titan", "--iterations", "10"],
        ["verify", "--scenario", "deque-mp", "--chips", "Titan"],
    ))
    def test_cache_dir_naming_a_file_exits_without_traceback(
            self, tmp_path, argv):
        path = tmp_path / "not-a-directory"
        path.write_text("")
        proc = _cli_subprocess(argv + ["--cache-dir", str(path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        (line,) = proc.stderr.splitlines()
        assert str(path) in line

    def test_short_corpus_of_long_cycles_stops_early(self):
        """Two tests come from the shortest cycles; enumerating every
        cycle up to length 40 first never finished."""
        proc = _cli_subprocess(["generate", "--length", "40",
                                "--max-tests", "2"], timeout=60)
        assert proc.returncode == 0
        assert "// 2 tests" in proc.stderr

    @pytest.mark.parametrize("command", (["run", "mp"], ["campaign", "mp"],
                                         ["app"], ["verify"], ["analyze"],
                                         ["soundness"]))
    def test_pool_flags_on_every_executing_subcommand(self, command):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(command + ["--jobs", "2", "--executor",
                                            "thread", "--cache-dir", "D"])
        assert (args.jobs, args.executor, args.cache_dir) == (2, "thread",
                                                              "D")
        args = parser.parse_args(command)
        assert (args.jobs, args.executor, args.cache_dir) == (1, "process",
                                                              None)


class TestOptionalNumpy:
    """numpy is the ``repro[batch]`` extra: only a run that lowers a
    batch cell may import it, and without it only that run fails."""

    _BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
    _REPORT_NUMPY = "\nprint('numpy loaded:', 'numpy' in sys.modules)\n"

    @pytest.mark.parametrize("argv,ran", (
        (["soundness", "--max-tests", "1", "--chips", "Titan",
          "--iterations", "50"], "sim session: 1 cells executed"),
        (["verify", "--scenario", "deque-mp", "--fenced", "on",
          "--chips", "Titan"], "1/1 cells verified"),
    ))
    def test_runs_without_batch_cells_leave_numpy_unloaded(self, argv, ran):
        proc = _cli_subprocess(argv, after=self._REPORT_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert ran in proc.stdout
        assert proc.stdout.rstrip().endswith("numpy loaded: False")

    def test_batch_engine_without_numpy_names_the_extra(self):
        proc = _cli_subprocess(["run", "mp", "--chip", "Titan",
                                "--engine", "batch"],
                               before=self._BLOCK_NUMPY)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        (line,) = proc.stderr.splitlines()
        assert "repro[batch]" in line

    @pytest.mark.parametrize("argv", (
        ["run", "mp", "--chip", "Titan"],
        ["verify", "--scenario", "deque-mp", "--chips", "Titan"],
    ))
    def test_other_engines_run_without_numpy(self, argv):
        proc = _cli_subprocess(argv, before=self._BLOCK_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
