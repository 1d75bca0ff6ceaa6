"""Self-tests of the benchmark (about a minute; not part of tier 1)::

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import ReferenceClock, calibration_work  # noqa: E402
from tracer import MARK, Patch, Tracer, self_times  # noqa: E402


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


def _printed(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "verify", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_printed_end_to_end_metrics_match_benchmark_json():
    result = _printed(0)
    assert result["correct"] and result["failed"] == 0
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _declared("end_to_end")


def test_printed_per_layer_metrics_match_benchmark_json():
    result = _printed(1)
    assert result["correct"] and result["failed"] == 0
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _declared("per_layer")
    # The layers must account for at least 95% of the traced passes.
    attributed = sum(metric["value"] for name, metric
                     in result["metrics"].items()
                     if metric["unit"] == "s"
                     and not name.startswith(("import.", "trace.")))
    unattributed = result["metrics"]["trace.unattributed_s"]["value"]
    assert unattributed < 0.05 * (attributed + unattributed)


def test_layer_table_matches_benchmark_json():
    assert {name: unit for name, unit, *_ in layers.PER_LAYER} \
        == _declared("per_layer")
    assert dict(run.END_TO_END) == _declared("end_to_end")


def test_pass_with_wrong_expected_verdict_counts_as_failed(tmp_path):
    runner = run.Runner(workloads.Verify(workloads.RECORDED_SEED),
                        str(tmp_path))
    runner.cold()
    runner.warm()
    assert (runner.attempted, runner.failed, runner.problems) == (2, 0, [])
    # Expect the first LOST cell to verify.
    runner.expected = dict(runner.expected, lost=runner.expected["lost"][1:])
    runner.warm()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert len(runner.problems) == 1
    assert runner.problems[0].startswith("LOST cells differ")


def test_checks_reject_wrong_verdicts():
    recorded = workloads.load_recorded()
    app = workloads.AppBatch(workloads.RECORDED_SEED)
    losses = {cell: 0 for cell in recorded["app-batch"]["fenced"]
              + recorded["app-batch"]["undecided"]}
    losses.update({cell: 50 for cell in recorded["app-batch"]["decisive"]})
    assert app.check(losses, recorded["app-batch"]) == []
    fenced = recorded["app-batch"]["fenced"][0]
    decisive = recorded["app-batch"]["decisive"][0]
    assert len(app.check(dict(losses, **{fenced: 1}),
                         recorded["app-batch"])) == 1
    assert len(app.check(dict(losses, **{decisive: 0}),
                         recorded["app-batch"])) == 1

    sound = workloads.Soundness(workloads.RECORDED_SEED)
    expected = {"cells": 160, "violations": 0,
                "weak": recorded["soundness"]["weak"]}
    assert sound.check(dict(expected), expected) == []
    assert len(sound.check(dict(expected, violations=1), expected)) == 1
    assert len(sound.check(dict(expected, weak=expected["weak"][1:]),
                           expected)) == 1


def test_warm_pass_that_executes_or_differs_counts_as_failed(tmp_path):
    class Scripted:
        """Passes whose verdicts and executed cells are given."""
        name, seed = "scripted", 0
        passes = iter([({"a": 1}, 3), ({"a": 1}, 0), ({"a": 1}, 2),
                       ({"a": 2}, 0)])

        def expected(self):
            return {}, []

        def run_pass(self, cache_dir):
            scripted = next(self.passes, None)
            if scripted is None:
                raise ValueError("x")
            verdicts, executed = scripted
            return verdicts, {"executed": executed}

        def verdicts(self, report):
            return report

        def check(self, verdicts, expected):
            return []

    runner = run.Runner(Scripted(), str(tmp_path))
    for kind in ("cold", "warm", "warm", "warm", "cold"):
        getattr(runner, kind)()
    assert (runner.attempted, runner.failed) == (5, 3)
    assert runner.problems == ["warm pass executed 2 cells",
                               "warm pass differs from its cold pass",
                               "cold pass raised ValueError: x"]


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()
        raise ValueError

    outer = tracer.wrap(body, "outer")
    tracer.label = "cold"
    try:
        outer()
    except ValueError:
        pass
    # Clock reads: outer 0..5 around inner 1..2 and 3..4.
    assert self_times(tracer.spans) == {"outer": 3, "inner": 2}
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    tracer.label = None
    inner()
    assert len(tracer.spans) == 3


def _traced_callables():
    """Every wrapper reachable from a loaded ``repro`` module or class."""
    found = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "repro" or key.startswith("repro.")):
            continue
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append((key, name))
            if isinstance(value, type):
                found.extend((key, "%s.%s" % (name, attribute))
                             for attribute, member in vars(value).items()
                             if getattr(member, MARK, False))
    return found


def test_traced_run_restores_the_original_callables(tmp_path):
    tracer = Tracer()
    with Patch(tracer, layers.TARGETS) as patch:
        bindings = list(patch.bindings)
        assert len(bindings) > len(layers.TARGETS)
        assert _traced_callables()
        tracer.label = "cold"
        workloads.Verify(workloads.RECORDED_SEED).minimal_pass(str(tmp_path))
        tracer.label = None
    assert {span[0] for span in tracer.spans} >= {
        "exhaustive.verify.self_s", "exhaustive.explore.branch_s",
        "api.cache.put_s", "report.render_s"}
    assert all(getattr(owner, key) is original
               for owner, key, original in bindings)
    assert _traced_callables() == []


def test_reference_clock_runs_at_the_sampled_speed():
    previous = signal.getsignal(signal.SIGALRM)
    clock = ReferenceClock()
    with clock:
        start, wall = clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            calibration_work()
        elapsed, wall = clock() - start, time.perf_counter() - wall
    assert clock.samples >= 20
    # Wall time at the mean sampled speed, less the samples' own time.
    assert 0.7 < elapsed / (wall * clock.mean_speed()) < 1.05
    # Stopped, the clock holds its reading and gives the timer back.
    reading = clock()
    time.sleep(0.02)
    assert clock() == reading
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_import_metrics_parse_importtime_log():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        100 |   _io\n"
           "import time:      2000 |     150000 | numpy\n"
           "import time:       300 |        400 |     numpy.core\n")
    assert layers.import_metrics(log) == {
        "import.total_s": 0.0024, "import.numpy_s": 0.15,
        "import.modules": 3}
