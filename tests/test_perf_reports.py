"""The BENCH_*.json harness end to end: ``benchmarks/bench_perf.py``.

Every benchmark measures one micro cell through the driver with each of
its gates forced, and the report it writes must keep the layout (top
level, cell and summary keys, in order) of the tracked report and of
its CI baseline — ``compare`` pairs cells by these keys and CI diffs
fresh reports against the baselines.  ``compare`` must fail a report
that lost a baseline cell or a measured column, not only one whose
speedups regressed.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os

import pytest

from repro import perf
from repro.errors import ReproError
from repro.perf import harness
from repro.sim import have_numpy

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "bench_perf", os.path.join(_ROOT, "benchmarks", "bench_perf.py"))
bench_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_perf)

#: kind -> (corpora, micro cell, gate flags forced to 1000, the FAIL
#: text each forced gate prints).
_MICRO = {
    "engine": (perf.ENGINE_CORPORA, ("mp", "Titan"),
               ["--iterations", "50", "--repeats", "1"],
               {"--min-speedup": ": speedup_warm",
                "--min-batch-speedup": ": batch_speedup_warm"}),
    "apps": (perf.APP_CORPORA, ("deque-lb", "HD7970"),
             ["--runs", "300", "--repeats", "1"],
             {"--min-speedup": ": speedup_warm",
              "--min-batch-speedup": ": batch_speedup_warm"}),
    "model": (perf.MODEL_CORPORA, ("library", "mp"), ["--repeats", "1"],
              {"--min-speedup": "mp under ptx: speedup"}),
    "exhaust": (perf.EXHAUST_CORPORA, ("scenario", "deque-mp", "Titan"),
                ["--workers", "2"],
                {"--min-reduction": "total reduction",
                 "--min-balance": "balance bound"}),
}


def _run(argv):
    """``bench_perf.main(argv)`` -> (exit status, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        status = bench_perf.main(argv)
    return status, stderr.getvalue()


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _layout(report):
    return (list(report), list(report["cells"][0]), list(report["summary"]))


class _SteppedClock:
    """Stands in for the ``time`` module :func:`repro.perf.harness.timed`
    reads: each ``perf_counter`` reading advances one fixed step, so
    every timed call lasts one step and the warm-vs-cold check of a
    ~10 ms micro cell cannot trip on a busy host."""

    STEP = 0.01

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += self.STEP
        return self.now


@pytest.fixture(scope="module", params=sorted(_MICRO))
def measured(request, tmp_path_factory):
    """One benchmark's micro cell measured with every gate forced, on a
    stepped clock: (kind, exit status, stderr, report path)."""
    kind = request.param
    corpora, cell, flags, gates = _MICRO[kind]
    if kind in ("engine", "apps") and not have_numpy():
        pytest.skip("the tracked layout has batch columns (needs numpy)")
    path = str(tmp_path_factory.mktemp(kind) / ("BENCH_%s.json" % kind))
    argv = [kind, "--corpus", "tiny", "--output", path] + flags
    for gate in gates:
        argv += [gate, "1000"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(corpora, "tiny", (cell,))
        patch.setattr(harness, "time", _SteppedClock())
        status, stderr = _run(argv)
    return kind, status, stderr, path


def test_report_keeps_the_tracked_layout(measured):
    kind, _, _, path = measured
    layout = _layout(_load(path))
    assert layout == _layout(_load(os.path.join(
        _ROOT, "benchmarks", "baselines", "BENCH_%s.tiny.json" % kind)))
    assert layout == _layout(_load(os.path.join(_ROOT,
                                                "BENCH_%s.json" % kind)))


def test_every_forced_gate_fails_the_run(measured):
    kind, status, stderr, _ = measured
    assert status == 1
    fails = [line for line in stderr.splitlines()
             if line.startswith("FAIL: ")]
    for text in _MICRO[kind][3].values():
        assert any(text in line for line in fails), (text, stderr)
    # Only the forced gates fire: the cross-checks all held.
    assert "diverged" not in stderr


def test_report_compared_with_itself_passes(measured):
    _, _, _, path = measured
    assert _run(["compare", path, path]) == (0, "")


_BASELINE = os.path.join(_ROOT, "benchmarks", "baselines",
                         "BENCH_apps.tiny.json")


def _edited_baseline(tmp_path, edit):
    report = copy.deepcopy(_load(_BASELINE))
    edit(report)
    path = tmp_path / "BENCH_apps.json"
    path.write_text(json.dumps(report))
    return str(path)


def test_compare_gates_on_the_threshold(tmp_path):
    def halve_warm_speedups(report):
        for cell in report["cells"]:
            cell["speedup_warm"] /= 2
    new = _edited_baseline(tmp_path, halve_warm_speedups)
    assert _run(["compare", _BASELINE, new, "--threshold", "0.6"]) == (0, "")
    status, stderr = _run(["compare", _BASELINE, new, "--threshold", "0.4"])
    assert status == 1
    # Each of the three cells, and the geomean.
    assert stderr.count("FAIL: ") == 4
    assert "FAIL: geomean speedup_warm regressed" in stderr


def test_compare_fails_a_report_that_lost_cells(tmp_path):
    def drop_two_cells(report):
        del report["cells"][1:]
    status, stderr = _run(["compare", _BASELINE,
                           _edited_baseline(tmp_path, drop_two_cells)])
    assert status == 1
    assert "FAIL: deque-lb/HD7970 " in stderr
    assert "FAIL: ticket/TesC " in stderr


def test_compare_fails_a_report_that_lost_columns(tmp_path):
    def unmeasure_batch(report):
        for cell in report["cells"]:
            for key in cell:
                if key.startswith("batch_"):
                    cell[key] = None
    new = _edited_baseline(tmp_path, unmeasure_batch)
    result = perf.compare_reports(_load(_BASELINE), _load(new))
    assert result.lost == tuple(
        "%s/%s %s" % (cell["scenario"], cell["chip"], column)
        for cell in sorted(_load(_BASELINE)["cells"],
                           key=lambda cell: cell["scenario"])
        for column in ("batch_speedup_cold", "batch_speedup_warm"))
    status, stderr = _run(["compare", _BASELINE, new])
    assert status == 1
    assert stderr.count("FAIL: ") == 6


def _edited_copy(tmp_path, name, field, value):
    report = _load(os.path.join(_ROOT, "benchmarks", "baselines", name))
    report[field] = value
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return os.path.join(_ROOT, "benchmarks", "baselines", name), str(path)


def _refused(old, new, message):
    with pytest.raises(ReproError, match=message):
        perf.compare_reports(_load(old), _load(new))
    # The command exits 1 with that one line, as for two benchmarks.
    with pytest.raises(SystemExit, match=message):
        _run(["compare", old, new])


def test_compare_refuses_reports_of_two_models(tmp_path):
    old, new = _edited_copy(tmp_path, "BENCH_model.tiny.json", "model", "sc")
    _refused(old, new, "model 'ptx' and model 'sc'")


def test_compare_refuses_reports_of_two_loop_bounds(tmp_path):
    old, new = _edited_copy(tmp_path, "BENCH_exhaust.tiny.json",
                            "loop_bound", 5)
    _refused(old, new, "loop_bound 3 and loop_bound 5")


def test_compare_ignores_exhaust_columns_without_a_baseline_value():
    # The dpor-only cells' reduction is 0.0 (naive leg skipped) and
    # wall_speedup is a timing: neither may count as lost.
    baseline = _load(os.path.join(_ROOT, "benchmarks", "baselines",
                                  "BENCH_exhaust.tiny.json"))
    new = copy.deepcopy(baseline)
    for cell in new["cells"]:
        cell["wall_speedup"] = None
        if cell["dpor_only"]:
            cell["reduction"] = None
    result = perf.compare_reports(baseline, new)
    assert result.lost == () and result.failures(0.05) == []
