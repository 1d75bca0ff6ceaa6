"""Diff two BENCH_*.json perf-trajectory reports
(``benchmarks/bench_perf.py compare``).

The trajectory files (``BENCH_engine.json``, ``BENCH_model.json``,
``BENCH_apps.json``) record absolute rates *and* engine-relative
speedups.  Absolute rates are machine-dependent — comparing them across
a laptop and a CI runner is noise — so this module diffs the
**speedup** columns (fast vs reference, batch vs fast), which divide
the machine out: the same interpreter overheads appear in numerator and
denominator.  ``BENCH_exhaust.json``'s **reduction** columns (naive vs
DPOR transitions explored) are diffed the same way — they are exact
counts, not timings, so any drop is a real pruning regression.

:func:`compare_reports` pairs cells by identity key (test/scenario x
chip), computes per-cell and geomean ratios ``new / old`` for every
speedup metric the two reports share, and flags any ratio below
``1 - threshold`` as a regression.  A baseline cell missing from the
new report, or a column positive in the baseline but missing, null or
non-positive in the new one, is *lost*: a report that stopped
measuring something must not pass for one that measured it.  CI runs
the comparison against the tracked baselines (nonzero exit on any
failure), so the perf trajectory is machine-checkable instead of a
number in prose.
"""

import json
from dataclasses import dataclass

from ..errors import ReproError
from .harness import geomean

#: Default tolerated fractional drop before a delta counts as a
#: regression.  Speedup ratios still carry scheduler noise even though
#: the machine divides out; 15% covers shared-runner jitter while
#: catching any real (2x-order) regression.
DEFAULT_THRESHOLD = 0.15

#: Cell-identity fields, in priority order, used to pair cells across
#: the two reports.
_KEY_FIELDS = ("test", "scenario", "name", "chip")

#: Report-level settings that change what a cell measures (the model a
#: model report checks, the loop bound an exhaust report explores
#: under): two reports that differ in one measure different things
#: under the same metric names.
_SETTING_FIELDS = ("model", "loop_bound")


def load_report(path):
    """Read one BENCH_*.json file; raises :class:`ReproError` on junk."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ReproError("cannot read perf report %s: %s"
                         % (path, error)) from None
    except ValueError as error:
        raise ReproError("perf report %s is not valid JSON: %s"
                         % (path, error)) from None
    if not isinstance(payload, dict) or "cells" not in payload:
        raise ReproError("perf report %s has no 'cells' list "
                         "(not a BENCH_*.json file?)" % path)
    return payload


def _cell_key(cell):
    return tuple(cell.get(field) for field in _KEY_FIELDS)


def _label(key):
    return "/".join(str(part) for part in key if part is not None)


def _metrics(cell):
    """The speedup/reduction columns of one cell holding positive
    numbers."""
    metrics = set()
    for key, value in cell.items():
        if "speedup" not in key and "reduction" not in key:
            continue
        if "wall" in key:
            # wall_speedup (exhaust v2) is a measured timing ratio —
            # worthless across machines (a single-core runner pins it
            # at ~1x) unlike the exact-count reduction/balance columns.
            continue
        if isinstance(value, (int, float)) and value > 0:
            metrics.add(key)
    return metrics


def _regressed(old, new, threshold):
    return old > 0 and new / old < 1.0 - threshold


@dataclass(frozen=True)
class MetricDelta:
    """One compared speedup column of one paired cell."""

    key: tuple          #: cell identity (test/scenario, chip)
    metric: str
    old: float
    new: float

    @property
    def ratio(self):
        return self.new / self.old

    def regressed(self, threshold):
        return _regressed(self.old, self.new, threshold)


@dataclass(frozen=True)
class CompareResult:
    """Everything :func:`compare_reports` measured."""

    benchmark: str          #: report kind ("engine"/"model"/"apps"/...)
    deltas: tuple           #: per-cell MetricDelta rows
    geomeans: tuple         #: (metric, old geomean, new geomean) rows
    lost: tuple             #: old cells/columns the new report lacks
    only_new: tuple         #: cell keys present only in the new report

    def failures(self, threshold=DEFAULT_THRESHOLD):
        """One message per regression beyond ``threshold`` (per cell and
        per geomean) and per lost cell or column."""
        messages = ["%s %s regressed %.2fx -> %.2fx (%.1f%% < -%.0f%%)"
                    % (_label(delta.key), delta.metric, delta.old,
                       delta.new, (delta.ratio - 1.0) * 100.0,
                       threshold * 100)
                    for delta in self.deltas if delta.regressed(threshold)]
        messages += ["geomean %s regressed %.2fx -> %.2fx" % row
                     for row in self.geomeans
                     if _regressed(row[1], row[2], threshold)]
        messages += ["%s is measured in the old report but not in the "
                     "new one" % lost for lost in self.lost]
        return messages


def compare_reports(old, new):
    """Pair the cells of two loaded reports and diff their speedups.

    Both arguments are parsed report payloads (:func:`load_report`).
    Comparing reports of different benchmarks (engine vs apps), or of
    one benchmark run under different settings (two models, two loop
    bounds), is refused — same-named metrics would measure different
    things.
    """
    kind_old = old.get("benchmark", "?")
    kind_new = new.get("benchmark", "?")
    if kind_old != kind_new:
        raise ReproError(
            "cannot compare a %r report against a %r report"
            % (kind_old, kind_new))
    for field in _SETTING_FIELDS:
        if old.get(field) != new.get(field):
            raise ReproError(
                "cannot compare %s reports run with %s %r and %s %r"
                % (kind_old, field, old.get(field), field, new.get(field)))
    cells_old = {_cell_key(cell): cell for cell in old["cells"]}
    cells_new = {_cell_key(cell): cell for cell in new["cells"]}
    deltas = []
    per_metric = {}
    lost = [_label(key) for key in sorted(set(cells_old) - set(cells_new))]
    for key in sorted(set(cells_old) & set(cells_new)):
        cell_old, cell_new = cells_old[key], cells_new[key]
        metrics_old, metrics_new = _metrics(cell_old), _metrics(cell_new)
        for metric in sorted(metrics_old & metrics_new):
            delta = MetricDelta(key=key, metric=metric,
                                old=float(cell_old[metric]),
                                new=float(cell_new[metric]))
            deltas.append(delta)
            per_metric.setdefault(metric, []).append(delta)
        lost += ["%s %s" % (_label(key), metric)
                 for metric in sorted(metrics_old - metrics_new)]
    geomeans = tuple(
        (metric,
         geomean([delta.old for delta in rows]),
         geomean([delta.new for delta in rows]))
        for metric, rows in sorted(per_metric.items()))
    return CompareResult(
        benchmark=kind_old, deltas=tuple(deltas), geomeans=geomeans,
        lost=tuple(lost),
        only_new=tuple(sorted(set(cells_new) - set(cells_old))))


def render_compare(result, threshold=DEFAULT_THRESHOLD):
    """Human-readable delta table for the console."""
    from .._util import format_table

    rows = []
    for delta in result.deltas:
        rows.append([_label(delta.key), delta.metric,
                     "%.2fx" % delta.old, "%.2fx" % delta.new,
                     "%+.1f%%" % ((delta.ratio - 1.0) * 100.0),
                     "REGRESSED" if delta.regressed(threshold) else "ok"])
    for metric, old, new in result.geomeans:
        change = (new / old - 1.0) * 100.0 if old > 0 else 0.0
        rows.append(["geomean", metric, "%.2fx" % old, "%.2fx" % new,
                     "%+.1f%%" % change,
                     ("REGRESSED" if _regressed(old, new, threshold)
                      else "ok")])
    table = format_table(
        ["cell", "metric", "old", "new", "change", "verdict"], rows)
    if result.only_new:
        table += ("\ncells only in the new report: %s"
                  % ", ".join(_label(key) for key in result.only_new))
    return table
