"""Shared helpers for the figure/table reproduction benchmarks.

Each benchmark regenerates one of the paper's tables or figures on the
simulated chips, prints a paper-vs-measured table, appends it to
``benchmarks/_report/``, and asserts the qualitative *shape*: cells the
paper reports as zero stay (essentially) zero, cells with substantial
counts stay non-zero.  Absolute counts are normalised to obs/100k.

Iteration counts scale with the ``REPRO_ITERS`` environment variable
(default: a CI-sized fraction of the paper's 100k runs).
"""

import os

from repro.api import Session
from repro.harness import default_iterations

REPORT_DIR = os.path.join(os.path.dirname(__file__), "_report")

#: The benchmarks share one memoising Session so a cell that several
#: figures need (same test, chip, incantations, iterations, seed) is
#: simulated once per pytest run.  ``REPRO_JOBS`` shards cells across a
#: worker pool (process workers by default, since the simulator is
#: CPU-bound pure Python; ``REPRO_EXECUTOR=thread`` overrides);
#: ``REPRO_CACHE_DIR`` adds the on-disk tier so repeated benchmark
#: invocations skip simulation entirely.
_SESSION = None


def session():
    global _SESSION
    if _SESSION is None:
        from repro._util import env_int

        _SESSION = Session(
            backend="sim", jobs=env_int("REPRO_JOBS", 1),
            executor=os.environ.get("REPRO_EXECUTOR") or "process",
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)
    return _SESSION

#: The Sec. 5.4 soundness corpus shape shared by the conformance-driven
#: benchmarks (bench_sec44_optcheck feeds its cleared binaries through the
#: same cells bench_sec54_soundness validates, so the shared session's
#: cache serves the overlap once).  The chip sweep is the conformance
#: subsystem's canonical one — also the `repro-litmus soundness` default.
from repro.api.conformance import SOUNDNESS_CHIPS  # noqa: F401  (re-export)

LIBRARY_CG_TESTS = ["mp", "sb", "lb", "coRR", "dlb-lb", "cas-sl",
                    "sl-future", "exch-sl", "lb+membar.ctas",
                    "mp+membar.gls", "dlb-lb+membar.gls"]
SOUNDNESS_SEED = 17


def soundness_runs():
    """Sim iterations per soundness cell (env ``REPRO_SOUNDNESS_RUNS``)."""
    from repro._util import env_int

    return env_int("REPRO_SOUNDNESS_RUNS", 120)


#: Noise allowance (per 100k) for cells the paper reports as zero.
ZERO_CELL_SLACK = 25.0
#: Paper counts below this are too rare to demand at scaled iterations.
RARE_THRESHOLD = 80


def iterations(fallback=2500):
    """Per-cell iteration count (env ``REPRO_ITERS`` overrides)."""
    return default_iterations(fallback)


def report(name, text):
    """Print a reproduction table and persist it for EXPERIMENTS.md."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)


def run_cells(test, chips, iterations_per_cell, seed=0):
    """Run one test across chips under the paper's best incantations.

    Returns ``{chip short: SpecResult}``, served from the shared cached
    session.
    """
    campaign = session().campaign([test], chips, incantations="best",
                                  iterations=iterations_per_cell, seed=seed)
    return {chip: campaign.get(test.name, chip) for chip in chips}


def assert_shape(measured_per_100k, paper_value, context="",
                 iterations_per_cell=None):
    """The reproduction contract: zero cells stay zero, substantial cells
    stay non-zero.  ``paper_value=None`` (the paper's n/a) checks nothing.

    When ``iterations_per_cell`` is given, non-zero is only demanded if
    the paper's rate would statistically yield several counts at this
    sample size (>= 8 expected events); otherwise the coarse
    ``RARE_THRESHOLD`` applies.
    """
    if paper_value is None:
        return
    if paper_value == 0:
        slack = ZERO_CELL_SLACK
        if iterations_per_cell:
            # At small sample sizes a single stray count must not fail.
            slack = max(slack, 1.5 * 100000.0 / iterations_per_cell)
        assert measured_per_100k <= slack, (
            "%s: paper reports 0 but measured %.0f/100k"
            % (context, measured_per_100k))
        return
    if iterations_per_cell:
        expected_counts = paper_value * iterations_per_cell / 100000.0
        if expected_counts < 8:
            return
    elif paper_value < RARE_THRESHOLD:
        return
    assert measured_per_100k > 0, (
        "%s: paper reports %d/100k but measured none"
        % (context, paper_value))


def comparison_rows(results, paper_row, label):
    """Build printable rows: measured vs paper for one test variant."""
    cells = [label]
    for chip, result in results.items():
        published = paper_row.get(chip, "n/a")
        if published is None:
            cells.append("n/a (paper n/a)")
        else:
            cells.append("%.0f (paper %s)" % (result.per_100k, published))
    return cells


def reproduce_figure(benchmark, figure_id, rows, chips, seed=0,
                     iterations_per_cell=None):
    """Reproduce one figure: ``rows`` is a list of (label, test, paper
    dict) triples.  Runs every cell, prints/persists the comparison
    table, asserts the shape, and returns the results.
    """
    from repro._util import format_table

    per_cell = iterations_per_cell or iterations()

    def run():
        return {label: run_cells(test, chips, per_cell, seed=seed)
                for label, test, _ in rows}

    all_results = benchmark.pedantic(run, rounds=1, iterations=1)
    table_rows = [comparison_rows(all_results[label], paper_row, label)
                  for label, _, paper_row in rows]
    table = format_table(["obs/100k"] + list(chips), table_rows)
    report(figure_id, "%s (iterations per cell: %d)\n%s"
           % (figure_id, per_cell, table))
    for label, _, paper_row in rows:
        for chip in chips:
            assert_shape(all_results[label][chip].per_100k,
                         paper_row.get(chip), "%s/%s/%s"
                         % (figure_id, label, chip),
                         iterations_per_cell=per_cell)
    return all_results
