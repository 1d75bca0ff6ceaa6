"""Paper-style observation tables for figure reproduction."""

from .._util import format_table


def figure_table(title, rows, chips, results, paper=None):
    """Render an obs/100k table like the bottom of Figs. 1-11.

    ``rows`` is a list of (row label, test name) pairs; ``results`` maps
    ``(test name, chip short)`` to SpecResult; ``paper`` optionally maps
    the same keys to the paper's published counts, rendered alongside as
    ``sim (paper N)``.
    """
    headers = ["obs/100k"] + list(chips)
    body = []
    for label, test_name in rows:
        row = [label]
        for chip in chips:
            result = results.get((test_name, chip))
            if result is None:
                row.append("n/a")
                continue
            cell = "%.0f" % result.per_100k
            if paper is not None and (test_name, chip) in paper:
                cell += " (paper %s)" % paper[(test_name, chip)]
            row.append(cell)
        body.append(row)
    return "%s\n%s" % (title, format_table(headers, body))


def conformance_table(tests, chips, cells):
    """Render a Sec. 5.4 soundness grid: one row per test, one column per
    chip.

    ``cells`` maps ``(test name, chip short)`` to any object with a
    ``per_100k`` float and a ``violations`` sequence (the shape of
    :class:`repro.api.conformance.CellConformance`).  Sound cells render
    their obs/100k rate like the figure tables; unsound cells are flagged
    with the number of model-forbidden final states observed.
    """
    headers = ["obs/100k"] + list(chips)
    body = []
    for name in tests:
        row = [name]
        for chip in chips:
            cell = cells.get((name, chip))
            if cell is None:
                row.append("n/a")
            elif cell.violations:
                row.append("%.0f !%d forbidden"
                           % (cell.per_100k, len(cell.violations)))
            else:
                row.append("%.0f" % cell.per_100k)
        body.append(row)
    return format_table(headers, body)


def comparison_line(name, chip, measured, published):
    """One EXPERIMENTS.md-style comparison line."""
    if published == "n/a":
        return "%-24s %-8s measured %8.0f   paper n/a" % (name, chip, measured)
    agree = (measured > 0) == (published > 0)
    verdict = "shape-ok" if agree else "SHAPE-MISMATCH"
    return ("%-24s %-8s measured %8.0f   paper %8d   %s"
            % (name, chip, measured, published, verdict))
