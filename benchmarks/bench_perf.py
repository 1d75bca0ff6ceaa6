#!/usr/bin/env python
"""Perf benchmarks behind the tracked BENCH_*.json reports, and their diff.

Usage::

    python benchmarks/bench_perf.py engine    # reference/fast/batch, litmus cells
    python benchmarks/bench_perf.py apps      # the same engines, app scenarios
    python benchmarks/bench_perf.py model     # reference/fast model engines
    python benchmarks/bench_perf.py exhaust   # DPOR vs naive enumeration
    python benchmarks/bench_perf.py apps --corpus tiny --runs 2000 \\
        --min-batch-speedup 1.5 --output BENCH_apps.json
    python benchmarks/bench_perf.py compare OLD.json NEW.json --threshold 0.5

Each benchmark runs its pinned corpus (``--corpus tiny``: the CI smoke
subset), prints a table, writes ``BENCH_<benchmark>.json`` (default:
the tracked file at the repo root) and exits 1 with one ``FAIL:`` line
per failed gate:

* a cross-check failed: reference/fast histograms or loss counts that
  are not bit-identical, a batch histogram outside the
  distribution-equivalence envelope or contradicting a loss verdict,
  model allowed sets that differ, or DPOR/naive and serial/parallel
  reachable results that differ (pruning and sharding may never lose a
  state);
* engine, apps, model: a cell's (warm) fast speedup over the reference
  engine is below ``--min-speedup``;
* engine, apps: a cell's batch warm rate is below
  ``--min-batch-speedup`` times its fast warm rate (not measured
  without numpy);
* exhaust: the total naive/DPOR transition reduction over the
  differential cells is below ``--min-reduction``, or a dpor-only
  cell's branch partition admits less than ``--min-balance`` speedup
  at ``--workers`` workers (the deterministic load-balance bound, not a
  wall measurement).

``compare`` pairs the cells of two reports of one benchmark and diffs
their speedup and reduction columns, ratios that divide the machine
out.  It exits 1 if a per-cell or geomean value dropped by more than
``--threshold``, or if the new report lost a cell or a column the old
one measured.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.perf.enginebench import (BENCH_APP_RUNS,  # noqa: E402
                                    BENCH_INTENSITY, SCHEMA_VERSION)
from repro.perf.exhaustbench import (DEFAULT_WORKERS,  # noqa: E402
                                     EXHAUST_SCHEMA_VERSION)
from repro.perf.modelbench import MODEL_SCHEMA_VERSION  # noqa: E402

#: The repo root, where the tracked reports live.
ROOT = os.path.join(os.path.dirname(__file__), "..")


def _write(args, version, cells, summary, digits, head, tail=None):
    output = args.output or os.path.join(ROOT,
                                         "BENCH_%s.json" % args.benchmark)
    perf.write_report(output, dict(version=version,
                                   benchmark=args.benchmark,
                                   corpus=args.corpus, **head),
                      cells, summary, digits, tail)
    print("wrote %s" % os.path.relpath(output))


def _simulated(args, cells, head, tail, name):
    """Report and gate engine or apps cells (``name``: the cell's name
    field)."""
    summary = perf.summarize(cells)
    print(perf.render_table(cells))
    print("geomean fast speedup: %.2fx warm, %.2fx cold (min warm %.2fx)"
          % (summary["geomean_speedup_warm"],
             summary["geomean_speedup_cold"],
             summary["min_speedup_warm"]))
    if "geomean_batch_speedup_warm" in summary:
        print("geomean batch speedup over fast warm: %.2fx (min %.2fx)"
              % (summary["geomean_batch_speedup_warm"],
                 summary["min_batch_speedup_warm"]))
    else:
        print("batch engine not measured (numpy not installed)")
    _write(args, SCHEMA_VERSION, cells, summary, 1, head, tail)

    failures = []
    if not summary["all_identical"]:
        failures.append("engines diverged: some cell's histograms (or "
                        "loss counts) are not bit-identical")
    if summary.get("all_batch_equivalent") is False:
        failures.append("batch engine diverged: some cell failed the "
                        "distribution-equivalence (or loss-verdict) "
                        "cross-check")
    for column, floor in (("speedup_warm", args.min_speedup),
                          ("batch_speedup_warm", args.min_batch_speedup)):
        failures += ["%s on %s: %s %.2fx < %.2fx"
                     % (getattr(cell, name), cell.chip, column,
                        getattr(cell, column), floor)
                     for cell in cells if getattr(cell, column) is not None
                     and getattr(cell, column) < floor]
    return failures


def bench_engine(args):
    cells = perf.bench_engines(
        perf.corpus_by_name(perf.ENGINE_CORPORA, args.corpus),
        iterations=args.iterations, seed=args.seed, repeats=args.repeats)
    return _simulated(args, cells,
                      {"iterations_per_cell": args.iterations,
                       "seed": args.seed},
                      {"repeats": args.repeats}, "test")


def bench_apps(args):
    cells = perf.bench_apps(
        perf.corpus_by_name(perf.APP_CORPORA, args.corpus), runs=args.runs,
        seed=args.seed, intensity=args.intensity, repeats=args.repeats)
    return _simulated(args, cells,
                      {"runs_per_cell": args.runs, "seed": args.seed},
                      {"repeats": args.repeats, "intensity": args.intensity},
                      "scenario")


def bench_model(args):
    cells = perf.bench_model_engines(
        perf.corpus_by_name(perf.MODEL_CORPORA, args.corpus),
        model=args.model, repeats=args.repeats)
    summary = perf.summarize_model(cells)
    print(perf.render_model_table(cells))
    print("geomean speedup: %.2fx (min %.2fx, max %.2fx)"
          % (summary["geomean_speedup"], summary["min_speedup"],
             summary["max_speedup"]))
    _write(args, MODEL_SCHEMA_VERSION, cells, summary, 6,
           {"repeats": args.repeats}, {"model": args.model})
    failures = ([] if summary["all_identical"] else
                ["engines diverged: some cell's allowed sets are not "
                 "identical"])
    return failures + ["%s under %s: speedup %.2fx < %.2fx"
                       % (cell.test, cell.model, cell.speedup,
                          args.min_speedup)
                       for cell in cells if cell.speedup < args.min_speedup]


def bench_exhaust(args):
    cells = perf.bench_exhaust(
        perf.corpus_by_name(perf.EXHAUST_CORPORA, args.corpus),
        loop_bound=args.loop_bound, workers=args.workers)
    summary = perf.summarize_exhaust(cells)
    print(perf.render_exhaust_table(cells))
    print("reduction: %.1fx total (%d -> %d transitions), %.1fx geomean, "
          "%.1fx min / %.1fx max per differential cell"
          % (summary["reduction_total"],
             summary["total_naive_transitions"],
             summary["total_dpor_transitions"],
             summary["reduction_geomean"], summary["min_reduction"],
             summary["max_reduction"]))
    print("parallel: %d dpor-only cells, balance bound >= %.2fx at %d "
          "workers" % (summary["dpor_only_cells"],
                       summary["min_balance_speedup"], args.workers))
    _write(args, EXHAUST_SCHEMA_VERSION, cells, summary, 4,
           {"loop_bound": args.loop_bound})

    failures = []
    if not summary["all_identical"]:
        failures.append("oracles diverged: some cell's DPOR/naive or "
                        "serial/parallel reachable results are not "
                        "identical")
    if summary["reduction_total"] < args.min_reduction:
        failures.append("total reduction %.1fx < %.1fx"
                        % (summary["reduction_total"], args.min_reduction))
    if summary["min_balance_speedup"] < args.min_balance:
        failures.append("balance bound %.2fx < %.2fx at %d workers"
                        % (summary["min_balance_speedup"],
                           args.min_balance, args.workers))
    return failures


def compare(args):
    result = perf.compare_reports(perf.load_report(args.old),
                                  perf.load_report(args.new))
    print("comparing %s -> %s (%s benchmark, threshold %.0f%%)"
          % (args.old, args.new, result.benchmark, args.threshold * 100))
    print(perf.render_compare(result, threshold=args.threshold))
    failures = result.failures(args.threshold)
    if not result.deltas:
        failures.append("no shared speedup metrics to compare")
    return failures


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="benchmark", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", default="pinned",
                        choices=("pinned", "tiny"),
                        help="cell set: pinned (default) or the CI-sized "
                             "tiny subset")
    common.add_argument("--output", default=None,
                        help="where to write the report (default: "
                             "BENCH_<benchmark>.json at the repo root)")
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    timing.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail if any cell's (warm) fast speedup over "
                             "the reference engine is below this "
                             "(default 1.0: the fast engine must never "
                             "lose)")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--min-batch-speedup", type=float, default=1.0,
                          help="fail if any cell's batch warm rate is "
                               "below this multiple of the fast warm rate "
                               "(default 1.0: batch must never lose to "
                               "fast; ignored when numpy is missing)")

    engine = sub.add_parser(
        "engine", parents=[common, timing, sampling],
        help="reference vs fast vs batch engines on (test, chip) cells")
    engine.add_argument("--iterations", type=int, default=25000,
                        help="iterations per engine per cell (default "
                             "25000 — one full production shard, the "
                             "lockstep batch width campaign runs "
                             "actually execute; smaller values "
                             "understate the batch engine's steady "
                             "state)")
    engine.set_defaults(run=bench_engine)

    apps = sub.add_parser(
        "apps", parents=[common, timing, sampling],
        help="the same engines on (scenario, chip) cells, in launches")
    apps.add_argument("--runs", type=int, default=BENCH_APP_RUNS,
                      help="launches per engine per cell (default %d — "
                           "one campaign shard, the unit the session "
                           "layer dispatches; the lockstep batch engine "
                           "sizes its chunks adaptively within this "
                           "width, so small values understate its "
                           "steady state)" % BENCH_APP_RUNS)
    apps.add_argument("--intensity", type=float, default=BENCH_INTENSITY,
                      help="relaxation-intent multiplier (default %g, the "
                           "campaign default)" % BENCH_INTENSITY)
    apps.set_defaults(run=bench_apps)

    model = sub.add_parser(
        "model", parents=[common, timing],
        help="reference vs fast model engines' allowed-set times")
    model.add_argument("--model", default="ptx",
                       help="axiomatic model to check against "
                            "(default ptx)")
    model.set_defaults(run=bench_model)

    exhaust = sub.add_parser(
        "exhaust", parents=[common],
        help="DPOR vs naive enumeration transitions, plus the sharded "
             "parallel leg")
    exhaust.add_argument("--loop-bound", type=int, default=3,
                         help="spin-retry bound per backward branch "
                              "(default 3, the explorer default)")
    exhaust.add_argument("--min-reduction", type=float, default=10.0,
                         help="fail if the corpus-wide total reduction "
                              "(naive/DPOR transitions) is below this "
                              "(default 10)")
    exhaust.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                         help="process-pool width for the parallel leg "
                              "and the balance bound (default %d)"
                              % DEFAULT_WORKERS)
    exhaust.add_argument("--min-balance", type=float, default=2.5,
                         help="fail if any dpor-only cell's branch "
                              "partition admits less than this speedup "
                              "at --workers workers (default 2.5)")
    exhaust.set_defaults(run=bench_exhaust)

    diff = sub.add_parser(
        "compare", help="diff two reports of one benchmark and gate on "
                        "regressions and lost cells")
    diff.add_argument("old", help="baseline BENCH_*.json (e.g. the "
                                  "tracked file at the repo root)")
    diff.add_argument("new", help="freshly measured BENCH_*.json")
    diff.add_argument("--threshold", type=float,
                      default=perf.DEFAULT_THRESHOLD,
                      help="tolerated fractional drop before a delta "
                           "counts as a regression (default %.2f)"
                           % perf.DEFAULT_THRESHOLD)
    diff.set_defaults(run=compare)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        failures = args.run(args)
    except ReproError as error:
        raise SystemExit(str(error))
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
