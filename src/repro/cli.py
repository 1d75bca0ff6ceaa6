"""Command-line interface: ``repro-litmus``.

Subcommands::

    repro-litmus run TEST --chip Titan [--iterations N] [--seed S]
                 [--incantations best|none|stress+sync+random|COLUMN]
                 [--jobs N] [--backend sim|model|model:NAME] [--cache-dir D]
                 [--engine fast|reference|batch]
        Run a litmus test (library name or .litmus file) on a simulated
        chip; print the histogram.  The default incantations are the
        paper's most effective combination; ``--incantations none``
        reproduces the bare Sec. 4.2 configuration.  Under ``--backend
        model``, ``--engine`` picks the model-checking engine.

    repro-litmus campaign TEST [TEST ...] [--chips A B ...] [--jobs N]
                 [--backend ...] [--cache-dir D] [--iterations N]
                 [--prescreen]
        Run a test x chip campaign through one session (sharded across
        workers, memoised by content fingerprint) and print the
        paper-style obs/100k summary table.  ``all`` expands to every
        library test.  ``--prescreen`` statically analyses each test
        first and skips execution for provably-clean cells.

    repro-litmus analyze [TEST ...] [--scenario NAME ...] [--fenced F]
                 [--detail] [--cross-check] [--chips A B ...] [--runs N]
                 [--jobs N] [--cache-dir D]
        Static pre-screening (no simulation): classify every conflicting
        access pair of the named litmus tests and/or app scenarios as
        provably racy / provably ordered / sync-exempt / unknown under
        the scoped-fence semantics, fold them into per-test verdicts,
        and print guard diagnostics (spin deadlock, SIMT warp
        divergence, unordered guards, annulled atomics).
        ``--cross-check`` then holds every clean verdict to its proof
        obligation — clean scenarios must never lose in a simulation
        campaign, clean (data-race-free) litmus tests must stay SC under
        the PTX model — and exits non-zero on any contradiction (the CI
        ``analysis-consistency`` job).

    repro-litmus model TEST [--model ptx] [--model-engine fast|reference]
        Enumerate candidate executions and print the model's verdict.

    repro-litmus witness TEST [--model ptx|none] [--output FILE]
        Render the first weak candidate execution of a test as a
        Graphviz (DOT) graph in the style of Fig. 14 — events as nodes,
        po/rf/co/fr and dependency edges — annotated with the chosen
        model's allowed/forbidden verdict.  Writes to stdout unless
        ``--output`` names a file (pipe into ``dot -Tpdf``).

    repro-litmus app [--scenario NAME ...] [--chips A B ...]
                 [--fenced both|on|off] [--runs N] [--seed S]
                 [--intensity X] [--jobs N] [--engine fast|reference|batch]
                 [--cache-dir D] [--prescreen]
        Run application scenario campaigns (the deque / spin-lock /
        ticket-lock case studies of Secs. 3.2 and 6-7) through the
        sharded app backend and print the losses-per-100k grid.
        ``--scenario`` takes registry names or families (``all`` runs
        the whole registry); ``--fenced`` filters to the published
        (``off``) or fixed (``on``) variants.  A cell whose every
        execution reaches one projected final state (a DPOR proof) is
        answered exactly instead of sampled; the ``session:`` line
        counts these ``proved`` cells among those executed.

    repro-litmus list
        List the library tests, chips, models and application scenarios.

    repro-litmus generate [--length 4] [--max-tests N] [--fences cta gl sys]
                 [--scopes dev cta]
        Generate litmus tests with diy and print them in deterministic
        (name-sorted) order.  The corpus-shaping flags pick the edge
        pool: ``--fences`` the membar scopes, ``--scopes`` the
        communication-edge scope annotations.

    repro-litmus soundness [corpus flags as for generate, default
                 --fences cta gl] [--chips A B ...] [--iterations N]
                 [--seed S] [--model ptx] [--jobs N] [--cache-dir D]
                 [--chunk-size N]
        The Sec. 5.4 validation campaign: generate the diy corpus, run
        every test on every chip through the sharded session pool, check
        each observed final state against the model's allowed set
        (enumerated once per test, memoised across chips and runs), and
        print the conformance report.  Exits non-zero if any observation
        is model-forbidden.
"""

import argparse
import os
import sys
from collections import Counter

from .api import Session, matrix
from .api.conformance import SOUNDNESS_CHIPS, run_soundness
from .api.result import CampaignResult
from .apps import (FAMILIES, SCENARIOS, STRESS, app_matrix,
                   run_app_campaign, select_scenarios)
from .diy import (default_pool, fences_from_names, generate_tests,
                  scopes_from_names)
from .errors import ReproError
from .harness.runner import default_iterations
from .litmus import library, parse_litmus, write_litmus
from .model.dot import weak_witness_dot
from .model.models import (DEFAULT_MODEL_ENGINE, MODELS, MODEL_ENGINES,
                           load_model)
from .sim.chip import CHIPS, RESULT_CHIPS
from .sim.engine import DEFAULT_ENGINE, ENGINES


def _load_test(spec):
    if os.path.exists(spec):
        with open(spec) as handle:
            return parse_litmus(handle.read())
    if spec in library.PAPER_TESTS:
        return library.build(spec)
    raise SystemExit("unknown test %r (not a file, not a library test; "
                     "see `repro-litmus list`)" % spec)


def _load_tests(specs):
    if list(specs) == ["all"]:
        return [library.build(name) for name in sorted(library.PAPER_TESTS)]
    return [_load_test(spec) for spec in specs]


def _session(args, backend=None):
    """The session a subcommand runs on: ``backend`` (default: the
    ``--backend`` flag) with the pool, cache and engine flags."""
    if backend is None:
        if args.backend == "app":
            raise SystemExit("--backend app runs scenarios, not litmus "
                             "tests; use `repro-litmus app`")
        backend = args.backend
    return Session(backend=backend, jobs=args.jobs, executor=args.executor,
                   cache_dir=args.cache_dir,
                   engine=getattr(args, "engine", None))


def _engine_argument(parser):
    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help="engine of the backend: fast (compiled "
                             "cells, the default; bit-identical to "
                             "reference and several times quicker), "
                             "reference (the generic interpreter), or "
                             "batch (numpy lockstep shards, another "
                             "order of magnitude quicker; distribution-"
                             "equivalent histograms, needs the "
                             "repro[batch] extra; not for --backend "
                             "model) — tracked speedups live in "
                             "BENCH_engine.json and BENCH_model.json")


def _model_engine_argument(parser):
    parser.add_argument("--model-engine", default=None,
                        choices=MODEL_ENGINES,
                        help="model-checking engine: fast (compiled "
                             "model + pruned enumeration, the default) "
                             "or reference (materialise every candidate "
                             "execution) — identical verdicts, speedups "
                             "tracked in BENCH_model.json")


def _pool_parent():
    """The worker-pool and result-cache flags of every subcommand that
    executes cells, shared as an argparse parent."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1,
                        help="worker count for sharded execution")
    parent.add_argument("--executor", default="process",
                        choices=("process", "thread"),
                        help="worker pool kind for --jobs > 1 (default: "
                             "process — the simulator is CPU-bound pure "
                             "Python, so threads cannot speed it up)")
    parent.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache")
    return parent


def _session_arguments(parser):
    parser.add_argument("--backend", default="sim",
                        help="execution backend: sim (default), model, "
                             "model:NAME, analysis (static verdicts), or "
                             "exhaustive (DPOR model checking)")
    _engine_argument(parser)


def _cmd_run(args):
    test = _load_test(args.test)
    result = _session(args).run(test, args.chip,
                                incantations=args.incantations,
                                iterations=args.iterations, seed=args.seed)
    print(result.answer.pretty(test.condition))
    print(result.summary())
    return 0


def _run_prescreened_campaign(specs, session, proof):
    """Static triage, then execution on ``session``: analyse every cell,
    skip the ones the proof covers, print the triage summary, and
    return the assembled :class:`CampaignResult`."""
    from .analysis import AnalysisBackend, run_prescreened
    results, verdicts = run_prescreened(specs, session)
    campaign = CampaignResult()
    verdict_by_test = {}
    skipped = []
    for spec, verdict, result in zip(specs, verdicts, results):
        campaign.add(result)
        verdict_by_test.setdefault(spec.test.name, verdict)
        if result.backend == AnalysisBackend.name:
            skipped.append(spec.test.name)
    counts = Counter(verdict_by_test.values())
    print("prescreen: %s — skipped %d/%d cells"
          % (", ".join("%d %s" % (counts[verdict], verdict)
                       for verdict in ("racy", "unknown", "clean")
                       if verdict in counts),
             len(skipped), len(specs)))
    if skipped:
        print("prescreen: zero observations %s: %s"
              % (proof, ", ".join(sorted(set(skipped)))))
    return campaign


def _cmd_campaign(args):
    tests = _load_tests(args.tests)
    session = _session(args)
    if args.prescreen:
        specs = matrix(tests, args.chips, incantations=args.incantations,
                       iterations=args.iterations, seed=args.seed,
                       engine=session.engine)
        campaign = _run_prescreened_campaign(
            specs, session,
            "by proof (clean, SC-implied, SC-forbidden condition)")
    else:
        campaign = session.campaign(tests, args.chips,
                                    incantations=args.incantations,
                                    iterations=args.iterations,
                                    seed=args.seed)
    print(campaign.summary_table())
    print(campaign.summary())
    stats = session.stats
    print("session: %d cells executed, %d cache hits, %d deduplicated, "
          "%d shards, %d simulated iterations"
          % (stats.executed, stats.cache_hits, stats.deduplicated,
             stats.shards_executed, stats.simulated_iterations))
    return 0


def _cmd_model(args):
    test = _load_test(args.test)
    model = load_model(args.model)
    allowed = model.allowed_outcomes(test, engine=args.model_engine)
    # The model's allows_condition, read off the set already enumerated.
    verdict = any(test.condition.holds(state) for state in allowed)
    print(write_litmus(test))
    print("%d allowed final states under %s:" % (len(allowed), model.name))
    for state in sorted(allowed, key=str):
        print("  %s" % state)
    print("condition %s: %s" % (test.condition,
                                "Allowed" if verdict else "Forbidden"))
    return 0


def _cmd_witness(args):
    test = _load_test(args.test)
    model = None if args.model == "none" else load_model(args.model)
    try:
        dot = weak_witness_dot(test, model=model)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot + "\n")
        print("wrote %s" % args.output, file=sys.stderr)
    else:
        print(dot)
    return 0


def _cmd_verify(args):
    """Exit status mirrors ``app``: nonzero iff a *fenced* scenario
    loses (an unfenced loss is the paper's point)."""
    from .exhaustive import (DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS,
                             ExhaustiveBackend, verify_scenarios)
    scenarios = select_scenarios(args.scenarios, fenced=args.fenced)
    if not scenarios:
        raise ReproError("the scenario selection is empty")
    session = _session(args, ExhaustiveBackend(
        loop_bound=(DEFAULT_LOOP_BOUND if args.loop_bound is None
                    else args.loop_bound),
        max_transitions=(DEFAULT_MAX_TRANSITIONS
                         if args.max_transitions is None
                         else args.max_transitions)))
    report = verify_scenarios(scenarios, args.chips,
                              intensity=args.intensity, session=session,
                              witnesses=not args.no_witness)
    print("exhaustive verification (intensity is structural: any positive "
          "value explores the same space):")
    for line in report.lines():
        print(line)
    stats = session.stats
    print("session: %d cells executed, %d cache hits, %d deduplicated, "
          "%d shards" % (stats.executed, stats.cache_hits,
                         stats.deduplicated, stats.shards_executed))
    return 0 if report.ok else 1


def _cmd_app(args):
    runs = args.runs if args.runs is not None else default_iterations(300)
    scenarios = select_scenarios(args.scenarios, fenced=args.fenced)
    if not scenarios:
        raise ReproError("the scenario selection is empty")
    session = _session(args, "app")
    if args.prescreen:
        specs = app_matrix(scenarios, args.chips, runs=runs, seed=args.seed,
                           intensity=args.intensity, engine=session.engine)
        campaign = _run_prescreened_campaign(specs, session,
                                             "(losses) by proof")
    else:
        campaign = run_app_campaign(scenarios, args.chips, runs=runs,
                                    seed=args.seed, intensity=args.intensity,
                                    session=session)
    print("losses per 100k launches (x%g intensity, %d runs/cell):"
          % (args.intensity, runs))
    print(campaign.summary_table())
    print(campaign.summary())
    lossy_fenced = [key for key in campaign.weak_cells()
                    if SCENARIOS[key[0]].fenced]
    for name, chip in lossy_fenced:
        print("UNEXPECTED: fenced scenario %s lost on %s" % (name, chip))
    stats = session.stats
    print("session: %d cells executed, %d proved, %d cache hits, "
          "%d deduplicated, %d shards, %d launches"
          % (stats.executed, stats.proved, stats.cache_hits,
             stats.deduplicated, stats.shards_executed,
             stats.simulated_iterations))
    if stats.plan_cache_hits or stats.plan_cache_misses:
        print("plan cache: %d hits, %d misses"
              % (stats.plan_cache_hits, stats.plan_cache_misses))
    return 1 if lossy_fenced else 0


def _cmd_analyze(args):
    from .analysis import analyze_test, run_consistency
    tests = _load_tests(args.tests) if args.tests else []
    scenarios = (select_scenarios(args.scenarios, fenced=args.fenced)
                 if args.scenarios else [])
    if not tests and not scenarios:
        raise SystemExit("nothing to analyze: name litmus tests (or 'all') "
                         "and/or select scenarios with --scenario")
    reports = ([analyze_test(scenario.test()) for scenario in scenarios]
               + [analyze_test(test) for test in tests])
    counts = {}
    for report in reports:
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        if args.detail:
            for line in report.lines():
                print(line)
        else:
            print(report.summary())
    print("verdicts: %s"
          % ", ".join("%d %s" % (counts[verdict], verdict)
                      for verdict in ("racy", "unknown", "clean")
                      if verdict in counts))
    if not args.cross_check:
        return 0
    runs = args.runs if args.runs is not None else default_iterations(300)
    consistency = run_consistency(
        scenarios=scenarios, tests=tests, chips=args.chips, runs=runs,
        seed=args.seed, intensity=args.intensity, fuel=args.fuel,
        app_session=_session(args, "app"),
        exhaustive_session=_session(args, "exhaustive"))
    print()
    for line in consistency.lines():
        print(line)
    return 0 if consistency.ok else 1


def _cmd_list(args):
    print("library tests:")
    for name in sorted(library.PAPER_TESTS):
        print("  %s" % name)
    print("chips: %s" % ", ".join(sorted(CHIPS)))
    print("models: %s" % ", ".join(sorted(MODELS)))
    print("sim engines: %s (default %s)" % (", ".join(ENGINES),
                                            DEFAULT_ENGINE))
    print("model engines: %s (default %s)" % (", ".join(MODEL_ENGINES),
                                              DEFAULT_MODEL_ENGINE))
    print("app scenarios (x = published, +fenced = the paper's fix):")
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        print("  %-22s %s [%s]" % (name, scenario.description,
                                   scenario.section))
    print("app scenario families: %s" % ", ".join(FAMILIES))
    return 0


def _corpus_arguments(parser, default_fences, default_max):
    """The corpus-shaping flags shared by ``generate`` and ``soundness``."""
    parser.add_argument("--length", type=int, default=4,
                        help="maximum relaxation-cycle length (default 4)")
    parser.add_argument("--max-tests", "--max", dest="max_tests", type=int,
                        default=default_max,
                        help="cap on generated tests (default %s)"
                             % (default_max if default_max is not None
                                else "unbounded"))
    parser.add_argument("--fences", nargs="*", default=list(default_fences),
                        metavar="SCOPE",
                        help="membar scopes in the edge pool: cta/gl/sys, "
                             "or all/none (default: %s)"
                             % " ".join(default_fences))
    parser.add_argument("--scopes", nargs="*", default=["dev", "cta"],
                        metavar="SCOPE",
                        help="communication-edge scope annotations: dev "
                             "(inter-CTA) and/or cta (default: both)")


def _corpus(args):
    """Build the diy corpus an invocation's corpus flags describe,
    sorted by (unique) test name for deterministic output."""
    if args.length < 2:
        raise SystemExit("--length must be at least 2 (a cycle has two "
                         "edges or more), got %d" % args.length)
    if args.max_tests is not None and args.max_tests < 0:
        raise SystemExit("--max-tests must be 0 or more, got %d"
                         % args.max_tests)
    pool = default_pool(scopes=scopes_from_names(args.scopes),
                        fences=fences_from_names(args.fences))
    tests = generate_tests(pool, max_length=args.length,
                           max_tests=args.max_tests)
    return sorted(tests, key=lambda test: test.name)


def _cmd_generate(args):
    tests = _corpus(args)
    for test in tests:
        print(write_litmus(test))
    print("// %d tests" % len(tests), file=sys.stderr)
    return 0


def _cmd_soundness(args):
    if args.max_rows < 0:
        raise SystemExit("--max-rows must be 0 or more, got %d"
                         % args.max_rows)
    tests = _corpus(args)
    if not tests:
        raise SystemExit("the corpus flags generated no tests")
    iterations = (args.iterations if args.iterations is not None
                  else default_iterations(2500))
    report = run_soundness(
        tests, args.chips, model=args.model, incantations=args.incantations,
        iterations=iterations, seed=args.seed, jobs=args.jobs,
        executor=args.executor, cache_dir=args.cache_dir,
        chunk_size=args.chunk_size, engine=args.engine,
        model_engine=args.model_engine)
    print(report.summary_table(max_rows=args.max_rows))
    print()
    print(report.coverage_table())
    print()
    print(report.summary())
    for line in report.violation_lines():
        print("VIOLATION: %s" % line)
    sim, model = report.sim_stats, report.model_stats
    print("sim session: %d cells executed, %d cache hits, %d shards"
          % (sim["executed"], sim["cache_hits"], sim["shards_executed"]))
    print("model session: %d enumerations, %d cache hits (%d tests)"
          % (model["executed"], model["cache_hits"], len(tests)))
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-litmus",
        description="GPU litmus testing on simulated chips (ASPLOS'15 repro)")
    sub = parser.add_subparsers(dest="command", required=True)
    pool = _pool_parent()

    run = sub.add_parser("run", parents=[pool],
                         help="run a test on a simulated chip")
    run.add_argument("test")
    run.add_argument("--chip", default="Titan", choices=sorted(CHIPS))
    run.add_argument("--iterations", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--incantations", default="best",
                     help="incantation combination: best (default), none "
                          "(bare Sec. 4.2 setup), all, a Table 6 column "
                          "1-16, or flags like stress+sync+random")
    _session_arguments(run)
    run.set_defaults(func=_cmd_run)

    campaign = sub.add_parser(
        "campaign", parents=[pool],
        help="run a test x chip campaign through one session")
    campaign.add_argument("tests", nargs="+",
                          help="library tests / .litmus files, or 'all'")
    campaign.add_argument("--chips", nargs="+", default=list(RESULT_CHIPS),
                          choices=sorted(CHIPS), metavar="CHIP",
                          help="chips to sweep (default: the paper's "
                               "result chips)")
    campaign.add_argument("--iterations", type=int, default=None)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--incantations", default="best",
                          help="as for `run`")
    campaign.add_argument("--prescreen", action="store_true",
                          help="statically analyse each test first; "
                               "provably-clean cells skip execution and "
                               "report zero observations by proof")
    _session_arguments(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    app = sub.add_parser(
        "app", parents=[pool],
        help="run application scenario campaigns (Secs. 3.2, 6-7)")
    app.add_argument("--scenario", "-s", dest="scenarios", nargs="+",
                     default=["all"], metavar="NAME",
                     help="scenario names or families; 'all' (default) "
                          "runs the whole registry (see `repro-litmus "
                          "list`)")
    app.add_argument("--chips", "--chip", dest="chips", nargs="+",
                     default=list(RESULT_CHIPS), choices=sorted(CHIPS),
                     metavar="CHIP",
                     help="chips to sweep (default: the paper's result "
                          "chips)")
    app.add_argument("--fenced", choices=("both", "on", "off"),
                     default="both",
                     help="variant filter: off = published (buggy) code, "
                          "on = the paper's fences, both (default)")
    app.add_argument("--runs", type=int, default=None,
                     help="launches per cell (default: REPRO_ITERS or 300)")
    app.add_argument("--seed", type=int, default=0)
    app.add_argument("--intensity", type=float, default=STRESS,
                     help="relaxation-intent multiplier standing in for "
                          "the paper's stressful workloads (default %g; "
                          "1.0 = bare chip rates)" % STRESS)
    app.add_argument("--prescreen", action="store_true",
                     help="statically analyse each scenario first; "
                          "provably-clean cells skip simulation and "
                          "report zero losses by proof")
    _engine_argument(app)
    app.set_defaults(func=_cmd_app)

    verify = sub.add_parser(
        "verify", parents=[pool],
        help="exhaustively verify scenarios: enumerate every execution "
             "(DPOR-pruned) and prove fenced variants lose zero times",
        description="Exhaustively verify scenarios.  --jobs shards each "
                    "cell's exploration by root branch across the pool "
                    "(and cells fan out like any other campaign); "
                    "verdicts are bit-identical to --jobs 1.  --cache-dir "
                    "holds the verdicts, witnesses included.")
    verify.add_argument("--scenario", "-s", dest="scenarios", nargs="+",
                        default=["all"], metavar="NAME",
                        help="scenario names or families; 'all' (default) "
                             "runs the whole registry")
    verify.add_argument("--chips", "--chip", dest="chips", nargs="+",
                        default=list(RESULT_CHIPS), choices=sorted(CHIPS),
                        metavar="CHIP",
                        help="chips to sweep (default: the paper's result "
                             "chips)")
    verify.add_argument("--fenced", choices=("both", "on", "off"),
                        default="both",
                        help="variant filter: off = published (buggy) code, "
                             "on = the paper's fences, both (default)")
    verify.add_argument("--intensity", type=float, default=1.0,
                        help="relaxation intent (structural: any positive "
                             "value explores the same space, and 0, where "
                             "nothing relaxes, is refused; default 1.0)")
    verify.add_argument("--loop-bound", type=int, default=None,
                        help="spin-retry bound per backward branch "
                             "(default 3); verdicts at the bound carry an "
                             "explicit 'bounded' marker")
    verify.add_argument("--max-transitions", type=int, default=None,
                        help="abort a cell loudly past this many "
                             "transitions (default 2000000)")
    verify.add_argument("--no-witness", action="store_true",
                        help="omit losing execution traces from the output")
    verify.set_defaults(func=_cmd_verify)

    analyze = sub.add_parser(
        "analyze", parents=[pool],
        help="static race/ordering verdicts, no simulation; --cross-check "
             "holds clean verdicts to campaign losses and model "
             "allowed-sets",
        description="Static race/ordering verdicts, no simulation.  "
                    "--jobs, --executor and --cache-dir apply to the "
                    "--cross-check campaign.")
    analyze.add_argument("tests", nargs="*",
                         help="library tests / .litmus files, or 'all'")
    analyze.add_argument("--scenario", "-s", dest="scenarios", nargs="+",
                         default=None, metavar="NAME",
                         help="app scenarios or families to analyse; 'all' "
                              "= the whole registry")
    analyze.add_argument("--fenced", choices=("both", "on", "off"),
                         default="both",
                         help="scenario variant filter, as for `app`")
    analyze.add_argument("--detail", action="store_true",
                         help="print every pair classification, unresolved "
                              "address and guard diagnostic")
    analyze.add_argument("--cross-check", action="store_true",
                         help="run the consistency oracles: clean scenarios "
                              "must never lose in a campaign, clean litmus "
                              "tests must stay SC under the PTX model; "
                              "exits 1 on any contradiction")
    analyze.add_argument("--chips", nargs="+", default=list(RESULT_CHIPS),
                         choices=sorted(CHIPS), metavar="CHIP",
                         help="chips for the cross-check campaign (default: "
                              "the paper's result chips)")
    analyze.add_argument("--runs", type=int, default=None,
                         help="launches per cross-check cell (default: "
                              "REPRO_ITERS or 300)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--intensity", type=float, default=STRESS,
                         help="cross-check campaign intensity (default %g)"
                              % STRESS)
    analyze.add_argument("--fuel", type=int, default=128,
                         help="model enumeration fuel for the library "
                              "cross-check (default 128)")
    analyze.set_defaults(func=_cmd_analyze)

    model = sub.add_parser("model", help="model-check a test")
    model.add_argument("test")
    model.add_argument("--model", default="ptx", choices=sorted(MODELS))
    _model_engine_argument(model)
    model.set_defaults(func=_cmd_model)

    witness = sub.add_parser(
        "witness",
        help="render a test's weak candidate execution as Graphviz DOT")
    witness.add_argument("test")
    witness.add_argument("--model", default="ptx",
                         choices=sorted(MODELS) + ["none"],
                         help="annotate the witness with this model's "
                              "allowed/forbidden verdict, or 'none' for "
                              "the bare graph (default: ptx)")
    witness.add_argument("--output", "-o", default=None, metavar="FILE",
                         help="write the DOT text to FILE instead of "
                              "stdout")
    witness.set_defaults(func=_cmd_witness)

    lst = sub.add_parser("list", help="list tests, chips and models")
    lst.set_defaults(func=_cmd_list)

    gen = sub.add_parser("generate", help="generate tests with diy")
    _corpus_arguments(gen, default_fences=("cta", "gl", "sys"),
                      default_max=20)
    gen.set_defaults(func=_cmd_generate)

    soundness = sub.add_parser(
        "soundness", parents=[pool],
        help="Sec. 5.4: check a diy corpus's observations against a model",
        description="Sec. 5.4: check a diy corpus's observations against "
                    "a model.  The pipeline runs the sim and model "
                    "backends together, so there is no --backend: --jobs "
                    "is shared by the sim shards and the model "
                    "enumerations, and --cache-dir by both backends (a "
                    "second identical run is served from it).")
    _corpus_arguments(soundness, default_fences=("cta", "gl"),
                      default_max=None)
    soundness.add_argument("--chips", nargs="+",
                           default=list(SOUNDNESS_CHIPS),
                           choices=sorted(CHIPS), metavar="CHIP",
                           help="chips to validate on (default: %s)"
                                % " ".join(SOUNDNESS_CHIPS))
    soundness.add_argument("--iterations", type=int, default=None,
                           help="sim iterations per cell (default: "
                                "REPRO_ITERS or 2500; the paper used 100k)")
    soundness.add_argument("--seed", type=int, default=0)
    soundness.add_argument("--model", default="ptx", choices=sorted(MODELS),
                           help="axiomatic reference model (default: ptx)")
    soundness.add_argument("--incantations", default="best",
                           help="as for `run`")
    soundness.add_argument("--chunk-size", type=int, default=64,
                           help="tests per streaming chunk (default 64)")
    soundness.add_argument("--max-rows", type=int, default=40,
                           help="summary-table row cap; violations always "
                                "shown (default 40)")
    _engine_argument(soundness)
    _model_engine_argument(soundness)
    soundness.set_defaults(func=_cmd_soundness)
    return parser


def main(argv=None):
    """Run one subcommand; a :class:`ReproError` exits 1 with its
    message as the one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        raise SystemExit(str(error))


if __name__ == "__main__":
    raise SystemExit(main())
