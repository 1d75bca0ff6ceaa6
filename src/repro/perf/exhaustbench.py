"""Pruning harness for the exhaustive explorer (``BENCH_exhaust.json``).

Unlike its engine/model/app siblings this bench's headline metric is not
wall-clock but *transitions explored*: per cell of a pinned corpus it
runs :func:`~repro.exhaustive.explore.explore_test` twice — once with
persistent-set/sleep-set DPOR and once with naive full interleaving
enumeration — and records the reduction factor alongside the soundness
contract (both strategies must reach the *identical* final-state set;
a perf number from a diverged pruned exploration would be meaningless).

The corpus mixes the two regimes the explorer lives in:

* **application scenarios** on a weak chip (Titan), where every thread
  holds several co-enabled reorderable ops (issue order is itself a
  relaxation choice, so DPOR's persistent sets seed dependence
  clusters and the reduction is modest);
* **litmus cells with independent work** — iriw and ``mp-padN``
  (message passing behind N private stores per thread) — where
  commuting transitions dominate and the reduction grows
  combinatorially; GTX280 (in-order, the paper's SC-like control)
  isolates the scheduler-interleaving space from the relaxation space.

Schema v2 adds the parallel dimension.  *DPOR-only* cells (wide windows
whose naive enumeration is intractable — exactly the cells branch
sharding exists for) skip the naive leg and instead measure the
sharded exploration: a ``jobs=workers`` process-pool session per cell
records ``parallel_seconds``/``wall_speedup`` (machine-dependent,
advisory — a single-core CI runner shows ~1x) and ``balance_speedup``,
the deterministic load-balance bound of the branch partition at
``workers`` workers (LPT makespan over per-branch transition counts).
``balance_speedup`` is exact arithmetic over exact counts, so
``bench_perf.py compare`` diffs it across machines like the reduction
columns; wall numbers are excluded there like any other timing.

``benchmarks/bench_perf.py exhaust`` writes the report; CI runs the
tiny corpus in its verify-smoke job and diffs it against the checked-in
baseline with ``bench_perf.py compare``.
"""

import heapq
import time
from dataclasses import dataclass

from ..errors import ReproError
from ..exhaustive.explore import (DEFAULT_LOOP_BOUND, ExhaustiveResult,
                                  Explorer, explore_test)
from .harness import geomean, rounded

#: The exhaust corpora: ``(kind, name, chip)`` cells, where kind is
#: ``scenario`` (registry name) or ``litmus`` (see
#: :func:`exhaust_corpus_test`).  ``tiny`` is the CI-sized subset:
#: ``mp-pad4`` on Titan exceeded the 2M-transition budget before
#: intra-thread independence, so keeping it there makes every CI run a
#: budget gate.
EXHAUST_CORPORA = {
    "pinned": (
        ("scenario", "deque-mp", "Titan"),
        ("scenario", "deque-mp+fenced", "Titan"),
        ("scenario", "isolation", "Titan"),
        ("scenario", "ticket", "Titan"),
        ("scenario", "ticket+fenced", "Titan"),
        ("litmus", "iriw", "GTX280"),
        ("litmus", "iriw", "Titan"),
        ("litmus", "mp-pad2", "Titan"),
        ("litmus", "mp-pad4", "GTX280"),
        ("litmus", "mp-pad6", "GTX280"),
        ("litmus", "mp-pad4", "Titan"),
        ("litmus", "mp-pad8-3t", "Titan"),
        ("litmus", "mp-pad12-3t", "Titan"),
    ),
    "tiny": (
        ("scenario", "deque-mp", "Titan"),
        ("scenario", "ticket+fenced", "Titan"),
        ("litmus", "iriw", "GTX280"),
        ("litmus", "mp-pad4", "GTX280"),
        ("litmus", "mp-pad4", "Titan"),
    ),
}

#: Cells whose naive enumeration is intractable (wide weak-chip
#: windows): the bench skips their naive leg and measures the parallel
#: sharding instead.  These are the "widest cells" of the corpus — the
#: ones the ISSUE-10 acceptance bounds (balance >= 2.5x at 4 workers).
EXHAUST_DPOR_ONLY = frozenset((
    ("litmus", "mp-pad4", "Titan"),
    ("litmus", "mp-pad8-3t", "Titan"),
    ("litmus", "mp-pad12-3t", "Titan"),
))

#: Worker count for the parallel leg (and the balance bound).
DEFAULT_WORKERS = 4

#: Report schema version (bump on layout changes).  v2: dpor-only
#: cells, branch counts, parallel-leg wall numbers and the
#: deterministic ``balance_speedup`` bound.
EXHAUST_SCHEMA_VERSION = 2


def padded_mp(pads, threads=2):
    """Message passing behind ``pads`` private stores per thread.

    The private locations (``a0..``, ``b0..``, ``c0..``) make most
    cross-thread transition pairs commute — the regime DPOR exists for —
    while the mp core (flag ``y`` publishing ``x``) keeps a weak outcome
    for the differential oracles to agree on.  ``threads=3`` adds a
    third thread of pure private stores.
    """
    from ..litmus import parse_litmus
    cols = [
        ["st.cg.s32 [a%d], 1" % i for i in range(pads)]
        + ["st.cg.s32 [x], 1", "st.cg.s32 [y], 1"],
        ["st.cg.s32 [b%d], 1" % i for i in range(pads)]
        + ["ld.cg.s32 r0, [y]", "ld.cg.s32 r1, [x]"],
    ]
    if threads == 3:
        cols.append(["st.cg.s32 [c%d], 1" % i for i in range(pads)])
    height = max(len(col) for col in cols)
    for col in cols:
        col += [""] * (height - len(col))
    rows = "\n".join(" " + " | ".join(row) + " ;" for row in zip(*cols))
    header = " | ".join("T%d" % i for i in range(len(cols)))
    tree = " ".join("(cta (warp T%d))" % i for i in range(len(cols)))
    name = "mp-pad%d" % pads if threads == 2 else "mp-pad%d-%dt" % (pads,
                                                                    threads)
    source = """GPU_PTX %s
"mp behind %d private stores per thread"
{
 1:.reg .s32 r0;
 1:.reg .s32 r1;
}
 %s ;
%s
ScopeTree (grid %s)
exists (1:r0=1 /\\ 1:r1=0)
""" % (name, pads, header, rows, tree)
    return parse_litmus(source)


def exhaust_corpus_test(kind, name):
    """Resolve a corpus cell to a litmus test.

    ``scenario`` names resolve through the app registry (the compiled
    launch test whose condition is the loss predicate); ``litmus`` names
    are ``iriw`` or ``mp-padN[-3t]``.
    """
    if kind == "scenario":
        from ..apps.scenario import get_scenario
        return get_scenario(name).test()
    if kind == "litmus":
        if name == "iriw":
            from ..litmus import iriw
            return iriw()
        if name.startswith("mp-pad"):
            spec = name[len("mp-pad"):]
            threads = 3 if spec.endswith("-3t") else 2
            pads = int(spec[:-3] if spec.endswith("-3t") else spec)
            return padded_mp(pads, threads)
        raise ReproError("unknown exhaust litmus cell %r" % name)
    raise ReproError("unknown exhaust corpus kind %r" % kind)


def balance_bound(branch_transitions, workers):
    """The deterministic speedup bound of the branch partition: total
    work over the LPT (longest-processing-time greedy) makespan at
    ``workers`` workers.

    Exact arithmetic over exact per-branch transition counts — the same
    number on every machine, so it gates "the decomposition admits
    >= Nx" in CI without trusting a runner's core count.
    """
    if not branch_transitions:
        return 1.0
    loads = [0] * max(1, workers)
    for work in sorted(branch_transitions, reverse=True):
        heapq.heappush(loads, heapq.heappop(loads) + work)
    makespan = max(loads)
    return sum(branch_transitions) / makespan if makespan else 1.0


@dataclass(frozen=True)
class ExhaustBenchCell:
    """Measured exploration sizes for one (test, chip) cell."""

    name: str
    chip: str
    kind: str                 #: scenario or litmus
    loop_bound: int
    states: int               #: reachable final states (both strategies)
    losses: int               #: losing executions under DPOR
    bounded: bool             #: DPOR hit the loop bound (its own flag)
    identical: bool           #: differential oracles matched (see bench)
    dpor_transitions: int
    naive_transitions: int    #: 0 on dpor-only cells (naive skipped)
    dpor_executions: int
    naive_executions: int
    reduction: float          #: naive / DPOR transitions; 0 if dpor-only
    dpor_seconds: float
    naive_seconds: float
    dpor_only: bool           #: naive leg skipped (intractable)
    branches: int             #: root-plan entries (parallel shards)
    workers: int              #: pool width of the parallel leg
    parallel_seconds: float   #: sharded process-pool wall (advisory)
    wall_speedup: float       #: dpor_seconds / parallel_seconds (advisory)
    balance_speedup: float    #: deterministic LPT bound at ``workers``


def bench_exhaust_cell(kind, name, chip_short, loop_bound=DEFAULT_LOOP_BOUND,
                       workers=DEFAULT_WORKERS):
    """Measure one corpus cell; returns an :class:`ExhaustBenchCell`.

    The DPOR leg walks the root plan branch by branch (the exact
    decomposition a ``--jobs`` run shards), so the serial wall time,
    the per-branch profile behind ``balance_speedup`` and the parallel
    leg all describe the same work.  ``identical`` asserts every oracle
    pair that ran: DPOR vs naive reachable sets on differential cells,
    and serial vs process-pool merged verdicts (counts and first
    witness) everywhere.  ``bounded`` is DPOR's own flag: naive
    enumeration keeps no state cache and hits the bound on spin cells
    that DPOR explores completely.
    """
    from ..sim.chip import CHIPS
    test = exhaust_corpus_test(kind, name)
    chip = CHIPS[chip_short]
    dpor_only = (kind, name, chip_short) in EXHAUST_DPOR_ONLY

    began = time.perf_counter()
    explorer = Explorer(test, chip, strategy="dpor", loop_bound=loop_bound)
    branches = [explorer.run_branch(index)
                for index in range(len(explorer.root_plan()))]
    dpor = ExhaustiveResult.merge(branches)
    dpor_seconds = time.perf_counter() - began

    # Parallel leg: the same exploration through the session's process
    # pool.  Its merged verdict must reproduce the serial counts and
    # first witness — that is the determinism invariant the parallel
    # mode rests on.
    from ..api.spec import RunSpec
    from ..exhaustive.backend import exhaustive_session, exhaustive_verdict
    spec = RunSpec.make(test, chip, iterations=1, seed=0)
    session = exhaustive_session(jobs=workers, executor="process",
                                 cache=False, loop_bound=loop_bound)
    began = time.perf_counter()
    merged = session.run(spec)
    parallel_seconds = time.perf_counter() - began
    identical = exhaustive_verdict(merged) == dpor

    if dpor_only:
        naive_transitions = naive_executions = 0
        naive_seconds = reduction = 0.0
    else:
        began = time.perf_counter()
        naive = explore_test(test, chip, strategy="naive",
                             loop_bound=loop_bound)
        naive_seconds = time.perf_counter() - began
        identical = identical and naive.reachable == dpor.reachable
        naive_transitions = naive.transitions
        naive_executions = naive.executions
        reduction = naive.transitions / max(1, dpor.transitions)

    return ExhaustBenchCell(
        name=name, chip=chip_short, kind=kind, loop_bound=loop_bound,
        states=len(dpor.reachable), losses=dpor.losses,
        bounded=dpor.bounded, identical=identical,
        dpor_transitions=dpor.transitions,
        naive_transitions=naive_transitions,
        dpor_executions=dpor.executions,
        naive_executions=naive_executions,
        reduction=reduction,
        dpor_seconds=dpor_seconds, naive_seconds=naive_seconds,
        dpor_only=dpor_only, branches=len(branches), workers=workers,
        parallel_seconds=parallel_seconds,
        wall_speedup=dpor_seconds / max(parallel_seconds, 1e-9),
        balance_speedup=balance_bound(
            [branch.transitions for branch in branches], workers))


def bench_exhaust(corpus, loop_bound=DEFAULT_LOOP_BOUND,
                  workers=DEFAULT_WORKERS):
    """Measure every corpus cell; returns a list of cells."""
    return [bench_exhaust_cell(kind, name, chip, loop_bound=loop_bound,
                               workers=workers)
            for kind, name, chip in corpus]


def summarize_exhaust(cells):
    """Aggregate stats, floats rounded as the report records them:
    reduction factors over the differential cells, the balance-bound
    floor over the dpor-only (widest) cells."""
    measured = [cell for cell in cells if not cell.dpor_only]
    wide = [cell for cell in cells if cell.dpor_only]
    total_dpor = sum(cell.dpor_transitions for cell in measured)
    total_naive = sum(cell.naive_transitions for cell in measured)
    return rounded({
        "cells": len(cells),
        "dpor_only_cells": len(wide),
        # The reduction ratio and its totals cover the differential
        # cells only (dpor-only cells have no naive number to divide);
        # the _all total additionally counts the dpor-only work.
        "total_dpor_transitions": total_dpor,
        "total_dpor_transitions_all": sum(c.dpor_transitions
                                          for c in cells),
        "total_naive_transitions": total_naive,
        "reduction_total": total_naive / max(1, total_dpor),
        "reduction_geomean": geomean([cell.reduction
                                      for cell in measured]),
        "min_reduction": min((cell.reduction for cell in measured),
                             default=0.0),
        "max_reduction": max((cell.reduction for cell in measured),
                             default=0.0),
        "all_identical": all(cell.identical for cell in cells),
        "min_balance_speedup": min(
            (cell.balance_speedup for cell in wide or cells), default=1.0),
    }, 4)


def render_exhaust_table(cells):
    """Human-readable comparison table for the console."""
    from .._util import format_table
    rows = [[cell.name, cell.chip, cell.kind, cell.states, cell.losses,
             "yes" if cell.bounded else "no",
             cell.dpor_transitions,
             "-" if cell.dpor_only else cell.naive_transitions,
             "-" if cell.dpor_only else "%.1fx" % cell.reduction,
             cell.branches, "%.2fx" % cell.balance_speedup,
             "%.3fs" % cell.dpor_seconds,
             "-" if cell.dpor_only else "%.3fs" % cell.naive_seconds,
             "yes" if cell.identical else "NO"]
            for cell in cells]
    return format_table(
        ["cell", "chip", "kind", "states", "losses", "bounded",
         "dpor tr", "naive tr", "reduction", "branches", "balance",
         "dpor s", "naive s", "identical"], rows)
