"""Timing harness for the simulation engines (``BENCH_engine.json`` and
``BENCH_apps.json``).

Measures, per cell of a pinned corpus, how many runs per second each
engine sustains — iterations of a ``(test, chip)`` litmus cell for the
engine benchmark, launches of a ``(scenario, chip)`` application cell
for the apps benchmark:

* ``reference`` — the generic interpreter of
  :class:`~repro.sim.machine.GpuMachine`;
* ``fast (cold)`` — one :func:`~repro.sim.compile.compile_cell` pass
  *plus* the run, i.e. what a process-pool worker pays on its first
  shard of a cell;
* ``fast (warm)`` — the compiled cell reused, i.e. the steady state of
  every campaign (all shards after the first, and every cell a
  session's in-process memo already holds; for app cells, spin-loop
  kernels compiled once and machine state reused across launches);
* ``batch (cold/warm)`` — the numpy lockstep lowering of
  :mod:`repro.sim.batch`, same cold/warm split (skipped, with null
  fields, when numpy is not installed).

Each timed run also cross-checks the engine contracts: reference and
fast must produce bit-identical same-seed histograms (and, on scenario
cells, identical loss counts), and the batch engine's histogram must
stay distribution-equivalent to theirs (total variation distance
within the sampling-noise envelope for the cell's run count; on
scenario cells it must also agree on the loss verdict) — so a perf
number can never come from a semantically diverged engine.

Litmus cells time all five configurations round-robin.  Scenario cells
time the reference engine first, then each cold/warm pair under the
warm-floor invariant (:func:`_warm_checked`).

``benchmarks/bench_perf.py engine`` and ``benchmarks/bench_perf.py
apps`` write the reports; CI runs their tiny corpora as perf-smoke
gates and fails if the fast engine loses to the reference engine or
the batch engine loses to the fast engine, and the README's
Performance section quotes them.
"""

import random
from dataclasses import dataclass
from functools import partial

from ..apps.backend import DEFAULT_APP_SHARD_SIZE
from ..apps.scenario import get_scenario
from ..errors import ReproError
from ..harness.histogram import Histogram
from ..harness.incantations import best_for, efficacy
from ..litmus import library
from ..sim.batch import compile_batch_cell, have_numpy
from ..sim.chip import CHIPS
from ..sim.compile import compile_cell
from ..sim.engine import run_batch
from ..sim.machine import GpuMachine
from .harness import geomean, timed

#: Report schema version of both reports (bump on layout changes).  v2
#: added the batch engine columns.
SCHEMA_VERSION = 2

#: The engine corpora.  ``pinned``: one cell per behaviour class the
#: simulator spends its cycles on — plain message passing, the
#: load-load hazard, AMD's R->W reordering, store buffering, atomics,
#: ``.ca`` loads on a Fermi chip (fence bypasses and the L1's line
#: draws) and a spin-loop test, on chips chosen so every
#: vendor/architecture family with distinct switch sets is represented.
#: ``tiny``: the CI-sized subset for the perf-smoke job.
ENGINE_CORPORA = {
    "pinned": (
        ("mp", "Titan"),
        ("coRR", "GTX5"),
        ("lb", "HD7970"),
        ("sb", "TesC"),
        ("cas-sl", "GTX6"),
        ("dlb-mp", "Titan"),
        ("mp-L1", "TesC"),
        ("sl-future", "Titan"),
    ),
    "tiny": (
        ("mp", "Titan"),
        ("coRR", "GTX5"),
        ("lb", "HD7970"),
        ("mp-L1", "TesC"),
    ),
}

#: The app corpora.  ``pinned``: one cell per scenario shape the
#: campaign layer spends its cycles on — CAS spin locks (CAS loop +
#: atomics), the exchange lock, an intra-CTA critical section, the
#: branchy deque steals (predicated If bodies), the two-slot round trip
#: (the largest kernel pair), the ticket lock (volatile spin + plain
#: handoff) and the isolation read, on chips covering both vendors and
#: the strong/weak switch sets.  ``tiny``: the CI-sized subset.
APP_CORPORA = {
    "pinned": (
        ("dot-cbe", "Titan"),
        ("dot-so", "HD7970"),
        ("dot-heyu-cta", "TesC"),
        ("isolation", "Titan"),
        ("deque-mp", "Titan"),
        ("deque-lb", "HD7970"),
        ("deque-rt", "GTX6"),
        ("ticket", "TesC"),
    ),
    "tiny": (
        ("dot-cbe", "Titan"),
        ("deque-lb", "HD7970"),
        ("ticket", "TesC"),
    ),
}

#: Default intensity for timed app cells (the campaign default).
BENCH_INTENSITY = 100.0

#: Default launches per timed app cell: one campaign shard.  The bench
#: times the unit the session layer actually dispatches — and the
#: batch engine sizes its chunks adaptively within that width, so
#: timing a narrower slice would understate the lockstep density a
#: real campaign shard enjoys.
BENCH_APP_RUNS = DEFAULT_APP_SHARD_SIZE

#: A warm pass reuses what the matching cold pass had to build, so it
#: can only lose to cold through measurement noise; re-measure up to
#: this many times before declaring a persistent inversion an error.
_WARM_FLOOR = 0.9
_WARM_RETRIES = 2


@dataclass(frozen=True)
class EngineBenchCell:
    """Measured rates for one (test, chip) cell, iterations/second."""

    test: str
    chip: str
    iterations: int
    reference_ips: float
    fast_cold_ips: float      #: includes the one-off compile
    fast_warm_ips: float      #: compiled cell reused (steady state)
    speedup_cold: float
    speedup_warm: float
    identical: bool           #: same-seed histograms matched exactly
    #: Batch-engine columns (None when numpy is not installed).  The
    #: speedups are measured against the *fast warm* rate, and
    #: ``batch_equivalent`` records the distribution-equivalence
    #: cross-check (total variation distance vs the fast histogram
    #: within the sampling-noise envelope).
    batch_cold_ips: float = None
    batch_warm_ips: float = None
    batch_speedup_cold: float = None
    batch_speedup_warm: float = None
    batch_tvd: float = None
    batch_equivalent: bool = None


@dataclass(frozen=True)
class AppBenchCell:
    """Measured rates for one (scenario, chip) cell, launches/second."""

    scenario: str
    chip: str
    runs: int
    losses: int               #: loss-predicate observations (both engines)
    reference_lps: float
    fast_cold_lps: float      #: includes the one-off compile
    fast_warm_lps: float      #: compiled cell reused (steady state)
    speedup_cold: float
    speedup_warm: float
    identical: bool           #: same-seed histograms + losses matched
    #: Batch-engine columns (None when numpy is not installed).
    #: Speedups are against the fast warm rate; ``batch_equivalent``
    #: couples the distribution cross-check with loss-verdict agreement.
    batch_cold_lps: float = None
    batch_warm_lps: float = None
    batch_speedup_cold: float = None
    batch_speedup_warm: float = None
    batch_losses: int = None
    batch_tvd: float = None
    batch_equivalent: bool = None


def tvd(counts_a, counts_b, iterations):
    """Total variation distance between two outcome histograms."""
    states = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(state, 0) - counts_b.get(state, 0))
                     for state in states) / max(iterations, 1)


def tvd_envelope(iterations):
    """Acceptance envelope for the batch distribution cross-check.

    Two same-distribution multinomial samples of size N have expected
    TVD on the order of ``1/sqrt(N)``; a genuinely diverged engine
    (a wrong transition rule shifts whole states) lands an order of
    magnitude higher.  The floor keeps small CI-sized runs meaningful.
    """
    return 0.05 + 2.0 / max(iterations, 1) ** 0.5


def _factories(test, chip, intensity, shuffle=False):
    """The reference, fast and batch builders of one cell (the batch
    builder takes an optional pre-analysed lowering ``plan=``)."""
    return tuple(partial(build, test, chip, intensity=intensity,
                         shuffle_placement=shuffle)
                 for build in (GpuMachine, compile_cell, compile_batch_cell))


def _warm(machine, seed):
    """Pre-touch a built machine; returns its (warm) builder."""
    run_batch(machine, 50, random.Random(seed))
    return lambda: machine


def _timed_pass(builds, runs, seed, repeats):
    """Best-of-``repeats`` round-robin timing of ``runs`` same-seed runs
    per builder.  A builder's call lands inside the timed region — that
    is how a cold pass is charged its compile.  Every repeat reseeds
    identically, so each builder's counts are the same every time.
    Returns ``[(seconds, counts), ...]`` in input order."""
    def measure(build):
        return lambda: run_batch(build(), runs, random.Random(seed)).counts
    return timed([measure(build) for build in builds], repeats)


def _warm_checked(label, builds, runs, seed, repeats):
    """:func:`_timed_pass` of a ``[cold, warm]`` builder pair under the
    warm-floor invariant ``warm rate >= _WARM_FLOOR * cold rate``.  On
    an inversion the whole pair is re-measured (either side may have
    eaten the noise), a bounded number of times."""
    for _ in range(_WARM_RETRIES + 1):
        cold, warm = _timed_pass(builds, runs, seed, repeats)
        if warm[0] * _WARM_FLOOR <= cold[0]:
            return cold, warm
    raise ReproError(
        "warm-vs-cold inversion persists for %s: warm "
        "%.4fs vs cold %.4fs (floor %.0f%%) after %d re-measures — "
        "the warm pass is re-lowering instead of reusing its plan"
        % (label, warm[0], cold[0], 100 * _WARM_FLOOR, _WARM_RETRIES))


def _batch_columns(unit, runs, fast, cold, warm):
    """The batch engine's rates (``unit``: ``ips``/``lps``), its
    speedups over the fast warm rate, and the distribution cross-check
    of its warm histogram against the fast one.  ``fast``, ``cold`` and
    ``warm`` are the ``(seconds, counts)`` of the fast warm pass and of
    the batch cold and warm passes."""
    (fast_seconds, fast_counts), (cold_seconds, _), \
        (warm_seconds, batch_counts) = fast, cold, warm
    distance = tvd(fast_counts, batch_counts, runs)
    return {"batch_cold_" + unit: runs / cold_seconds,
            "batch_warm_" + unit: runs / warm_seconds,
            "batch_speedup_cold": fast_seconds / cold_seconds,
            "batch_speedup_warm": fast_seconds / warm_seconds,
            "batch_tvd": distance,
            "batch_equivalent": distance <= tvd_envelope(runs)}


def bench_cell(test_name, chip_short, iterations=2000, seed=0, repeats=3):
    """Measure one litmus cell; returns an :class:`EngineBenchCell`."""
    test = library.build(test_name)
    chip = CHIPS[chip_short]
    incantations = best_for(chip.vendor, test.idiom or "mp")
    reference, compiled, batched = _factories(
        test, chip, efficacy(chip.vendor, test.idiom or "mp", incantations),
        incantations.thread_rand)
    builds = [reference, compiled, _warm(compiled(), seed)]
    if have_numpy():
        builds += [batched, _warm(batched(), seed)]
    results = _timed_pass(builds, iterations, seed, repeats)
    (ref_seconds, ref_counts), (cold_seconds, cold_counts), \
        (warm_seconds, warm_counts) = results[:3]
    batch = (_batch_columns("ips", iterations, *results[2:])
             if have_numpy() else {})
    return EngineBenchCell(
        test=test_name, chip=chip_short, iterations=iterations,
        reference_ips=iterations / ref_seconds,
        fast_cold_ips=iterations / cold_seconds,
        fast_warm_ips=iterations / warm_seconds,
        speedup_cold=ref_seconds / cold_seconds,
        speedup_warm=ref_seconds / warm_seconds,
        identical=(ref_counts == cold_counts == warm_counts),
        **batch)


def bench_app_cell(scenario_name, chip_short, runs=BENCH_APP_RUNS, seed=0,
                   intensity=BENCH_INTENSITY, repeats=3):
    """Measure one scenario cell; returns an :class:`AppBenchCell`."""
    test = get_scenario(scenario_name).test()
    reference, compiled, batched = _factories(test, CHIPS[chip_short],
                                              intensity)
    label = "%s/%s" % (scenario_name, chip_short)

    def losses(counts):
        return Histogram(dict(counts)).observations(test.condition)

    (ref_seconds, ref_counts), = _timed_pass([reference], runs, seed,
                                             repeats)
    (cold_seconds, cold_counts), fast = _warm_checked(
        label + " fast", [compiled, _warm(compiled(), seed)], runs, seed,
        repeats)
    warm_seconds, warm_counts = fast
    ref_losses = losses(ref_counts)
    identical = (ref_counts == cold_counts == warm_counts
                 and ref_losses == losses(warm_counts))

    batch = {}
    if have_numpy():
        # The warm cell reuses the cold pass's memoized analysis plan —
        # the steady state of a campaign worker behind the plan cache —
        # so a warm deficit can only be measurement noise (and trips
        # the warm-floor check rather than landing in the report).
        warm_batch = _warm(batched(plan=batched().plan()), seed)
        cold, warm = _warm_checked(label + " batch", [batched, warm_batch],
                                   runs, seed, repeats)
        batch = _batch_columns("lps", runs, fast, cold, warm)
        batch_losses = losses(warm[1])
        # Loss-*verdict* agreement, not loss-count equality: counts are
        # statistical, so only a decisive loss mass may contradict a
        # zero on the other engine.
        decisive = max(ref_losses, batch_losses) >= 5
        verdict_ok = (not decisive) or ((ref_losses > 0)
                                        == (batch_losses > 0))
        batch.update(batch_losses=batch_losses,
                     batch_equivalent=batch["batch_equivalent"]
                     and verdict_ok)

    return AppBenchCell(
        scenario=scenario_name, chip=chip_short, runs=runs,
        losses=ref_losses,
        reference_lps=runs / ref_seconds,
        fast_cold_lps=runs / cold_seconds,
        fast_warm_lps=runs / warm_seconds,
        speedup_cold=ref_seconds / cold_seconds,
        speedup_warm=ref_seconds / warm_seconds,
        identical=identical,
        **batch)


def bench_engines(corpus, iterations=2000, seed=0, repeats=3):
    """Measure every litmus cell; returns a list of cells."""
    return [bench_cell(test, chip, iterations=iterations, seed=seed,
                       repeats=repeats)
            for test, chip in corpus]


def bench_apps(corpus, runs=BENCH_APP_RUNS, seed=0,
               intensity=BENCH_INTENSITY, repeats=3):
    """Measure every scenario cell; returns a list of cells."""
    return [bench_app_cell(scenario, chip, runs=runs, seed=seed,
                           intensity=intensity, repeats=repeats)
            for scenario, chip in corpus]


def summarize(cells):
    """Aggregate stats over measured litmus or scenario cells
    (geomean/min speedups)."""
    warm = [cell.speedup_warm for cell in cells]
    cold = [cell.speedup_cold for cell in cells]
    summary = {
        "cells": len(cells),
        "geomean_speedup_warm": round(geomean(warm), 3),
        "geomean_speedup_cold": round(geomean(cold), 3),
        "min_speedup_warm": round(min(warm), 3) if warm else 0.0,
        "min_speedup_cold": round(min(cold), 3) if cold else 0.0,
        "all_identical": all(cell.identical for cell in cells),
    }
    batch_warm = [cell.batch_speedup_warm for cell in cells
                  if cell.batch_speedup_warm is not None]
    if batch_warm:
        # Batch speedups are measured against the fast warm rate, not
        # against the reference engine.
        summary["geomean_batch_speedup_warm"] = round(
            geomean(batch_warm), 3)
        summary["min_batch_speedup_warm"] = round(min(batch_warm), 3)
        summary["all_batch_equivalent"] = all(
            cell.batch_equivalent for cell in cells
            if cell.batch_equivalent is not None)
    return summary


def render_table(cells):
    """Human-readable comparison table for the console."""
    from .._util import format_table

    scenario = any(isinstance(cell, AppBenchCell) for cell in cells)
    unit = "lps" if scenario else "ips"

    def opt(value, fmt):
        return "-" if value is None else fmt % value

    rows = []
    for cell in cells:
        rows.append(
            ([cell.scenario, cell.chip, cell.runs, cell.losses] if scenario
             else [cell.test, cell.chip, cell.iterations])
            + ["%.0f" % getattr(cell, "reference_" + unit),
               "%.0f" % getattr(cell, "fast_warm_" + unit),
               opt(getattr(cell, "batch_warm_" + unit), "%.0f"),
               "%.2fx" % cell.speedup_cold,
               "%.2fx" % cell.speedup_warm,
               opt(cell.batch_speedup_warm, "%.2fx"),
               "yes" if cell.identical else "NO",
               ("-" if cell.batch_equivalent is None
                else ("yes" if cell.batch_equivalent else "NO"))])
    label = "l/s" if scenario else "it/s"
    return format_table(
        (["scenario", "chip", "runs", "losses"] if scenario
         else ["test", "chip", "iters"])
        + ["ref " + label, "fast-warm " + label, "batch-warm " + label,
           "fast cold", "fast warm", "batch/fast", "bit-identical",
           "batch-equiv"], rows)
