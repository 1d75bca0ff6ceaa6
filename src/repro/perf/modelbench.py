"""Timing harness for the model-checking engines (``BENCH_model.json``).

Measures, per test of a pinned corpus, how long each model engine takes
to compute the complete allowed set under the paper's PTX model:

* ``reference`` — materialise every candidate execution
  (:func:`~repro.model.enumerate.enumerate_executions`) and interpret
  the ``.cat`` text against each;
* ``fast`` — compile the model once and run the pruned,
  consistency-aware enumeration over indexed relations
  (:func:`~repro.model.enumerate.enumerate_allowed`).

Each timed run also cross-checks the parity contract: the two engines
must produce the identical allowed set, so a perf number can never come
from a semantically diverged fast path.

The corpus spans the behaviour classes the axiomatic side spends its
cycles on — the paper's own message-passing/coherence/fence tests, the
RMW-heavy spinlock tests (many symbolic path combinations), and
deep diy cycles of length 6 and 7 whose coherence-permutation blow-up
is exactly what branch pruning exists to tame.  The deep cells are
rebuilt deterministically from a fixed edge pool, so the numbers are
comparable across runs and machines.

``benchmarks/bench_perf.py model`` writes the report as
``BENCH_model.json``; CI uploads it as an artifact and fails if the
fast engine loses to the reference engine, and the README's Performance
section quotes it.
"""

from dataclasses import dataclass

from ..errors import ReproError
from ..litmus import library
from ..model.models import load_model
from .harness import geomean, timed

#: Report schema version (bump on layout changes).
MODEL_SCHEMA_VERSION = 1

#: The model-perf corpora: ``("library", name)`` builds a paper test,
#: ``("deep", name)`` a diy cycle from :func:`deep_corpus_tests`.
#: ``tiny`` is the CI-sized subset for the perf-smoke job (cells with
#: comfortable margins on noisy shared runners, plus one length-6 deep
#: cycle).
MODEL_CORPORA = {
    "pinned": (
        ("library", "mp"),
        ("library", "sb"),
        ("library", "coRR"),
        ("library", "mp+membar.gls"),
        ("library", "lb+membar.ctas"),
        ("library", "cas-sl"),
        ("library", "sl-future"),
        ("deep", "Coe+PosWW+PosWW+PosWW+Rfe+Fre"),
        ("deep", "Coe+PosWW+PosWW+Rfe+Fre+PosWW+PosWW"),
    ),
    "tiny": (
        ("library", "mp"),
        ("library", "coRR"),
        ("library", "mp+membar.gls"),
        ("deep", "Coe+PosWW+PosWW+PosWW+Rfe+Fre"),
    ),
}

#: Deep-cycle edge pool: same-location program-order pairs plus the
#: three communication edges — the smallest pool whose length-6/7
#: cycles pile writes onto few locations (factorial coherence blow-up).
_DEEP_MAX_LENGTH = 7


def _deep_pool():
    from ..diy import coe, fre, po, rfe

    return [po("W", "W", same_loc=True), po("R", "R", same_loc=True),
            rfe(), fre(), coe()]


def deep_corpus_tests():
    """Deterministic name → test map of the deep diy cycles (length up
    to 7 over the fixed pool; first cycle classifying to a name wins)."""
    from ..diy import cycles_up_to
    from ..diy.generate import cycle_to_test
    from ..errors import GenerationError

    tests = {}
    for cycle in cycles_up_to(_deep_pool(), _DEEP_MAX_LENGTH):
        try:
            test = cycle_to_test(cycle)
        except GenerationError:
            continue
        tests.setdefault(test.name, test)
    return tests


def _build_cell_test(kind, name, deep_tests):
    if kind == "library":
        return library.build(name)
    if kind == "deep":
        try:
            return deep_tests[name]
        except KeyError:
            raise ReproError("no deep cycle classifies to %r" % name) \
                from None
    raise ReproError("unknown corpus cell kind %r" % kind)


@dataclass(frozen=True)
class ModelBenchCell:
    """Measured allowed-set times for one (test, model) cell, seconds."""

    test: str
    kind: str                 #: "library" | "deep"
    model: str
    allowed_states: int
    reference_s: float
    fast_s: float
    speedup: float
    identical: bool           #: the engines' allowed sets matched exactly


def bench_model_cell(test, kind, axiomatic, repeats=3, fuel=128):
    """Measure one corpus cell (``kind``: ``library``/``deep``) under a
    loaded model; returns a :class:`ModelBenchCell`."""
    axiomatic.compiled()  # compile outside the timed region (steady state)

    def allowed(engine):
        return lambda: axiomatic.allowed_outcomes(
            test, fuel=fuel, on_fuel="discard", engine=engine)

    (reference_s, reference_set), (fast_s, fast_set) = timed(
        [allowed("reference"), allowed("fast")], repeats)
    return ModelBenchCell(
        test=test.name, kind=kind, model=axiomatic.name,
        allowed_states=len(fast_set),
        reference_s=reference_s, fast_s=fast_s,
        speedup=reference_s / fast_s,
        identical=(set(reference_set) == set(fast_set)))


def bench_model_engines(corpus, model="ptx", repeats=3):
    """Measure every corpus cell; returns a list of cells."""
    needs_deep = any(kind == "deep" for kind, _ in corpus)
    deep_tests = deep_corpus_tests() if needs_deep else {}
    axiomatic = load_model(model)
    return [bench_model_cell(_build_cell_test(kind, name, deep_tests), kind,
                             axiomatic, repeats=repeats)
            for kind, name in corpus]


def summarize_model(cells):
    """Aggregate stats over measured cells (geomean/min speedups)."""
    speedups = [cell.speedup for cell in cells]
    return {
        "cells": len(cells),
        "geomean_speedup": round(geomean(speedups), 3),
        "min_speedup": round(min(speedups), 3) if speedups else 0.0,
        "max_speedup": round(max(speedups), 3) if speedups else 0.0,
        "all_identical": all(cell.identical for cell in cells),
    }


def render_model_table(cells):
    """Human-readable comparison table for the console."""
    from .._util import format_table

    rows = [[cell.test, cell.kind, cell.model, cell.allowed_states,
             "%.1f" % (cell.reference_s * 1000),
             "%.1f" % (cell.fast_s * 1000),
             "%.2fx" % cell.speedup,
             "yes" if cell.identical else "NO"]
            for cell in cells]
    return format_table(
        ["test", "kind", "model", "allowed", "ref ms", "fast ms",
         "speedup", "identical"], rows)
