"""Exhaustive model checking of compiled cells (the GPUMC direction).

The verifier tier of the stack: where campaigns *sample* executions and
the axiomatic model enumerates *candidate graphs*, this package walks
every schedule of the operational semantics —
:mod:`repro.sim.compile`'s compiled cells driven transition by
transition — with persistent-set/sleep-set DPOR pruning, a per-branch
cache of explored states, bounded spin retries, and fence-choice
enumeration, so a fenced scenario can be *verified* (zero losses over
all executions) rather than stress-tested.

Layers:

* :mod:`repro.exhaustive.explore` — the explorer itself
  (:func:`explore_test`, :class:`Explorer`, :class:`ExhaustiveResult`,
  witness traces, the :func:`execution_graph` bridge to the model's
  :class:`~repro.model.relation.IndexedRelation` machinery);
* :mod:`repro.exhaustive.backend` — :class:`ExhaustiveBackend`, the
  :class:`~repro.api.session.Session`-compatible verdict backend with
  fingerprint-keyed caching, whose answer is the exploration's
  :class:`ExhaustiveResult`, counters and first witness included;
* :mod:`repro.exhaustive.verify` — the ``repro-litmus verify`` report
  (:func:`verify_scenarios`, :class:`VerifyReport`).
"""

from .backend import (EXHAUSTIVE_VERSION, ExhaustiveBackend,
                      encode_exhaustive_histogram, exhaustive_session,
                      exhaustive_verdict)
from .explore import (DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS,
                      STRATEGIES, ExhaustiveResult, Explorer, Witness,
                      WitnessEvent, execution_graph, explore_test)
from .verify import VERIFIED_TEXT, VerifyReport, VerifyRow, verify_scenarios

__all__ = [
    "DEFAULT_LOOP_BOUND", "DEFAULT_MAX_TRANSITIONS", "EXHAUSTIVE_VERSION",
    "ExhaustiveBackend", "ExhaustiveResult", "Explorer",
    "STRATEGIES",
    "VERIFIED_TEXT", "VerifyReport", "VerifyRow", "Witness", "WitnessEvent",
    "encode_exhaustive_histogram", "execution_graph", "exhaustive_session",
    "exhaustive_verdict", "explore_test", "verify_scenarios",
]
