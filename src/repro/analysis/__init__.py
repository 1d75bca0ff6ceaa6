"""Static pre-screening analysis: provable races, provable ordering,
spin/divergence diagnostics, and the campaign triage backend.

The analyzer works on lowered PTX thread programs (the same objects the
simulator runs), classifies every conflicting access pair as provably
racy / provably ordered / unknown under the chip's scoped-fence
semantics, and folds the pair verdicts into a per-test verdict:
``racy`` / ``unknown`` / ``clean``.  ``clean`` is a proof, and the
:mod:`~repro.analysis.consistency` cross-checks hold it to that — a
clean scenario must never lose in simulation; a clean litmus test must
stay SC under the PTX model.

Front doors:

* :func:`analyze_test` — analyse one litmus test, full report.
* :class:`AnalysisBackend` / :func:`analysis_session` — the
  :class:`~repro.api.session.Session`-compatible triage backend
  (``make_backend("analysis")`` resolves here).
* :func:`prescreen` / :func:`run_prescreened` — the ``--prescreen``
  flow: skip simulation for provably-clean cells.
* :func:`run_consistency` — the CI cross-check.
"""

from .accesses import (Access, ControlDep, FenceEvent, GuardPoint,
                       ThreadSummary, ValueCond, summarize_test,
                       summarize_thread)
from .backend import (AnalysisBackend, AnalysisMeta, analysis_session,
                      condition_skippable, prescreen, run_prescreened)
from .consistency import (ConsistencyProblem, ConsistencyReport,
                          check_exhaustive, check_library,
                          check_scenarios, run_consistency)
from .races import (CLEAN, ORDERED, RACY, SYNC, UNKNOWN, AnalysisReport,
                    Diagnostic, PairFinding, analyze_test)

__all__ = [
    "Access",
    "AnalysisBackend",
    "AnalysisMeta",
    "AnalysisReport",
    "CLEAN",
    "ConsistencyProblem",
    "ConsistencyReport",
    "ControlDep",
    "Diagnostic",
    "FenceEvent",
    "GuardPoint",
    "ORDERED",
    "PairFinding",
    "RACY",
    "SYNC",
    "ThreadSummary",
    "UNKNOWN",
    "ValueCond",
    "analysis_session",
    "analyze_test",
    "check_exhaustive",
    "check_library",
    "check_scenarios",
    "condition_skippable",
    "prescreen",
    "run_consistency",
    "run_prescreened",
    "summarize_test",
    "summarize_thread",
]
