"""The :class:`AnalysisBackend`: static verdicts behind the campaign API.

The triage tier of the ROADMAP: one verdict per
:class:`~repro.api.spec.RunSpec` / :class:`~repro.apps.scenario.ScenarioSpec`,
delivered through the same :class:`~repro.api.session.Session` machinery
as simulations and model enumerations — fingerprint-keyed caching,
in-plan deduplication, ``Shard.iterations=0`` accounting (an analysis is
not a simulated iteration).

Each result answers with an :class:`AnalysisMeta`
(``result.answer.verdict``), which the disk cache stores as
``{"verdict": ...}``.  Since the signature covers only the litmus text
(which includes the scope tree), a campaign across the seven result
chips analyses each scenario once, like model verdicts.

:func:`prescreen` and :func:`run_prescreened` implement the ``--prescreen``
flow: analyse every spec first, skip simulation for provably-clean cells
(they answer with their verdict, which observes nothing: zero losses,
by proof), and run the rest through the real session.
"""

import hashlib
from dataclasses import dataclass

from ..api.backends import Backend, Shard
from ..api.result import ShardResult
from ..litmus.writer import write_litmus
from .races import CLEAN, VERDICTS, analyze_test

#: Bump to invalidate cached verdicts when the analysis rules change.
ANALYSIS_VERSION = 1


@dataclass(frozen=True)
class AnalysisMeta:
    """The static verdict of one test, ``clean``, ``unknown`` or
    ``racy``: the analysis backend's answer, which observes nothing.

    ``merge`` keeps the most severe verdict (the order of
    :data:`~repro.analysis.races.VERDICTS`, the same fold
    :func:`~repro.analysis.races.analyze_test` applies to its pairs),
    which is associative and commutative.
    """

    verdict: str

    @classmethod
    def merge(cls, metas):
        return max(metas, key=lambda meta: VERDICTS.index(meta.verdict))

    def observations(self, condition):
        return 0

    def summary(self, condition=None):
        return "static verdict %s" % self.verdict

    pretty = summary

    def to_json(self):
        return {"verdict": self.verdict}

    @classmethod
    def from_json(cls, payload):
        verdict = payload["verdict"]
        if verdict not in VERDICTS:
            raise ValueError("unknown analysis verdict %r" % (verdict,))
        return cls(verdict)


class AnalysisBackend(Backend):
    """Static analysis as a campaign backend.

    ``run_shard`` analyses the spec's litmus test and answers with its
    verdict as :class:`AnalysisMeta`.  Like the model backend, each spec
    is one indivisible work unit with ``iterations=0`` (pure static work
    — the session's simulated-iteration statistic stays a sim/app-only
    number), and the cache signature covers only the test text plus the
    analyzer version, so verdicts dedupe across chips, seeds and
    iteration counts.
    """

    name = "analysis"
    answer_type = AnalysisMeta

    def cache_signature(self, spec):
        payload = "analysis-v%d\x1e%s" % (ANALYSIS_VERSION,
                                          write_litmus(spec.test))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        return [Shard(index=0, iterations=0, seed=spec.seed)]

    def run_shard(self, spec, shard):
        return ShardResult(AnalysisMeta(analyze_test(spec.test).verdict))


def prescreen(specs):
    """Analyse a plan on a fresh analysis session; returns the verdict
    list aligned with ``specs``."""
    from ..api.session import Session
    session = Session(backend=AnalysisBackend())
    return [result.answer.verdict for result in session.run_specs(specs)]


def condition_skippable(test):
    """Is ``test``'s condition provably unobservable, so a campaign cell
    may skip execution and report zero observations?

    A clean verdict alone is *not* enough for litmus conditions: clean
    means race-free, and a race-free-by-intent test can still observe
    its condition — mp-volatile is clean (volatile races are exempt as
    intentional) yet weak (volatiles order nothing, Fig. 5).  The proof
    needs all three: clean, the verdict implying SC
    (:attr:`~repro.analysis.races.AnalysisReport.sc_obligation`), and
    the SC model forbidding the condition.
    """
    report = analyze_test(test)
    if report.verdict != CLEAN or not report.sc_obligation:
        return False
    from ..model.models import load_model
    return not load_model("sc").allows_condition(test)


def run_prescreened(specs, session):
    """Run a plan with static triage: provably-clean specs skip the
    backend entirely.

    Returns ``(results, verdicts)``, both aligned with ``specs``.  A
    skipped spec's result is a :class:`~repro.api.result.SpecResult`
    tagged ``backend="analysis"`` that answers with its
    :class:`AnalysisMeta` verdict — zero observations; everything else
    carries ``session``'s result.

    What a clean verdict proves depends on the kind of spec.  A scenario
    cell is skipped when it is clean: its observations are losses, and
    the clean proof is exactly "ordered pairs cannot lose".  A litmus
    cell (a :class:`~repro.api.spec.RunSpec`) is skipped only when
    :func:`condition_skippable` holds for its test, decided once per
    test: clean does not make a condition unobservable.
    """
    from ..api.result import SpecResult
    from ..api.spec import RunSpec
    specs = list(specs)
    verdicts = prescreen(specs)
    skippable = {}
    skips = []
    for spec, verdict in zip(specs, verdicts):
        if verdict == CLEAN and isinstance(spec, RunSpec):
            if id(spec.test) not in skippable:
                skippable[id(spec.test)] = condition_skippable(spec.test)
            skips.append(skippable[id(spec.test)])
        else:
            skips.append(verdict == CLEAN)
    executed = iter(session.run_specs(
        spec for spec, skipped in zip(specs, skips) if not skipped))
    results = [SpecResult(spec=spec, backend=AnalysisBackend.name,
                          answer=AnalysisMeta(verdict),
                          provenance=AnalysisBackend.name)
               if skipped else next(executed)
               for spec, verdict, skipped in zip(specs, verdicts, skips)]
    return results, verdicts
