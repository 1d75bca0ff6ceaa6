"""Result types of the campaign API: :class:`ShardResult`,
:class:`SpecResult` and :class:`CampaignResult`.

Every result carries one *answer*, typed by the backend
(:attr:`~repro.api.backends.Backend.answer_type`): a
:class:`~repro.harness.histogram.Histogram` of sampled final states
(sim, app), a :class:`~repro.harness.histogram.StateSet` of the states a
model allows, an :class:`~repro.exhaustive.explore.ExhaustiveResult` or
an :class:`~repro.analysis.backend.AnalysisMeta` verdict.  An answer
type declares ``merge`` (a classmethod, associative and commutative, so
shards merge in any order), ``observations(condition)`` (the runs, or
states, satisfying a test's condition), ``summary``/``pretty`` and
``to_json``/``from_json`` (the disk cache's round trip).

``ShardResult`` is what a backend returns for one shard of one spec.
``SpecResult`` is one cell's merged answer, the spec and its
``provenance``: the engine or backend that executed it, or
:data:`PROVED` when the backend's exact tier answered it instead.
``CampaignResult`` aggregates the cells of one campaign into the
paper's grid — per-test and per-chip views plus the figure-style
summary tables of obs/100k counts.
"""

from dataclasses import dataclass, field

from .._util import format_table
from ..errors import ReproError
from ..harness.histogram import Histogram


#: The provenance of a result the backend's exact tier proved
#: (:meth:`~repro.api.backends.Backend.exact`) instead of executing.
PROVED = "exhaustive"


def _merge_stats(parts):
    """Sum stats dicts per key; ``None`` when no part reported any."""
    total = {}
    for part in parts:
        if part:
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
    return total or None


def private(answer):
    """``answer`` for one holder: a histogram, which its holder may
    mutate, is copied; every other kind is immutable."""
    if isinstance(answer, Histogram):
        return Histogram(dict(answer.counts))
    return answer


@dataclass(frozen=True)
class ShardResult:
    """What one shard of one spec produced.

    ``answer`` is an instance of the backend's
    :attr:`~repro.api.backends.Backend.answer_type`.  ``stats`` holds
    execution counters taken in the worker that ran the shard (e.g.
    plan-cache hits), or ``None``.
    """

    answer: object
    stats: dict = None

    @classmethod
    def merge(cls, parts):
        """Fold shard results into one: answers merge through their
        type's ``merge``, stats add."""
        parts = list(parts)
        return cls(answer=type(parts[0].answer).merge(
                       part.answer for part in parts),
                   stats=_merge_stats(part.stats for part in parts))


@dataclass
class SpecResult:
    """Outcome of one :class:`~repro.api.spec.RunSpec` on one backend."""

    spec: object                   #: the RunSpec that produced this result
    backend: str                   #: name of the backend that ran it
    answer: object                 #: the backend's typed answer
    cached: bool = False           #: satisfied from the result cache?
    #: Backend execution statistics for this spec (e.g. plan-cache
    #: hits/misses of the batch engine's cross-worker lowering cache),
    #: or ``None`` when the backend reported nothing.  Cached results
    #: carry ``None`` — nothing executed.
    stats: dict = None
    #: What produced the answer, fresh or cached alike: the engine or
    #: backend that executed the spec
    #: (:meth:`~repro.api.backends.Backend.provenance`), or
    #: :data:`PROVED` when an exact proof fixed it.
    provenance: str = None

    # -- spec delegation ---------------------------------------------------

    @property
    def test(self):
        return self.spec.test

    @property
    def chip(self):
        return self.spec.chip

    @property
    def incantations(self):
        return self.spec.incantations

    @property
    def iterations(self):
        return self.spec.iterations

    # -- verdicts ---------------------------------------------------------

    @property
    def sampled(self):
        """Is the answer a histogram of sampled runs?"""
        return isinstance(self.answer, Histogram)

    @property
    def histogram(self):
        """The sampled answer; :class:`ReproError` for any other kind."""
        if isinstance(self.answer, Histogram):
            return self.answer
        raise ReproError("%s answers with %r, not a histogram"
                         % (self.backend, self.answer))

    @property
    def observations(self):
        return self.answer.observations(self.test.condition)

    @property
    def per_100k(self):
        return self.histogram.per_100k(self.test.condition)

    @property
    def observed_weak(self):
        return self.observations > 0

    @property
    def allowed(self):
        """Model-backend reading: does the backend allow the condition?"""
        return self.observations > 0

    def summary(self):
        via = self.backend
        if self.provenance not in (None, self.backend):
            via += " (%s)" % self.provenance
        return ("%s on %s [%s] via %s: %s%s"
                % (self.test.name, self.chip.short, self.incantations,
                   via, self.answer.summary(self.test.condition),
                   " [cached]" if self.cached else ""))


@dataclass
class CampaignResult:
    """The grid of one campaign: ``(test name, chip short) -> SpecResult``."""

    results: dict = field(default_factory=dict)

    def add(self, result):
        self.results[result.spec.key] = result

    def get(self, test_name, chip_short):
        return self.results[(test_name, chip_short)]

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results.values())

    def __contains__(self, key):
        return key in self.results

    @property
    def tests(self):
        """Test names in first-seen campaign order."""
        return list(dict.fromkeys(name for name, _ in self.results))

    @property
    def chips(self):
        """Chip short names in first-seen campaign order."""
        return list(dict.fromkeys(short for _, short in self.results))

    def by_test(self, test_name):
        """``{chip short: SpecResult}`` for one test."""
        return {short: result for (name, short), result in self.results.items()
                if name == test_name}

    def by_chip(self, chip_short):
        """``{test name: SpecResult}`` for one chip."""
        return {name: result for (name, short), result in self.results.items()
                if short == chip_short}

    def weak_cells(self):
        """The ``(test name, chip short)`` cells with observed weakness."""
        return [key for key, result in self.results.items()
                if result.observed_weak]

    @property
    def total_iterations(self):
        return sum(result.iterations for result in self)

    @property
    def cached_cells(self):
        return sum(1 for result in self if result.cached)

    def summary_table(self, paper=None):
        """Paper-style obs/100k table: one row per test, one column per
        chip (the bottom-of-figure tables of Figs. 1-11); a cell that is
        no sample shows its observations, i.e. its weak states.
        ``paper`` optionally maps ``(test name, chip short)`` to
        published counts, rendered alongside."""
        chips = self.chips
        grid = {}
        for (name, short), result in self.results.items():
            grid.setdefault(name, {})[short] = result
        rows = []
        for name, per_chip in grid.items():
            row = [name]
            for short in chips:
                result = per_chip.get(short)
                if result is None:
                    row.append("n/a")
                    continue
                cell = ("%.0f" % result.per_100k if result.sampled
                        else "%d" % result.observations)
                if paper is not None and (name, short) in paper:
                    cell += " (paper %s)" % paper[(name, short)]
                row.append(cell)
            rows.append(row)
        label = ("obs/100k" if any(result.sampled for result in self)
                 else "weak states")
        return format_table([label] + chips, rows)

    def summary(self):
        weak = self.weak_cells()
        return ("campaign: %d cells (%d tests x %d chips), %d weak, "
                "%d cached, %d iterations"
                % (len(self), len(self.tests), len(self.chips), len(weak),
                   self.cached_cells, self.total_iterations))
