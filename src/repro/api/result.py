"""Result types of the campaign API: :class:`ShardResult`,
:class:`SpecResult` and :class:`CampaignResult`.

``ShardResult`` is what every backend returns for one shard of one spec:
a histogram, the backend's typed meta and its execution stats.  Shard
results merge (:meth:`ShardResult.merge`) into the result of the whole
spec, whatever order the shards finished in.

``SpecResult`` is the unified per-cell outcome shared by every backend:
a histogram plus the spec that produced it.  For the sim backend the
histogram counts observed final states over the spec's iterations; for
a model backend it holds the allowed final states (count 1 each), so
``observations``/``allowed`` give the paper's Allowed/Forbidden verdict.
Backends with more to say than a histogram (an analysis verdict, an
exploration's counters and witness) return it as ``meta``, and every
result names its ``provenance``: the engine or backend that executed it,
or :data:`PROVED` when the backend's exact tier answered it instead.

``CampaignResult`` aggregates the cells of one campaign into the
paper's grid — per-test and per-chip views plus the figure-style
summary tables of obs/100k counts.
"""

from dataclasses import dataclass, field
from functools import reduce

from .._util import format_table
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


@dataclass(frozen=True)
class ShardResult:
    """What one shard of one spec produced.

    ``meta`` is the backend's typed verdict data, an instance of its
    :attr:`~repro.api.backends.Backend.meta_type` (``None`` for the
    sampling backends, whose whole answer is the histogram).  A meta
    type declares ``merge`` (associative and commutative, so shards
    merge in any order), ``to_json`` and ``from_json`` (the disk
    cache's round trip).  ``stats`` holds execution counters taken in
    the worker that ran the shard (e.g. plan-cache hits), or ``None``.
    """

    histogram: object
    meta: object = None
    stats: dict = None

    @classmethod
    def merge(cls, parts):
        """Fold shard results into one: histograms and stats add, metas
        fold through their type's ``merge``."""
        parts = list(parts)
        metas = [part.meta for part in parts if part.meta is not None]
        return cls(histogram=Histogram.merge(part.histogram
                                             for part in parts),
                   meta=reduce(lambda a, b: a.merge(b), metas)
                   if metas else None,
                   stats=_merge_stats(part.stats for part in parts))


@dataclass
class SpecResult:
    """Outcome of one :class:`~repro.api.spec.RunSpec` on one backend."""

    spec: object                   #: the RunSpec that produced this result
    backend: str                   #: name of the backend that ran it
    histogram: object              #: Histogram of final states
    cached: bool = False           #: satisfied from the result cache?
    #: Backend execution statistics for this spec (e.g. plan-cache
    #: hits/misses of the batch engine's cross-worker lowering cache),
    #: or ``None`` when the backend reported nothing.  Cached results
    #: carry ``None`` — nothing executed.
    stats: dict = None
    #: The backend's typed meta (see :class:`ShardResult`), fresh or
    #: cached alike, or ``None``.
    meta: object = None
    #: What produced the histogram, fresh or cached alike: the engine
    #: or backend that executed the spec
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
    def observations(self):
        return self.histogram.observations(self.test.condition)

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
        return ("%s on %s [%s] via %s: %d/%d weak (%.0f per 100k)%s"
                % (self.test.name, self.chip.short, self.incantations,
                   via, self.observations, self.histogram.total,
                   self.per_100k, " [cached]" if self.cached else ""))


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
        chip (the bottom-of-figure tables of Figs. 1-11).  ``paper``
        optionally maps ``(test name, chip short)`` to published counts,
        rendered alongside."""
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
                cell = "%.0f" % result.per_100k
                if paper is not None and (name, short) in paper:
                    cell += " (paper %s)" % paper[(name, short)]
                row.append(cell)
            rows.append(row)
        return format_table(["obs/100k"] + chips, rows)

    def summary(self):
        weak = self.weak_cells()
        return ("campaign: %d cells (%d tests x %d chips), %d weak, "
                "%d cached, %d iterations"
                % (len(self), len(self.tests), len(self.chips), len(weak),
                   self.cached_cells, self.total_iterations))
