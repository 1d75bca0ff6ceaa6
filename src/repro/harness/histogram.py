"""Outcome histograms and state sets: what the litmus tool prints after
100k runs, and what a model allows (answers of :mod:`repro.api.result`)."""

from dataclasses import dataclass, field

from ..litmus.condition import FinalState


@dataclass
class Histogram:
    """A multiset of final states observed over many runs."""

    counts: dict = field(default_factory=dict)

    def add(self, state, count=1):
        self.counts[state] = self.counts.get(state, 0) + count

    @property
    def total(self):
        return sum(self.counts.values())

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(sorted(self.counts.items(), key=lambda kv: -kv[1]))

    def observations(self, condition):
        """How many runs satisfied the final condition's expression."""
        return sum(count for state, count in self.counts.items()
                   if condition.holds(state))

    def per_100k(self, condition):
        """Observation count normalised to the paper's 100k executions."""
        if self.total == 0:
            return 0.0
        return self.observations(condition) * 100000.0 / self.total

    def merged(self, other):
        return Histogram.merge([self, other])

    @classmethod
    def merge(cls, histograms):
        """Merge any iterable of histograms into a new one.

        Counts add per state; merging is commutative and associative,
        which is what lets the session's sharded runs recombine into the
        same histogram regardless of completion order.
        """
        result = cls()
        for histogram in histograms:
            for state, count in histogram.counts.items():
                result.add(state, count)
        return result

    def to_json(self):
        return [dict(state.to_json(), count=count)
                for state, count in sorted(self.counts.items(),
                                           key=lambda kv: str(kv[0]))]

    @classmethod
    def from_json(cls, records):
        histogram = cls()
        for record in records:
            histogram.add(FinalState.from_json(record), record["count"])
        return histogram

    def summary(self, condition):
        return "%d/%d weak (%.0f per 100k)" % (
            self.observations(condition), self.total,
            self.per_100k(condition))

    def pretty(self, condition=None):
        lines = ["Histogram (%d states, %d runs)" % (len(self), self.total)]
        for state, count in self:
            marker = ""
            if condition is not None and condition.holds(state):
                marker = "  *witness*"
            lines.append("%8d : %s%s" % (count, state, marker))
        if condition is not None:
            lines.append("Observation %d/%d for %s"
                         % (self.observations(condition), self.total, condition))
        return "\n".join(lines)


class StateSet(frozenset):
    """The final states a model allows or an exploration reaches; the
    condition read counts the states that satisfy it."""

    @classmethod
    def merge(cls, sets):
        return cls(state for states in sets for state in states)

    def observations(self, condition):
        return sum(1 for state in self if condition.holds(state))

    def to_json(self):
        return [state.to_json() for state in sorted(self, key=str)]

    @classmethod
    def from_json(cls, records):
        return cls(FinalState.from_json(record) for record in records)

    def summary(self, condition):
        return "%d/%d states weak" % (self.observations(condition), len(self))

    def pretty(self, condition=None):
        lines = ["States (%d)" % len(self)]
        for state in sorted(self, key=str):
            witness = condition is not None and condition.holds(state)
            lines.append("  %s%s" % (state, "  *witness*" if witness else ""))
        return "\n".join(lines)
