"""Scenario verification: the ``repro-litmus verify`` work horse.

Runs every selected ``(scenario, chip)`` cell through the exhaustive
explorer and renders the verdicts the paper's fence-fix claims deserve:
a fenced scenario is *verified* — ``verified: 0 losses over all
executions`` — while its unfenced twin reports a concrete losing
execution trace (the schedule plus the final state it reaches), not just
a loss rate.

Verdicts route through an exhaustive
:class:`~repro.api.session.Session`, so repeat invocations hit the
fingerprint-keyed cache and ``--jobs`` fans work out exactly like any
other campaign — not just across cells: every cell's exploration
shards by root branch (:meth:`ExhaustiveBackend.shards`), so a single
wide scenario saturates the pool too, and the merge keeps every verdict
bit-identical to a serial run.  The witness trace of a losing cell
comes with its result, fresh or cached: the branch that found it
recorded it, and the merge keeps the serial exploration's first one.
"""

from dataclasses import dataclass

from ..apps.scenario import ScenarioSpec, select_scenarios
from ..errors import ReproError
from ..sim.chip import chip as resolve_chip
from .backend import exhaustive_session, exhaustive_verdict
from .explore import DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS

#: The exact verified-verdict sentence (tested verbatim; keep stable).
VERIFIED_TEXT = "verified: 0 losses over all executions"


@dataclass(frozen=True)
class VerifyRow:
    """One verified (scenario, chip) cell."""

    scenario: str
    chip: str
    fenced: bool          #: scenario carries the paper's fence fix
    states: int           #: distinct reachable final states
    executions: int       #: complete executions explored
    transitions: int      #: transitions executed
    losses: int           #: losing executions (0 = verified)
    bounded: bool         #: spin retries truncated at the loop bound
    witness: object       #: Witness for the first loss, or None

    @property
    def verified(self):
        return self.losses == 0

    def verdict(self):
        """One-line verdict; the verified sentence is verbatim-stable."""
        if self.verified:
            text = VERIFIED_TEXT
            if self.bounded:
                text += " (spin retries truncated at the loop bound)"
            return text
        text = "LOST: %d of %d executions violate the invariant" \
            % (self.losses, self.executions)
        if self.bounded:
            text += " (spin retries truncated at the loop bound)"
        return text


@dataclass(frozen=True)
class VerifyReport:
    """Every verified cell plus the campaign-level verdict."""

    rows: tuple
    loop_bound: int

    @property
    def ok(self):
        """No *fenced* scenario may lose; unfenced losses are the
        paper's point, not a failure."""
        return not self.unexpected()

    def unexpected(self):
        """Fenced rows that lost — each one is a real bug somewhere."""
        return [row for row in self.rows if row.fenced and not row.verified]

    def lines(self):
        out = []
        for row in self.rows:
            out.append("%-24s %-8s states=%-3d executions=%-6d "
                       "transitions=%-8d %s"
                       % (row.scenario, row.chip, row.states, row.executions,
                          row.transitions, row.verdict()))
            if row.witness is not None:
                out.append("  losing execution:")
                out.extend("    " + line for line in row.witness.lines())
        verified = sum(1 for row in self.rows if row.verified)
        out.append("%d/%d cells verified (loop bound %d)"
                   % (verified, len(self.rows), self.loop_bound))
        for row in self.unexpected():
            out.append("UNEXPECTED: fenced scenario %s lost on %s"
                       % (row.scenario, row.chip))
        return out


def verify_scenarios(scenarios, chips, intensity=1.0,
                     loop_bound=DEFAULT_LOOP_BOUND,
                     max_transitions=DEFAULT_MAX_TRANSITIONS,
                     session=None, jobs=1, executor="thread",
                     cache_dir=None, witnesses=True):
    """Exhaustively verify every ``(scenario, chip)`` cell.

    ``scenarios`` holds :class:`~repro.apps.scenario.Scenario` objects
    (or registry names), ``chips`` short names or profiles.
    ``intensity`` is structural — any positive value explores the same
    space — and defaults to 1.0, the "small intensity" of the bench
    corpus.  ``witnesses=False`` leaves the losing execution traces out
    of the rows.  Returns a :class:`VerifyReport`.
    """
    from ..apps.scenario import get_scenario
    scenarios = [get_scenario(s) if isinstance(s, str) else s
                 for s in scenarios]
    chips = [resolve_chip(chip) for chip in chips]
    if session is None:
        session = exhaustive_session(jobs=jobs, executor=executor,
                                     cache_dir=cache_dir,
                                     loop_bound=loop_bound,
                                     max_transitions=max_transitions)
    specs = [ScenarioSpec(scenario=scenario, chip=chip, iterations=1,
                          seed=0, intensity=float(intensity))
             for scenario in scenarios for chip in chips]
    rows = []
    for spec, result in zip(specs, session.run_specs(specs)):
        verdict = exhaustive_verdict(result, spec.test.condition)
        rows.append(VerifyRow(
            scenario=spec.scenario.name, chip=spec.chip.short,
            fenced=spec.scenario.fenced, states=verdict["states"],
            executions=verdict["executions"],
            transitions=verdict["transitions"], losses=verdict["losses"],
            bounded=verdict["bounded"],
            witness=verdict["witness"] if witnesses else None))
    return VerifyReport(rows=tuple(rows), loop_bound=loop_bound)


def verify_selection(names=("all",), fenced="both", chips=None, **kwargs):
    """Name-based front end: resolve the registry selection, then
    :func:`verify_scenarios`."""
    scenarios = select_scenarios(names, fenced=fenced)
    if not scenarios:
        raise ReproError("the scenario selection is empty")
    return verify_scenarios(scenarios, chips or ["Titan"], **kwargs)
