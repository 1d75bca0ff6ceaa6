"""The :class:`ExhaustiveBackend`: verified verdicts behind the campaign API.

The verifier tier of the ROADMAP: one exhaustive exploration per
:class:`~repro.api.spec.RunSpec` / :class:`~repro.apps.scenario.ScenarioSpec`,
delivered through the same :class:`~repro.api.session.Session` machinery
as simulations, model enumerations and static analyses —
fingerprint-keyed caching, in-plan deduplication, ``Shard.iterations=0``
accounting (an exploration is not a sampled iteration).

Explorations shard by root branch: :meth:`ExhaustiveBackend.shards`
materialises one shard per :meth:`~repro.exhaustive.explore.Explorer.root_plan`
entry, each worker explores its branch independently
(:meth:`~repro.exhaustive.explore.Explorer.run_branch`), and the
session's merge reassembles exactly the serial result —
``repro-litmus verify --jobs N`` scales with cores without perturbing a
single verdict bit.

Each branch comes back as a :class:`~repro.api.result.ShardResult`
(:func:`encode_exhaustive_histogram`): its reachable final states as a
histogram (count 1 per branch that reached them) and an
:class:`ExhaustiveMeta` holding the execution, transition and loss
counters, the ``bounded`` flag and the branch's first witness, tagged
with its root-plan index.  Merging adds the counters, ORs the flag and
keeps the witness of the lowest index — so merging the branches in any
order yields the serial exploration's witness, and a losing cell's
trace arrives with its verdict, fresh or cached (the disk cache stores
the meta as JSON).  :func:`exhaustive_verdict` reads a verdict off a
result against the loss predicate.

Exploration is *intensity-structural*: only which relaxation intents are
non-zero matters (the explorer enumerates both branches of every
surviving choice point), so verdicts dedupe across all positive
intensities, seeds and iteration counts — the cache signature covers the
litmus text, the chip, the structural intent vector, the loop bound and
the strategy.
"""

import hashlib
import threading
from dataclasses import dataclass

from ..api.backends import Backend, PerThreadMemo, Shard
from ..api.cache import decode_state, encode_state
from ..api.result import ShardResult
from ..api.spec import _chip_signature
from ..errors import ReproError
from ..harness.histogram import Histogram
from ..litmus.writer import write_litmus
from .explore import (DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS, Explorer,
                      Witness, WitnessEvent)

#: Bump to invalidate cached explorations when the explorer changes.
#: v2: branch-sharded explorations, intra-thread independence and
#: state-hash loop closure.  v3: the per-branch state cache (stateful
#: DPOR), which changes execution, transition and loss counts.
EXHAUSTIVE_VERSION = 3


def _typed(value, kind):
    """``value`` if it is exactly of type ``kind`` (a JSON bool is no
    int here), else ``TypeError`` — a malformed cache entry."""
    if type(value) is not kind:
        raise TypeError("expected %s, got %r" % (kind.__name__, value))
    return value


def _witness_to_json(witness):
    return {"events": [[event.tid, event.op, event.location, event.value,
                        event.is_store] for event in witness.events],
            "state": encode_state(witness.state)}


def _witness_from_json(payload):
    events = []
    for tid, op, location, value, is_store in payload["events"]:
        # Fences name no location and carry no value.
        events.append(WitnessEvent(
            tid=_typed(tid, int), op=_typed(op, str),
            location=None if location is None else _typed(location, str),
            value=None if value is None else _typed(value, int),
            is_store=_typed(is_store, bool)))
    return Witness(events=tuple(events), state=decode_state(payload["state"]))


@dataclass(frozen=True)
class ExhaustiveMeta:
    """What an exploration found besides its reachable states — of one
    root branch or, merged, of the whole cell.

    ``merge`` is associative and commutative: counters add, ``bounded``
    ORs, and the witness of the lowest ``witness_branch`` survives, which
    is the first witness of the serial in-order exploration.
    """

    executions: int       #: complete executions explored
    transitions: int      #: transitions executed
    losses: int           #: executions satisfying the loss predicate
    bounded: bool         #: some branch hit the loop bound
    witness: object = None        #: first losing Witness, or None
    witness_branch: int = None    #: root-plan index that found it

    def _witness_order(self):
        return (self.witness is None, self.witness_branch or 0)

    def merge(self, other):
        first = min(self, other, key=ExhaustiveMeta._witness_order)
        return ExhaustiveMeta(
            executions=self.executions + other.executions,
            transitions=self.transitions + other.transitions,
            losses=self.losses + other.losses,
            bounded=self.bounded or other.bounded,
            witness=first.witness, witness_branch=first.witness_branch)

    def to_json(self):
        return {"executions": self.executions,
                "transitions": self.transitions, "losses": self.losses,
                "bounded": self.bounded,
                "witness": (None if self.witness is None
                            else _witness_to_json(self.witness)),
                "witness_branch": self.witness_branch}

    @classmethod
    def from_json(cls, payload):
        witness = payload["witness"]
        branch = payload["witness_branch"]
        if witness is not None:
            witness = _witness_from_json(witness)
            _typed(branch, int)
        elif branch is not None:
            raise ValueError("witness branch %r without a witness" % branch)
        return cls(executions=_typed(payload["executions"], int),
                   transitions=_typed(payload["transitions"], int),
                   losses=_typed(payload["losses"], int),
                   bounded=_typed(payload["bounded"], bool),
                   witness=witness, witness_branch=branch)


def encode_exhaustive_histogram(result, branch=0):
    """The :class:`~repro.api.result.ShardResult` of an
    :class:`~repro.exhaustive.explore.ExhaustiveResult`: the reachable
    states (count 1 each) plus an :class:`ExhaustiveMeta`.

    ``branch`` is the root-plan index the result explored, which tags
    its witness; a whole exploration's witness is already the first in
    plan order, so the default 0 fits it too.
    """
    histogram = Histogram()
    for state in result.reachable:
        histogram.add(state)
    return ShardResult(histogram, meta=ExhaustiveMeta(
        executions=result.executions, transitions=result.transitions,
        losses=result.losses, bounded=result.bounded,
        witness=result.witness,
        witness_branch=None if result.witness is None else branch))


def exhaustive_verdict(result, condition):
    """Read a verdict dict off an exhaustive result (a
    :class:`~repro.api.result.SpecResult` or ``ShardResult``).

    Returns ``{"states", "executions", "transitions", "losses",
    "bounded", "losing_states", "verified", "witness"}`` where
    ``losing_states`` are the reachable states satisfying ``condition``
    (the loss predicate), ``verified`` means the exploration saw zero
    losing executions and ``witness`` is the first losing execution
    trace (``None`` when verified).
    """
    meta = result.meta
    if not isinstance(meta, ExhaustiveMeta):
        raise ReproError("not an exhaustive result: its meta is %r"
                         % (meta,))
    return {
        "states": len(result.histogram),
        "executions": meta.executions,
        "transitions": meta.transitions,
        "losses": meta.losses,
        "bounded": meta.bounded,
        "losing_states": result.histogram.witnesses(condition),
        "verified": meta.losses == 0,
        "witness": meta.witness,
    }


class ExhaustiveBackend(PerThreadMemo, Backend):
    """Exhaustive (stateful DPOR) model checking as a campaign backend.

    ``shards`` splits the spec's exploration into its root branches (one
    shard each, ``iterations=0`` — the session's simulated-iteration
    statistic stays a sim/app-only number) and ``run_shard`` explores a
    single branch; the session merges the per-branch results, which by
    the explorer's determinism invariant reproduces the serial result
    bit for bit, witness included.  The verdict is a pure function of the
    spec — independent of ``--jobs``, the executor and the seed — so
    cached and fresh results are interchangeable.

    Each worker thread keeps the :class:`~repro.exhaustive.explore.Explorer`
    of the cell it last touched and reuses it across ``shards`` and
    ``run_shard`` calls: every ``run_branch`` starts from the root
    state, so a reused explorer explores a branch exactly as a fresh one
    does.  A serial session (``jobs=1``) plans each spec just before it
    runs the spec's branches, so there a cell compiles once, for the
    plan and every branch — on the registry that is 154 compilations
    instead of one per branch plus one to plan (474).  The memo is
    per thread because an explorer mutates its machine state while it
    explores, holds only the current cell, and is dropped when a process
    pool pickles the backend (compiled cells hold closures).
    """

    name = "exhaustive"
    meta_type = ExhaustiveMeta

    def __init__(self, strategy="dpor", loop_bound=DEFAULT_LOOP_BOUND,
                 max_transitions=DEFAULT_MAX_TRANSITIONS):
        self.strategy = strategy
        self.loop_bound = loop_bound
        self.max_transitions = max_transitions
        self._local = threading.local()

    def _structural_intent(self, spec):
        """Exploration depends on intensity only through zero/non-zero."""
        return 1 if float(getattr(spec, "intensity", 1.0)) > 0.0 else 0

    def _explorer(self, spec):
        """This thread's explorer of ``spec``'s cell, built on a miss.

        Keyed on the test object itself (by identity), the chip and the
        intensity, so the lookup never re-renders the litmus text.
        """
        intensity = float(getattr(spec, "intensity", 1.0))
        intensity = intensity if intensity > 0.0 else 0.0
        test, chip = spec.test, spec.chip
        memo = getattr(self._local, "memo", None)
        if (memo is None or memo[0] is not test or memo[1] != chip
                or memo[2] != intensity):
            explorer = Explorer(
                test, chip, intensity=intensity, strategy=self.strategy,
                loop_bound=self.loop_bound,
                max_transitions=self.max_transitions)
            memo = self._local.memo = (test, chip, intensity, explorer)
        return memo[3]

    def cache_signature(self, spec):
        payload = "exhaustive-v%d\x1e%s\x1e%s\x1eintent=%d\x1ebound=%d\x1e%s" \
            % (EXHAUSTIVE_VERSION, write_litmus(spec.test),
               _chip_signature(spec.chip),
               self._structural_intent(spec), self.loop_bound, self.strategy)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        plan = self._explorer(spec).root_plan()
        return [Shard(index=index, iterations=0, seed=spec.seed)
                for index in range(len(plan))]

    def run_shard(self, spec, shard):
        result = self._explorer(spec).run_branch(shard.index)
        return encode_exhaustive_histogram(result, shard.index)


def exhaustive_session(jobs=1, executor="thread", cache=True, cache_dir=None,
                       pool=None, strategy="dpor",
                       loop_bound=DEFAULT_LOOP_BOUND,
                       max_transitions=DEFAULT_MAX_TRANSITIONS):
    """A :class:`~repro.api.session.Session` wired to the exhaustive
    backend (the verifying twin of
    :func:`repro.analysis.backend.analysis_session`)."""
    from ..api.session import Session
    return Session(backend=ExhaustiveBackend(strategy=strategy,
                                             loop_bound=loop_bound,
                                             max_transitions=max_transitions),
                   jobs=jobs, executor=executor, cache=cache,
                   cache_dir=cache_dir, pool=pool)
