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

Each branch answers with its own
:class:`~repro.exhaustive.explore.ExhaustiveResult`, its first witness
tagged with its root-plan index, and merging the branches in any order
yields the serial exploration, witness included — so a losing cell's
trace arrives with its verdict, fresh or cached (the disk cache stores
the answer as JSON).  :func:`exhaustive_verdict` reads that answer off
a result.

Exploration is *intensity-structural*: only which relaxation intents are
non-zero matters (the explorer enumerates both branches of every
surviving choice point), so verdicts dedupe across all positive
intensities, seeds and iteration counts — the cache signature covers the
litmus text, the chip, the structural intent vector, the loop bound and
the strategy (always ``dpor`` here; the naive oracle runs through
:func:`~repro.exhaustive.explore.explore_test`).
"""

import hashlib
import threading

from ..api.backends import Backend, PerThreadMemo, Shard
from ..api.result import ShardResult
from ..api.spec import _chip_signature
from ..errors import ReproError
from ..litmus.writer import write_litmus
from .explore import (DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS, Explorer,
                      ExhaustiveResult)

#: Bump to invalidate cached explorations when the explorer changes.
#: v2: branch-sharded explorations, intra-thread independence and
#: state-hash loop closure.  v3: the per-branch state cache (stateful
#: DPOR), which changes execution, transition and loss counts.
EXHAUSTIVE_VERSION = 3


def encode_exhaustive_histogram(result):
    """The :class:`~repro.api.result.ShardResult` of one explored branch:
    its :class:`~repro.exhaustive.explore.ExhaustiveResult` is the
    answer, witness tag included (the name predates typed answers and is
    kept for callers that wrap it)."""
    return ShardResult(result)


def exhaustive_verdict(result):
    """The :class:`~repro.exhaustive.explore.ExhaustiveResult` answer of
    a :class:`~repro.api.result.SpecResult` or ``ShardResult``;
    :class:`ReproError` for any other kind of answer."""
    answer = result.answer
    if not isinstance(answer, ExhaustiveResult):
        raise ReproError("not an exhaustive result: its answer is %r"
                         % (answer,))
    return answer


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
    answer_type = ExhaustiveResult

    def __init__(self, loop_bound=DEFAULT_LOOP_BOUND,
                 max_transitions=DEFAULT_MAX_TRANSITIONS):
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
            explorer = Explorer(test, chip, intensity=intensity,
                                loop_bound=self.loop_bound,
                                max_transitions=self.max_transitions)
            memo = self._local.memo = (test, chip, intensity, explorer)
        return memo[3]

    def cache_signature(self, spec):
        # The trailing "dpor" names the exploration strategy, which
        # every cached exploration used.
        payload = ("exhaustive-v%d\x1e%s\x1e%s\x1eintent=%d\x1ebound=%d"
                   "\x1edpor" % (EXHAUSTIVE_VERSION, write_litmus(spec.test),
                                 _chip_signature(spec.chip),
                                 self._structural_intent(spec),
                                 self.loop_bound))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        plan = self._explorer(spec).root_plan()
        return [Shard(index=index, iterations=0, seed=spec.seed)
                for index in range(len(plan))]

    def run_shard(self, spec, shard):
        return encode_exhaustive_histogram(
            self._explorer(spec).run_branch(shard.index))


def exhaustive_session(jobs=1, executor="thread", cache=True, cache_dir=None,
                       pool=None, loop_bound=DEFAULT_LOOP_BOUND,
                       max_transitions=DEFAULT_MAX_TRANSITIONS):
    """A :class:`~repro.api.session.Session` wired to the exhaustive
    backend (the verifying twin of :func:`repro.apps.campaign.app_session`)."""
    from ..api.session import Session
    return Session(backend=ExhaustiveBackend(loop_bound=loop_bound,
                                             max_transitions=max_transitions),
                   jobs=jobs, executor=executor, cache=cache,
                   cache_dir=cache_dir, pool=pool)
