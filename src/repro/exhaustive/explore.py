"""Stateful DPOR exploration of compiled cells: the verification core.

The campaign stack answers "did the scenario lose?" statistically: it
samples scheduler interleavings and relaxation draws.  This module
answers it *exhaustively*, GPUMC-style: every reachable final state of a
``(test, chip)`` cell under the operational semantics, by systematically
enumerating the per-tick choice points of the compiled fast engine
(:mod:`repro.sim.compile`) with persistent-set/sleep-set dynamic
partial-order reduction (Flanagan-Godefroid DPOR).

**The transition system.**  A state is the compiled cell's machine state
with every thread decoded to fixpoint; a transition issues one eligible
pending op of one thread (``_Thread.issue``) and re-decodes that thread.
Decode is thread-local and touches no memory, so folding it into the
preceding issue preserves reachability; younger queue entries never
block older ones, so eager decode only *adds* issue candidates.  The
intent vector is *structural*: slot ``s`` is enabled iff the chip's draw
probability is non-zero, which makes every per-iteration sampled intent
vector a subset — any behaviour the simulator can sample is explored
here (and the exploration realises reorderings the per-iteration
scheduler merely makes unlikely).

**Choice points.**  Three kinds, all enumerated:

* the scheduler: which thread issues which eligible op (the DPOR
  domain — persistent sets prune commuting interleavings, sleep sets
  kill re-explorations, both provably preserving the reachable final
  states);
* under-scoped fence damping: the only ``rng`` draw on the decode path
  (:meth:`_Compiler._compile_membar`), scripted through
  :class:`_ChoiceRng` and binary-enumerated per transition;
* spin retries: backward branches are wrapped with a per-thread loop
  bound — a state reached past it that the search has not explored
  yet is abandoned and flags the result ``bounded`` (the explicit
  verdict qualifier; GPUMC bounds loops the same way).

**Intra-thread independence.**  Same-thread transitions are not blanket
dependent: a static commutation analysis (piggybacking on
:mod:`repro.analysis.accesses`) marks *free* ops — plain non-volatile
loads/stores of straight-line threads whose address resolves statically
and whose destination register the decode path never reads — and two
free ops of one thread targeting distinct addresses with distinct
destinations commute whenever the chip's pass rule lets them reorder at
all.  Persistent-set seeds then shrink from whole threads to
dependence-clusters, which is what makes wide per-thread windows
(``mp-padN``) tractable on reordering chips.

**The state cache.**  Each root branch of the ``dpor`` strategy keeps a
map from every state it has explored to what it explored there (Yang et
al., "Efficient Stateful Dynamic Partial Order Reduction", SPIN 2008).
The key is the state with path history removed: thread pcs, registers,
pending destinations, queue entries by static slot, global memory and
the placed shared banks — no sequence numbers, no loop counts (the
labels of two visits are matched by queue position).  Every state is
looked up right after the transition that reaches it, and the search
stops at a hit whose stored sleep set is a subset of the current one
(Godefroid's rule; otherwise the state is explored again and the stored
set shrinks to the intersection).  Persistent sets stay sound:

* every state keeps a *summary* of the transitions executed below it,
  and a pruned revisit runs race reversal for each of them against the
  current path, as if the pruned future had been re-executed;
* a revisit of a state still on the stack is a cycle (a spin): every
  frame from that state up is fully expanded, since the cycle hides its
  future from race reversal, and the frames above it are not cached,
  since their summaries lack the part of the future the cycle skipped;
* the loop bound is checked after the lookup, so a spin back into a
  known state never counts as truncated.

``executions`` therefore counts the complete executions the search
walked to their end, after the cache merged converging ones, not every
execution of the cell.  The naive strategy stays stateless.

**Parallel exploration.**  The root state's enabled transitions define a
static branch partition: :meth:`Explorer.root_plan` enumerates
``(fence-script, branch)`` entries and :meth:`Explorer.run_branch`
explores one entry in isolation (root backtrack pinned to that branch's
label, earlier siblings asleep, a fresh state cache).  Serial
:meth:`Explorer.run` iterates the identical entries in order, so a
parallel run that merges per-branch results in plan order is
*bit-identical* to the serial one — reachable sets, transition counts,
loss counts and the bounded flag all agree regardless of ``--jobs`` or
executor.  The transition budget applies per branch for the same
reason.

**Probing.**  :meth:`Explorer.probe` walks the same plan but stops as
soon as the answer to "does every execution reach one projected final
state?" is no: at a second distinct state, a loop-bound hit or a total
transition budget.  A yes is exact for every sampling engine, since
their samples lie inside the reachable set (the structural intent
vector above); the app backend's exact tier rests on it.

Memory-system L1 draws are *not* choice points: the L1 is a presence
set no load reads a value from (:mod:`repro.sim.memory`), so its drop
draws are semantically inert.  For the same reason a state snapshot
leaves L1 lines out, and it copies only the shared banks of the SMs the
threads are placed on — no other bank is ever written.  Snapshots and
keys are incremental: the explorer remembers which snapshot part (each
thread's front, the memory image) the live machine equals, so a
transition rebuilds only the thread it moved and, for a write, the
memory image, and a restore copies back only the parts that differ.

The happens-before bookkeeping uses the same integer-bitmask row idiom
as :class:`~repro.model.relation.IndexedRelation`;
:func:`execution_graph` hands a witness trace back to that machinery for
rendering and tests.
"""

from dataclasses import dataclass

from ..analysis.accesses import decode_read_registers, resolve_address
from ..errors import ConfigurationError, ExplorationLimit, SimulationError
from ..harness.histogram import StateSet
from ..litmus.condition import FinalState
from ..ptx.instructions import Bra
from ..sim.compile import (_PASS_PAIR, K_ADD, K_CAS, K_EXCH, K_FENCE, K_LOAD,
                           K_STORE, SLOT_BYPASS_BASE, SLOT_MIXED_HAZARD,
                           SLOT_RR_HAZARD, _Thread, compile_cell)

#: Per-thread backward-branch budget per execution: enough to resolve a
#: two-thread spin-lock handoff with a retry to spare, small enough to
#: keep lock scenarios tractable.  Cells whose spins return to states the
#: cache holds tolerate much larger bounds (the lookup comes first).
DEFAULT_LOOP_BOUND = 3

#: Per-branch transition budget (see
#: :class:`~repro.errors.ExplorationLimit`).  Per *branch*, not per run,
#: so parallel and serial explorations abort identically.
DEFAULT_MAX_TRANSITIONS = 2_000_000

#: Exploration strategies: ``dpor`` (persistent + sleep sets) and
#: ``naive`` (every enabled transition at every state with no sleep-set
#: pruning — full interleaving enumeration, the baseline the benchmark
#: compares against).
STRATEGIES = ("dpor", "naive")

#: Cells whose programs enqueue at most this many ops *in total* skip
#: the persistent-seed/race-reversal bookkeeping and explore with full
#: backtrack sets plus sleep sets only: on tiny graphs the happens-before
#: bitmask accounting costs more wall-clock than the transitions it
#: prunes (the deque-mp regression in BENCH_exhaust), while sleep sets
#: alone already visit every Mazurkiewicz trace exactly once.
SLEEP_ONLY_MAX_OPS = 8

KIND_NAMES = {K_LOAD: "load", K_STORE: "store", K_FENCE: "fence",
              K_CAS: "cas", K_EXCH: "exch", K_ADD: "add"}

_ATOMIC_KINDS = (K_CAS, K_EXCH, K_ADD)
_WRITING_KINDS = (K_STORE,) + _ATOMIC_KINDS


class _LoopBoundExceeded(Exception):
    """Internal: a thread spun past the loop bound twice in one decode."""


class _ProbeStop(Exception):
    """Internal: a probe found the cell's outcome is not fixed."""


class _ChoiceRng:
    """Scriptable stand-in for the per-thread ``Random``.

    The only draw the compiled decode path performs is the under-scoped
    fence test ``rng.random() >= damping``.  Damping 0 (or scope-covered
    fences, which draw nothing) forces *effective*; damping >= 1 forces
    *ineffective*; anything in between is a genuine binary choice point:
    the scripted outcome is replayed, outcomes beyond the script default
    to effective, and every outcome taken is recorded so the caller can
    enumerate the untaken siblings.
    """

    __slots__ = ("damping", "script", "taken", "cursor")

    def __init__(self, damping):
        self.damping = damping
        self.script = ()
        self.taken = []
        self.cursor = 0

    def begin(self, script):
        self.script = script
        self.taken = []
        self.cursor = 0

    def random(self):
        damping = self.damping
        if damping <= 0.0:
            return 0.5          # always effective: not a choice point
        if damping >= 1.0:
            return 0.0          # never effective: not a choice point
        index = self.cursor
        effective = self.script[index] if index < len(self.script) else True
        self.cursor = index + 1
        self.taken.append(effective)
        # The closure tests `random() >= damping`: returning the damping
        # itself realises "effective", 0.0 realises "ineffective".
        return damping if effective else 0.0


class _StubRng:
    """The memory system's rng: its only draws drop L1 lines, which no
    load reads, so a fixed value is semantically inert."""

    __slots__ = ()

    def random(self):
        return 0.5


def _typed(value, kind):
    """``value`` if exactly a ``kind`` (a JSON bool is no int here)."""
    if type(value) is not kind:
        raise TypeError("expected %s, got %r" % (kind.__name__, value))
    return value


@dataclass(frozen=True)
class WitnessEvent:
    """One issued op of a witness trace."""

    tid: int
    op: str             #: kind name: load/store/fence/cas/exch/add
    location: str       #: memory location name, or None for fences
    value: int          #: value read (loads/atomics) or written (stores)
    is_store: bool

    def __str__(self):
        if self.op == "fence":
            return "T%d fence" % self.tid
        arrow = "<-" if self.is_store and self.op == "store" else "->"
        return "T%d %s %s %s %s" % (self.tid, self.op, self.location,
                                    arrow, self.value)


@dataclass(frozen=True)
class Witness:
    """A concrete execution trace reaching a condition-satisfying state."""

    events: tuple       #: WitnessEvent sequence, in issue order
    state: object       #: the FinalState it reaches

    def lines(self):
        out = ["%2d. %s" % (index, event)
               for index, event in enumerate(self.events, 1)]
        out.append("final: %s" % (self.state,))
        return out

    def to_json(self):
        return {"events": [[event.tid, event.op, event.location, event.value,
                            event.is_store] for event in self.events],
                "state": self.state.to_json()}

    @classmethod
    def from_json(cls, payload):
        # Fences name no location and carry no value.
        events = tuple(WitnessEvent(
            tid=_typed(tid, int), op=_typed(op, str),
            location=None if location is None else _typed(location, str),
            value=None if value is None else _typed(value, int),
            is_store=_typed(is_store, bool))
            for tid, op, location, value, is_store in payload["events"])
        return cls(events=events, state=FinalState.from_json(payload["state"]))


@dataclass(frozen=True)
class ExhaustiveResult:
    """The verdict of one exhaustive exploration, of one root branch or,
    merged (the witness of the lowest ``witness_branch`` wins), of the
    whole cell: the exhaustive backend's answer."""

    reachable: StateSet   #: every reachable final state
    executions: int       #: complete executions walked (dpor: the
                          #: state cache merges converging ones)
    transitions: int      #: transitions executed (the pruning metric)
    losses: int           #: executions satisfying the condition
    bounded: bool         #: True if any branch hit the loop bound
    strategy: str
    loop_bound: int
    witness: object       #: first condition-satisfying Witness, or None
    witness_branch: int = None  #: root-plan index that found the witness

    @property
    def complete(self):
        """All executions covered (no loop-bound truncation)."""
        return not self.bounded

    @property
    def verified(self):
        """Zero condition-satisfying states among all reachable ones."""
        return self.losses == 0

    @classmethod
    def merge(cls, results):
        results = list(results)
        first = min(results, key=lambda result: (
            result.witness is None, result.witness_branch or 0))
        return cls(
            reachable=StateSet.merge(result.reachable for result in results),
            executions=sum(result.executions for result in results),
            transitions=sum(result.transitions for result in results),
            losses=sum(result.losses for result in results),
            bounded=any(result.bounded for result in results),
            strategy=first.strategy, loop_bound=first.loop_bound,
            witness=first.witness, witness_branch=first.witness_branch)

    def observations(self, condition):
        return self.reachable.observations(condition)

    def summary(self, condition):
        return self.reachable.summary(condition)

    def pretty(self, condition=None):
        return "%s\n%d executions, %d transitions, %d losses" % (
            self.reachable.pretty(condition), self.executions,
            self.transitions, self.losses)

    def to_json(self):
        return dict(self.__dict__, reachable=self.reachable.to_json(),
                    witness=self.witness and self.witness.to_json())

    @classmethod
    def from_json(cls, payload):
        witness, branch = payload["witness"], payload["witness_branch"]
        if (witness is None) != (branch is None):
            raise ValueError("witness %r at branch %r" % (witness, branch))
        counters = {name: _typed(payload[name], kind) for name, kind in (
            ("executions", int), ("transitions", int), ("losses", int),
            ("bounded", bool), ("strategy", str), ("loop_bound", int))}
        return cls(reachable=StateSet.from_json(payload["reachable"]),
                   witness=(None if witness is None
                            else Witness.from_json(witness)),
                   witness_branch=(None if branch is None
                                   else _typed(branch, int)), **counters)


class _Event:
    """One executed transition on the current DPOR path."""

    __slots__ = ("label", "hb", "detail")

    def __init__(self, label, hb, detail):
        self.label = label
        self.hb = hb          # bitmask over earlier path positions
        self.detail = detail  # (tid, kind, address, value, is_store)


class _Frame:
    """One state on the explicit DPOR stack."""

    __slots__ = ("snapshot", "enabled", "backtrack", "done", "sleep",
                 "label", "variants", "key", "seen", "entry_sleep",
                 "summary", "open")

    def __init__(self, snapshot, enabled, sleep):
        self.snapshot = snapshot
        self.enabled = enabled    # label -> pending _Op
        self.backtrack = set()
        self.done = set()
        self.sleep = sleep
        self.label = None         # label currently being explored
        self.variants = []        # pending fence-choice scripts for label
        self.key = None           # state-cache key (dpor only)
        self.seen = None          # the entry a revisit found, if any
        self.entry_sleep = None   # the sleep set it was entered with
        self.summary = 0          # labels executed at or below it, as
                                  # a bitmask (Explorer._mask)
        self.open = False         # on a cycle closed further down


#: The cache entry of a terminal state: nothing asleep, nothing below.
_TERMINAL = (None, (), 0)


def _thread_numbering(thread):
    """A thread's next sequence number, then its queued ops' ones."""
    return (thread.seq,) + tuple([op.seq for op in thread.queue])


def _renumber(labels, old, new):
    """``labels`` (``(tid, seq, ...)`` tuples) as numbered at one visit
    of a state, renumbered as at another visit of it.

    ``old`` and ``new`` are the two visits' numberings: per thread, the
    next sequence number followed by the queued ops' ones (the last
    field of a snapshot's thread front).  Equal keys mean equal queues
    slot by slot, so a queued op maps to the op at its queue position
    and a later one keeps its distance from the next number.
    """
    maps = []
    for (old_next, *old_queue), (new_next, *new_queue) in zip(old, new):
        maps.append((old_next, new_next - old_next,
                     dict(zip(old_queue, new_queue))))
    out = set()
    for label in labels:
        old_next, offset, queued = maps[label[0]]
        seq = label[1]
        seq = queued[seq] if seq < old_next else seq + offset
        out.add((label[0], seq) + label[2:])
    return out


class Explorer:
    """Exhaustive exploration of one ``(test, chip)`` cell.

    Compiles a private :class:`~repro.sim.compile.CompiledCell` (default
    CTA placement — the one every non-``thread_rand`` campaign runs) and
    drives its threads' ``decode``/``eligible_ops``/``issue`` machinery
    directly, so the per-transition semantics are exactly the fast
    engine's.  ``intensity`` only matters structurally (zero vs
    non-zero): slot ``s`` of the intent vector is enabled iff its draw
    probability is positive.

    Transition labels are ``(tid, seq, kind, address, is_store, is_load,
    flag)`` tuples; ``(tid, seq)`` alone is unique, so tuple comparison
    never reaches the possibly-``None`` tail.  ``flag`` carries the
    commutation verdict of the static analysis: ``None`` for *barrier*
    ops (always dependent with same-thread company), ``-1`` for free
    stores, the destination register name for free loads.
    """

    def __init__(self, test, chip, intensity=1.0, strategy="dpor",
                 loop_bound=DEFAULT_LOOP_BOUND,
                 max_transitions=DEFAULT_MAX_TRANSITIONS, condition=None):
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                "unknown exploration strategy %r (expected one of: %s)"
                % (strategy, ", ".join(STRATEGIES)))
        if loop_bound < 1:
            raise ConfigurationError(
                "loop_bound must be >= 1, got %r" % (loop_bound,))
        # Checked here only: probe() lowers the budget after construction.
        if max_transitions < 1:
            raise ConfigurationError(
                "max_transitions must be >= 1, got %r" % (max_transitions,))
        self.test = test
        self.chip = chip
        self.strategy = strategy
        self.loop_bound = loop_bound
        self.max_transitions = max_transitions
        cell = compile_cell(test, chip, intensity=intensity)
        self.cell = cell
        self.threads = cell.threads
        self.memory = cell.memory
        self.iv = [probability > 0.0 for probability in cell.draw_probs]
        self.condition = condition if condition is not None else test.condition
        self._atomic_ordered = chip.atomic_ordered
        self._choice_rng = _ChoiceRng(chip.underscoped_fence_damping)
        self._flags = self._commute_tables()
        self._slot_index = [
            {id(st): slot for slot, st in enumerate(statics)}
            for statics in cell._op_statics]
        #: Ops the threads' programs enqueue, counting each static op
        #: once: a lower bound on the transitions of one launch.
        self.static_ops = sum(len(statics) for statics in cell._op_statics)
        # Every register a thread can hold, in a fixed order, and the
        # pending-set bit of each: what the state key reads them by.
        self._reg_order = []
        self._reg_bits = []
        for program, thread in zip(test.threads, self.threads):
            names = set(thread.init_regs)
            for instruction in program.instructions:
                names.update(instruction.defs())
            order = tuple(sorted(names))
            self._reg_order.append(order)
            self._reg_bits.append({name: 1 << index
                                   for index, name in enumerate(order)})
        self._sleep_only = (strategy == "dpor"
                            and self.static_ops <= SLEEP_ONLY_MAX_OPS)
        #: Race reversal needs the summaries of cached states; sleep-only
        #: cells backtrack on every awake label and need none.
        self._summaries = strategy == "dpor" and not self._sleep_only
        self._loop_counts = [0] * len(self.threads)
        self._over_bound = False
        self._wrap_backward_branches()
        self._loc_names = {address: name
                           for name, address in cell.address_map.items()}
        self.memory.reset(_StubRng())
        for thread in self.threads:
            thread.reset(self._choice_rng)
        placed = sorted({thread.sm for thread in self.threads})
        self._banks = [self.memory.shared_mem[sm] for sm in placed]
        # The snapshot part each thread front and the memory image
        # equal, or None once mutated (see _snapshot and _restore), and
        # the state-key ids and enabled labels of the same parts.
        self._live_threads = [None] * len(self.threads)
        self._live_memory = None
        self._live_ids = [None] * (len(self.threads) + 1)
        self._live_enabled = [None] * len(self.threads)
        self._interned = {}
        self._label_bits = {}
        self._label_list = []
        self._base = self._snapshot()
        self._live = self._base
        self._plan = None
        self._branch_base = 0
        self._project = None
        self._projected = set()
        self._reset_results()

    # -- static commutation analysis ----------------------------------------

    def _commute_tables(self):
        """Per-thread ``id(op-static) -> flag`` free-op tables.

        An op is *free* — provably commuting with any same-thread free
        op at a different address and destination — when its thread is
        straight-line (no backward branch) and enqueues at most a
        window's worth of ops (so decode never stalls on a full queue),
        the op is a plain non-volatile load or store, its address
        resolves statically (:func:`resolve_address`, reusing the
        analyzer's rules), and — for loads — the decode path never
        reads nor ALU-writes its destination register
        (:func:`decode_read_registers`): issuing it early or late can
        then steer neither its own thread's front end nor any register
        another instruction consults.  Everything else is a barrier op
        (flag ``None``), dependent with all same-thread company.
        """
        tables = []
        for tid, program in enumerate(self.test.threads):
            tables.append(self._thread_flags(tid, program,
                                             self.cell._op_statics[tid]))
        return tables

    def _thread_flags(self, tid, program, statics):
        table = {}
        instructions = list(program.instructions)
        for pc, instruction in enumerate(instructions):
            if (isinstance(instruction, Bra)
                    and program.labels[instruction.target] <= pc):
                return table    # looping thread: every op is a barrier
        if len(statics) > _Thread.WINDOW:
            return table        # the queue may fill and stall decode
        decode_read = decode_read_registers(program)
        decode_written = set()
        defs_by_reg = {}
        for instruction in instructions:
            if not (instruction.is_memory_access or instruction.is_fence):
                decode_written.update(instruction.defs())
        for index, instruction in enumerate(instructions):
            for reg in instruction.defs():
                defs_by_reg.setdefault(reg, []).append(index)
        queue_instructions = [instruction for instruction in instructions
                              if instruction.is_memory_access
                              or instruction.is_fence]
        if len(queue_instructions) != len(statics):
            return table        # defensive: lowering changed shape
        for instruction, st in zip(queue_instructions, statics):
            if st.kind not in (K_LOAD, K_STORE) or st.volatile:
                continue
            location, _ = resolve_address(instruction.addr, tid,
                                          self.test.reg_init, defs_by_reg)
            if location is None:
                continue        # computed address: stays a barrier
            if st.kind == K_STORE:
                table[id(st)] = -1
            elif st.dst not in decode_read and st.dst not in decode_written:
                table[id(st)] = st.dst
        return table

    # -- loop bounding ------------------------------------------------------

    def _wrap_backward_branches(self):
        """Wrap every backward ``bra`` with the per-thread back-edge hook.

        Only *taken backward* jumps count (a guarded branch that falls
        through advances the pc instead).  Past the loop bound the search
        abandons the state the transition reaches, flagging the result
        ``bounded``, unless the state cache holds it (:meth:`_back_edge`,
        :meth:`_dpor`).
        """
        for tid, program in enumerate(self.test.threads):
            thread = self.threads[tid]
            for pc, instruction in enumerate(program.instructions):
                if not isinstance(instruction, Bra):
                    continue
                target = program.labels[instruction.target]
                if target > pc:
                    continue

                def step(t, _inner=thread.code[pc], _target=target,
                         _tid=tid, _hook=self._back_edge):
                    result = _inner(t)
                    if result and t.pc == _target:
                        _hook(_tid)
                    return result

                thread.code[pc] = step

    def _back_edge(self, tid):
        """Count one taken back edge of thread ``tid``.

        Past the bound the transition still decodes to its next state,
        which the cache may hold; a second back edge past the bound in
        the same decode spins without ever reaching a state to look up,
        so it abandons the transition at once.
        """
        counts = self._loop_counts
        counts[tid] += 1
        if counts[tid] > self.loop_bound:
            if self._over_bound:
                raise _LoopBoundExceeded()
            self._over_bound = True

    # -- state keys and save/restore ---------------------------------------

    def _state_key(self):
        """The state-cache key of the live machine.

        A tuple of interned ids, one per thread front and one for the
        memory image, so a lookup hashes a few ints.  A front is its pc,
        registers (in the thread's fixed register order: every name an
        initial binding or an instruction writes), pending destinations
        (a bitmask in the same order) and queue entries by static slot —
        loop counters and sequence numbers are left out, as is L1
        content, which no load reads (:func:`_renumber` maps
        the labels of two visits onto each other).  Only the parts
        mutated since the last key or restore are rebuilt.
        """
        ids = self._live_ids
        interned = self._interned
        for tid, thread in enumerate(self.threads):
            if ids[tid] is None:
                pending = 0
                if thread.pending:
                    bits = self._reg_bits[tid]
                    for name in thread.pending:
                        pending |= bits[name]
                # One flat tuple of atomic values: the garbage collector
                # stops tracking it, and only it outlives the lookup.
                front = [thread.pc, pending]
                front += map(thread.regs.get, self._reg_order[tid])
                slots = self._slot_index[tid]
                for op in thread.queue:
                    front += (slots[id(op.st)], op.address, op.value,
                              op.compare)
                front = tuple(front)
                ids[tid] = interned.setdefault(front, len(interned))
        if ids[-1] is None:
            memory = (tuple(self.memory.global_mem.items()),
                      tuple(tuple(bank.items()) for bank in self._banks))
            ids[-1] = interned.setdefault(memory, len(interned))
        return tuple(ids)

    def _snapshot(self):
        """Everything a verdict can depend on: thread fronts, global
        memory, the placed SMs' shared banks and the loop counts.  L1
        lines are left out — no load reads them, the same argument as
        :class:`_StubRng`.  Parts the live machine still
        shares with an earlier snapshot are reused, not copied: nothing
        mutates a snapshot once taken."""
        fronts = self._live_threads
        for tid, t in enumerate(self.threads):
            if fronts[tid] is None:
                fronts[tid] = (t.pc, t.seq, dict(t.regs), set(t.pending),
                               list(t.queue), _thread_numbering(t))
        if self._live_memory is None:
            self._live_memory = (dict(self.memory.global_mem),
                                 [dict(bank) for bank in self._banks])
        global_mem, banks = self._live_memory
        return (tuple(fronts), global_mem, banks, list(self._loop_counts),
                tuple(self._live_ids), tuple(self._live_enabled))

    def _restore(self, snapshot):
        """Make the live machine equal ``snapshot``.

        ``_live`` is the snapshot the machine already equals, or None:
        set when a snapshot is taken of the live state or a restore
        completes, cleared by everything that mutates the machine
        (:meth:`_execute`, :meth:`_initial_decode`, a restore in
        progress), so a restore to ``_live`` has nothing to do.  Below
        that, a thread front or memory image the live machine still
        shares with ``snapshot`` is not copied back.
        """
        if snapshot is self._live:
            return
        self._live = None
        thread_states, global_mem, banks, loop_counts, ids, enabled = snapshot
        fronts = self._live_threads
        for tid, (thread, state) in enumerate(zip(self.threads,
                                                  thread_states)):
            if fronts[tid] is state:
                continue
            pc, seq, regs, pending, queue, _ = state
            thread.pc = pc
            thread.seq = seq
            thread.regs.clear()
            thread.regs.update(regs)
            thread.pending.clear()
            thread.pending.update(pending)
            thread.queue[:] = queue
            fronts[tid] = state
            self._live_ids[tid] = ids[tid]
            self._live_enabled[tid] = enabled[tid]
        if self._live_memory is None or self._live_memory[0] is not global_mem:
            memory = self.memory
            memory.global_mem.clear()
            memory.global_mem.update(global_mem)
            for bank, saved in zip(self._banks, banks):
                bank.clear()
                bank.update(saved)
            self._live_memory = (global_mem, banks)
            self._live_ids[-1] = ids[-1]
        self._loop_counts[:] = loop_counts
        self._live = snapshot

    # -- transitions --------------------------------------------------------

    def _enabled(self):
        """All enabled transition labels at the current (decoded) state.

        A label is path-stable (the pending op keeps its identity until
        issued) and deterministically ordered by its unique
        ``(tid, seq)`` prefix.  A thread's labels depend on its own
        front only, so they are rebuilt only for the threads mutated
        since the last call or restore.
        """
        parts = self._live_enabled
        iv = self.iv
        enabled = {}
        for tid, thread in enumerate(self.threads):
            part = parts[tid]
            if part is None:
                part = parts[tid] = {}
                if thread.pc < thread.ncode or thread.queue:
                    table = self._flags[tid]
                    for op in thread.eligible_ops(iv):
                        st = op.st
                        part[(tid, op.seq, st.kind, op.address, st.is_store,
                              st.is_load, table.get(id(st)))] = op
            enabled.update(part)
        return enabled

    def _dependent(self, a, b):
        """May the transitions labelled ``a`` and ``b`` not commute?

        Cross-thread: fences touch only their own SM's L1 (unread, see
        :class:`_StubRng`) and are independent of everything; memory
        ops conflict iff they target the same address with at least one
        writer.  Same-thread: barrier ops (flag ``None``) are dependent
        with everything; free ops conflict on a shared address, on a
        shared destination register, or when the chip's pass rule pins
        their issue order (a disabled pass slot means the younger op can
        never overtake — order is forced, not commuting).
        """
        if a[0] != b[0]:
            if a[2] == K_FENCE or b[2] == K_FENCE:
                return False
            if a[3] != b[3]:
                return False
            return a[4] or b[4]
        if a[6] is None or b[6] is None:
            return True
        if a[3] == b[3]:
            return True
        if a[5] and b[5] and a[6] == b[6]:
            return True
        older, younger = (a, b) if a[1] < b[1] else (b, a)
        return not self.iv[_PASS_PAIR[younger[4]][older[4]]]

    def _may_precede(self, b, a):
        """May ``b`` ever issue while same-thread ``a`` is still queued?

        The static mirror of ``_Thread.eligible_ops`` pair rules, used
        to skip seeding intra-thread race reversals that the pass rules
        make unrealisable (on in-order chips this is every one of them).
        Conservative towards ``True``: a wrong ``True`` costs a no-op
        backtrack entry, a wrong ``False`` would lose executions.
        """
        if b[1] < a[1]:
            return True         # program-order older: never blocked by a
        if b[2] == K_FENCE:
            return False        # fences never pass anything
        iv = self.iv
        if a[2] == K_FENCE:
            # Only .ca loads slip past fences, and only via a bypass
            # intent; the label can't see the cache op, so any enabled
            # bypass slot keeps the reversal plausible.
            return (b[2] == K_LOAD
                    and any(iv[SLOT_BYPASS_BASE:]))
        if self._atomic_ordered and (b[2] in _ATOMIC_KINDS
                                     or a[2] in _ATOMIC_KINDS):
            return False
        if b[3] == a[3]:
            if b[2] == K_LOAD and a[2] == K_LOAD:
                return iv[SLOT_RR_HAZARD] or iv[SLOT_MIXED_HAZARD]
            return False        # same address: order enforced
        return iv[_PASS_PAIR[b[4]][a[4]]]

    def _execute(self, label, op):
        """Issue ``op`` and re-decode its thread to fixpoint."""
        self._live = None
        self.transitions += 1
        explored = self.transitions - self._branch_base
        if explored > self.max_transitions:
            raise ExplorationLimit(
                "exhaustive exploration of cell %s on %s aborted after "
                "%d transitions (budget %d per branch): raise "
                "--max-transitions or lower --loop-bound to shrink the "
                "space" % (self.test.name, self.chip.short, explored,
                           self.max_transitions))
        tid = label[0]
        st = op.st
        self._live_threads[tid] = self._live_ids[tid] = None
        self._live_enabled[tid] = None
        if st.kind in _WRITING_KINDS:
            self._live_memory = self._live_ids[-1] = None
        self._over_bound = False
        thread = self.threads[tid]
        thread.issue(op)
        if st.kind == K_STORE:
            value = op.value
        elif st.kind == K_FENCE:
            value = None
        else:
            value = thread.regs.get(st.dst)
        while thread.decode():
            pass
        return (tid, st.kind, op.address, value, st.is_store)

    @staticmethod
    def _queue_variants(worklist, script, taken):
        """Enumerate the untaken fence-choice siblings of one execution:
        for every effective draw beyond the forced prefix, the script
        that flips it (classic binary-tree stateless enumeration)."""
        for index in range(len(script), len(taken)):
            if taken[index]:
                worklist.append(taken[:index] + (False,))

    # -- terminal states ----------------------------------------------------

    def _record_terminal(self, events):
        for thread in self.threads:
            if not thread.done:
                raise SimulationError(
                    "exhaustive exploration wedged in %s: a thread has "
                    "work but no eligible op (decode-fixpoint invariant "
                    "violated)" % self.test.name)
        state = self.cell._final_state()
        self.executions += 1
        self.reachable.add(state)
        if self._project is not None:
            self._projected.add(self._project(state))
            if len(self._projected) > 1:
                raise _ProbeStop()
        if self.condition is not None and self.condition.holds(state):
            self.losses += 1
            if self.witness is None:
                self.witness = self._capture_witness(events, state)

    def _capture_witness(self, events, state):
        out = []
        for event in events:
            tid, kind, address, value, is_store = event.detail
            out.append(WitnessEvent(
                tid=tid, op=KIND_NAMES[kind],
                location=self._loc_names.get(address), value=value,
                is_store=is_store))
        return Witness(events=tuple(out), state=state)

    # -- DPOR ---------------------------------------------------------------

    def _make_frame(self, sleep, events=()):
        enabled = self._enabled()
        if not enabled:
            self._record_terminal(events)
            return None
        frame = _Frame(self._snapshot(), enabled, sleep)
        self._live = frame.snapshot
        if self.strategy == "naive":
            frame.backtrack = set(enabled)
            return frame
        awake = [label for label in enabled if label not in sleep]
        if not awake:
            # Every enabled transition is asleep — this state's subtree
            # is already covered elsewhere (sleep-set blocking).
            return frame
        if self._sleep_only:
            frame.backtrack.update(awake)
            return frame
        # Seed the persistent set with the dependence-cluster of the
        # smallest awake label: every awake same-thread op transitively
        # dependent with it.  Free ops outside the cluster commute with
        # all of it and stay out; cross-thread and intra-thread races
        # reach the seed's siblings through _update_races reversal.
        seed = min(awake)
        cluster = {seed}
        thread_awake = [label for label in awake if label[0] == seed[0]]
        grew = True
        while grew:
            grew = False
            for label in thread_awake:
                if label in cluster:
                    continue
                if any(self._dependent(label, member) for member in cluster):
                    cluster.add(label)
                    grew = True
        frame.backtrack.update(cluster)
        return frame

    def _pick(self, frame):
        """Next unexplored backtrack label, or None when exhausted.

        Called only between labels (never between fence variants), so
        the previous label is fully explored here — the moment it joins
        the sleep set for its later siblings.
        """
        if frame.label is not None:
            frame.sleep.add(frame.label)
            frame.label = None
        candidates = [label for label in frame.backtrack
                      if label not in frame.done and label not in frame.sleep]
        if not candidates:
            return None
        return min(candidates)

    def _update_races(self, stack, events, label):
        """Happens-before closure + persistent-set race reversal.

        ``events[i]`` was executed from ``stack[i]``; its ``hb`` mask is
        already transitively closed, so the new transition's closure is
        the union over its direct dependence predecessors — the same
        bitmask-row idiom as
        :meth:`~repro.model.relation.IndexedRelation.transitive_closure`.
        A dependent event not ordered before ``label`` through *other*
        predecessors is a reversible race: seed the backtrack set of its
        pre-state with the threads that can reach the reversal
        (Flanagan-Godefroid's E-set, all labels of those threads at our
        transition granularity; every enabled label if none qualify).
        Same-thread races are seeded too — intra-thread issue reordering
        is a real relaxation — but only when :meth:`_may_precede` says
        the chip's pass rules can realise the reversal.
        """
        if self.strategy != "dpor" or self._sleep_only:
            return 0
        tid = label[0]
        contributors = [index for index, event in enumerate(events)
                        if self._dependent(event.label, label)]
        hb = 0
        for index in contributors:
            hb |= events[index].hb | (1 << index)
        for index in contributors:
            event = events[index]
            if (event.label[0] == tid
                    and not self._may_precede(label, event.label)):
                continue
            ordered = 0
            for other in contributors:
                if other != index:
                    ordered |= events[other].hb | (1 << other)
            if (ordered >> index) & 1:
                continue    # ordered via intermediates: not reversible
            frame = stack[index]
            tids = {tid}
            for later in range(index + 1, len(events)):
                if (hb >> later) & 1:
                    tids.add(events[later].label[0])
            candidates = [other for other in frame.enabled
                          if other[0] in tids]
            frame.backtrack.update(candidates or frame.enabled)
        return hb

    def _enter(self, frame, key, seen, cache, depth):
        """Put ``frame``, about to go on the stack at ``depth``, in the
        state cache; ``seen`` is the entry of a state explored again.

        An entry is the stack depth while its state is on the stack,
        then ``(numbering, sleep, summary)``: the numbering of the visit
        (see :func:`_renumber`), the sleep set it was entered with (a
        tuple) and the summary bitmask of the labels executed at or
        below it — values the garbage collector stops tracking.
        """
        frame.key = key
        frame.seen = seen
        frame.entry_sleep = tuple(frame.sleep)
        cache[key] = depth

    def _mask(self, labels):
        """The summary bitmask of ``labels``: one bit per label, numbered
        in the order the branch first summarises them."""
        bits = self._label_bits
        mask = 0
        for label in labels:
            bit = bits.get(label)
            if bit is None:
                bit = bits[label] = 1 << len(self._label_list)
                self._label_list.append(label)
            mask |= bit
        return mask

    def _summarised(self, mask):
        """The labels of summary bitmask ``mask``."""
        labels = self._label_list
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return out

    def _leave(self, frame, stack, cache):
        """Record what the search explored at ``frame``, just popped off
        ``stack``: its summary joins its parent's and its cache entry
        is completed — or restored, if a cycle left it open."""
        summary = frame.summary
        if stack:
            stack[-1].summary |= summary
        seen = frame.seen
        if frame.open:
            if seen is None:
                del cache[frame.key]
            else:
                cache[frame.key] = seen
            return
        numbering = tuple([state[5] for state in frame.snapshot[0]])
        sleep = frame.entry_sleep
        if seen is not None:
            # Explored again under a sleep set the entry did not cover:
            # the state is now covered except where both sleep sets
            # agree.
            old_numbering, old_sleep, old_summary = seen
            if old_numbering != numbering:
                old_sleep = _renumber(old_sleep, old_numbering, numbering)
                old_summary = self._mask(_renumber(
                    self._summarised(old_summary), old_numbering,
                    numbering))
            sleep = tuple(set(old_sleep).intersection(sleep))
            summary |= old_summary
        cache[frame.key] = (numbering, sleep, summary)

    def _revisit(self, seen, stack, events, sleep):
        """The transition just taken reached a state the cache holds:
        may the search stop there?

        On the stack, it is a cycle: :meth:`_expand_cycle`, and stop.
        Otherwise stop only if the stored sleep set is a subset of
        ``sleep`` (Godefroid's rule), after reversing every race between
        the current path and a summarised transition, as the pruned
        future would have.
        """
        if type(seen) is int:
            self._expand_cycle(stack, seen)
            return True
        numbering, stored, summary = seen
        if stored or summary:
            current = tuple([_thread_numbering(thread)
                             for thread in self.threads])
            if current != numbering:
                stored = _renumber(stored, numbering, current)
                summary = self._mask(_renumber(self._summarised(summary),
                                               numbering, current))
        if not sleep.issuperset(stored):
            return False
        if summary:
            for label in self._summarised(summary):
                self._update_races(stack, events, label)
            stack[-1].summary |= summary
        return True

    @staticmethod
    def _expand_cycle(stack, depth):
        """Compensate a cycle back to ``stack[depth]``: its future can
        seed no race reversal, so every frame from that state up is
        fully expanded (all non-sleeping enabled labels join the
        backtrack set), and the frames above it are left out of the
        cache, their summaries missing what the cycle skipped."""
        for frame in stack[depth:]:
            frame.backtrack.update(label for label in frame.enabled
                                   if label not in frame.sleep)
        for frame in stack[depth + 1:]:
            frame.open = True

    def _dpor(self, branch):
        """Explore one root branch from the current (decoded) state.

        The root frame is pinned to branch ``branch`` of the sorted
        enabled labels, with every earlier sibling asleep (exactly the
        state serial sleep-set exploration reaches after finishing those
        siblings) — so exploring the branches in order equals one
        classic run, and exploring them in parallel merges to the same.
        The ``dpor`` strategy gives the branch a fresh state cache; the
        state each transition reaches is looked up before anything else
        (:meth:`_revisit`), then checked against the loop bound.
        """
        enabled = self._enabled()
        if not enabled:
            return
        labels = sorted(enabled)
        cache = {} if self.strategy == "dpor" else None
        if cache is not None:
            self._interned = {}
            self._live_ids[:] = [None] * len(self._live_ids)
            self._label_bits = {}
            self._label_list = []
            key = self._state_key()
        root = _Frame(self._snapshot(), enabled, set())
        self._live = root.snapshot
        label = labels[branch]
        root.backtrack = {label}
        root.done = set(labels) - {label}
        if self.strategy != "naive":
            root.sleep = set(labels[:branch])
        if cache is not None:
            self._enter(root, key, None, cache, 0)
        stack = [root]
        events = []
        rng = self._choice_rng
        summaries = self._summaries
        label_bits = self._label_bits
        while stack:
            depth = len(stack) - 1
            frame = stack[depth]
            del events[depth:]
            if frame.variants:
                script = frame.variants.pop()
            else:
                label = self._pick(frame)
                if label is None:
                    stack.pop()
                    if cache is not None:
                        self._leave(frame, stack, cache)
                    continue
                frame.label = label
                frame.done.add(label)
                script = ()
            label = frame.label
            self._restore(frame.snapshot)
            hb = self._update_races(stack, events, label)
            rng.begin(script)
            try:
                detail = self._execute(label, frame.enabled[label])
            except _LoopBoundExceeded:
                self._hit_bound()
                self._queue_variants(frame.variants, script,
                                     tuple(rng.taken))
                continue
            self._queue_variants(frame.variants, script, tuple(rng.taken))
            events.append(_Event(label, hb, detail))
            if self.strategy == "naive":
                child_sleep = set()
            else:
                child_sleep = {other for other in frame.sleep
                               if not self._dependent(other, label)}
            seen = None
            if cache is not None:
                if summaries:
                    frame.summary |= (label_bits.get(label)
                                      or self._mask((label,)))
                key = self._state_key()
                seen = cache.get(key)
                if seen is not None and self._revisit(seen, stack, events,
                                                      child_sleep):
                    continue
            if self._over_bound:
                self._hit_bound()
                continue
            child = self._make_frame(child_sleep, events)
            if child is None:
                if cache is not None:
                    cache[key] = _TERMINAL
                continue
            if cache is not None:
                self._enter(child, key, seen, cache, len(stack))
            stack.append(child)

    # -- driver -------------------------------------------------------------

    def _initial_decode(self):
        """Decode every thread to fixpoint before the first issue; False
        when a thread spun past the loop bound on the way (no state the
        fresh cache holds can excuse it)."""
        self._live = None
        for tid in range(len(self.threads)):
            self._live_threads[tid] = self._live_ids[tid] = None
            self._live_enabled[tid] = None
        self._over_bound = False
        try:
            for thread in self.threads:
                while thread.decode():
                    pass
        except _LoopBoundExceeded:
            return False
        return not self._over_bound

    def root_plan(self):
        """The static branch partition: ``(fence-script, branch)`` pairs.

        The initial decode (before any issue) may itself hit fence
        choice points, so its outcomes are enumerated as exploration
        roots; each root state then contributes one entry per enabled
        transition (``branch >= 0``) or a single ``branch = -1`` entry
        when it is terminal or truncated.  The plan is a pure function
        of the cell — every worker and every serial run derives the
        identical list, which is what makes per-branch results merge
        deterministically.
        """
        if self._plan is not None:
            return self._plan
        plan = []
        rng = self._choice_rng
        scripts = [()]
        while scripts:
            script = scripts.pop()
            self._restore(self._base)
            rng.begin(script)
            within_bound = self._initial_decode()
            self._queue_variants(scripts, script, tuple(rng.taken))
            if not within_bound:
                plan.append((script, -1))
                continue
            branches = len(self._enabled())
            if branches == 0:
                plan.append((script, -1))
            else:
                plan.extend((script, branch) for branch in range(branches))
        self._restore(self._base)
        self._plan = plan
        return plan

    def _hit_bound(self):
        """A branch was abandoned at the loop bound: the reachable set is
        now incomplete, which ends a probe."""
        self.bounded = True
        if self._project is not None:
            raise _ProbeStop()

    def _reset_results(self):
        self.reachable = set()
        self.executions = 0
        self.transitions = 0
        self.losses = 0
        self.bounded = False
        self.witness = None
        self._branch_base = 0


    def _run_branch(self, entry):
        script, branch = entry
        rng = self._choice_rng
        self._restore(self._base)
        self._branch_base = self.transitions
        rng.begin(script)
        if not self._initial_decode():
            self._hit_bound()
            return
        if branch < 0:
            if not self._enabled():
                self._record_terminal(())
            return
        self._dpor(branch)

    def run(self):
        """Explore everything; returns the :class:`ExhaustiveResult`.

        Merges the branches of :meth:`root_plan` explored in order — the
        exact decomposition a parallel run shards across workers, so
        both spell out the same transitions in the same per-branch
        groups.
        """
        return ExhaustiveResult.merge(
            self.run_branch(index) for index in range(len(self.root_plan())))

    def run_branch(self, index):
        """Explore exactly one :meth:`root_plan` entry (a parallel shard);
        returns the branch-local :class:`ExhaustiveResult`, its witness
        tagged with ``index``."""
        self._reset_results()
        self._run_branch(self.root_plan()[index])
        return ExhaustiveResult(
            reachable=StateSet(self.reachable), executions=self.executions,
            transitions=self.transitions, losses=self.losses,
            bounded=self.bounded, strategy=self.strategy,
            loop_bound=self.loop_bound, witness=self.witness,
            witness_branch=None if self.witness is None else index)

    def probe(self, project, budget):
        """The single projected final state of the cell, or ``None``.

        An early-stopping :meth:`run` for callers that need only know
        whether every execution reaches one ``project(state)``: it
        explores :meth:`root_plan` in order and returns ``None`` at the
        second distinct projected state, at the first loop-bound hit
        (the reachable set would be incomplete) or once more than
        ``budget`` transitions in total are spent, so it never raises
        :class:`~repro.errors.ExplorationLimit`.
        """
        plan = self.root_plan()
        self._reset_results()
        self._project = project
        self._projected = set()
        per_branch = self.max_transitions
        try:
            for entry in plan:
                # _execute enforces a per-branch budget: give each
                # branch what is left of the total.
                self.max_transitions = budget - self.transitions
                self._run_branch(entry)
        except (_ProbeStop, ExplorationLimit):
            return None
        finally:
            self._project = None
            self.max_transitions = per_branch
        (state,) = self._projected
        return state


def explore_test(test, chip, intensity=1.0, strategy="dpor",
                 loop_bound=DEFAULT_LOOP_BOUND,
                 max_transitions=DEFAULT_MAX_TRANSITIONS, condition=None):
    """Exhaustively explore one cell; returns an :class:`ExhaustiveResult`.

    ``condition`` defaults to the test's own final condition (which for
    scenario-built tests *is* the loss predicate), counted per execution
    with the first satisfying trace captured as the witness.
    """
    return Explorer(test, chip, intensity=intensity, strategy=strategy,
                    loop_bound=loop_bound, max_transitions=max_transitions,
                    condition=condition).run()


def execution_graph(witness):
    """Index a witness trace into PR 4's relation machinery.

    Returns ``(index, relations)`` where ``index`` is an
    :class:`~repro.model.relation.EventIndex` over the event positions
    and ``relations`` maps ``po`` (same-thread order), ``com``
    (same-location communication with a writer) and ``hb`` (their
    transitive closure) to :class:`~repro.model.relation.IndexedRelation`
    bitmask rows — the same execution-graph core the axiomatic engine
    compiles against.
    """
    from ..model.relation import EventIndex, IndexedRelation
    events = witness.events
    index = EventIndex(tuple(range(len(events))))
    po_pairs, com_pairs = [], []
    for i, first in enumerate(events):
        for j in range(i + 1, len(events)):
            second = events[j]
            if first.tid == second.tid:
                po_pairs.append((i, j))
            elif (first.location is not None
                    and first.location == second.location
                    and (first.is_store or second.is_store)):
                com_pairs.append((i, j))
    po = IndexedRelation.from_pairs(index, po_pairs)
    com = IndexedRelation.from_pairs(index, com_pairs)
    return index, {"po": po, "com": com, "hb": (po | com).transitive_closure()}
