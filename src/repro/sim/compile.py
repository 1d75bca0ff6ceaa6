"""Compile-once, run-many fast path for the operational simulator.

:class:`~repro.sim.machine.GpuMachine` interprets each litmus test
generically: every iteration re-dispatches each instruction through the
decoder table, rebuilds the memory system and thread engines from
scratch, creates a dataclass per pending memory operation and formats
intent-dictionary keys inside the preserved-program-order check.  That
per-instruction interpretation is the hot path behind every figure
benchmark and the Sec. 5.4 soundness campaign.

:func:`compile_cell` removes that overhead by lowering one
``(test, chip, incantations)`` cell ahead of time:

* each instruction becomes a specialized **step closure** with its
  dispatch resolved and operands pre-decoded (``Loc``-based addresses
  folded to integers, immediates to constants, the decoder table gone);
* fence scope checks are pre-bound against the test's
  :class:`~repro.hierarchy.ScopeTree`: a ``membar`` whose scope covers
  the cell's required scope compiles to an unconditional enqueue, an
  under-scoped one to the chip's damping draw;
* the preserved-program-order check reads pre-computed pass-rule slots
  from an intent *vector* instead of formatting dictionary keys;
* machine and memory state is **reused across iterations** — dicts are
  cleared and refilled rather than reallocated, and the compiled cell is
  reused across all shards that a backend runs in-process;
* a whole shard runs in one loop, :meth:`CompiledCell.tally`, which
  binds the draw plan, memory, threads and outcome reader once, counts
  each iteration's outcome as a plain tuple of register and memory
  values and builds one :class:`FinalState` per *distinct* outcome, in
  first-seen order, instead of building, hashing and comparing one per
  iteration.  :meth:`CompiledCell.run_once` is its one-iteration case
  and :meth:`CompiledCell.resume` shares its scheduler loop.  The loop
  is not called ``run_many``: :func:`~repro.sim.engine.run_batch` and
  profilers (perfbench's tracer) read that name as a batch cell, whose
  launches are counted apart from engine iterations;
* a thread's ``tick`` skips decode once its front end is past the
  program, returns on an empty queue, and issues a lone queued op
  directly: the oldest op is always eligible, and a single candidate
  takes no draw.

Correctness contract (property-tested in ``tests/test_sim_compile.py``):
for the same seed, a compiled cell consumes the underlying ``Random``
stream in *exactly* the same sequence as the reference engine — through
the same public ``random``/``choice``/``randrange`` calls — and
therefore produces **bit-identical histograms**, counts and first-seen
order alike, for every test × chip × incantation combination and any
shard decomposition; the ``Random`` is left at the same position.  The
shortcuts above skip only work that draws nothing and changes nothing.
Anything less would silently change every figure benchmark; any
intentional change to the reference semantics must be mirrored here
(the equivalence suite fails loudly otherwise).
"""

from ..errors import FuelExhausted, SimulationError
from ..litmus.condition import FinalState
from ..ptx.instructions import (Add, And, AtomAdd, AtomCas, AtomExch,
                                AtomInc, Bra, Cvt, Label, Ld, Membar, Mov,
                                Setp, St, Xor)
from ..ptx.operands import Addr, Imm, Loc, Reg
from ..ptx.types import MemorySpace, Scope
from .._util import wrap32
from .machine import _FUEL_PER_INSTRUCTION

# -- pending-op kinds (integer codes; the reference engine uses strings) --

K_LOAD, K_STORE, K_FENCE, K_CAS, K_EXCH, K_ADD = range(6)

# -- intent-vector slots ----------------------------------------------------
#
# The slot order *is* the reference draw order of
# :meth:`ChipProfile.draw_intents`: the five relaxation kinds of
# ``ChipProfile.RELAXATIONS`` (minus ``volatile_relax``), then
# ``volatile_relax``, then ``mixed_hazard``, then one (mixed, ca) bypass
# pair per :class:`Scope` in enum order.  One ``rng.random()`` per slot,
# so the fast path's Bernoulli stream matches the reference bit for bit.

SLOT_R_PASS_W = 0
SLOT_W_PASS_W = 1
SLOT_R_PASS_R = 2
SLOT_W_PASS_R = 3
SLOT_RR_HAZARD = 4
SLOT_VOLATILE = 5
SLOT_MIXED_HAZARD = 6
SLOT_BYPASS_BASE = 7

#: pass-rule slot for (younger is_store, older is_store) — the compiled
#: twin of the reference engine's ``intents["%s_pass_%s"]`` lookup.
_PASS_PAIR = {
    False: (SLOT_R_PASS_R, SLOT_R_PASS_W),   # younger is a read
    True: (SLOT_W_PASS_R, SLOT_W_PASS_W),    # younger writes (incl. atomics)
}

_SCOPES = list(Scope)


def _bypass_slots(scope):
    """(mixed_bypass, ca_bypass) intent slots for a fence of ``scope``."""
    index = _SCOPES.index(scope)
    return (SLOT_BYPASS_BASE + 2 * index, SLOT_BYPASS_BASE + 2 * index + 1)


class _OpStatic:
    """Per-*instruction* facts shared by every pending op it enqueues.

    Built once at compile time; the per-iteration :class:`_Op` carries
    only the dynamic fields (sequence number, address, operand values).
    """

    __slots__ = ("kind", "dst", "cop", "volatile", "is_load", "is_store",
                 "atomic", "ca_load", "pass_pair", "mixed_slot", "ca_slot")

    def __init__(self, kind, dst=None, cop=None, volatile=False,
                 mixed_slot=0, ca_slot=0):
        self.kind = kind
        self.dst = dst
        self.cop = cop
        self.volatile = volatile
        self.is_load = kind in (K_LOAD, K_CAS, K_EXCH, K_ADD)
        self.is_store = kind in (K_STORE, K_CAS, K_EXCH, K_ADD)
        self.atomic = kind in (K_CAS, K_EXCH, K_ADD)
        self.ca_load = kind == K_LOAD and cop == "ca"
        self.pass_pair = _PASS_PAIR[self.is_store]
        self.mixed_slot = mixed_slot
        self.ca_slot = ca_slot


class _Op:
    """One pending memory operation (the fast twin of ``PendingOp``)."""

    __slots__ = ("seq", "address", "value", "compare", "st")

    def __init__(self, seq, address, value, compare, st):
        self.seq = seq
        self.address = address
        self.value = value
        self.compare = compare
        self.st = st


_MISS = object()


class _Memory:
    """The simulated memory system, reset (not reallocated) per iteration.

    Semantics — including every ``rng.random()`` draw and its position in
    the stream — mirror :class:`~repro.sim.memory.MemorySystem` exactly,
    its per-SM L1 presence sets included; the chip's L1 switch and the
    space of every address are pre-bound at compile time instead of
    being re-derived per access.
    """

    __slots__ = ("n_sms", "rng", "global_mem", "shared_mem", "l1",
                 "init_global", "init_shared", "shared_addrs",
                 "l1_stale_reads")

    def __init__(self, chip, init_global, init_shared, shared_addrs):
        self.n_sms = chip.n_sms
        self.rng = None
        self.init_global = init_global     # insertion order = install order
        self.init_shared = init_shared
        self.shared_addrs = shared_addrs
        self.l1_stale_reads = chip.l1_stale_reads
        self.global_mem = dict(init_global)
        self.shared_mem = [dict(init_shared) for _ in range(self.n_sms)]
        self.l1 = [set() for _ in range(self.n_sms)]

    def reset(self, rng):
        """Restore the initial state and empty the L1.

        The address sets are fixed per cell — writes to uninstalled
        addresses raise — so restoring is a plain ``update`` with the
        initial image, no clearing; only non-empty L1 lines are dropped.
        """
        self.rng = rng
        self.global_mem.update(self.init_global)
        init_shared = self.init_shared
        if init_shared:
            for shared in self.shared_mem:
                shared.update(init_shared)
        for line in self.l1:
            if line:
                line.clear()

    def read(self, sm, address, cop, volatile):
        value = self.global_mem.get(address, _MISS)
        if value is _MISS:
            if address in self.shared_addrs:
                return self.shared_mem[sm][address]
            raise SimulationError("access to uninstalled address %#x" % address)
        if volatile or cop is None:
            return value
        if cop == "ca":
            if self.l1_stale_reads:
                self.l1[sm].add(address)
        elif cop == "cg" or cop == "cv":
            line = self.l1[sm]
            if address in line:
                self.rng.random()
                line.discard(address)
        return value

    def write(self, sm, address, value):
        if address in self.shared_addrs:
            self.shared_mem[sm][address] = value
            return
        if address not in self.global_mem:
            raise SimulationError("access to uninstalled address %#x" % address)
        self.global_mem[address] = value
        line = self.l1[sm]
        if address in line:
            self.rng.random()
            line.discard(address)

    def fence(self, sm):
        line = self.l1[sm]
        if line:
            random = self.rng.random
            for _ in line:
                random()
            line.clear()

    def atomic_read(self, sm, address):
        if address in self.shared_addrs:
            return self.shared_mem[sm][address]
        value = self.global_mem.get(address, _MISS)
        if value is _MISS:
            raise SimulationError("access to uninstalled address %#x" % address)
        return value

    def atomic_write(self, sm, address, value):
        if address in self.shared_addrs:
            self.shared_mem[sm][address] = value
        elif address in self.global_mem:
            self.global_mem[address] = value
        else:
            raise SimulationError("access to uninstalled address %#x" % address)

    def final_value(self, address):
        if address not in self.shared_addrs:
            return self.global_mem[address]
        values = {shared.get(address) for shared in self.shared_mem}
        values.discard(None)
        if len(values) == 1:
            return values.pop()
        return next(iter(sorted(v for v in values if v is not None)))


class _Thread:
    """Compiled frontend + pending queue for one thread.

    ``code`` is the list of step closures produced by :class:`_Compiler`
    — one per instruction, sharing program-counter indices with the
    source program so branch targets line up.  A closure returns True
    for progress (instruction retired or op enqueued) and False for a
    stall, which is all the decode loop needs.
    """

    __slots__ = ("code", "ncode", "init_regs", "regs", "pending", "queue",
                 "seq", "pc", "sm", "rng", "memory", "atomic_ordered",
                 "volatile_ordered")

    #: Issue-window size and decode budget of the reference engine.
    WINDOW = 16
    BUDGET = 32

    def __init__(self, code, init_regs, memory, chip):
        self.code = code
        self.ncode = len(code)
        self.init_regs = init_regs
        self.regs = dict(init_regs)
        self.pending = set()
        self.queue = []
        self.seq = 0
        self.pc = 0
        self.sm = 0
        self.rng = None
        self.memory = memory
        self.atomic_ordered = chip.atomic_ordered
        self.volatile_ordered = chip.volatile_ordered

    def reset(self, rng):
        regs = self.regs
        regs.clear()
        regs.update(self.init_regs)
        self.pending.clear()
        del self.queue[:]
        self.seq = 0
        self.pc = 0
        self.rng = rng

    @property
    def done(self):
        return self.pc >= self.ncode and not self.queue

    def decode(self):
        code = self.code
        ncode = self.ncode
        queue = self.queue
        progressed = False
        budget = self.BUDGET
        while budget and self.pc < ncode and len(queue) < self.WINDOW:
            if code[self.pc](self):
                progressed = True
                budget -= 1
            else:
                break
        return progressed

    def eligible_ops(self, iv):
        """Queue entries that may issue now, oldest first.

        The inlined twin of the reference engine's
        ``eligible_ops``/``may_pass``/``_may_bypass_fence`` trio; the
        queue is seq-ascending by construction, so the first entry is
        always the oldest eligible op, and a queue of at most one entry
        is returned as it stands.
        """
        queue = self.queue
        if len(queue) < 2:
            return queue[:]
        atomic_ordered = self.atomic_ordered
        volatile_ordered = self.volatile_ordered
        out = [queue[0]]
        for index in range(1, len(queue)):
            younger = queue[index]
            yst = younger.st
            ykind = yst.kind
            if ykind == K_FENCE:
                continue        # a fence never passes an older op
            ok = True
            for j in range(index):
                older = queue[j]
                ost = older.st
                if ost.kind == K_FENCE:
                    # A .ca load may slip past a fence (Figs. 3 and 4);
                    # nothing else may.
                    if not yst.ca_load:
                        ok = False
                        break
                    address = younger.address
                    fence_seq = older.seq
                    same_addr_before = False
                    for probe in queue:
                        if (probe.seq < fence_seq and probe.st.is_load
                                and probe.address == address):
                            same_addr_before = True
                            break
                    slot = ost.mixed_slot if same_addr_before else ost.ca_slot
                    if not iv[slot]:
                        ok = False
                        break
                    continue
                if atomic_ordered and (yst.atomic or ost.atomic):
                    ok = False
                    break
                if yst.volatile and ost.volatile:
                    if volatile_ordered or not iv[SLOT_VOLATILE]:
                        ok = False
                        break
                if younger.address == older.address:
                    if ykind == K_LOAD and ost.kind == K_LOAD:
                        hazard = (iv[SLOT_RR_HAZARD] if yst.cop == ost.cop
                                  else iv[SLOT_MIXED_HAZARD])
                        if hazard:
                            continue
                    ok = False
                    break
                if not iv[yst.pass_pair[ost.is_store]]:
                    ok = False
                    break
            if ok:
                out.append(younger)
        return out

    def issue(self, op):
        self.queue.remove(op)
        st = op.st
        kind = st.kind
        memory = self.memory
        sm = self.sm
        if kind == K_LOAD:
            value = memory.read(sm, op.address, st.cop, st.volatile)
        elif kind == K_STORE:
            memory.write(sm, op.address, op.value)
            return
        elif kind == K_FENCE:
            memory.fence(sm)
            return
        elif kind == K_CAS:
            value = memory.atomic_read(sm, op.address)
            if value == op.compare:
                memory.atomic_write(sm, op.address, op.value)
        elif kind == K_EXCH:
            value = memory.atomic_read(sm, op.address)
            memory.atomic_write(sm, op.address, op.value)
        else:  # K_ADD
            value = memory.atomic_read(sm, op.address)
            memory.atomic_write(sm, op.address, value + op.value)
        self.regs[st.dst] = value
        self.pending.discard(st.dst)

    def tick(self, iv, any_intent):
        """One scheduler slot, as the reference engine's ``tick``: decode
        (skipped once the front end is past the program), then issue one
        op.  The oldest queued op is always eligible, so a non-empty
        queue always issues, and a lone op issues without a draw."""
        progressed = self.pc < self.ncode and self.decode()
        queue = self.queue
        if not queue:
            return progressed
        if len(queue) == 1:
            op = queue[0]
        else:
            eligible = self.eligible_ops(iv)
            # Under an active relaxation intent the engine *seeks*
            # reorderings, exactly like the reference: pick a random
            # non-oldest eligible op when one exists.
            if any_intent and len(eligible) > 1:
                op = self.rng.choice(eligible[1:])
            else:
                op = eligible[0]
        self.issue(op)
        return True


class _Compiler:
    """Lowers one thread program into step closures."""

    def __init__(self, program, address_map, required_scope, scope_blind,
                 underscoped_damping):
        self.program = program
        self.address_map = address_map
        self.required_scope = required_scope
        self.scope_blind = scope_blind
        self.underscoped_damping = underscoped_damping
        #: One :class:`_OpStatic` per memory instruction, in program
        #: order — the same order the batch compiler assigns queue
        #: slots, which is what lets a suspended batch row be
        #: transplanted onto this cell (slot k <-> op_statics[k]).
        self.op_statics = []

    def compile(self):
        return [self._compile_one(instruction)
                for instruction in self.program.instructions]

    def _compile_one(self, instruction):
        handler = self._COMPILERS[type(instruction)]
        step = handler(self, instruction)
        guard = getattr(instruction, "guard", None)
        if guard is None:
            return step
        greg = guard.reg
        wanted = 0 if guard.negated else 1

        def guarded(t, _inner=step, _greg=greg, _wanted=wanted):
            if _greg in t.pending:
                return False
            if (1 if t.regs.get(_greg, 0) else 0) != _wanted:
                t.pc += 1
                return True
            return _inner(t)

        return guarded

    # -- operand pre-decoding ---------------------------------------------

    def _addr(self, addr):
        """Pre-decode an address operand.

        Returns ``(const_address, None)`` for ``Loc`` bases (fully
        resolved at compile time) or ``(offset, register_name)`` for
        register-relative addressing (dependency chains, Fig. 13).
        """
        if isinstance(addr.base, Loc):
            return self.address_map[addr.base.name] + addr.offset, None
        return addr.offset, addr.base.name

    def _value(self, operand):
        """Pre-decode a value operand: ``(const, None)`` or ``(0, reg)``."""
        if isinstance(operand, Imm):
            return operand.value, None
        if isinstance(operand, Reg):
            return 0, operand.name
        raise SimulationError("bad value operand %r" % (operand,))

    # -- memory instructions ----------------------------------------------

    def _push_step(self, st, addr_const, addr_reg, value=(None, None),
                   compare=(None, None), extra_ready=()):
        """Build the generic enqueue closure: check readiness, resolve the
        dynamic operands, append one :class:`_Op`.

        ``extra_ready`` lists additional registers that must not be
        pending (source/comparand registers).  The common all-constant
        case compiles to a closure with no register lookups at all.
        """
        vconst, vreg = value
        cconst, creg = compare
        dst = st.dst
        ready = tuple(reg for reg in (addr_reg,) + tuple(extra_ready)
                      if reg is not None)

        if not ready:
            # All operands compile-time constant (the common litmus
            # shape): no readiness checks, no register lookups.
            if dst is None:
                def step(t, _st=st):
                    t.queue.append(_Op(t.seq, addr_const, vconst, cconst,
                                       _st))
                    t.seq += 1
                    t.pc += 1
                    return True
            else:
                def step(t, _st=st):
                    t.pending.add(dst)
                    t.queue.append(_Op(t.seq, addr_const, vconst, cconst,
                                       _st))
                    t.seq += 1
                    t.pc += 1
                    return True
            return step

        def step(t):
            pending = t.pending
            for reg in ready:
                if reg in pending:
                    return False
            regs = t.regs
            address = (addr_const if addr_reg is None
                       else regs.get(addr_reg, 0) + addr_const)
            value_ = vconst if vreg is None else regs.get(vreg, 0)
            compare_ = cconst if creg is None else regs.get(creg, 0)
            if dst is not None:
                pending.add(dst)
            t.queue.append(_Op(t.seq, address, value_, compare_, st))
            t.seq += 1
            t.pc += 1
            return True

        return step

    def _compile_ld(self, instruction):
        cop = (None if instruction.volatile
               else instruction.effective_cop.value)
        st = _OpStatic(K_LOAD, dst=instruction.dst.name, cop=cop,
                       volatile=instruction.volatile)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        return self._push_step(st, addr_const, addr_reg)

    def _compile_st(self, instruction):
        cop = (None if instruction.volatile
               else instruction.effective_cop.value)
        st = _OpStatic(K_STORE, cop=cop, volatile=instruction.volatile)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        value = self._value(instruction.src)
        return self._push_step(st, addr_const, addr_reg, value=value,
                               extra_ready=(value[1],))

    def _compile_cas(self, instruction):
        st = _OpStatic(K_CAS, dst=instruction.dst.name)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        compare = self._value(instruction.cmp)
        value = self._value(instruction.new)
        return self._push_step(st, addr_const, addr_reg, value=value,
                               compare=compare,
                               extra_ready=(compare[1], value[1]))

    def _compile_exch(self, instruction):
        st = _OpStatic(K_EXCH, dst=instruction.dst.name)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        value = self._value(instruction.src)
        return self._push_step(st, addr_const, addr_reg, value=value,
                               extra_ready=(value[1],))

    def _compile_inc(self, instruction):
        st = _OpStatic(K_ADD, dst=instruction.dst.name)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        return self._push_step(st, addr_const, addr_reg, value=(1, None))

    def _compile_atom_add(self, instruction):
        st = _OpStatic(K_ADD, dst=instruction.dst.name)
        self.op_statics.append(st)
        addr_const, addr_reg = self._addr(instruction.addr)
        value = self._value(instruction.src)
        return self._push_step(st, addr_const, addr_reg, value=value,
                               extra_ready=(value[1],))

    def _compile_membar(self, instruction):
        scope = instruction.scope
        mixed_slot, ca_slot = _bypass_slots(scope)
        st = _OpStatic(K_FENCE, mixed_slot=mixed_slot, ca_slot=ca_slot)
        self.op_statics.append(st)
        covered = self.scope_blind or scope.covers(self.required_scope)
        if covered:
            # The scope check is pre-bound: a sufficient fence always
            # enters the queue, with no per-iteration decision.
            def step(t, _st=st):
                t.queue.append(_Op(t.seq, None, None, None, _st))
                t.seq += 1
                t.pc += 1
                return True

            return step
        # Under-scoped fence: usually still effective on real chips —
        # only the chip's damping fraction of runs sees it as a no-op
        # (the non-zero membar.cta rows of Fig. 3).  One draw per decode,
        # matching GpuMachine._fence_policy exactly (the draw happens
        # even when damping is 0).
        damping = self.underscoped_damping

        def step(t, _st=st, _damping=damping):
            if t.rng.random() >= _damping:
                t.queue.append(_Op(t.seq, None, None, None, _st))
                t.seq += 1
            t.pc += 1
            return True

        return step

    # -- ALU / control ------------------------------------------------------

    def _compile_mov(self, instruction):
        dst = instruction.dst.name
        if isinstance(instruction.src, Loc):
            const = self.address_map[instruction.src.name]

            def step(t, _dst=dst, _const=const):
                t.regs[_dst] = _const
                t.pc += 1
                return True

            return step
        const, reg = self._value(instruction.src)
        if reg is None:
            def step(t, _dst=dst, _const=const):
                t.regs[_dst] = _const
                t.pc += 1
                return True

            return step

        def step(t, _dst=dst, _reg=reg):
            if _reg in t.pending:
                return False
            t.regs[_dst] = t.regs.get(_reg, 0)
            t.pc += 1
            return True

        return step

    def _compile_alu(self, instruction):
        ops = {"add": lambda a, b: wrap32(a + b),
               "and": lambda a, b: a & b,
               "xor": lambda a, b: a ^ b}
        return self._binary(instruction, ops[instruction.opcode])

    def _compile_setp(self, instruction):
        if instruction.cmp == "eq":
            return self._binary(instruction, lambda a, b: int(a == b))
        return self._binary(instruction, lambda a, b: int(a != b))

    def _binary(self, instruction, fn):
        dst = instruction.dst.name
        aconst, areg = self._value(instruction.a)
        bconst, breg = self._value(instruction.b)

        def step(t, _dst=dst, _fn=fn):
            pending = t.pending
            if areg is not None and areg in pending:
                return False
            if breg is not None and breg in pending:
                return False
            regs = t.regs
            a = aconst if areg is None else regs.get(areg, 0)
            b = bconst if breg is None else regs.get(breg, 0)
            regs[_dst] = _fn(a, b)
            t.pc += 1
            return True

        return step

    def _compile_cvt(self, instruction):
        dst = instruction.dst.name
        src = instruction.src.name

        def step(t, _dst=dst, _src=src):
            if _src in t.pending:
                return False
            t.regs[_dst] = t.regs.get(_src, 0)
            t.pc += 1
            return True

        return step

    def _compile_bra(self, instruction):
        target = self.program.labels[instruction.target]

        def step(t, _target=target):
            t.pc = _target
            return True

        return step

    def _compile_label(self, instruction):
        # Labels retire like the reference engine's: they consume decode
        # budget and count as progress (scheduler parity).
        def step(t):
            t.pc += 1
            return True

        return step

    _COMPILERS = {
        Ld: _compile_ld,
        St: _compile_st,
        AtomCas: _compile_cas,
        AtomExch: _compile_exch,
        AtomInc: _compile_inc,
        AtomAdd: _compile_atom_add,
        Membar: _compile_membar,
        Mov: _compile_mov,
        Add: _compile_alu,
        And: _compile_alu,
        Xor: _compile_alu,
        Cvt: _compile_cvt,
        Setp: _compile_setp,
        Bra: _compile_bra,
        Label: _compile_label,
    }


class CompiledCell:
    """One ``(test, chip, incantations)`` cell lowered for fast execution.

    Exposes the same ``run_once(rng)`` contract as
    :class:`~repro.sim.machine.GpuMachine` — and, by construction, the
    same ``Random``-stream consumption — so the two are drop-in
    interchangeable anywhere a machine is iterated
    (:func:`~repro.sim.engine.run_batch`, the backends, the apps);
    ``run_batch`` runs a whole shard through :meth:`tally` instead.

    Build via :func:`compile_cell`; instances hold closures and are not
    picklable — process-pool backends compile in each worker instead.
    """

    def __init__(self, test, chip, intensity=1.0, shuffle_placement=False,
                 scope_blind=False):
        self.test = test
        self.chip = chip
        self.intensity = intensity
        self.shuffle_placement = shuffle_placement
        self.scope_blind = scope_blind
        address_map = test.address_map()
        self.address_map = address_map

        placement = test.scope_tree.classify()
        required_scope = Scope.GL if placement == "inter-cta" else Scope.CTA
        total_instructions = sum(len(program) for program in test.threads)
        self.fuel = _FUEL_PER_INSTRUCTION * max(total_instructions, 1)

        # -- intent draw plan (order documented at the slot constants) --
        relax = chip.relax_probability
        probs = [relax("r_pass_w") * intensity,
                 relax("w_pass_w") * intensity,
                 relax("r_pass_r") * intensity,
                 relax("w_pass_r") * intensity,
                 relax("rr_hazard") * intensity,
                 relax("volatile_relax"),
                 chip.p_mixed_hazard * intensity]
        for scope in _SCOPES:
            probs.append(chip.p_mixed_bypass.get(scope, 0.0))
            probs.append(chip.p_ca_bypass.get(scope, 0.0))
        self.draw_probs = probs

        # -- memory image -----------------------------------------------
        init_global = {}
        init_shared = {}
        shared_addrs = set()
        for name, address in address_map.items():
            value = test.initial_value(name)
            if test.space_of(name) is MemorySpace.SHARED:
                shared_addrs.add(address)
                init_shared[address] = value
            else:
                init_global[address] = value
        self.memory = _Memory(chip, init_global, init_shared,
                              frozenset(shared_addrs))
        final = sorted(address_map.items())
        self._final_names = tuple(name for name, _ in final)
        self._final_addresses = [address for _, address in final]

        # -- thread programs --------------------------------------------
        self.n_sms = max(chip.n_sms, 1)
        self.n_ctas = test.scope_tree.n_ctas
        self.thread_ctas = [test.scope_tree.placement(program.name).cta
                            for program in test.threads]
        self.threads = []
        self._op_statics = []
        for program in test.threads:
            init_regs = {}
            for (tid, name), binding in test.reg_init.items():
                if tid != program.tid:
                    continue
                if isinstance(binding, Loc):
                    init_regs[name] = address_map[binding.name]
                else:
                    init_regs[name] = binding.value
            compiler = _Compiler(
                program, address_map, required_scope, scope_blind,
                chip.underscoped_fence_damping)
            code = compiler.compile()
            self._op_statics.append(compiler.op_statics)
            self.threads.append(_Thread(code, init_regs, self.memory, chip))
        if not shuffle_placement:
            for thread, cta in zip(self.threads, self.thread_ctas):
                thread.sm = cta % self.n_sms
        self._observed = tuple(test.observed_registers())
        self._stall_limit = (4 * len(self.threads)
                             * (len(test.threads) + 4))

    def run_once(self, rng):
        """Run one iteration; returns the observed FinalState.

        The one-iteration case of the shard loop (:meth:`tally`), so the
        draw sequence is the same: identical to
        :meth:`GpuMachine.run_once` for the same ``rng`` state.
        """
        (outcome,) = self._outcomes(1, rng)
        return self._state(outcome)

    def tally(self, iterations, rng, histogram):
        """Run ``iterations`` iterations on ``rng`` and add their
        outcomes to ``histogram``; returns it.

        The shard loop :func:`~repro.sim.engine.run_batch` calls: one
        :class:`FinalState` per distinct outcome, added in first-seen
        order with its count, so the histogram equals (order included)
        one built by ``run_once`` per iteration.
        """
        add = histogram.add
        state = self._state
        for outcome, count in self._outcomes(iterations, rng).items():
            add(state(outcome), count)
        return histogram

    def _outcomes(self, iterations, rng):
        """The iteration body: ``{outcome: count}`` over ``iterations``
        iterations, in first-seen order, where an outcome is the plain
        value tuple of :meth:`_outcome_reader`.

        The draw sequence of each iteration — intents, the retired
        staleness draw, CTA placement, scheduler picks, L1 drop draws —
        is :meth:`GpuMachine.run_once`'s.  The draw plan, memory,
        threads and outcome reader are bound once per call, not once
        per iteration.
        """
        random = rng.random
        randrange = rng.randrange
        probs = self.draw_probs
        blind = [False] * (len(probs) - SLOT_BYPASS_BASE)
        scope_blind = self.scope_blind
        reset_memory = self.memory.reset
        threads = self.threads
        resets = [thread.reset for thread in threads]
        placed = (list(zip(threads, self.thread_ctas))
                  if self.shuffle_placement else ())
        n_sms = self.n_sms
        ctas = range(self.n_ctas)
        run_loop = self._run_loop
        fuel = self.fuel
        outcome = self._outcome_reader()
        counts = {}
        seen = counts.get
        for _ in range(iterations):
            iv = [random() < p for p in probs]
            if scope_blind:
                iv[SLOT_BYPASS_BASE:] = blind
            random()  # the retired staleness intent's draw, kept in stream
            reset_memory(rng)
            if placed:
                cta_sm = [randrange(n_sms) for _ in ctas]
                for thread, cta in placed:
                    thread.sm = cta_sm[cta]
            for reset in resets:
                reset(rng)
            run_loop(rng, iv, True in iv, fuel)
            key = outcome()
            counts[key] = seen(key, 0) + 1
        return counts

    def _run_loop(self, rng, iv, any_intent, fuel):
        """The scheduler loop shared by :meth:`_outcomes` and
        :meth:`resume`: tick random runnable threads until quiescence.

        A thread that has retired never becomes runnable again, so the
        runnable list is filtered once and a thread leaves it after the
        tick that retires it — the same list, in the same order, that
        the reference engine rebuilds every tick.
        """
        runnable = [t for t in self.threads if t.pc < t.ncode or t.queue]
        stall_limit = self._stall_limit
        stalled_rounds = 0
        choice = rng.choice
        while runnable:
            if fuel <= 0:
                raise FuelExhausted(
                    "test %s did not terminate (likely livelock)"
                    % self.test.name)
            thread = choice(runnable)
            if thread.tick(iv, any_intent):
                stalled_rounds = 0
                if thread.pc >= thread.ncode and not thread.queue:
                    runnable.remove(thread)
            else:
                stalled_rounds += 1
                if stalled_rounds > stall_limit:
                    raise SimulationError(
                        "all threads stalled in %s — dependency deadlock?"
                        % self.test.name)
            fuel -= 1

    def resume(self, snap, rng):
        """Finish one suspended iteration from a mid-flight snapshot.

        ``snap`` is the straggler hand-off payload built by
        :meth:`repro.sim.batch.BatchCell._snapshot_row`: the iteration's
        drawn intent vector plus complete machine state (memory image,
        per-thread registers/pending/queue) at a tick boundary; the
        batch engine holds no L1, so the L1 resumes empty.  The queue is
        rebuilt against this cell's op-static table — the batch compiler
        assigns slot ``k`` to the ``k``-th memory instruction of each
        thread, the same order ``_Compiler.op_statics`` records — and
        the scheduler loop then runs the iteration to quiescence on
        ``rng``.  Returns the outcome as a plain value tuple
        (:meth:`_outcome_reader`), the order of the batch cell's
        observation and final-memory columns.

        Fresh draws (scheduler picks, L1 drops) come from ``rng``,
        not from the suspended batch stream: suspension happens at a
        tick boundary of a memoryless process, so continuing with any
        independent deterministic stream preserves the outcome
        distribution — the same documented stream-break contract as the
        batch engine itself.
        """
        iv = snap["iv"]
        any_intent = True in iv
        memory = self.memory
        memory.rng = rng
        memory.global_mem.clear()
        memory.global_mem.update(snap["global"])
        for shared, image in zip(memory.shared_mem, snap["shared"]):
            shared.clear()
            shared.update(image)
        for line in memory.l1:
            line.clear()
        for thread, statics, tsnap in zip(self.threads, self._op_statics,
                                          snap["threads"]):
            thread.rng = rng
            thread.sm = tsnap["sm"]
            thread.pc = tsnap["pc"]
            thread.seq = tsnap["seq"]
            regs = thread.regs
            regs.clear()
            regs.update(tsnap["regs"])
            pending = thread.pending
            pending.clear()
            pending.update(tsnap["pending"])
            queue = thread.queue
            del queue[:]
            for seq, slot, address, value, compare in tsnap["queue"]:
                st = statics[slot]
                if st.kind == K_FENCE:
                    queue.append(_Op(seq, None, None, None, st))
                else:
                    queue.append(_Op(seq, address, value, compare, st))
        self._run_loop(rng, iv, any_intent, snap["fuel"])
        return self._outcome_reader()()

    def _outcome_reader(self):
        """A function returning the current outcome as a plain tuple: the
        observed register values, then the final memory values, in the
        order of :class:`FinalState`'s (pre-sorted) ``regs`` and ``mem``.
        It reads the threads' register dicts and the memory image, which
        every reset refills in place."""
        regs = [(self.threads[tid].regs.get, name)
                for tid, name in self._observed]
        memory = self.memory
        read = (memory.final_value if memory.shared_addrs
                else memory.global_mem.__getitem__)
        addresses = self._final_addresses

        def outcome():
            return tuple([get(name, 0) for get, name in regs]
                         + [read(address) for address in addresses])

        return outcome

    def _state(self, outcome):
        """The :class:`FinalState` of an outcome tuple."""
        split = len(self._observed)
        return FinalState(tuple(zip(self._observed, outcome[:split])),
                          tuple(zip(self._final_names, outcome[split:])))

    def _final_state(self):
        """The current machine state's :class:`FinalState`."""
        return self._state(self._outcome_reader()())


def compile_cell(test, chip, intensity=1.0, shuffle_placement=False,
                 scope_blind=False):
    """Lower one campaign cell into a :class:`CompiledCell`.

    Parameters mirror :class:`~repro.sim.machine.GpuMachine`; the result
    answers ``run_once(rng)`` with bit-identical outcomes.  Compile once
    per cell and iterate many times — the compile cost (~1 ms) amortises
    over a shard in a few dozen iterations.
    """
    return CompiledCell(test, chip, intensity=intensity,
                        shuffle_placement=shuffle_placement,
                        scope_blind=scope_blind)
