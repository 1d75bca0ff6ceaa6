"""Per-thread execution engine: in-order frontend, relaxed issue queue.

Each simulated thread decodes its instructions in order (ALU, predicates
and branches execute immediately; memory operations enter a *pending
queue*) and issues queued operations possibly out of order.  Which
reorderings are permitted is decided by the chip's structural switches —
dependencies are enforced naturally because the frontend cannot decode
past an instruction whose source registers are still pending loads.

The relaxations this machine exhibits are exactly those of the paper's
PTX model (Sec. 5): same-address pairs stay ordered except read-read
(the load-load hazard), fences order everything at sufficient scope,
and dependencies always order.
"""

from dataclasses import dataclass

from ..errors import SimulationError
from ..ptx.instructions import (Add, And, AtomAdd, AtomCas, AtomExch,
                                AtomInc, Bra, Cvt, Label, Ld, Membar, Mov,
                                Setp, St, Xor)
from ..ptx.operands import Addr, Imm, Loc, Reg
from .._util import wrap32

#: Pending-operation kinds.
LOAD, STORE, FENCE, CAS, EXCH, FETCH_ADD = "R", "W", "F", "CAS", "EXCH", "ADD"

#: The three simulation engines.  ``reference`` is this module's
#: generic per-instruction interpreter — the semantic ground truth.
#: ``fast`` is the compile-once/run-many specialisation of
#: :mod:`repro.sim.compile`, property-tested to produce bit-identical
#: histograms.  ``batch`` is the numpy structure-of-arrays lowering of
#: :mod:`repro.sim.batch`: whole shards execute in lockstep, another
#: order of magnitude faster, distribution-equivalent rather than
#: bit-identical (a documented seeded RNG-stream-break — see that
#: module's docstring) and gated on the optional ``repro[batch]``
#: dependency.
ENGINES = ("reference", "fast", "batch")

#: Engine used when nothing picks one explicitly.
DEFAULT_ENGINE = "fast"


def resolve_engine(engine):
    """Normalise an engine choice: ``None`` means :data:`DEFAULT_ENGINE`;
    anything else must name one of :data:`ENGINES`."""
    from .._util import resolve_choice
    return resolve_choice(engine, ENGINES, DEFAULT_ENGINE, "engine")


def run_batch(machine, iterations, rng, histogram=None):
    """Run ``iterations`` iterations of ``machine`` into a histogram.

    The batched iteration loop shared by all engines.  ``machine`` is
    *reused* across iterations (state resets internally; nothing is
    reallocated per run), and how it runs the request depends on what
    it answers:

    * ``run_many`` — a :class:`~repro.sim.batch.BatchCell` executes
      the whole request as one lockstep batch;
    * ``tally`` — a :class:`~repro.sim.compile.CompiledCell` runs its
      shard loop, which builds one ``FinalState`` per distinct outcome
      instead of one per iteration (same counts, same first-seen
      order);
    * otherwise ``run_once(rng)`` — a
      :class:`~repro.sim.machine.GpuMachine` is looped here.

    The fast engine's loop is not called ``run_many``: that name marks
    a batch cell, whose launches profilers count apart from engine
    iterations.  Pass ``histogram`` to accumulate into an existing
    :class:`~repro.harness.histogram.Histogram`; otherwise a fresh one
    is returned.
    """
    if histogram is None:
        from ..harness.histogram import Histogram  # avoid an import cycle
        histogram = Histogram()
    run = (getattr(machine, "run_many", None)
           or getattr(machine, "tally", None))
    if run is not None:
        return run(iterations, rng, histogram)
    add = histogram.add
    run_once = machine.run_once
    for _ in range(iterations):
        add(run_once(rng))
    return histogram


@dataclass
class PendingOp:
    """One memory operation awaiting issue."""

    seq: int
    kind: str
    address: int = None
    value: int = None        # store/exch/add operand
    compare: int = None      # CAS comparand
    dst: str = None          # destination register of loads/atomics
    cop: str = None
    volatile: bool = False
    scope: object = None     # fence scope

    @property
    def is_load(self):
        return self.kind in (LOAD, CAS, EXCH, FETCH_ADD)

    @property
    def is_store(self):
        return self.kind in (STORE, CAS, EXCH, FETCH_ADD)

    @property
    def is_atomic(self):
        return self.kind in (CAS, EXCH, FETCH_ADD)

    @property
    def is_fence(self):
        return self.kind == FENCE


class ThreadEngine:
    """Frontend + pending queue for one thread."""

    def __init__(self, program, sm, chip, memory, address_map, reg_init,
                 fence_effective, rng):
        self.program = program
        self.tid = program.tid
        self.sm = sm
        self.chip = chip
        self.memory = memory
        self.address_map = address_map
        self.rng = rng
        self.fence_effective = fence_effective  # Scope -> bool decision fn
        self.pc = 0
        self.regs = {}
        self.pending_regs = set()
        self.queue = []
        self._seq = 0
        self.executed = 0
        for (tid, name), binding in reg_init.items():
            if tid != self.tid:
                continue
            if isinstance(binding, Loc):
                self.regs[name] = address_map[binding.name]
            else:
                self.regs[name] = binding.value

    # -- register/operand helpers ----------------------------------------

    def _ready(self, operand):
        if isinstance(operand, Reg):
            return operand.name not in self.pending_regs
        if isinstance(operand, Addr) and isinstance(operand.base, Reg):
            return operand.base.name not in self.pending_regs
        return True

    def _value(self, operand):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            return self.regs.get(operand.name, 0)
        raise SimulationError("bad value operand %r" % (operand,))

    def _address(self, addr):
        if isinstance(addr.base, Loc):
            return self.address_map[addr.base.name] + addr.offset
        return self.regs.get(addr.base.name, 0) + addr.offset

    # -- status -----------------------------------------------------------

    @property
    def frontend_done(self):
        return self.pc >= len(self.program.instructions)

    @property
    def done(self):
        return self.frontend_done and not self.queue

    # -- decode ------------------------------------------------------------

    #: Issue-window size: how many memory ops may be pending at once.
    WINDOW = 16

    def decode(self, budget=32):
        """Decode instructions until a stall, the end of the program, or a
        full issue window.  Returns True if progress was made.

        Filling the window *before* issuing is what creates reordering
        opportunities: several decoded memory operations compete for
        issue and the chip's preserved-program-order rules arbitrate.
        """
        progressed = False
        while budget > 0 and not self.frontend_done and len(self.queue) < self.WINDOW:
            instruction = self.program.instructions[self.pc]
            outcome = self._decode_one(instruction)
            if outcome == "stall":
                break
            progressed = True
            budget -= 1
            self.executed += 1
        return progressed

    def _decode_one(self, instruction):
        if isinstance(instruction, Label):
            self.pc += 1
            return "ok"
        if instruction.guard is not None:
            if instruction.guard.reg in self.pending_regs:
                return "stall"
            value = self.regs.get(instruction.guard.reg, 0)
            wanted = 0 if instruction.guard.negated else 1
            if (1 if value else 0) != wanted:
                self.pc += 1
                return "ok"
        handler = self._DECODERS[type(instruction)]
        return handler(self, instruction)

    def _push(self, **kwargs):
        op = PendingOp(seq=self._seq, **kwargs)
        self._seq += 1
        self.queue.append(op)
        self.pc += 1
        return "pushed"

    def _decode_ld(self, instruction):
        if not self._ready(instruction.addr):
            return "stall"
        self.pending_regs.add(instruction.dst.name)
        return self._push(
            kind=LOAD, address=self._address(instruction.addr),
            dst=instruction.dst.name,
            cop=None if instruction.volatile else instruction.effective_cop.value,
            volatile=instruction.volatile)

    def _decode_st(self, instruction):
        if not (self._ready(instruction.addr) and self._ready(instruction.src)):
            return "stall"
        return self._push(
            kind=STORE, address=self._address(instruction.addr),
            value=self._value(instruction.src),
            cop=None if instruction.volatile else instruction.effective_cop.value,
            volatile=instruction.volatile)

    def _decode_cas(self, instruction):
        operands = (instruction.addr, instruction.cmp, instruction.new)
        if not all(self._ready(operand) for operand in operands):
            return "stall"
        self.pending_regs.add(instruction.dst.name)
        return self._push(
            kind=CAS, address=self._address(instruction.addr),
            compare=self._value(instruction.cmp),
            value=self._value(instruction.new), dst=instruction.dst.name)

    def _decode_exch(self, instruction):
        if not (self._ready(instruction.addr) and self._ready(instruction.src)):
            return "stall"
        self.pending_regs.add(instruction.dst.name)
        return self._push(
            kind=EXCH, address=self._address(instruction.addr),
            value=self._value(instruction.src), dst=instruction.dst.name)

    def _decode_inc(self, instruction):
        if not self._ready(instruction.addr):
            return "stall"
        self.pending_regs.add(instruction.dst.name)
        return self._push(kind=FETCH_ADD, address=self._address(instruction.addr),
                          value=1, dst=instruction.dst.name)

    def _decode_atom_add(self, instruction):
        if not (self._ready(instruction.addr) and self._ready(instruction.src)):
            return "stall"
        self.pending_regs.add(instruction.dst.name)
        return self._push(kind=FETCH_ADD, address=self._address(instruction.addr),
                          value=self._value(instruction.src),
                          dst=instruction.dst.name)

    def _decode_membar(self, instruction):
        if not self.fence_effective(instruction.scope):
            self.pc += 1  # an under-scoped fence acting as a no-op
            return "ok"
        return self._push(kind=FENCE, scope=instruction.scope)

    def _decode_mov(self, instruction):
        if isinstance(instruction.src, Loc):
            self.regs[instruction.dst.name] = self.address_map[instruction.src.name]
            self.pc += 1
            return "ok"
        if not self._ready(instruction.src):
            return "stall"
        self.regs[instruction.dst.name] = self._value(instruction.src)
        self.pc += 1
        return "ok"

    def _decode_alu(self, instruction):
        if not (self._ready(instruction.a) and self._ready(instruction.b)):
            return "stall"
        a, b = self._value(instruction.a), self._value(instruction.b)
        ops = {"add": lambda: wrap32(a + b), "and": lambda: a & b,
               "xor": lambda: a ^ b}
        self.regs[instruction.dst.name] = ops[instruction.opcode]()
        self.pc += 1
        return "ok"

    def _decode_cvt(self, instruction):
        if not self._ready(instruction.src):
            return "stall"
        self.regs[instruction.dst.name] = self._value(instruction.src)
        self.pc += 1
        return "ok"

    def _decode_setp(self, instruction):
        if not (self._ready(instruction.a) and self._ready(instruction.b)):
            return "stall"
        a, b = self._value(instruction.a), self._value(instruction.b)
        result = (a == b) if instruction.cmp == "eq" else (a != b)
        self.regs[instruction.dst.name] = int(result)
        self.pc += 1
        return "ok"

    def _decode_bra(self, instruction):
        self.pc = self.program.labels[instruction.target]
        return "ok"

    _DECODERS = {
        Ld: _decode_ld,
        St: _decode_st,
        AtomCas: _decode_cas,
        AtomExch: _decode_exch,
        AtomInc: _decode_inc,
        AtomAdd: _decode_atom_add,
        Membar: _decode_membar,
        Mov: _decode_mov,
        Add: _decode_alu,
        And: _decode_alu,
        Xor: _decode_alu,
        Cvt: _decode_cvt,
        Setp: _decode_setp,
        Bra: _decode_bra,
    }

    # -- issue --------------------------------------------------------------

    def may_pass(self, younger, older, intents):
        """May ``younger`` issue while ``older`` (earlier in program
        order) is still pending?  Implements the chip's preserved program
        order, gated by this iteration's relaxation intents.

        Atomics order like *stores*: they read and write at the L2 in one
        shot, so passing an older access is governed by the ``w_pass_*``
        rules (this is what lets a releasing ``atom.exch`` overtake the
        critical section's store, Fig. 9).  Same-address pairs never
        reorder except read-read (the load-load hazard of Fig. 1)."""
        chip = self.chip
        if younger.is_fence:
            return False
        if older.is_fence:
            return self._may_bypass_fence(younger, older, intents)
        if chip.atomic_ordered and (younger.is_atomic or older.is_atomic):
            return False
        if younger.volatile and older.volatile:
            if chip.volatile_ordered or not intents["volatile_relax"]:
                return False
        if younger.address == older.address:
            if younger.kind == LOAD and older.kind == LOAD:
                if younger.cop == older.cop:
                    return intents["rr_hazard"]
                # Mixed cache operators (.cg then .ca): the Fig. 4 refill
                # path — a separate, rarer hazard on Fermi/Kepler.
                return intents["mixed_hazard"]
            return False
        young_kind = "w" if younger.is_store else "r"
        old_kind = "w" if older.is_store else "r"
        return intents["%s_pass_%s" % (young_kind, old_kind)]

    def _may_bypass_fence(self, younger, fence, intents):
        """A ``.ca`` load may slip past a fence on Fermi-generation chips.

        Two distinct pathologies, with separately calibrated rates: the
        same-address refill path (Fig. 4: a ``.ca`` load after a ``.cg``
        load of the same location) and the different-location path
        (Fig. 3: no fence orders ``.ca`` loads on the Tesla C2075).
        """
        if younger.kind != LOAD or younger.cop != "ca":
            return False
        same_addr_before = any(
            op.is_load and op.address == younger.address
            for op in self.queue if op.seq < fence.seq)
        key = "mixed_bypass_" if same_addr_before else "ca_bypass_"
        return intents[key + fence.scope.value]

    def eligible_ops(self, intents):
        eligible = []
        for index, op in enumerate(self.queue):
            if all(self.may_pass(op, older, intents)
                   for older in self.queue[:index]):
                eligible.append(op)
        return eligible

    def issue(self, op):
        """Execute one pending op against the memory system."""
        self.queue.remove(op)
        memory, sm = self.memory, self.sm
        if op.kind == FENCE:
            memory.fence(sm)
            return
        if op.kind == LOAD:
            value = memory.read(sm, op.address, cop=op.cop, volatile=op.volatile)
            self._complete_load(op.dst, value)
            return
        if op.kind == STORE:
            memory.write(sm, op.address, op.value, volatile=op.volatile)
            return
        if op.kind == CAS:
            self._complete_load(op.dst, memory.atomic_cas(
                sm, op.address, op.compare, op.value))
            return
        if op.kind == EXCH:
            self._complete_load(op.dst, memory.atomic_exch(sm, op.address, op.value))
            return
        if op.kind == FETCH_ADD:
            self._complete_load(op.dst, memory.atomic_add(sm, op.address, op.value))
            return
        raise SimulationError("unknown pending op kind %r" % op.kind)

    def _complete_load(self, dst, value):
        self.regs[dst] = value
        self.pending_regs.discard(dst)

    def tick(self, intents):
        """One scheduler slot: decode a little, then issue one op.

        Under an active relaxation intent the engine *seeks* reorderings
        (issuing a random non-oldest eligible op when one exists) — this
        plays the role of the paper's stressful workloads, which exist
        precisely to provoke the reorderings hardware only rarely
        exhibits.  Returns True if any progress was made."""
        progressed = self.decode()
        eligible = self.eligible_ops(intents)
        if eligible:
            youngest_first = [op for op in eligible
                              if op.seq != min(e.seq for e in eligible)]
            if youngest_first and any(intents.values()):
                op = self.rng.choice(youngest_first)
            else:
                op = min(eligible, key=lambda o: o.seq)
            self.issue(op)
            return True
        return progressed
