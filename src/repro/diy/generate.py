"""Synthesise a litmus test from a relaxation cycle (Sec. 4.1).

Given a well-formed :class:`~repro.diy.cycles.Cycle`, build the PTX
litmus test whose final condition witnesses exactly that cycle:

* every write to a location gets a distinct value, numbered along the
  intended coherence order;
* an ``Rfe`` edge pins the target read to the source write's value;
* a ``Fre`` edge pins the source read to the value *before* the target
  write in coherence order (0 = the initial state);
* a ``Coe`` edge orders two writes, pinned by the final memory value;
* dependency edges are manufactured with the compiler-proof
  ``and 0x80000000`` scheme of Fig. 13(b), and fences become ``membar``
  instructions;
* scope annotations become the scope tree, and region annotations the
  memory map.
"""

import itertools

from ..errors import GenerationError
from ..hierarchy import MemoryMap, ScopeTree
from ..litmus.condition import And, Condition, MemEq, RegEq
from ..litmus.test import LitmusTest
from ..ptx.instructions import Add, And as AndInstr, Cvt, Guard, Ld, Membar, Setp, St
from ..ptx.operands import Addr, Imm, Loc, Reg
from ..ptx.program import ThreadProgram
from ..ptx.types import CacheOp, TypeSpec
from ..ptx.types import MemorySpace
from .naming import NameAllocator, classify

#: The always-false mask of Fig. 13(b): and-ing a small positive value
#: with the high bit yields 0, but only an inter-thread analysis can know.
_HIGH_BIT = 0x80000000
#: The never-stored sentinel used for manufactured control dependencies.
_CTRL_SENTINEL = 0x7FFFFFFF

_LOCATION_NAMES = "xyzabcdefg"


class _Events:
    """Resolved per-event facts computed from the cycle."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.n = cycle.n
        self.directions = cycle.directions
        self.threads = cycle.threads
        self.loc_names = [
            _location_name(index) for index in cycle.locations]
        self.values = self._assign_values()
        self.expectations = self._read_expectations()

    def _writes_by_loc(self):
        groups = {}
        for index in range(self.n):
            if self.directions[index] == "W":
                groups.setdefault(self.loc_names[index], []).append(index)
        return groups

    def _assign_values(self):
        """Coherence positions (1-based) for writes, per location.

        ``Coe`` edges impose immediate ordering; remaining freedom is
        resolved by cycle position.  Contradictory ``Coe`` chains reject
        the cycle.
        """
        order_constraints = []
        for index, edge in enumerate(self.cycle.edges):
            if edge.kind == "Coe":
                order_constraints.append((index, (index + 1) % self.n))
        groups = self._writes_by_loc()
        values = {}
        for location, members in groups.items():
            ordered = self._topological(members, [
                pair for pair in order_constraints
                if pair[0] in members and pair[1] in members])
            for position, event in enumerate(ordered, start=1):
                values[event] = position
        return values

    @staticmethod
    def _topological(members, constraints):
        remaining = list(members)
        edges = set(constraints)
        ordered = []
        while remaining:
            free = [m for m in remaining
                    if not any(b == m for _, b in edges)]
            if not free:
                raise GenerationError("contradictory coherence constraints")
            head = free[0]  # cycle position breaks ties deterministically
            ordered.append(head)
            remaining.remove(head)
            edges = {(a, b) for a, b in edges if a != head}
        return ordered

    def _read_expectations(self):
        """Expected value for each read event pinned by a com edge."""
        expectations = {}

        def expect(event, value):
            if event in expectations and expectations[event] != value:
                raise GenerationError("contradictory read expectations")
            expectations[event] = value

        for index, edge in enumerate(self.cycle.edges):
            target = (index + 1) % self.n
            if edge.kind == "Rfe":
                expect(target, self.values[index])
            elif edge.kind == "Fre":
                expect(index, self.values[target] - 1)
        return expectations


def _location_name(index):
    if index < len(_LOCATION_NAMES):
        return _LOCATION_NAMES[index]
    return "loc%d" % index


class _ThreadBuilder:
    """Accumulates the instructions of one generated thread."""

    def __init__(self, tid):
        self.tid = tid
        self.instructions = []
        self.reg_counter = itertools.count()
        self.pred_counter = itertools.count()
        self.reg_init = {}
        self.read_regs = {}  # event index -> register name
        self.reg_types = {}

    def fresh_reg(self, typ=TypeSpec.S32):
        name = "r%d" % next(self.reg_counter)
        self.reg_types[name] = typ
        return name

    def fresh_pred(self):
        name = "p%d" % next(self.pred_counter)
        self.reg_types[name] = TypeSpec.PRED
        return name

    def bind_address(self, location):
        name = self.fresh_reg(TypeSpec.B64)
        self.reg_init[name] = Loc(location)
        return name

    def emit_read(self, event, location, dep=None, source_reg=None,
                  guard=None):
        register = self.fresh_reg()
        address = self._address(location, dep, source_reg)
        self.instructions.append(
            Ld(Reg(register), address, cop=CacheOp.CG, guard=guard))
        self.read_regs[event] = register
        return register

    def emit_write(self, event, location, value, dep=None, source_reg=None,
                   guard=None):
        address = self._address(location, dep, source_reg)
        if dep == "data":
            zero = self.fresh_reg(TypeSpec.B32)
            self.instructions.append(
                AndInstr(Reg(zero), Reg(source_reg), Imm(_HIGH_BIT),
                         typ=TypeSpec.B32))
            staged = self.fresh_reg()
            self.instructions.append(
                Add(Reg(staged), Reg(zero), Imm(value)))
            self.instructions.append(
                St(address, Reg(staged), cop=CacheOp.CG, guard=guard))
        else:
            self.instructions.append(
                St(address, Imm(value), cop=CacheOp.CG, guard=guard))

    def _address(self, location, dep, source_reg):
        if dep != "addr":
            return Addr(Loc(location))
        zero = self.fresh_reg(TypeSpec.B32)
        self.instructions.append(
            AndInstr(Reg(zero), Reg(source_reg), Imm(_HIGH_BIT),
                     typ=TypeSpec.B32))
        wide = self.fresh_reg(TypeSpec.B64)
        self.instructions.append(Cvt(Reg(wide), Reg(zero)))
        base = self.bind_address(location)
        target = self.fresh_reg(TypeSpec.B64)
        self.instructions.append(
            Add(Reg(target), Reg(base), Reg(wide), typ=TypeSpec.U64))
        return Addr(Reg(target))

    def emit_ctrl_guard(self, source_reg):
        predicate = self.fresh_pred()
        self.instructions.append(
            Setp("ne", Reg(predicate), Reg(source_reg), Imm(_CTRL_SENTINEL)))
        return Guard(predicate)

    def emit_fence(self, scope):
        self.instructions.append(Membar(scope))


def cycle_to_test(cycle, name=None, regions=None):
    """Build the :class:`~repro.litmus.test.LitmusTest` witnessing ``cycle``.

    ``regions`` optionally maps location names (``x``, ``y``, ...) to
    memory spaces; locations accessed from more than one CTA must stay
    global (checked).
    """
    events = _Events(cycle)
    builders = [_ThreadBuilder(tid) for tid in range(cycle.n_threads)]

    for index in range(cycle.n):
        builder = builders[cycle.threads[index]]
        incoming = cycle.edges[(index - 1) % cycle.n]
        dep, source_reg, guard = None, None, None
        if incoming.same_thread:
            if incoming.kind == "Dp":
                source_event = (index - 1) % cycle.n
                source_reg = builder.read_regs[source_event]
                if incoming.dep == "ctrl":
                    guard = builder.emit_ctrl_guard(source_reg)
                else:
                    dep = incoming.dep
            elif incoming.kind == "Fenced":
                builder.emit_fence(incoming.fence)
        if events.directions[index] == "R":
            builder.emit_read(index, events.loc_names[index], dep=dep,
                              source_reg=source_reg, guard=guard)
        else:
            builder.emit_write(index, events.loc_names[index],
                               events.values[index], dep=dep,
                               source_reg=source_reg, guard=guard)

    condition = _build_condition(cycle, events, builders)
    threads = tuple(
        ThreadProgram(tid=builder.tid, instructions=tuple(builder.instructions),
                      reg_types=builder.reg_types)
        for builder in builders)
    reg_init = {(builder.tid, reg): loc
                for builder in builders
                for reg, loc in builder.reg_init.items()}

    scope_tree = _build_scope_tree(cycle, [program.name for program in threads])
    memory_map = _build_memory_map(cycle, events, regions)
    return LitmusTest(
        name=name or classify(cycle), threads=threads, condition=condition,
        scope_tree=scope_tree, memory_map=memory_map, reg_init=reg_init,
        description="generated from cycle: %s" % cycle.name,
        idiom=classify(cycle).split("+")[0])


def _build_condition(cycle, events, builders):
    atoms = []
    for event, value in sorted(events.expectations.items()):
        tid = cycle.threads[event]
        register = builders[tid].read_regs[event]
        atoms.append(RegEq(tid, register, value))
    for location, members in sorted(events._writes_by_loc().items()):
        if len(members) > 1:
            final = max(members, key=lambda m: events.values[m])
            atoms.append(MemEq(location, events.values[final]))
    if not atoms:
        raise GenerationError("cycle %s yields no observable condition" % cycle)
    expr = atoms[0]
    for atom in atoms[1:]:
        expr = And(expr, atom)
    return Condition("exists", expr)


def _build_scope_tree(cycle, names):
    groups = {}
    for tid, cta in enumerate(cycle.cta_groups):
        groups.setdefault(cta, []).append(names[tid])
    ctas = tuple(tuple((name,) for name in groups[cta])
                 for cta in sorted(groups))
    return ScopeTree(ctas)


def _build_memory_map(cycle, events, regions):
    if not regions:
        return MemoryMap()
    accessors = {}
    for index in range(cycle.n):
        location = events.loc_names[index]
        accessors.setdefault(location, set()).add(
            cycle.cta_groups[cycle.threads[index]])
    spaces = {}
    for location, space in regions.items():
        space = MemorySpace(space) if isinstance(space, str) else space
        if space is MemorySpace.SHARED and len(accessors.get(location, ())) > 1:
            raise GenerationError(
                "location %r is accessed from several CTAs and cannot be"
                " shared" % location)
        spaces[location] = space
    return MemoryMap(spaces)


def generate_tests(pool, max_length, max_tests=None, regions=None):
    """Enumerate cycles from ``pool`` and synthesise a test per cycle.

    Cycles whose conditions are contradictory (unsatisfiable reads,
    conflicting coherence) are skipped, mirroring diy.  Returns a list of
    litmus tests with corpus-unique names: distinct cycles that classify
    to the same idiom (e.g. inter- and intra-CTA ``coRR``) are
    disambiguated with deterministic ordinal suffixes, so name-keyed
    campaign tables never merge rows silently.  Cycles are enumerated
    lazily, so the first ``max_tests`` tests cost only the cycles that
    precede them.
    """
    from dataclasses import replace

    from .cycles import cycles_up_to

    names = NameAllocator()
    tests = []
    cycles = cycles_up_to(pool, max_length)
    while max_tests is None or len(tests) < max_tests:
        cycle = next(cycles, None)
        if cycle is None:
            break
        try:
            test = cycle_to_test(cycle, regions=regions)
        except GenerationError:
            continue
        # Allocate only for cycles that actually produced a test, so
        # skipped cycles never consume an ordinal.
        unique = names.assign(test.name)
        if unique != test.name:
            test = replace(test, name=unique)
        tests.append(test)
    assert len({test.name for test in tests}) == len(tests), \
        "generate_tests produced colliding names"
    return tests
