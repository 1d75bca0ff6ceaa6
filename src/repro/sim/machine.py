"""The GPU machine: assembles chips, memory and thread engines per test.

:class:`GpuMachine` runs one litmus test on one chip profile, one
iteration at a time.  Per iteration it draws the chip's *intents*
(reordering, hazards, fence bypasses) — optionally scaled by the
harness's incantation efficacy — places CTAs onto SMs, and interleaves
the thread engines under a randomised scheduler until every thread
retires.
"""

import random

from ..errors import FuelExhausted, SimulationError
from ..litmus.condition import FinalState
from ..ptx.types import Scope
from .engine import ThreadEngine, resolve_engine, run_batch
from .memory import MemorySystem

#: Scheduler-tick budget per thread instruction (spin-loop headroom).
_FUEL_PER_INSTRUCTION = 600


class GpuMachine:
    """One litmus test bound to one chip.

    ``intensity`` scales the chip's intent probabilities (the harness
    passes its incantation efficacy); ``shuffle_placement`` models the
    thread-randomisation incantation's structural effect (random
    CTA-to-SM assignment).
    """

    def __init__(self, test, chip, intensity=1.0, shuffle_placement=False,
                 scope_blind=False):
        self.test = test
        self.chip = chip
        self.intensity = intensity
        self.shuffle_placement = shuffle_placement
        #: Scope-blind machines treat every fence as full-strength
        #: regardless of scope — the (unsound) assumption of the
        #: operational model of Sorensen et al. (Sec. 6).
        self.scope_blind = scope_blind
        self.address_map = test.address_map()
        self.spaces = {name: test.space_of(name) for name in test.locations()}
        self.required_scope = self._required_scope()
        total_instructions = sum(len(program) for program in test.threads)
        self.fuel = _FUEL_PER_INSTRUCTION * max(total_instructions, 1)

    def _required_scope(self):
        """The fence scope needed to order this test's communication.

        Intra-CTA (and mixed) placements require only ``membar.cta``;
        purely inter-CTA placements require ``membar.gl``.  Treating
        mixed placements as CTA-scoped makes fences *stronger* than the
        model requires, preserving soundness (model ⊇ simulator).
        """
        placement = self.test.scope_tree.classify()
        return Scope.GL if placement == "inter-cta" else Scope.CTA

    def _assign_sms(self, rng):
        """Map each CTA of the scope tree to an SM."""
        n_ctas = self.test.scope_tree.n_ctas
        n_sms = max(self.chip.n_sms, 1)
        if self.shuffle_placement:
            return [rng.randrange(n_sms) for _ in range(n_ctas)]
        return [index % n_sms for index in range(n_ctas)]

    def run_once(self, rng):
        """Run one iteration; returns the observed FinalState."""
        intents = self.chip.draw_intents(rng, self.intensity)
        if self.scope_blind:
            for key in list(intents):
                if key.startswith(("mixed_bypass_", "ca_bypass_")):
                    intents[key] = False
        rng.random()  # the retired staleness intent's draw, kept in stream

        memory = MemorySystem(self.chip, rng, n_sms=self.chip.n_sms)
        for name, address in self.address_map.items():
            memory.install(address, self.test.initial_value(name),
                           self.spaces[name])

        cta_sm = self._assign_sms(rng)
        engines = []
        for program in self.test.threads:
            placement = self.test.scope_tree.placement(program.name)
            engine = ThreadEngine(
                program=program, sm=cta_sm[placement.cta], chip=self.chip,
                memory=memory, address_map=self.address_map,
                reg_init=self.test.reg_init,
                fence_effective=self._fence_policy(rng),
                rng=rng)
            engines.append(engine)

        fuel = self.fuel
        stalled_rounds = 0
        while True:
            runnable = [engine for engine in engines if not engine.done]
            if not runnable:
                break
            if fuel <= 0:
                raise FuelExhausted(
                    "test %s did not terminate (likely livelock)" % self.test.name)
            engine = rng.choice(runnable)
            if engine.tick(intents):
                stalled_rounds = 0
            else:
                stalled_rounds += 1
                if stalled_rounds > 4 * len(engines) * (len(self.test.threads) + 4):
                    raise SimulationError(
                        "all threads stalled in %s — dependency deadlock?"
                        % self.test.name)
            fuel -= 1

        return self._final_state(engines, memory)

    def _fence_policy(self, rng):
        """Per-iteration decision function for fence effectiveness.

        A fence whose scope covers the test's required scope is always
        effective.  An under-scoped fence (e.g. ``membar.cta`` between
        CTAs) is *usually still effective on real chips* — only the
        chip's damping fraction of weak runs sees it as a no-op (cf. the
        non-zero ``membar.cta`` rows of Fig. 3).
        """
        def effective(scope):
            if self.scope_blind or scope.covers(self.required_scope):
                return True
            return rng.random() >= self.chip.underscoped_fence_damping

        return effective

    def _final_state(self, engines, memory):
        regs = {}
        for tid, reg in self.test.observed_registers():
            regs[(tid, reg)] = engines[tid].regs.get(reg, 0)
        mem = {name: memory.final_value(address)
               for name, address in self.address_map.items()}
        return FinalState.make(regs, mem)


def build_machine(engine, test, chip, intensity=1.0, shuffle_placement=False,
                  plan=None):
    """The machine ``engine`` (resolved by
    :func:`~repro.sim.engine.resolve_engine`) runs ``test`` on ``chip``
    with: a :class:`GpuMachine` for ``"reference"``, a
    :class:`~repro.sim.compile.CompiledCell` for ``"fast"``
    (bit-identical), a :class:`~repro.sim.batch.BatchCell` for
    ``"batch"`` (distribution-equivalent; lowered from ``plan`` when
    given).  The compilers are imported at the call, so numpy loads only
    with a batch cell and a wrapper on either compiler sees every call.
    """
    resolved = resolve_engine(engine)
    if resolved == "batch":
        from .batch import compile_batch_cell
        return compile_batch_cell(test, chip, intensity=intensity,
                                  shuffle_placement=shuffle_placement,
                                  plan=plan)
    if resolved == "fast":
        from .compile import compile_cell
        return compile_cell(test, chip, intensity=intensity,
                            shuffle_placement=shuffle_placement)
    return GpuMachine(test, chip, intensity=intensity,
                      shuffle_placement=shuffle_placement)


def run_iterations(test, chip, iterations, seed=0, intensity=1.0,
                   shuffle_placement=False, engine=None):
    """Convenience: run ``iterations`` runs, returning a histogram dict
    ``FinalState -> count``.  (The full-featured runner with incantations
    is :meth:`repro.api.Session.run`.)

    ``engine`` picks the machine as :func:`build_machine` does;
    :func:`~repro.sim.engine.run_batch` runs it.
    """
    machine = build_machine(engine, test, chip, intensity=intensity,
                            shuffle_placement=shuffle_placement)
    return run_batch(machine, iterations, random.Random(seed)).counts
