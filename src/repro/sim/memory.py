"""The simulated GPU memory system: global memory, per-SM L1, shared.

Global memory (with the L2 as its coherent access point) is a single
word-addressed store: every load, store and atomic reads or writes it
directly.  Each SM additionally has:

* an **L1 presence set**: on chips that cache ``.ca`` loads
  (``l1_stale_reads``) a ``.ca`` load adds its line; a ``.cg``/``.cv``
  load of the line, a store to it from the same SM, or a fence drops
  lines, taking one ``rng.random()`` per line dropped.  No load ever
  reads a line's value, so the L1 only shapes the random stream, which
  the recorded histograms depend on.  The L1 effects of Figs. 3 and 4
  are intents of :mod:`repro.sim.engine` instead;
* a **shared memory** scratchpad, private to the SM's CTAs.
"""

from ..errors import SimulationError
from ..ptx.types import MemorySpace


class MemorySystem:
    """All memory state for one simulated iteration."""

    def __init__(self, chip, rng, n_sms):
        self.chip = chip
        self.rng = rng
        self.n_sms = n_sms
        self.global_mem = {}
        self.shared_mem = [dict() for _ in range(n_sms)]
        self.l1 = [set() for _ in range(n_sms)]
        self.space_of_addr = {}

    # -- initialisation ------------------------------------------------------

    def install(self, address, value, space):
        """Set the initial value of one location."""
        self.space_of_addr[address] = space
        if space is MemorySpace.SHARED:
            for shared in self.shared_mem:
                shared[address] = value
        else:
            self.global_mem[address] = value

    def _space(self, address):
        space = self.space_of_addr.get(address)
        if space is None:
            raise SimulationError("access to uninstalled address %#x" % address)
        return space

    # -- reads -----------------------------------------------------------------

    def read(self, sm, address, cop=None, volatile=False):
        """Perform a load issued from ``sm``; returns the value."""
        if self._space(address) is MemorySpace.SHARED:
            return self.shared_mem[sm][address]
        if not volatile:
            if cop == "ca":
                if self.chip.l1_stale_reads:
                    self.l1[sm].add(address)
            elif cop in ("cg", "cv"):
                # The PTX manual: a .cg load evicts the matching L1 line.
                line = self.l1[sm]
                if address in line:
                    self.rng.random()
                    line.discard(address)
        return self.global_mem[address]

    # -- writes ----------------------------------------------------------------

    def write(self, sm, address, value, volatile=False):
        """Perform a store issued from ``sm``."""
        if self._space(address) is MemorySpace.SHARED:
            self.shared_mem[sm][address] = value
            return
        self.global_mem[address] = value
        # Stores bypass the L1 (there is no L1 store operator, Sec. 3.1.2)
        # and drop only the writing SM's own line.
        line = self.l1[sm]
        if address in line:
            self.rng.random()
            line.discard(address)

    # -- atomics ------------------------------------------------------------------

    def atomic_cas(self, sm, address, compare, new):
        old = self._atomic_read(sm, address)
        if old == compare:
            self._atomic_write(sm, address, new)
        return old

    def atomic_exch(self, sm, address, new):
        old = self._atomic_read(sm, address)
        self._atomic_write(sm, address, new)
        return old

    def atomic_add(self, sm, address, operand):
        old = self._atomic_read(sm, address)
        self._atomic_write(sm, address, old + operand)
        return old

    def _atomic_read(self, sm, address):
        if self._space(address) is MemorySpace.SHARED:
            return self.shared_mem[sm][address]
        return self.global_mem[address]

    def _atomic_write(self, sm, address, value):
        if self._space(address) is MemorySpace.SHARED:
            self.shared_mem[sm][address] = value
        else:
            self.global_mem[address] = value

    # -- fences ----------------------------------------------------------------

    def fence(self, sm):
        """Apply a fence's cache effect: drop every line of the SM's L1."""
        line = self.l1[sm]
        for _ in line:
            self.rng.random()
        line.clear()

    # -- final state -------------------------------------------------------------

    def final_value(self, address):
        """The final value of a location (global, or any modified SM copy
        of a shared location)."""
        space = self._space(address)
        if space is not MemorySpace.SHARED:
            return self.global_mem[address]
        values = {shared.get(address) for shared in self.shared_mem}
        values.discard(None)
        if len(values) == 1:
            return values.pop()
        # Multiple SM copies diverged (cannot happen for valid tests:
        # shared locations are single-CTA); report the first modified one.
        return next(iter(sorted(v for v in values if v is not None)))
