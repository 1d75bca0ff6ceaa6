"""Tests for the simulated memory system."""

import random

import pytest

from repro.errors import SimulationError
from repro.ptx.types import MemorySpace
from repro.sim.chip import ChipProfile
from repro.sim.memory import MemorySystem


def _chip(**kwargs):
    defaults = dict(name="test", short="T", vendor="Nvidia",
                    architecture="Test", year=2020, n_sms=2)
    defaults.update(kwargs)
    return ChipProfile(**defaults)


class _CountingRandom(random.Random):
    """A ``Random`` that counts its ``random()`` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _memory(chip=None, seed=0):
    memory = MemorySystem(chip or _chip(), _CountingRandom(seed), n_sms=2)
    memory.install(0x100, 0, MemorySpace.GLOBAL)
    memory.install(0x200, 7, MemorySpace.GLOBAL)
    memory.install(0x300, 3, MemorySpace.SHARED)
    return memory


class TestGlobalMemory:
    def test_initial_values(self):
        memory = _memory()
        assert memory.read(0, 0x100, cop="cg") == 0
        assert memory.read(1, 0x200, cop="cg") == 7

    def test_write_visible_to_all_sms(self):
        memory = _memory()
        memory.write(0, 0x100, 42)
        assert memory.read(1, 0x100, cop="cg") == 42

    def test_unmapped_address_rejected(self):
        memory = _memory()
        with pytest.raises(SimulationError):
            memory.read(0, 0xDEAD, cop="cg")

    def test_final_value(self):
        memory = _memory()
        memory.write(0, 0x100, 9)
        assert memory.final_value(0x100) == 9


class TestSharedMemory:
    def test_per_sm_isolation(self):
        memory = _memory()
        memory.write(0, 0x300, 99)
        assert memory.read(0, 0x300) == 99
        assert memory.read(1, 0x300) == 3  # other SM's copy untouched

    def test_final_value_prefers_modified_copy(self):
        memory = _memory()
        memory.write(0, 0x300, 99)
        assert memory.final_value(0x300) in (3, 99)


class TestAtomics:
    def test_cas_success(self):
        memory = _memory()
        assert memory.atomic_cas(0, 0x100, 0, 5) == 0
        assert memory.read(0, 0x100, cop="cg") == 5

    def test_cas_failure_leaves_value(self):
        memory = _memory()
        assert memory.atomic_cas(0, 0x200, 0, 5) == 7
        assert memory.read(0, 0x200, cop="cg") == 7

    def test_exch(self):
        memory = _memory()
        assert memory.atomic_exch(0, 0x200, 1) == 7
        assert memory.read(0, 0x200, cop="cg") == 1

    def test_add(self):
        memory = _memory()
        assert memory.atomic_add(0, 0x200, 3) == 7
        assert memory.read(0, 0x200, cop="cg") == 10


class TestL1Lines:
    """The per-SM L1 presence set: which lines it holds, and the one
    draw each dropped line takes (the recorded streams hold them)."""

    def _l1_chip(self):
        return _chip(l1_stale_reads=True)

    def test_ca_read_returns_the_current_value(self):
        memory = _memory(self._l1_chip())
        assert memory.read(0, 0x100, cop="ca") == 0
        memory.write(1, 0x100, 42)  # a remote store keeps SM 0's line
        assert memory.l1[0] == {0x100}
        assert memory.read(0, 0x100, cop="ca") == 42

    def test_ca_read_adds_a_line_on_l1_chips_only(self):
        memory = _memory(self._l1_chip())
        memory.read(0, 0x100, cop="ca")
        memory.read(1, 0x300, cop="ca")  # shared memory has no L1 line
        assert memory.l1 == [{0x100}, set()]
        plain = _memory()
        plain.read(0, 0x100, cop="ca")
        assert plain.l1 == [set(), set()]
        assert memory.rng.draws == plain.rng.draws == 0

    def test_cg_read_drops_the_line_with_one_draw(self):
        memory = _memory(self._l1_chip())
        memory.read(0, 0x100, cop="cg")  # no line: no draw
        assert memory.rng.draws == 0
        memory.read(0, 0x100, cop="ca")
        memory.read(1, 0x100, cop="cg")  # another SM's line stays
        assert memory.l1[0] == {0x100}
        assert memory.read(0, 0x100, cop="cg") == 0
        assert memory.l1[0] == set()
        assert memory.rng.draws == 1

    def test_store_from_the_same_sm_drops_the_line_with_one_draw(self):
        memory = _memory(self._l1_chip())
        memory.read(0, 0x100, cop="ca")
        memory.write(1, 0x100, 5)
        assert (memory.l1[0], memory.rng.draws) == ({0x100}, 0)
        memory.write(0, 0x100, 6)
        assert (memory.l1[0], memory.rng.draws) == (set(), 1)
        assert memory.read(1, 0x100, cop="ca") == 6

    def test_fence_drops_every_line_with_one_draw_each(self):
        memory = _memory(self._l1_chip())
        memory.read(0, 0x100, cop="ca")
        memory.read(0, 0x200, cop="ca")
        memory.read(1, 0x100, cop="ca")
        memory.fence(0)
        assert memory.l1 == [set(), {0x100}]
        assert memory.rng.draws == 2
        memory.fence(0)  # an empty L1: no draw
        assert memory.rng.draws == 2
