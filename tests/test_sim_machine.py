"""Tests for the GPU machine: shape invariants and model soundness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, FuelExhausted
from repro.litmus import library, parse_litmus
from repro.model.enumerate import allowed_final_states, enumerate_executions
from repro.model.models import ptx_model
from repro.sim import CHIPS, GpuMachine, chip, run_iterations

PTX = ptx_model()


def _weak_runs(test, chip_name, iterations=400, seed=11, **kwargs):
    histogram = run_iterations(test, chip(chip_name), iterations, seed=seed,
                               **kwargs)
    return sum(count for state, count in histogram.items()
               if test.condition.holds(state))


class TestStrongChip:
    """The GTX 280 exhibited no weak behaviours (Sec. 1, fn. 7)."""

    @pytest.mark.parametrize("name", ["coRR", "mp", "sb", "lb", "dlb-mp",
                                      "dlb-lb", "cas-sl", "sl-future",
                                      "mp-volatile", "mp-L1"])
    def test_gtx280_never_weak(self, name):
        assert _weak_runs(library.build(name), "GTX280") == 0


class TestFenceRestoration:
    """Fences of sufficient scope forbid the weak outcomes (Sec. 3.2)."""

    @pytest.mark.parametrize("name", [
        "mp+membar.gls", "dlb-mp+membar.gls", "dlb-lb+membar.gls",
        "cas-sl+membar.gls", "sl-future+fixed", "lb+membar.gls",
    ])
    @pytest.mark.parametrize("chip_name", ["TesC", "GTX6", "Titan", "HD7970"])
    def test_gl_fences_suppress_weakness(self, name, chip_name):
        assert _weak_runs(library.build(name), chip_name) == 0

    def test_cta_fence_sufficient_intra_cta(self):
        test = library.mp(fence0=None, fence1=None, placement="intra-cta")
        assert _weak_runs(test, "Titan") > 0
        from repro.ptx.types import Scope
        fenced = library.mp(fence0=Scope.CTA, fence1=Scope.CTA,
                            placement="intra-cta")
        assert _weak_runs(fenced, "Titan") == 0

    def test_cta_fence_leaks_inter_cta_on_titan(self):
        """Sec. 6 / Fig. 3: membar.cta does not reliably order inter-CTA."""
        from repro.ptx.types import Scope
        fenced = library.mp(fence0=Scope.CTA, fence1=Scope.CTA,
                            placement="inter-cta")
        assert _weak_runs(fenced, "Titan", iterations=3000) > 0


class TestChipDifferentiation:
    def test_corr_only_on_fermi_kepler(self):
        test = library.build("coRR")
        for weak_chip in ["GTX5", "TesC", "GTX6", "Titan"]:
            assert _weak_runs(test, weak_chip) > 0, weak_chip
        for strong_chip in ["GTX7", "HD6570", "HD7970", "GTX280"]:
            assert _weak_runs(test, strong_chip) == 0, strong_chip

    def test_gtx5_shows_no_inter_cta_cg_weakness(self):
        for name in ["dlb-mp", "dlb-lb", "cas-sl", "sl-future"]:
            assert _weak_runs(library.build(name), "GTX5", iterations=800) == 0

    def test_hd7970_load_buffering_dominates(self):
        lb = _weak_runs(library.build("lb"), "HD7970", iterations=2000)
        sb = _weak_runs(library.build("sb"), "HD7970", iterations=2000)
        assert lb > 100
        assert sb <= 2

    def test_volatile_ordered_on_maxwell(self):
        assert _weak_runs(library.build("mp-volatile"), "GTX7",
                          iterations=2000) == 0


class TestDeterminism:
    def test_same_seed_same_histogram(self):
        test = library.build("mp")
        a = run_iterations(test, chip("Titan"), 300, seed=7)
        b = run_iterations(test, chip("Titan"), 300, seed=7)
        assert a == b

    def test_different_seeds_differ_eventually(self):
        test = library.build("mp")
        a = run_iterations(test, chip("Titan"), 300, seed=7)
        b = run_iterations(test, chip("Titan"), 300, seed=8)
        assert a != b  # overwhelmingly likely


class TestSpinLoops:
    def test_spin_loop_terminates_when_released(self):
        text = """
        GPU_PTX spin
        { 0:.reg .s32 r0; 0:.reg .pred p; 1:.reg .s32 r9; }
         T0                    | T1               ;
         LOOP:                 | st.cg.s32 [x], 1 ;
         ld.cg.s32 r0, [x]     |                  ;
         setp.eq.s32 p, r0, 0  |                  ;
         @p bra LOOP           |                  ;
        ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
        exists (0:r0=1)
        """
        test = parse_litmus(text)
        histogram = run_iterations(test, chip("Titan"), 50, seed=3)
        assert all(state.reg(0, "r0") == 1 for state in histogram)

    def test_livelock_raises_fuel_exhausted(self):
        text = """
        GPU_PTX forever
        { 0:.reg .s32 r0; 0:.reg .pred p; }
         T0 ;
         LOOP: ;
         ld.cg.s32 r0, [x] ;
         setp.eq.s32 p, r0, 0 ;
         @p bra LOOP ;
        exists (0:r0=1)
        """
        test = parse_litmus(text)
        machine = GpuMachine(test, chip("Titan"))
        with pytest.raises(FuelExhausted):
            machine.run_once(random.Random(0))


class TestModelSoundness:
    """The paper's Sec. 5.4 invariant: every behaviour the hardware (here:
    the simulator) exhibits must be allowed by the PTX model.

    The model covers ``.cg`` accesses only (Sec. 5.5), so tests using
    ``.ca`` or ``.volatile`` are excluded, exactly as in the paper.
    """

    CG_ONLY_TESTS = ["mp", "sb", "lb", "coRR", "dlb-lb", "cas-sl",
                     "sl-future", "exch-sl", "lb+membar.ctas",
                     "mp+membar.gls", "dlb-lb+membar.gls",
                     "cas-sl+membar.gls", "sl-future+fixed"]

    @pytest.mark.parametrize("name", CG_ONLY_TESTS)
    @pytest.mark.parametrize("chip_name", ["TesC", "Titan", "HD7970"])
    def test_sim_outcomes_subset_of_model(self, name, chip_name):
        test = library.build(name)
        allowed = allowed_final_states(enumerate_executions(test), model=PTX)
        histogram = run_iterations(test, chip(chip_name), 300, seed=5)
        for state in histogram:
            assert state in allowed, (
                "simulator outcome %s of %s on %s is forbidden by the model"
                % (state, name, chip_name))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_soundness_random_seeds_dlb_lb(self, seed):
        test = library.build("dlb-lb")
        allowed = allowed_final_states(enumerate_executions(test), model=PTX)
        histogram = run_iterations(test, chip("Titan"), 60, seed=seed)
        assert set(histogram) <= allowed


class TestChipRegistry:
    def test_table1_complete(self):
        assert len(CHIPS) == 8
        years = [profile.year for profile in CHIPS.values()]
        assert min(years) == 2008 and max(years) == 2014

    def test_unknown_chip(self):
        with pytest.raises(ConfigurationError) as excinfo:
            chip("RTX4090")
        message = str(excinfo.value)
        assert "RTX4090" in message and "Titan" in message

    def test_profile_passes_through(self):
        assert chip(CHIPS["Titan"]) is CHIPS["Titan"]

    def test_vendors(self):
        assert chip("Titan").vendor == "Nvidia"
        assert chip("HD7970").vendor == "AMD"
