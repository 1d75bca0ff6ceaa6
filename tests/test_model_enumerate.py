"""Tests for candidate-execution enumeration."""

import pytest

from repro.errors import EnumerationError
from repro.litmus import library, parse_condition, parse_litmus
from repro.litmus.condition import FinalState
from repro.model.enumerate import allowed_final_states, enumerate_executions


def _finals(test):
    return allowed_final_states(enumerate_executions(test))


class TestBasicCounts:
    def test_sb_has_four_rf_choices(self):
        assert len(enumerate_executions(library.build("sb"))) == 4

    def test_mp_has_four_rf_choices(self):
        assert len(enumerate_executions(library.build("mp"))) == 4

    def test_corr_four_combinations(self):
        assert len(enumerate_executions(library.build("coRR"))) == 4

    def test_max_executions_cap_errors_by_default(self):
        # A silently truncated enumeration under-approximates the allowed
        # set (on mp, max_executions=2 used to return 2 of 4 allowed
        # outcomes with no signal) — the default policy now refuses.
        with pytest.raises(EnumerationError, match="under-approximated"):
            enumerate_executions(library.build("sb"), max_executions=2)

    def test_max_executions_truncate_policy_is_flagged(self):
        executions = enumerate_executions(library.build("sb"),
                                          max_executions=2,
                                          on_limit="truncate")
        assert len(executions) == 2
        assert executions.truncated

    def test_cap_equal_to_total_is_complete(self):
        executions = enumerate_executions(library.build("sb"),
                                          max_executions=4)
        assert len(executions) == 4
        assert not executions.truncated

    def test_unbounded_enumeration_not_truncated(self):
        assert not enumerate_executions(library.build("mp")).truncated

    def test_truncated_allowed_set_under_approximates(self):
        test = library.build("mp")
        full = allowed_final_states(enumerate_executions(test))
        partial = allowed_final_states(
            enumerate_executions(test, max_executions=2,
                                 on_limit="truncate"))
        assert partial < full  # strictly fewer states: the bug's hazard

    def test_bad_on_limit_rejected(self):
        with pytest.raises(ValueError):
            enumerate_executions(library.build("sb"), on_limit="ignore")

    def test_addr_dependent_store_candidates_not_dropped(self):
        # lb+addr: T1's store address is an addr-dependency computation,
        # symbolic until T1's read is bound.  The rf solver must bind
        # T1's read first — solving T0's read against only the resolved
        # (init) candidate used to drop every execution where T0 reads
        # from T1's store, under-approximating the allowed set and
        # producing false soundness violations.
        from repro.diy import Cycle, cycle_to_test, dp, po, rfe

        test = cycle_to_test(Cycle([po("R", "W"), rfe(),
                                    dp("addr", "W"), rfe()]))
        finals = {(state.reg(0, "r0"), state.reg(1, "r0"))
                  for state in allowed_final_states(
                      enumerate_executions(test))}
        assert finals == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_double_dependency_candidates_not_dropped(self):
        # lb+addr+addr: BOTH stores' addresses are dependency
        # computations, so whichever read is solved first sees the other
        # store unresolved.  Provisional candidates (with the address
        # check deferred) must keep those executions; ordering alone
        # cannot.
        from repro.diy import Cycle, cycle_to_test, dp, rfe

        test = cycle_to_test(Cycle([dp("addr", "W"), rfe(),
                                    dp("addr", "W"), rfe()]))
        finals = {(state.reg(0, "r0"), state.reg(1, "r0"))
                  for state in allowed_final_states(
                      enumerate_executions(test))}
        assert finals == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_thin_air_value_cycle_discarded_not_invented(self):
        # lb+data+data: each store's *value* needs the other thread's
        # read.  The rf combination where both reads source the
        # dependent stores is a dp|rf cycle — values out of thin air —
        # which no operational execution realises and no-thin-air
        # forbids; the enumerator discards it and keeps the three
        # realisable combinations.
        from repro.diy import Cycle, cycle_to_test, dp, rfe

        test = cycle_to_test(Cycle([dp("data", "W"), rfe(),
                                    dp("data", "W"), rfe()]))
        executions = enumerate_executions(test)
        assert len(executions) == 3
        finals = {(state.reg(0, "r0"), state.reg(1, "r0"))
                  for state in allowed_final_states(executions)}
        assert finals == {(0, 0), (0, 1), (1, 0)}

    def test_model_backend_refuses_truncated_enumeration(self):
        from repro.api import ModelBackend, RunSpec

        backend = ModelBackend(max_executions=2)
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=100)
        with pytest.raises(EnumerationError):
            backend.run(spec)
        # A cap the enumeration fits inside behaves like no cap.
        roomy = ModelBackend(max_executions=64)
        assert roomy.run(spec).answer == ModelBackend().run(spec).answer


class TestFinalStates:
    def test_sb_weak_outcome_is_candidate(self):
        test = library.build("sb")
        weak = FinalState.make({(0, "r2"): 0, (1, "r2"): 0}, {"x": 1, "y": 1})
        assert weak in _finals(test)

    def test_corr_outcomes(self):
        test = library.build("coRR")
        finals = {(s.reg(1, "r1"), s.reg(1, "r2")) for s in _finals(test)}
        assert finals == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_memory_final_values(self):
        test = library.build("mp")
        for state in _finals(test):
            assert state.loc("x") == 1
            assert state.loc("y") == 1

    def test_cas_success_updates_memory(self):
        test = library.build("cas-sl")
        # When T1's CAS acquires the lock (r1=0), m ends at 1 (locked by
        # T1); when it fails (r1=1, reads the initial locked value), the
        # final m may be 0 (T0's release last in coherence) or 1.
        finals = _finals(test)
        acquired = [s for s in finals if s.reg(1, "r1") == 0]
        assert acquired and all(s.loc("m") == 1 for s in acquired)

    def test_guarded_load_skipped_register_defaults_to_zero(self):
        test = library.build("cas-sl")
        failed = [s for s in _finals(test) if s.reg(1, "r1") == 1]
        assert failed
        assert all(s.reg(1, "r3") == 0 for s in failed)


class TestDependencies:
    def test_dlb_mp_data_dependency(self):
        # T0 of dlb-mp stores r2+1 where r2 was loaded: a data dependency.
        test = library.build("dlb-mp")
        execution = enumerate_executions(test)[0]
        t0_events = [e for e in execution.events if e.tid == 0]
        data = execution.relation("data")
        assert any(a.tid == 0 and b.tid == 0 and a.is_read and b.is_write
                   for a, b in data), t0_events

    def test_dlb_mp_control_dependency(self):
        # T1's guarded load is control-dependent on its first load.
        test = library.build("dlb-mp")
        witnesses = [e for e in enumerate_executions(test)
                     if test.condition.holds(e.final_state)]
        assert witnesses
        ctrl = witnesses[0].relation("ctrl")
        assert any(a.tid == 1 and b.tid == 1 and a.is_read and b.is_read
                   for a, b in ctrl)

    def test_address_dependency_from_manufactured_chain(self):
        # Fig. 13b: and/cvt/add chain from a load to the next load's address.
        text = r"""
        GPU_PTX dep
        { 0:.reg .s32 r1; 0:.reg .s32 r2; 0:.reg .b64 r3;
          0:.reg .b64 r4 = y; 0:.reg .s32 r5; 0:.reg .b64 r0 = x;
          1:.reg .s32 r9; }
         T0                          | T1               ;
         ld.cg.s32 r1, [r0]          | st.cg.s32 [x], 1 ;
         and.b32 r2, r1, 0x80000000  | st.cg.s32 [y], 1 ;
         cvt.u64.u32 r3, r2          |                  ;
         add.s32 r4, r4, r3          |                  ;
         ld.cg.s32 r5, [r4]          |                  ;
        ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
        exists (0:r1=1 /\ 0:r5=0)
        """
        test = parse_litmus(text)
        executions = enumerate_executions(test)
        assert executions
        addr = executions[0].relation("addr")
        assert any(a.is_read and b.is_read for a, b in addr)

    def test_rmw_pairs_present(self):
        test = library.build("dlb-lb")
        for execution in enumerate_executions(test):
            rmw = execution.relation("rmw")
            for read, write in rmw:
                assert read.is_read and write.is_write
                assert read.tid == write.tid
                assert read.loc == write.loc


class TestAtomicity:
    def test_no_write_between_rmw_read_and_write(self):
        # For every execution of cas-sl, the CAS write (if present) is
        # coherence-immediately after the write its read read from.
        test = library.build("cas-sl")
        for execution in enumerate_executions(test):
            rf = {read: write for write, read in execution.rf}
            co = execution.co
            for read, write in execution.relation("rmw"):
                source = rf[read]
                between = [w for w in execution.writes
                           if w.loc == read.loc and w is not source
                           and w is not write
                           and (source, w) in co and (w, write) in co]
                assert between == []

    def test_exch_lock_handover(self):
        # exch-sl: both threads' exchanges are RMWs on m; atomicity holds.
        test = library.build("exch-sl")
        executions = enumerate_executions(test)
        assert executions
        weak = [e for e in executions if test.condition.holds(e.final_state)]
        assert weak, "stale read candidate must exist"


class TestControlFlowEnumeration:
    def test_branching_enumerates_both_paths(self):
        text = """
        GPU_PTX guard
        { 0:.reg .s32 r0; 0:.reg .pred p; 1:.reg .s32 r9; }
         T0                    | T1               ;
         ld.cg.s32 r0, [x]     | st.cg.s32 [x], 1 ;
         setp.eq.s32 p, r0, 1  |                  ;
         @p st.cg.s32 [y], 1   |                  ;
        ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
        exists (y=1)
        """
        test = parse_litmus(text)
        finals = _finals(test)
        assert FinalState.make({}, {"x": 1, "y": 1}) in finals
        assert FinalState.make({}, {"x": 1, "y": 0}) in finals

    def test_loop_with_fuel_error(self):
        text = """
        GPU_PTX spin
        { 0:.reg .s32 r0; 1:.reg .s32 r9; }
         T0                    | T1               ;
         LOOP:                 | st.cg.s32 [x], 1 ;
         ld.cg.s32 r0, [x]     |                  ;
         setp.eq.s32 p, r0, 0  |                  ;
         @p bra LOOP           |                  ;
        ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
        exists (0:r0=1)
        """
        test = parse_litmus(text)
        with pytest.raises(EnumerationError):
            enumerate_executions(test, fuel=16, on_fuel="error")
        executions = enumerate_executions(test, fuel=16, on_fuel="discard")
        assert executions  # the terminating unrollings survive
        assert any(test.condition.holds(e.final_state) for e in executions)

    def test_unconditional_branch_skips(self):
        text = """
        GPU_PTX jump
        { 0:.reg .s32 r0; }
         T0 ;
         bra END ;
         st.cg.s32 [x], 1 ;
         END: ;
        exists (x=0)
        """
        test = parse_litmus(text)
        finals = _finals(test)
        assert finals == {FinalState.make({}, {"x": 0})}


class TestScopeRelations:
    def test_intra_vs_inter_cta(self):
        intra = enumerate_executions(library.corr(placement="intra-cta"))[0]
        inter = enumerate_executions(library.corr(placement="inter-cta"))[0]
        intra_cta = intra.relation("cta")
        inter_cta = inter.relation("cta")
        cross_intra = [(a, b) for a, b in intra_cta
                       if a.tid == 0 and b.tid == 1]
        cross_inter = [(a, b) for a, b in inter_cta
                       if a.tid == 0 and b.tid == 1]
        assert cross_intra and not cross_inter

    def test_sys_is_universal(self):
        execution = enumerate_executions(library.build("mp"))[0]
        sys_rel = execution.relation("sys")
        n = len(execution.events)
        assert len(sys_rel) == n * (n - 1)

    def test_fence_relation_spans_fence_only(self):
        test = library.mp(fence0=None, fence1=None)
        execution = enumerate_executions(test)[0]
        assert len(execution.relation("membar.gl")) == 0
