"""The state cache's soundness argument, one test per guard.

The ``dpor`` explorer stops at states its branch has already explored
(:mod:`repro.exhaustive.explore`).  Three guards keep the pruned search
complete, and each has a test here that fails when the guard is
dropped:

* **summary race reversal** — a pruned revisit reverses the races of
  every transition summarised below the state.  Without it deque-rt
  loses three of its seven states on four chips, which the naive
  differential on the registry's loop-free cells catches;
* **cycle expansion** — a revisit of a state still on the stack fully
  expands the frames of the cycle.  Without it ``CYCLE_CELL`` loses one
  of its two states on GTX280;
* **Godefroid's sleep-set rule** — a revisit is pruned only if the
  stored sleep set is a subset of the current one.  Without it
  ``SLEEP_CELL`` loses two of its six states.

The loop bound is checked after the cache lookup, so a spin back into a
known state is never a truncation: the registry reports no ``bounded``
cell even at ``--loop-bound 1``.
"""

import json
import os

import pytest

from repro.apps.scenario import get_scenario, select_scenarios
from repro.exhaustive import (exhaustive_session, explore_test,
                               verify_scenarios)
from repro.litmus import parse_litmus
from repro.sim.chip import CHIPS, RESULT_CHIPS

#: Registry cells without spin loops, where naive enumeration is
#: tractable (deque-rt ~32k transitions, deque-lb+fenced ~42k).
DIFFERENTIAL_SCENARIOS = [
    name + suffix
    for name in ("deque-mp", "deque-lb", "deque-rt", "isolation")
    for suffix in ("", "+fenced")]


@pytest.mark.parametrize("chip", ("Titan", "HD7970"))
@pytest.mark.parametrize("name", DIFFERENTIAL_SCENARIOS)
def test_stateful_dpor_matches_naive_on_registry_cells(name, chip):
    test = get_scenario(name).test()
    dpor = explore_test(test, CHIPS[chip])
    naive = explore_test(test, CHIPS[chip], strategy="naive")
    assert dpor.reachable == naive.reachable
    assert dpor.bounded == naive.bounded
    assert (dpor.losses > 0) == (naive.losses > 0)
    assert dpor.transitions < naive.transitions


#: T1 spins on ``flag`` while T0 reads ``x`` and T2 publishes ``flag``
#: then writes ``x``: T0 reads 0 or 2.  On GTX280 the spin of T1 closes
#: a cycle on the stack, and the search finds T0 reading 0 only through
#: the expansion of that cycle's frames.
CYCLE_CELL = """GPU_PTX cycle-guard
"a spin that closes a cycle on the stack"
{
 0:.reg .s32 r0;
 1:.reg .s32 r9;
 1:.reg .pred p0;
}
 T0                | T1                    | T2                    ;
 ld.cg.s32 r0, [x] | L1:                   | st.cg.s32 [flag], 1   ;
 st.cg.s32 [y], 1  | ld.cg.s32 r9, [flag]  | st.cg.s32 [y], 2      ;
 st.cg.s32 [y], 2  | setp.eq.s32 p0, r9, 0 | st.cg.s32 [x], 2      ;
                   | @p0 bra L1            |                       ;
                   | st.cg.s32 [y], 1      |                       ;
                   | st.cg.s32 [y], 2      |                       ;
ScopeTree (grid (cta (warp T0)) (cta (warp T1)) (cta (warp T2)))
exists (0:r0=2)
"""

#: T0 reads ``y`` and spins on ``flag``; T1 and T2 write ``y``.  Every
#: pair of T0's read (0, 1 or 2) and final ``y`` (1 or 2) is reachable;
#: T0 reading 1 or 2 with T1's store last is found only by exploring
#: again states first explored under a larger sleep set.
SLEEP_CELL = """GPU_PTX sleep-guard
"states revisited with a smaller sleep set"
{
 0:.reg .s32 r0;
 0:.reg .s32 r9;
 0:.reg .pred p0;
 1:.reg .s32 r1;
}
 T0                    | T1                  | T2                  ;
 membar.gl             | ld.cg.s32 r1, [x]   | st.cg.s32 [y], 1    ;
 ld.cg.s32 r0, [y]     | st.cg.s32 [y], 2    | membar.gl           ;
 L0:                   | st.cg.s32 [flag], 1 | st.cg.s32 [y], 1    ;
 ld.cg.s32 r9, [flag]  |                     |                     ;
 setp.eq.s32 p0, r9, 0 |                     |                     ;
 @p0 bra L0            |                     |                     ;
ScopeTree (grid (cta (warp T0) (warp T1) (warp T2)))
exists (0:r0=1 /\\ y=2)
"""


def test_cycle_expansion_keeps_the_states_behind_a_spin():
    test = parse_litmus(CYCLE_CELL)
    result = explore_test(test, CHIPS["GTX280"])
    assert not result.bounded
    assert {state.reg(0, "r0") for state in result.reachable} == {0, 2}
    # Naive enumeration (no cache, so the spin truncates at the bound)
    # reaches the same states.
    naive = explore_test(test, CHIPS["GTX280"], strategy="naive",
                         loop_bound=1)
    assert naive.bounded and naive.reachable == result.reachable


@pytest.mark.parametrize("chip", ("Titan", "HD7970"))
def test_revisits_with_a_smaller_sleep_set_are_explored(chip):
    result = explore_test(parse_litmus(SLEEP_CELL), CHIPS[chip])
    assert not result.bounded
    assert {(state.reg(0, "r0"), state.loc("y"))
            for state in result.reachable} == {
        (read, final) for read in (0, 1, 2) for final in (1, 2)}
    assert result.losses > 0


def test_registry_reports_no_bounded_cell_at_loop_bound_one():
    # A spin back into an explored state is looked up before the bound
    # is checked, so even one retry completes every registry cell, with
    # the reachable states of the default bound.
    report = verify_scenarios(select_scenarios(["all"]), RESULT_CHIPS,
                              session=exhaustive_session(jobs=1, cache=False,
                                                         loop_bound=1))
    assert not [row for row in report.rows if row.bounded]
    pinned = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "data", "verify_registry.json")
    with open(pinned) as handle:
        recorded = json.load(handle)
    assert {"%s@%s" % (row.scenario, row.chip): row.states
            for row in report.rows} == {
        cell: pins["states"] for cell, pins in recorded.items()}
