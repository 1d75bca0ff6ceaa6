#!/usr/bin/env python
"""Quickstart: write a litmus test, run it on a simulated GPU, and check
it against the paper's axiomatic PTX model.

This walks the paper's core loop (Sec. 4-5): a litmus test probes a
hardware guarantee; the harness runs it 100k times under incantations;
the model says whether the observed behaviour is allowed.
"""

from repro.api import Session
from repro.litmus import parse_litmus
from repro.model.models import ptx_model, sc_model

# The message-passing idiom (Fig. 14): T0 publishes data (x) then a flag
# (y); T1 reads the flag then the data.  Can T1 see the flag but stale
# data?  On a GPU with no fences: yes.
MP = r"""
GPU_PTX mp-example
{ 0:.reg .s32 r0; 1:.reg .s32 r1; 1:.reg .s32 r2; }
 T0                | T1                ;
 st.cg.s32 [x], 1  | ld.cg.s32 r1, [y] ;
 st.cg.s32 [y], 1  | ld.cg.s32 r2, [x] ;
ScopeTree (grid (cta (warp T0)) (cta (warp T1)))
exists (1:r1=1 /\ 1:r2=0)
"""


def main():
    test = parse_litmus(MP)
    print(test)
    session = Session(cache=False)

    # 1. Run on a simulated GTX Titan under the paper's most effective
    #    incantations (Sec. 4.3).  The weak outcome shows up at a rate
    #    comparable to the paper's Table 6 mp row.
    result = session.run(test, "Titan", iterations=20000, seed=42)
    print(result.histogram.pretty(test.condition))
    print(result.summary())
    print()

    # 2. Ask the models.  The paper's PTX model (RMO per scope) allows
    #    the weak outcome; sequential consistency forbids it.
    for model in (ptx_model(), sc_model()):
        verdict = "Allowed" if model.allows_condition(test) else "Forbidden"
        print("%-4s model: %s" % (model.name, verdict))

    # 3. The fix: membar.gl fences between the accesses.  Re-run and
    #    re-check — the weak outcome disappears and the model forbids it.
    from repro.litmus import library
    from repro.ptx.types import Scope
    fixed = library.mp(fence0=Scope.GL, fence1=Scope.GL)
    fixed_result = session.run(fixed, "Titan", iterations=20000, seed=42)
    print()
    print("with membar.gl fences: %d weak outcomes in %d runs; model: %s"
          % (fixed_result.observations, fixed_result.iterations,
             "Allowed" if ptx_model().allows_condition(fixed) else "Forbidden"))


if __name__ == "__main__":
    main()
