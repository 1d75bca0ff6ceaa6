"""Table 2 — the ten issues the study revealed, re-derived end to end.

Each row of Table 2 is re-established by the corresponding machinery:
simulator observations, model verdicts, app clients, or compiler checks.
"""

from repro._util import format_table
from repro.api import Session
from repro.apps import run_app_campaign
from repro.compiler import (FENCE_REMOVED, LOAD_CAS_REORDERED,
                            compile_opencl_thread, effective_litmus)
from repro.errors import OptcheckViolation
from repro.litmus import library
from repro.ptx import Addr, Ld, Loc, Reg
from repro.ptx.program import ThreadProgram
from repro.ptx.types import Scope
from repro.compiler import optcheck

from _common import iterations, report


def _run(test, chip, iters, seed=0):
    """One cell under the paper's most effective incantations."""
    return Session(cache=False).run(test, chip, iterations=iters, seed=seed)


def _observed(name, chip, iters, seed=0):
    return _run(library.build(name), chip, iters, seed=seed).observations > 0


def test_table2_summary(benchmark):
    iters = max(iterations(), 6000)

    def derive():
        rows = []
        # Fermi/Kepler: coRR.
        rows.append(("Fermi/Kepler", "coRR",
                     _observed("coRR", "TesC", iters)
                     and _observed("coRR", "Titan", iters)))
        # Fermi: fences do not restore mp-L1 / coRR-L2-L1 orderings.
        mp_l1_sys = _run(library.mp_l1(fence=Scope.SYS), "TesC",
                         max(iters, 20000), seed=1)
        corr_l21_sys = _run(library.corr_l2_l1(fence=Scope.SYS), "TesC",
                            iters, seed=1)
        rows.append(("Fermi (TesC)", "mp-L1, coRR-L2-L1 under membar.sys",
                     mp_l1_sys.observations > 0 and corr_l21_sys.observations > 0))
        # PTX ISA: volatile does not restore SC.
        rows.append(("PTX ISA", "mp-volatile",
                     _observed("mp-volatile", "GTX5", iters)))
        # GPU Computing Gems: fenceless deque loses tasks.
        deque = run_app_campaign(["deque-mp", "deque-lb"], ["Titan"],
                                 runs=800, seed=1, intensity=60.0)
        rows.append(("GPU Computing Gems", "dlb-lb, dlb-mp",
                     deque.get("deque-mp", "Titan").observations > 0
                     and deque.get("deque-lb", "Titan").observations > 0))
        # CUDA by Example: fenceless lock reads stale values.
        rows.append(("CUDA by Example", "cas-sl",
                     _observed("cas-sl", "Titan", max(iters, 20000))))
        # Stuart-Owens lock.
        rows.append(("Stuart-Owens lock", "exch-sl",
                     _observed("exch-sl", "Titan", max(iters, 20000))))
        # He-Yu lock: future values.
        rows.append(("He-Yu lock", "sl-future",
                     _observed("sl-future", "Titan", iters)))
        # CUDA 5.5: compiler reorders volatile loads (coRR).
        volatile_corr = ThreadProgram(0, [
            Ld(Reg("r1"), Addr(Loc("x")), volatile=True),
            Ld(Reg("r2"), Addr(Loc("x")), volatile=True)])
        caught = False
        for seed in range(12):
            try:
                optcheck(volatile_corr, cuda_version="5.5", seed=seed)
            except OptcheckViolation:
                caught = True
        rows.append(("CUDA 5.5", "coRR volatile-load reorder", caught))
        # AMD GCN 1.0: compiler removes fences between loads (mp).
        gcn = compile_opencl_thread(
            library.mp(fence0=Scope.GL, fence1=Scope.GL).threads[1], "GCN 1.0")
        rows.append(("AMD GCN 1.0", "mp fence removal",
                     FENCE_REMOVED in gcn.transformations))
        # AMD TeraScale 2: compiler reorders load and CAS (dlb-lb).
        _, transformations, valid = effective_litmus(
            library.build("dlb-lb"), "TeraScale 2")
        rows.append(("AMD TeraScale 2", "dlb-lb load/CAS reorder",
                     LOAD_CAS_REORDERED in transformations and not valid))
        return rows

    rows = benchmark.pedantic(derive, rounds=1, iterations=1)
    table = format_table(
        ["affected", "litmus tests / issue", "reproduced"],
        [[who, what, "yes" if ok else "NO"] for who, what, ok in rows])
    report("table2_summary", "table 2: the ten issues, re-derived\n" + table)
    assert len(rows) == 10
    assert all(ok for _, _, ok in rows)
