"""A mini CUDA-like runtime: launch eDSL kernels on the simulator.

The paper's application studies (the spin locks of Figs. 2 and 10, the
work-stealing deque of Fig. 6) are CUDA programs.
:func:`build_launch_test` lowers :class:`~repro.compiler.cuda.Kernel`
bodies through the Table 5 mapping into a litmus-shaped
:class:`~repro.litmus.test.LitmusTest`, which runs on the simulated
chips like any other cell: a :class:`~repro.api.session.Session` run of
it returns the final memory image of each launch — the GPU side of
``cudaMemcpy`` back to the host.

Campaign-scale application runs go through :mod:`repro.apps.campaign`,
which shards :class:`~repro.apps.scenario.ScenarioSpec` runs across a
session pool and memoises outcome histograms.
"""

from ..compiler.cuda import compile_kernel
from ..hierarchy import MemoryMap, ScopeTree
from ..litmus.condition import trivial_condition
from ..litmus.test import LitmusTest


def build_launch_test(kernels, init_mem, condition=None, placement="inter-cta",
                      shared=(), name="kernel-launch"):
    """Lower CUDA-eDSL kernels into a launch-shaped :class:`LitmusTest`.

    One kernel per thread, placed per ``placement``
    (``inter-cta``/``intra-cta``/``intra-warp``).  ``condition`` defaults
    to the trivial (always-true) condition — a plain launch asserts
    nothing; scenario campaigns install their loss predicate here so
    histogram observation counts read as loss counts.

    A one-off launch is a one-iteration session run, whose single final
    state holds the final memory:

    >>> from repro.api import Session
    >>> from repro.compiler.cuda import Kernel, Load, Store
    >>> test = build_launch_test([Kernel([Store("x", 1)]),
    ...                           Kernel([Load("v", "x")])], {"x": 0})
    >>> result = Session(cache=False).run(test, "GTX7",
    ...                                   incantations="none", iterations=1)
    >>> (state,) = result.histogram.counts
    >>> state.loc("x")
    1
    """
    if not init_mem:
        raise ValueError("a launch needs at least one memory location")
    programs = tuple(compile_kernel(kernel, tid)
                     for tid, kernel in enumerate(kernels))
    names = [program.name for program in programs]
    return LitmusTest(
        name=name, threads=programs,
        scope_tree=ScopeTree.for_threads(names, placement),
        memory_map=MemoryMap({location: "shared" for location in shared}),
        init_mem=dict(init_mem),
        condition=condition if condition is not None else trivial_condition())
