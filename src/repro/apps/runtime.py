"""A mini CUDA-like runtime: launch eDSL kernels on the simulator.

The paper's application studies (the spin locks of Figs. 2 and 10, the
work-stealing deque of Fig. 6) are CUDA programs.  This runtime lowers
:class:`~repro.compiler.cuda.Kernel` bodies through the Table 5 mapping
and executes them as a grid on a simulated chip, returning the final
memory image — the GPU-side of ``cudaMemcpy`` back to the host.

A :class:`Grid` compiles its kernels into a litmus-shaped
:class:`~repro.litmus.test.LitmusTest` once and binds it to a machine on
either simulation engine (``fast``: a
:class:`~repro.sim.compile.CompiledCell` built once and reused across
launches — the spin-loop kernels of the application studies are exactly
the shapes the compiler specialises best; ``reference``: the generic
:class:`~repro.sim.machine.GpuMachine` interpreter).  Both those
engines consume the ``Random`` stream identically, so
:meth:`Grid.launch` / :meth:`Grid.launch_many` return bit-identical
results on either — they are the RNG-stream-parity wrappers over
:func:`~repro.sim.engine.run_batch`'s batched loop.  ``engine="batch"``
(:mod:`repro.sim.batch`) also works here — :meth:`Grid.launch_batch`
then executes all runs as one numpy lockstep batch, with
distribution-equivalent (not bit-identical) outcome histograms.

Campaign-scale application runs should not loop over ``launch_many``;
they go through :mod:`repro.apps.campaign`, which shards
:class:`~repro.apps.scenario.ScenarioSpec` runs across a session pool
and memoises outcome histograms.
"""

import random
from dataclasses import dataclass

from ..compiler.cuda import compile_kernel
from ..hierarchy import MemoryMap, ScopeTree
from ..litmus.condition import trivial_condition
from ..litmus.test import LitmusTest
from ..sim.chip import chip as resolve_chip
from ..sim.compile import compile_cell
from ..sim.engine import resolve_engine, run_batch
from ..sim.machine import GpuMachine


@dataclass
class LaunchResult:
    """Final memory image of one kernel launch."""

    memory: dict  # location name -> final value

    def __getitem__(self, location):
        return self.memory[location]


def build_launch_test(kernels, init_mem, condition=None, placement="inter-cta",
                      shared=(), name="kernel-launch"):
    """Lower CUDA-eDSL kernels into a launch-shaped :class:`LitmusTest`.

    One kernel per thread, placed per ``placement``
    (``inter-cta``/``intra-cta``/``intra-warp``).  ``condition`` defaults
    to the trivial (always-true) condition — a plain launch asserts
    nothing; scenario campaigns install their loss predicate here so
    histogram observation counts read as loss counts.
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


class Grid:
    """A compiled grid: one kernel per thread, ready to launch.

    ``engine`` picks the execution engine (``None`` defers to
    ``REPRO_ENGINE``, default ``fast``); ``reference`` and ``fast``
    results are bit-identical for the same seed, ``batch`` results are
    deterministic in the seed but follow the batch RNG-stream contract
    (distribution-equivalent histograms).
    """

    def __init__(self, kernels, chip, init_mem, placement="inter-cta",
                 shared=(), intensity=1.0, engine=None, condition=None,
                 name="kernel-launch"):
        self.chip = resolve_chip(chip)
        self.test = build_launch_test(kernels, init_mem, condition=condition,
                                      placement=placement, shared=shared,
                                      name=name)
        self.engine = resolve_engine(engine)
        if self.engine == "fast":
            self.machine = compile_cell(self.test, self.chip,
                                        intensity=intensity)
        elif self.engine == "batch":
            from ..sim.batch import compile_batch_cell
            self.machine = compile_batch_cell(self.test, self.chip,
                                              intensity=intensity)
        else:
            self.machine = GpuMachine(self.test, self.chip,
                                      intensity=intensity)

    def launch(self, seed=0):
        """Run the grid once; returns a :class:`LaunchResult`."""
        state = self.machine.run_once(random.Random(seed))
        return LaunchResult(memory=state.mem_dict())

    def launch_many(self, runs, seed=0):
        """Run the grid ``runs`` times; yields LaunchResults.

        One ``Random(seed)`` stream drives all runs in sequence — the
        same stream :meth:`launch_batch` (and a single-shard app
        campaign) consumes, so per-run inspection and batched counting
        agree bit for bit.
        """
        rng = random.Random(seed)
        for _ in range(runs):
            state = self.machine.run_once(rng)
            yield LaunchResult(memory=state.mem_dict())

    def launch_batch(self, runs, seed=0, histogram=None):
        """Run the grid ``runs`` times into an outcome histogram.

        The batched twin of :meth:`launch_many` on
        :func:`~repro.sim.engine.run_batch`: same stream, same final
        states, but accumulated as a
        :class:`~repro.harness.histogram.Histogram` of full (unprojected)
        final states instead of per-run dicts.
        """
        return run_batch(self.machine, runs, random.Random(seed), histogram)


def launch(kernels, chip, init_mem, placement="inter-cta", shared=(),
           seed=0, intensity=1.0, engine=None):
    """One-shot convenience wrapper around :class:`Grid`."""
    grid = Grid(kernels, chip, init_mem, placement=placement, shared=shared,
                intensity=intensity, engine=engine)
    return grid.launch(seed=seed)
