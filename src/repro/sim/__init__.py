"""Operational GPU simulator: chips, memory system, thread engines.

Three engines execute litmus iterations:

* ``reference`` — :class:`GpuMachine`'s generic per-instruction
  interpreter (:mod:`repro.sim.engine`), the semantic ground truth;
* ``fast`` — the compile-once/run-many specialisation of
  :mod:`repro.sim.compile`, bit-identical by property-tested contract
  and several times faster;
* ``batch`` — the numpy structure-of-arrays lowering of
  :mod:`repro.sim.batch`: whole shards execute in lockstep, another
  order of magnitude faster again.  Distribution-equivalent rather than
  bit-identical (a documented seeded RNG-stream-break) and gated on the
  optional ``repro[batch]`` dependency; ``fast`` is the parity
  reference its tests compare against.  Its names here
  (:class:`BatchCell`, :func:`compile_batch_cell`, :func:`have_numpy`)
  load :mod:`repro.sim.batch`, and numpy with it, on first use, so a
  run that never lowers a batch cell never imports numpy.

Pick one per run via :func:`run_iterations`'s ``engine`` argument, the
``engine`` of a :class:`repro.api.Session` (which every spec it builds
carries in :attr:`repro.api.RunSpec.engine`), or the CLI's
``--engine``; :func:`~repro.sim.engine.resolve_engine` maps ``None``
to ``fast``.  :func:`build_machine` turns the choice into a machine for
every caller that samples.
"""

from .chip import (AMD_RESULT_CHIPS, CHIPS, ChipProfile,
                   NVIDIA_RESULT_CHIPS, RESULT_CHIPS, chip)
from .compile import CompiledCell, compile_cell
from .engine import (DEFAULT_ENGINE, ENGINES, PendingOp, ThreadEngine,
                     resolve_engine, run_batch)
from .machine import GpuMachine, build_machine, run_iterations
from .memory import MemorySystem

__all__ = [
    "AMD_RESULT_CHIPS", "CHIPS", "ChipProfile", "NVIDIA_RESULT_CHIPS",
    "RESULT_CHIPS", "chip",
    "BatchCell", "compile_batch_cell", "have_numpy",
    "CompiledCell", "compile_cell",
    "DEFAULT_ENGINE", "ENGINES", "PendingOp", "ThreadEngine",
    "resolve_engine", "run_batch",
    "GpuMachine", "build_machine", "run_iterations",
    "MemorySystem",
]


def __getattr__(name):
    """Serve the batch engine's names, importing it on first use."""
    if name in ("BatchCell", "compile_batch_cell", "have_numpy"):
        from . import batch
        return getattr(batch, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
