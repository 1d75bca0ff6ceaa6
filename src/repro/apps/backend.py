"""The application backend: scenario campaigns on the campaign stack.

:class:`AppBackend` implements the :class:`repro.api.backends.Backend`
protocol for :class:`~repro.apps.scenario.ScenarioSpec` cells, which is
what buys application campaigns everything PRs 1-4 built for litmus
campaigns — deterministic sharded parallel execution, two-tier result
caching, in-plan deduplication and session accounting — without the
session layer knowing scenarios exist:

* **sharding** — a spec's launches split into fixed-size shards through
  the shared planner (:func:`repro.api.backends.plan_shards`); shard 0
  runs on the spec's own seed, so a single-shard campaign cell consumes
  the exact ``Random`` stream of ``Grid.launch_many`` (driver parity),
  and later shards derive their seeds from the fingerprint.
* **engines** — ``spec.engine`` picks ``fast`` (one
  :func:`repro.sim.compile.compile_cell` per scenario x chip x
  intensity, memoised per worker thread and reused across shards; the
  spin-loop kernels compile once and the machine state is reused across
  launches), ``batch`` (the numpy lockstep lowering of
  :mod:`repro.sim.batch` — one :func:`~repro.sim.batch.compile_batch_cell`
  per cell under the same memo discipline, each shard executed as one
  structure-of-arrays batch) or ``reference`` (the generic
  interpreter).  ``reference``/``fast`` are bit-identical; ``batch`` is
  distribution-equivalent under the documented seeded stream-break, and
  all three are kept apart in the cache signature.
* **projection** — each shard's raw histogram is folded onto the
  scenario's observable locations before it leaves the backend, so the
  cache stores (and campaigns merge) the projected outcome histograms
  the loss predicates read.
* **exact tier** — :meth:`AppBackend.exact` answers a cell without
  sampling when an early-stopping DPOR probe
  (:meth:`repro.exhaustive.explore.Explorer.probe`) shows every
  execution reaches one projected final state: every engine's histogram
  is then that state counted once per launch, for any seed.
"""

import random
import threading

from ..api.backends import Backend, PerThreadMemo
from ..api.result import ShardResult
from ..errors import ConfigurationError
from ..harness.histogram import Histogram
from ..litmus.writer import write_litmus
from ..sim.batch import compile_batch_cell
from ..sim.compile import compile_cell
from ..sim.engine import run_batch
from ..sim.machine import GpuMachine

#: Default launches per shard.  Application launches are an order of
#: magnitude slower than litmus iterations (spin loops, multi-statement
#: critical sections), so app campaigns shard finer than the sim
#: backend's 25k: a paper-scale 100k-launch cell splits into ten
#: parallelisable shards while every interactive/test-sized cell still
#: fits in one shard and reproduces the serial driver stream exactly.
#: The batch engine sizes its own chunks adaptively from the cell's
#: retirement profile (see :func:`repro.sim.batch.compile_batch_cell`),
#: so the shard is a pure parallelism granule — wide shards keep the
#: numpy lockstep dense instead of fragmenting it.
DEFAULT_APP_SHARD_SIZE = 10000


class AppBackend(PerThreadMemo, Backend):
    """Scenario execution on the simulated chips (Secs. 3.2, 6-7)."""

    name = "app"

    #: Compiled-cell memo cap per worker thread.
    MAX_COMPILED = 128

    def __init__(self, shard_size=DEFAULT_APP_SHARD_SIZE):
        self.shard_size = shard_size
        # Per-*thread* memo (see PerThreadMemo).
        self._local = threading.local()
        # Plan-cache directory — a plain string so it pickles into
        # process-pool workers, which then share lowered batch plans
        # instead of re-analysing per process (see
        # :mod:`repro.sim.plancache`).
        self.plan_dir = None

    def set_plan_cache(self, directory):
        """Share lowered batch plans through ``directory`` (None
        disables)."""
        self.plan_dir = directory

    def cache_signature(self, spec):
        """Fingerprint plus engine — same rationale as the sim backend:
        the fingerprint stays engine-neutral, but a histogram cached by
        one engine must never mask a divergence in another (and batch
        histograms are only distribution-equivalent)."""
        return "%s-%s" % (spec.fingerprint(), spec.engine)

    def cache_variant(self, spec, shard_size):
        """Per-shard seeding makes the histogram a function of the
        effective decomposition, exactly as for the sim backend."""
        return "shard%d" % min(shard_size, spec.iterations)

    def provenance(self, spec):
        return spec.engine

    def exact(self, spec):
        """``{s: launches}`` when a complete DPOR exploration of the cell
        reaches the single projected final state ``s``, else ``None``.

        Every engine samples inside the explorer's reachable set (the
        structural-intent argument of :mod:`repro.exhaustive.explore`,
        enforced by the differential tests), so there every engine's
        histogram is ``{s: launches}`` whatever the seed.  The probe
        gives up at a second projected state, a loop-bound hit or past
        ``launches`` x the cell's static op count transitions, fewer
        than sampling the launches would issue.
        """
        # Local import: the exhaustive package sits above the apps layer.
        from ..exhaustive.explore import Explorer
        try:
            explorer = Explorer(spec.test, spec.chip,
                                intensity=spec.intensity)
        except ConfigurationError:
            return None         # stale-L1 chips are not enumerable
        state = explorer.probe(spec.scenario.project,
                               spec.iterations * explorer.static_ops)
        if state is None:
            return None
        return ShardResult(Histogram({state: spec.iterations}))

    def _machine(self, spec):
        if spec.engine in ("fast", "batch"):
            cells = getattr(self._local, "cells", None)
            if cells is None:
                cells = self._local.cells = {}
            # Key on what the compiled cell depends on — the engine, the
            # scenario's compiled litmus text, the chip profile and the
            # intensity — so run/seed variants of one cell share a
            # compilation.
            key = (spec.engine, spec.scenario.name, write_litmus(spec.test),
                   repr(spec.chip), spec.intensity)
            machine = cells.get(key)
            if machine is None:
                if len(cells) >= self.MAX_COMPILED:
                    cells.clear()
                if spec.engine == "batch":
                    machine = self._lower_batch(spec)
                else:
                    machine = compile_cell(spec.test, spec.chip,
                                           intensity=spec.intensity)
                cells[key] = machine
            return machine
        return GpuMachine(spec.test, spec.chip, intensity=spec.intensity)

    def _lower_batch(self, spec):
        """Lower a batch cell through the cross-worker plan cache —
        same discipline as ``SimBackend._lower_batch``: plans are
        content-keyed, and any miss publishes the fresh analysis for the
        other workers."""
        plan = store = signature = None
        if self.plan_dir:
            from ..sim.batch import PLAN_VERSION
            from ..sim.plancache import plan_signature, plan_store
            store = plan_store(self.plan_dir)
            signature = plan_signature(
                "app-batch", PLAN_VERSION, write_litmus(spec.test),
                repr(spec.chip), spec.intensity)
            plan = store.get(signature)
        machine = compile_batch_cell(spec.test, spec.chip,
                                     intensity=spec.intensity, plan=plan)
        if store is not None and plan is None:
            store.put(signature, machine.plan())
        return machine

    def consume_stats(self):
        """Plan-cache counters since the previous call, as for the sim
        backend."""
        if not self.plan_dir:
            return None
        from ..sim.plancache import plan_store
        return plan_store(self.plan_dir).consume_stats()

    def run_shard(self, spec, shard):
        histogram = run_batch(self._machine(spec), shard.iterations,
                              random.Random(shard.seed), Histogram())
        return ShardResult(spec.scenario.project_histogram(histogram),
                           stats=self.consume_stats())
