"""Pluggable execution backends and deterministic shard planning.

A :class:`Backend` splits a :class:`~repro.api.spec.RunSpec` into
shards (:meth:`Backend.shards`) and runs each one into a
:class:`~repro.api.result.ShardResult`: the backend's typed answer
(:attr:`Backend.answer_type`) and its execution stats.  Two
implementations ship here:

* :class:`SimBackend` — "run it on silicon": executes the spec on the
  operational GPU simulator, iteration by iteration, on the engine the
  spec names (``fast``: a memoised
  :class:`~repro.sim.compile.CompiledCell`; ``reference``:
  :class:`~repro.sim.machine.GpuMachine` — bit-identical histograms
  either way).  A spec's iterations are split into fixed-size shards,
  each with a deterministic seed, so a pool can run them in parallel
  and merge the histograms bit-identically to the serial order.
* :class:`ModelBackend` — "check it against the model": enumerates the
  candidate executions of an axiomatic model
  (:mod:`repro.model.models`) and answers with the *allowed* final
  states as a :class:`~repro.harness.histogram.StateSet`, so
  operational campaigns and model checking share one request shape
  (cf. GPUMC's unified driver).

Shard seeding.  Shard 0 always uses the spec's own seed with a fresh
``random.Random`` — for a single-shard run this reproduces the serial
iteration stream of :func:`repro.sim.engine.run_batch` exactly.  Later
shards derive their seeds from the spec fingerprint and the shard index
via SHA-256, so the decomposition depends only on the spec and the
shard size, never on the worker count or execution order.
"""

import hashlib
import random
import threading
from dataclasses import dataclass

from ..harness.histogram import Histogram, StateSet
from ..harness.incantations import efficacy
from ..litmus.writer import write_litmus
from ..model.models import MODELS, load_model, resolve_model_engine
from ..sim.engine import run_batch
from ..sim.machine import build_machine
from .result import ShardResult
from .spec import _chip_signature

#: Default iterations per shard.  Small campaign cells (every tier-1
#: test and the CI-sized benchmarks) fit in one shard and therefore
#: reproduce the legacy serial iteration stream bit for bit; the paper's
#: 100k-iteration cells split into four parallelisable shards.
DEFAULT_SHARD_SIZE = 25000


@dataclass(frozen=True)
class Shard:
    """One slice of a spec's iterations with its deterministic seed."""

    index: int
    iterations: int
    seed: int


def shard_seed(spec, index):
    """The deterministic seed of shard ``index`` of ``spec``.

    Shard 0 is the spec's own seed (legacy-stream parity); later shards
    hash the fingerprint and index so no two shards share a stream.
    """
    if index == 0:
        return spec.seed
    digest = hashlib.sha256(
        ("%s#shard-%d" % (spec.fingerprint(), index)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def plan_shards(spec, shard_size=DEFAULT_SHARD_SIZE):
    """Split ``spec.iterations`` into deterministic shards.

    The decomposition is a pure function of the spec and the shard size
    — never of the worker count — which is what makes parallel and
    serial execution merge to bit-identical histograms.
    """
    if shard_size < 1:
        from ..errors import ReproError
        raise ReproError("shard_size must be >= 1, got %r" % shard_size)
    shards = []
    remaining = spec.iterations
    index = 0
    while remaining > 0:
        size = min(shard_size, remaining)
        shards.append(Shard(index=index, iterations=size,
                            seed=shard_seed(spec, index)))
        remaining -= size
        index += 1
    return shards


class Backend:
    """Protocol for execution backends.

    ``run_shard`` must be deterministic in the spec and the shard, and
    merging the :class:`~repro.api.result.ShardResult` of every shard in
    :meth:`shards` (:meth:`ShardResult.merge`, any order) is the result
    of the whole spec — which :meth:`run` computes serially.
    """

    name = "backend"

    #: The type of this backend's answers (see :mod:`repro.api.result`);
    #: the result cache decodes stored answers through its ``from_json``.
    answer_type = Histogram

    #: The shard size :meth:`run` decomposes with.
    shard_size = DEFAULT_SHARD_SIZE

    def cache_signature(self, spec):
        """The part of ``spec`` this backend's result depends on.

        Defaults to the full fingerprint; backends whose results ignore
        some fields override this so equivalent cells share cache
        entries (e.g. a model verdict does not depend on the chip).
        """
        return spec.fingerprint()

    def shards(self, spec, shard_size):
        """Split ``spec`` into independent parallel work units.

        The default is the iteration decomposition of
        :func:`plan_shards`; backends whose unit of work is not an
        iteration batch (one model verdict per test) override this.
        """
        return plan_shards(spec, shard_size)

    def cache_variant(self, spec, shard_size):
        """The execution-parameter component of the cache key.

        Empty by default: most backends' results do not depend on how
        the work was decomposed.  The sim backend overrides this
        because per-shard seeding makes the histogram a function of the
        effective decomposition.
        """
        return ""

    def exact(self, spec):
        """A :class:`~repro.api.result.ShardResult` that answers the
        whole of ``spec`` without executing its shards, or ``None`` to
        execute them.

        The session asks this on every cache miss.  An answer must equal
        what :meth:`run` would return for any seed, so only backends
        that can prove their result implement it; the default never
        answers.
        """
        return None

    def provenance(self, spec):
        """What produced an executed result of ``spec``: the backend's
        name, or the engine for the sampling backends."""
        return self.name

    def run_shard(self, spec, shard):
        """Execute one shard of ``spec``; returns a ShardResult."""
        raise NotImplementedError

    def run(self, spec):
        """Execute every shard of ``spec`` in order, in this thread;
        returns the merged ShardResult.  The serial reference the
        session's pooled runs must reproduce."""
        return ShardResult.merge(self.run_shard(spec, shard)
                                 for shard in self.shards(spec,
                                                          self.shard_size))


class PerThreadMemo:
    """Mixin for backends that memoise compiled cells per worker thread
    in ``self._local`` (a :class:`threading.local`): a compiled cell
    mutates its own machine state, so pool threads must never share
    one.  Compiled cells hold closures and do not pickle, so a process
    pool's copy of the backend drops the memo and starts an empty one.
    """

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()


class SimBackend(PerThreadMemo, Backend):
    """Operational execution on the simulated chips (Sec. 4 campaigns).

    ``spec.engine`` picks the execution engine per cell: ``"fast"``
    lowers the cell once through :func:`repro.sim.compile.compile_cell`
    and reuses the compiled machine for every shard this process runs
    (the memo is process-local — compiled cells hold closures and do not
    pickle, so process-pool workers each compile their own, amortised
    over a shard's iterations); ``"batch"`` lowers through
    :func:`repro.sim.batch.compile_batch_cell` into numpy
    structure-of-arrays kernels executing each shard as one lockstep
    batch (same memo discipline — batch cells hold numpy buffers and
    closures and do not pickle either); ``"reference"`` interprets
    through :class:`~repro.sim.machine.GpuMachine`.  ``reference`` and
    ``fast`` produce bit-identical histograms for the same shard seeds;
    ``batch`` is distribution-equivalent under a documented seeded
    stream-break (see :mod:`repro.sim.batch`).  The cache signature
    keeps all three apart (see :meth:`cache_signature`).
    :func:`repro.sim.machine.build_machine` builds every machine; a
    subclass changes what it samples only through :meth:`_lowering` and
    :meth:`_project`.
    """

    name = "sim"

    #: Compiled-cell memo cap; a long-lived session (e.g. the benchmark
    #: suite's shared one) must not accumulate closures without bound.
    MAX_COMPILED = 512

    def __init__(self, shard_size=DEFAULT_SHARD_SIZE):
        self.shard_size = shard_size
        # Per-*thread* memo (see PerThreadMemo).
        self._local = threading.local()
        # Plan-cache directory (a plain string, so it *does* pickle
        # into process-pool workers — that is the whole point: workers
        # share lowered batch plans through it instead of re-analysing
        # per process).  Set via set_plan_cache, typically by the
        # session when it has a disk cache directory.
        self.plan_dir = None

    def set_plan_cache(self, directory):
        """Share lowered batch plans through ``directory`` (None
        disables).  See :mod:`repro.sim.plancache`."""
        self.plan_dir = directory

    def cache_signature(self, spec):
        """Fingerprint plus engine.

        The fingerprint deliberately excludes the engine (shard seeds
        stay engine-neutral), but cached results must not cross
        engines: a histogram cached by one engine would otherwise
        satisfy (and silently mask) a run requested on another —
        including the equivalence tests that enforce the
        bit-identity/distribution-equivalence contracts in the first
        place, and the batch engine's histograms are only
        distribution-equivalent, not bit-identical.
        """
        return "%s-%s" % (spec.fingerprint(), spec.engine)

    def provenance(self, spec):
        return spec.engine

    def cache_variant(self, spec, shard_size):
        """Per-shard seeding makes the histogram a function of the
        decomposition, which is fully determined by
        ``min(shard_size, iterations)`` — two shard sizes that both
        cover the whole spec produce the identical single shard and may
        share an entry."""
        return "shard%d" % min(shard_size, spec.iterations)

    def _lowering(self, spec):
        """``(intensity, shuffle_placement, key)`` of ``spec``'s machine:
        the incantations' efficacy and thread randomisation, and their
        column, which keys the memo and the plan store."""
        intensity = efficacy(spec.chip.vendor, spec.test.idiom or "mp",
                             spec.incantations)
        return (intensity, spec.incantations.thread_rand,
                spec.incantations.column)

    def _project(self, spec, histogram):
        """The shard histogram as this backend reports it."""
        return histogram

    def _machine(self, spec):
        intensity, shuffle, key = self._lowering(spec)
        if spec.engine == "reference":
            return build_machine("reference", spec.test, spec.chip,
                                 intensity=intensity,
                                 shuffle_placement=shuffle)
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = self._local.cells = {}
        # Key on what the compiled cell actually depends on — the
        # engine, test text, chip profile and lowering key — not the
        # full fingerprint, so iteration/seed variants of one cell
        # share a single compilation (and the two compiling engines
        # never share one).
        memo_key = (spec.engine, spec.test.name, write_litmus(spec.test),
                    _chip_signature(spec.chip), key)
        machine = cells.get(memo_key)
        if machine is None:
            if len(cells) >= self.MAX_COMPILED:
                cells.clear()
            machine = cells[memo_key] = self._compile(spec, intensity,
                                                      shuffle, key)
        return machine

    def _compile(self, spec, intensity, shuffle, key):
        """Lower a fast or batch cell, sharing batch analysis plans
        across workers.

        With a plan cache attached, the picklable analysis product of a
        batch lowering is looked up by content signature before paying
        the analysis pass, and published after a miss — so a process
        pool analyses each cell once per campaign, not once per worker.
        """
        plan = store = signature = None
        if spec.engine == "batch" and self.plan_dir:
            from ..sim.batch import PLAN_VERSION
            from ..sim.plancache import plan_signature, plan_store
            store = plan_store(self.plan_dir)
            signature = plan_signature(
                "%s-batch" % self.name, PLAN_VERSION,
                write_litmus(spec.test), _chip_signature(spec.chip), key)
            plan = store.get(signature)
        machine = build_machine(spec.engine, spec.test, spec.chip,
                                intensity=intensity,
                                shuffle_placement=shuffle, plan=plan)
        if store is not None and plan is None:
            store.put(signature, machine.plan())
        return machine

    def consume_stats(self):
        """This process's plan-cache counters since the previous call,
        or ``None``; taken in the worker that ran the shard, so process
        pools ship them back with its result."""
        if not self.plan_dir:
            return None
        from ..sim.plancache import plan_store
        return plan_store(self.plan_dir).consume_stats()

    def run_shard(self, spec, shard):
        histogram = run_batch(self._machine(spec), shard.iterations,
                              random.Random(shard.seed), Histogram())
        return ShardResult(self._project(spec, histogram),
                           stats=self.consume_stats())


class ModelBackend(Backend):
    """Axiomatic model checking behind the campaign API.

    The answer is the :class:`~repro.harness.histogram.StateSet` the
    model *allows*; ``iterations`` in the spec is ignored (enumeration
    is exhaustive, not statistical).  ``SpecResult.observations > 0``
    reads as the paper's Allowed verdict for the test's condition.

    ``spec.engine`` picks the checking engine per cell:
    ``"fast"`` compiles the model once and prunes the enumeration with
    its monotone checks (:func:`repro.model.enumerate.enumerate_allowed`);
    ``"reference"`` materialises every candidate execution.  Identical
    allowed sets either way, kept apart in the cache (see
    :meth:`cache_signature`).

    *Sharding.*  A verdict is one indivisible enumeration, so each spec
    is its own shard: a campaign's test list spreads across the worker
    pool one verdict per worker (the verdict — one per test text — is
    already the memoisation unit, so chips never multiply the work).
    """

    answer_type = StateSet

    def __init__(self, model="ptx", fuel=128, max_executions=None):
        self.model = load_model(model) if isinstance(model, str) else model
        self.name = "model:%s" % self.model.name
        self.fuel = fuel
        self.max_executions = max_executions

    def cache_signature(self, spec):
        """Verdicts depend only on the test text, the enumeration fuel
        and the model engine — not chip, iterations or seed — so a
        campaign across the seven result chips enumerates each test
        once, not seven times.  The engine is part of the signature for
        the same reason as the sim backend's: a cached reference
        verdict must never mask a fast-engine divergence; a ``batch``
        spec fails here, before anything runs."""
        payload = "%s\x1e fuel=%d\x1e engine=%s" % (
            write_litmus(spec.test), self.fuel,
            resolve_model_engine(spec.engine))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        """One verdict, one work unit.  ``iterations=0`` keeps the
        session's simulated-iteration accounting a sim-only statistic."""
        return [Shard(index=0, iterations=0, seed=spec.seed)]

    def run_shard(self, spec, shard):
        # on_limit="error" is non-negotiable here: the campaign layer
        # treats this answer as the *complete* allowed set, and a
        # truncated enumeration would manufacture false "violations" in
        # soundness campaigns.  ``max_executions`` therefore acts as a
        # safety valve (refuse combinatorial blow-ups loudly), never as a
        # silent sampler.
        return ShardResult(StateSet(self.model.allowed_outcomes(
            spec.test, fuel=self.fuel, max_executions=self.max_executions,
            on_limit="error", engine=spec.engine)))


def make_backend(backend):
    """Resolve a backend argument: an instance, ``"sim"``, ``"model"``
    (the paper's PTX model), ``"model:<name>"`` for any registered
    axiomatic model, ``"app"`` (application scenario campaigns),
    ``"analysis"`` (static race/ordering verdicts), or ``"exhaustive"``
    (DPOR model checking of the compiled cell)."""
    if isinstance(backend, Backend):
        return backend
    if backend == "sim":
        return SimBackend()
    if backend == "model":
        return ModelBackend()
    if backend == "app":
        # Local import: the apps package sits above the api layer.
        from ..apps.backend import AppBackend
        return AppBackend()
    if backend == "analysis":
        # Local import: the analysis package sits above the api layer.
        from ..analysis.backend import AnalysisBackend
        return AnalysisBackend()
    if backend == "exhaustive":
        # Local import: the exhaustive package sits above the api layer.
        from ..exhaustive.backend import ExhaustiveBackend
        return ExhaustiveBackend()
    if isinstance(backend, str) and backend.startswith("model:"):
        model = backend.split(":", 1)[1]
        if model in MODELS:
            return ModelBackend(model)
    from ..errors import ReproError
    raise ReproError(
        "unknown backend %r (expected 'analysis', 'app', 'exhaustive', "
        "'model', 'sim', or 'model:NAME' where NAME is one of: %s)"
        % (backend, ", ".join(sorted(MODELS))))
