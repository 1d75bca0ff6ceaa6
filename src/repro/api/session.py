"""The :class:`Session`: plan, shard, execute, merge, memoise.

A session is the single front door for campaign execution.  It owns

* a :class:`~repro.api.backends.Backend` (sim or model), whose
  ``shard_size`` is the iterations per unit of parallel work,
* a worker pool configuration (``jobs`` threads or processes), and
* an optional :class:`~repro.api.cache.ResultCache`.

``Session.run`` executes one cell; ``Session.run_specs`` executes any
plan; ``Session.campaign`` plans the cartesian product and returns a
:class:`~repro.api.result.CampaignResult`.

Every spec takes one path: on a cache miss the session first asks the
backend's exact tier (:meth:`~repro.api.backends.Backend.exact`), whose
answer, when it has one, becomes the spec's
:class:`~repro.api.result.SpecResult` with no shard executed (its
``provenance`` is :data:`~repro.api.result.PROVED`).  Otherwise the
backend splits the spec into shards
(:meth:`~repro.api.backends.Backend.shards`), each shard runs into a
:class:`~repro.api.result.ShardResult` — in this thread or on a worker —
and the shard results merge into the spec's
:class:`~repro.api.result.SpecResult`, answer and stats included.

Determinism.  The shard decomposition and per-shard seeds are pure
functions of each spec and the backend's shard size
(:func:`~repro.api.backends.plan_shards`), and shard results are merged
in shard-index order — so ``jobs=8`` produces bit-identical answers to
``jobs=1`` and to the backend's serial
:meth:`~repro.api.backends.Backend.run` for the same specs, and a
single-shard run reproduces the serial iteration stream of
:func:`~repro.sim.engine.run_batch`.
"""

import contextlib
import os
from concurrent import futures as _futures
from dataclasses import asdict, dataclass

from ..errors import ReproError
from ..sim.engine import resolve_engine
from .backends import make_backend
from .cache import ResultCache, cache_key
from .result import PROVED, CampaignResult, ShardResult, SpecResult, private
from .spec import BEST, RunSpec, matrix

#: Tests per streaming chunk of the conformance pipeline.  Large enough
#: to keep a worker pool busy and let in-plan deduplication catch twins,
#: small enough that a 10k-test corpus never holds more than a chunk of
#: histograms in memory at once.
DEFAULT_CHUNK_SIZE = 64


def chunked(iterable, size):
    """Yield lists of up to ``size`` items — the streaming unit of the
    conformance pipeline."""
    chunk = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


@dataclass
class SessionStats:
    """What a session actually did (the cache test's instrument)."""

    planned: int = 0                #: specs requested
    executed: int = 0               #: specs that ran on the backend
    proved: int = 0                 #: of those, answered by its exact tier
    cache_hits: int = 0             #: specs satisfied from the cache
    deduplicated: int = 0           #: specs satisfied by an in-plan twin
    shards_executed: int = 0        #: shards run on the backend
    simulated_iterations: int = 0   #: iterations executed (sharded backends)
    plan_cache_hits: int = 0        #: batch lowering plans reused from disk
    plan_cache_misses: int = 0      #: batch lowerings analysed from scratch

    def snapshot(self):
        return asdict(self)


class Session:
    """A configured execution engine for litmus campaigns.

    Parameters
    ----------
    backend:
        ``"sim"`` (default), ``"model"``, ``"model:<name>"`` or a
        :class:`~repro.api.backends.Backend` instance.  Its
        ``shard_size`` (25,000 iterations for sim, 10,000 launches for
        app) splits each spec into shards.  The decomposition
        determines the per-shard seeds, so it is part of a result's
        identity: runs (and cache entries) with different *effective*
        decompositions are distinct, while any two shard sizes that
        yield the same decomposition (e.g. both at least the iteration
        count) share results.  Worker count never matters.
    jobs:
        Worker count.  ``1`` (default) runs in-process and serially;
        ``>1`` shards specs across a pool.
    cache:
        ``True`` (default) attaches an in-memory
        :class:`~repro.api.cache.ResultCache`; ``False``/``None``
        disables memoisation; or pass a cache instance to share one
        across sessions.
    cache_dir:
        Adds the on-disk JSON tier (implies caching).  A cache instance
        brings its own directory, so passing both is a
        :class:`~repro.errors.ReproError`.
    executor:
        ``"thread"`` (default) or ``"process"``.  Threads are cheap and
        deterministic; processes sidestep the GIL for large campaigns
        (every work unit pickles cleanly).
    pool:
        An externally managed ``concurrent.futures`` executor to submit
        parallel work to instead of creating one per plan.  The caller
        owns its lifetime (the session never shuts it down), which lets
        several sessions — e.g. the sim and model halves of a
        conformance pipeline — share one worker pool.
    engine:
        The :attr:`RunSpec.engine` of every spec the session builds
        (``None`` means ``"fast"``); a prepared :class:`RunSpec` keeps
        its own.

    Example::

        session = Session(jobs=4, engine="fast")
        result = session.run(library.build("mp"), "Titan",
                             iterations=100000)
        print(result.summary())
    """

    def __init__(self, backend="sim", jobs=1, cache=True, cache_dir=None,
                 executor="thread", pool=None, engine=None):
        self.backend = make_backend(backend)
        if jobs < 1:
            raise ReproError("jobs must be >= 1, got %r" % jobs)
        self.jobs = int(jobs)
        if executor not in ("thread", "process"):
            raise ReproError("executor must be 'thread' or 'process', got %r"
                             % (executor,))
        self.executor = executor
        self.pool = pool
        self.engine = resolve_engine(engine)
        if isinstance(cache, ResultCache):
            if cache_dir:
                raise ReproError(
                    "Session got both a cache instance and cache_dir %r; "
                    "give the directory to the ResultCache instead"
                    % (cache_dir,))
            self.cache = cache
        elif cache_dir or cache:
            self.cache = ResultCache(cache_dir=cache_dir)
        else:
            self.cache = None
        # A disk-backed session also shares lowered batch plans between
        # workers (and future sessions on the same directory): the plan
        # store lives next to the result entries.
        if (self.cache is not None and self.cache.cache_dir
                and hasattr(self.backend, "set_plan_cache")):
            self.backend.set_plan_cache(
                os.path.join(self.cache.cache_dir, "plans"))
        self.stats = SessionStats()

    # -- public API -------------------------------------------------------

    def run(self, test, chip=None, incantations=BEST, iterations=None,
            seed=0):
        """Execute one cell; accepts a prepared :class:`RunSpec` or the
        (test, chip, ...) fields of one.

        >>> from repro.api import Session
        >>> from repro.litmus import library
        >>> session = Session(cache=False)
        >>> result = session.run(library.build("mp"), "Titan",
        ...                      iterations=500, seed=1)
        >>> result.iterations
        500
        """
        if isinstance(test, RunSpec):
            spec = test
        else:
            if chip is None:
                raise ReproError("Session.run needs a chip unless given a "
                                 "RunSpec")
            spec = RunSpec.make(test, chip, incantations=incantations,
                                iterations=iterations, seed=seed,
                                engine=self.engine)
        return self.run_specs([spec])[0]

    def run_specs(self, specs):
        """Execute a plan; returns results in plan order.

        Duplicate specs within one plan (same backend cache key)
        execute once; the later occurrences share the first's result.
        A spec the backend's exact tier answers executes no shard.
        """
        specs = list(specs)
        self.stats.planned += len(specs)
        results = {}
        pending = []
        first_seen = {}
        duplicates = {}
        for index, spec in enumerate(specs):
            key = self._cache_key(spec)
            if key in first_seen:
                duplicates[index] = first_seen[key]
                self.stats.deduplicated += 1
                continue
            first_seen[key] = index
            cached = self._lookup(key, spec)
            if cached is not None:
                self.stats.cache_hits += 1
                results[index] = cached
                continue
            exact = self.backend.exact(spec)
            if exact is not None:
                results[index] = self._store(key, self._proved(spec, exact))
            else:
                pending.append((index, key, spec))
        if pending:
            # Each spec is stored as soon as its shards are in, so a
            # failing spec loses only itself and the specs after it.
            execute = self._run_parallel if self.jobs > 1 else self._run_serial
            with contextlib.closing(execute([spec for _, _, spec
                                             in pending])) as executed:
                for (index, key, spec), (shards, parts) in zip(pending,
                                                               executed):
                    results[index] = self._store(
                        key, self._result(spec, shards, parts))
        for index, original in duplicates.items():
            source = results[original]
            results[index] = SpecResult(
                spec=specs[index], backend=source.backend,
                answer=private(source.answer), cached=True,
                provenance=source.provenance)
        return [results[index] for index in range(len(specs))]

    def campaign(self, tests, chips, incantations=BEST, iterations=None,
                 seed=0):
        """Plan and execute the cartesian product campaign."""
        specs = matrix(tests, chips, incantations=incantations,
                       iterations=iterations, seed=seed, engine=self.engine)
        campaign = CampaignResult()
        for result in self.run_specs(specs):
            campaign.add(result)
        return campaign

    # -- execution strategies ---------------------------------------------

    def _run_serial(self, specs):
        """Each spec's ``(shards, shard results)``, run in this thread.

        A spec is planned just before its shards run, so a backend that
        keeps the cell it touched last (the exhaustive backend's
        explorer) builds it once for the plan and every shard, and a
        spec that fails to plan leaves the specs before it stored.
        """
        for spec in specs:
            shards = self.backend.shards(spec, self.backend.shard_size)
            yield shards, [self.backend.run_shard(spec, shard)
                           for shard in shards]

    def _run_parallel(self, specs):
        """Each spec's ``(shards, shard results)`` in shard-index
        order, yielded in plan order as each spec completes.  Every spec
        is planned, then every shard of the plan is submitted to the
        pool up front.  If a shard raises (or the caller stops early),
        the plan's not-yet-started shards are cancelled."""
        planned = [(spec, self.backend.shards(spec, self.backend.shard_size))
                   for spec in specs]
        with self._pool() as pool:
            submitted = [[pool.submit(self.backend.run_shard, spec, shard)
                          for shard in shards]
                         for spec, shards in planned]
            try:
                for (_, shards), futures in zip(planned, submitted):
                    yield shards, [future.result() for future in futures]
            finally:
                for futures in submitted:
                    for future in futures:
                        future.cancel()

    def _pool(self):
        if self.pool is not None:
            # Shared pool: the with-block in _run_parallel must not
            # shut it down, so hand back a non-closing view.
            return contextlib.nullcontext(self.pool)
        if self.executor == "process":
            return _futures.ProcessPoolExecutor(max_workers=self.jobs)
        return _futures.ThreadPoolExecutor(max_workers=self.jobs)

    # -- bookkeeping ------------------------------------------------------

    def _result(self, spec, shards, parts):
        """Merge one executed spec's shard results and account for them."""
        merged = ShardResult.merge(parts)
        self.stats.executed += 1
        self.stats.shards_executed += len(shards)
        self.stats.simulated_iterations += sum(shard.iterations
                                               for shard in shards)
        if merged.stats:
            self.stats.plan_cache_hits += merged.stats.get(
                "plan_cache_hits", 0)
            self.stats.plan_cache_misses += merged.stats.get(
                "plan_cache_misses", 0)
        return SpecResult(spec=spec, backend=self.backend.name,
                          answer=merged.answer, stats=merged.stats,
                          provenance=self.backend.provenance(spec))

    def _proved(self, spec, exact):
        """Account for a spec the backend's exact tier answered: it
        counts as executed, with no shard and no iteration."""
        self.stats.executed += 1
        self.stats.proved += 1
        return SpecResult(spec=spec, backend=self.backend.name,
                          answer=exact.answer, stats=exact.stats,
                          provenance=PROVED)

    def _store(self, key, result):
        if self.cache is not None:
            self.cache.put(key, result)
        return result

    def _cache_key(self, spec):
        """The result's identity: the backend's signature of ``spec``
        plus its execution-parameter variant (the sim backend keys on the
        effective shard decomposition; model verdicts are
        decomposition-free)."""
        backend = self.backend
        return cache_key(backend.name, backend.cache_signature(spec),
                         backend.cache_variant(spec, backend.shard_size))

    def _lookup(self, key, spec):
        if self.cache is None:
            return None
        return self.cache.get(key, spec, self.backend.name,
                              self.backend.answer_type)
