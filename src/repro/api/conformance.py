"""Soundness campaigns (Sec. 5.4): sim observations vs model allowances.

The paper's headline validation runs a diy-generated corpus (10930
tests, 100k iterations, six chips) and checks that the PTX model allows
*every* observed final state.  This module is that campaign on top of
the :class:`~repro.api.session.Session` layer:

* :func:`run_soundness` streams the corpus in chunks through **two**
  backends — each test's executions on the operational simulator
  (:class:`~repro.api.backends.SimBackend`, sharded across the worker
  pool) and its allowed set under an axiomatic model
  (:class:`~repro.api.backends.ModelBackend`) — and joins them per
  ``(test, chip)`` cell.  Both sessions share one worker pool and one
  result cache, so model verdicts are enumerated once per test text
  (never once per chip) and a re-run against a warm ``cache_dir``
  performs no new simulation.
* :class:`ConformanceReport` holds the joined verdicts compactly —
  per-cell observation stats and the offending final states, never the
  full histograms — so corpus size is bounded by the report, not by the
  test count times the state space.

The model half refuses truncated enumerations by construction
(:class:`ModelBackend` enumerates with ``on_limit="error"``): an
under-approximated allowed set would turn healthy observations into
false "violations".
"""

from concurrent import futures as _futures
from dataclasses import dataclass, field, replace

from .._util import format_table
from ..diy.naming import NameAllocator
from ..errors import ReproError
from ..harness.report import conformance_table
from .backends import ModelBackend
from .session import DEFAULT_CHUNK_SIZE, Session, chunked
from .spec import BEST, RunSpec, matrix, resolve_chips

#: Default chip sweep for soundness campaigns: the paper validates the
#: PTX model on Nvidia chips (Sec. 5.4); these four cover Fermi and
#: Kepler at benchmark scale.  Shared by the CLI and the benchmarks so
#: their cells coincide (and cache-share).
SOUNDNESS_CHIPS = ("TesC", "GTX6", "Titan", "GTX7")


@dataclass(frozen=True)
class Violation:
    """One final state observed on a chip but forbidden by the model."""

    test: str                     #: test name
    chip: str                     #: chip short name
    state: object                 #: the offending FinalState
    count: int                    #: how often the sim observed it

    def describe(self):
        return ("%s on %s: observed %dx but the model forbids %s"
                % (self.test, self.chip, self.count, self.state))


@dataclass(frozen=True)
class CellConformance:
    """The sim-vs-model join for one ``(test, chip)`` campaign cell."""

    test: str                     #: test name
    chip: str                     #: chip short name
    incantations: str             #: incantation combination (display form)
    iterations: int               #: sim iterations behind the histogram
    observations: int             #: final-condition (weak) observations
    per_100k: float               #: weak observations per 100k iterations
    distinct_states: int          #: distinct final states the sim observed
    cached: bool                  #: sim histogram served from the cache?
    violations: tuple = ()        #: Violations (empty = sound cell)

    @property
    def sound(self):
        """Every observed final state is model-allowed (obs ⊆ allowed)."""
        return not self.violations


@dataclass
class ConformanceReport:
    """Joined verdict of one soundness campaign.

    ``allowed_counts`` maps each test name to the size of its allowed
    set; ``cells`` lists one :class:`CellConformance` per ``(test,
    chip)`` in campaign order.  Test names key the report, so the corpus
    must be uniquely named (:func:`uniquify_tests`,
    :func:`~repro.diy.generate.generate_tests`).
    """

    model: str                               #: model backend name
    allowed_counts: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    sim_stats: dict = field(default_factory=dict)
    model_stats: dict = field(default_factory=dict)

    # -- accumulation -----------------------------------------------------

    def add_test(self, name, allowed_count):
        if name in self.allowed_counts:
            raise ReproError(
                "duplicate test name %r in soundness corpus; conformance "
                "reports are name-keyed (uniquify_tests() renames "
                "collisions)" % name)
        self.allowed_counts[name] = allowed_count

    def add_cell(self, cell):
        self.cells.append(cell)

    # -- shape ------------------------------------------------------------

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def tests(self):
        """Test names in campaign order."""
        return list(self.allowed_counts)

    @property
    def chips(self):
        """Chip short names in first-seen campaign order."""
        return list(dict.fromkeys(cell.chip for cell in self.cells))

    # -- verdicts ---------------------------------------------------------

    @property
    def violations(self):
        """Every observed-but-forbidden final state, campaign order."""
        return [violation for cell in self.cells
                for violation in cell.violations]

    @property
    def ok(self):
        """The paper's Sec. 5.4 claim for this corpus: observed ⊆ allowed
        on every cell."""
        return all(cell.sound for cell in self.cells)

    @property
    def total_iterations(self):
        return sum(cell.iterations for cell in self.cells)

    @property
    def cached_cells(self):
        return sum(1 for cell in self.cells if cell.cached)

    # -- coverage ---------------------------------------------------------

    def _coverage(self, key):
        groups = {}
        for cell in self.cells:
            entry = groups.setdefault(key(cell), {
                "cells": 0, "weak": 0, "violations": 0, "iterations": 0,
                "cached": 0})
            entry["cells"] += 1
            entry["weak"] += 1 if cell.observations else 0
            entry["violations"] += len(cell.violations)
            entry["iterations"] += cell.iterations
            entry["cached"] += 1 if cell.cached else 0
        return groups

    def coverage_by_chip(self):
        """``{chip short: {cells, weak, violations, iterations, cached}}``."""
        return self._coverage(lambda cell: cell.chip)

    def coverage_by_incantations(self):
        """The same aggregates keyed by incantation combination."""
        return self._coverage(lambda cell: cell.incantations)

    def _coverage_table(self, label, groups):
        headers = [label, "cells", "weak", "violations", "iterations",
                   "cached"]
        rows = [[name, entry["cells"], entry["weak"], entry["violations"],
                 entry["iterations"], entry["cached"]]
                for name, entry in groups.items()]
        return format_table(headers, rows)

    def coverage_table(self):
        """Per-chip coverage: cells checked, weak cells, violations."""
        return self._coverage_table("chip", self.coverage_by_chip())

    def incantation_table(self):
        """Per-incantation-combination coverage."""
        return self._coverage_table("incantations",
                                    self.coverage_by_incantations())

    # -- rendering --------------------------------------------------------

    def summary_table(self, max_rows=None):
        """Paper-style obs/100k grid with forbidden-state flags.

        ``max_rows`` truncates the listing for large corpora (a trailing
        line reports how many rows were elided); cells with violations
        are always shown, so ``max_rows=0`` shows only those, and a
        negative ``max_rows`` is a :class:`ReproError`.
        """
        if max_rows is not None and max_rows < 0:
            raise ReproError("max_rows must be >= 0, got %r" % (max_rows,))
        cells = {(cell.test, cell.chip): cell for cell in self.cells}
        tests = self.tests
        elided = 0
        if max_rows is not None and len(tests) > max_rows:
            unsound = {cell.test for cell in self.cells
                       if cell.violations}
            keep = [name for name in tests[:max_rows]]
            keep += [name for name in tests[max_rows:] if name in unsound]
            elided = len(tests) - len(keep)
            tests = keep
        table = conformance_table(tests, self.chips, cells)
        if elided:
            table += "\n... (%d sound rows elided)" % elided
        return table

    def violation_lines(self):
        return [violation.describe() for violation in self.violations]

    def summary(self):
        weak = sum(1 for cell in self.cells if cell.observations)
        return ("soundness vs %s: %d tests x %d chips = %d cells, "
                "%d weak, %d violations, %d cached, %d iterations"
                % (self.model, len(self.allowed_counts), len(self.chips),
                   len(self.cells), weak, len(self.violations),
                   self.cached_cells, self.total_iterations))


def uniquify_tests(tests):
    """Rename duplicate-named tests with deterministic ordinal suffixes.

    :func:`~repro.diy.generate.generate_tests` already guarantees unique
    names within one generated corpus; this helper covers mixed corpora
    (generated family + library + extended tests), where e.g. a generated
    ``mp`` and the library ``mp`` would otherwise merge in the name-keyed
    report despite having different bodies.
    """
    allocator = NameAllocator()
    out = []
    for test in tests:
        unique = allocator.assign(test.name)
        out.append(test if unique == test.name
                   else replace(test, name=unique))
    return out


def _join_cell(result, allowed):
    """Fold one sim :class:`SpecResult` against the model's allowed set
    into a compact :class:`CellConformance` (drops the histogram)."""
    test_name = result.test.name
    chip_short = result.chip.short
    violations = tuple(
        Violation(test=test_name, chip=chip_short, state=state, count=count)
        for state, count in sorted(result.histogram.counts.items(),
                                   key=lambda kv: str(kv[0]))
        if state not in allowed)
    return CellConformance(
        test=test_name, chip=chip_short,
        incantations=str(result.incantations),
        iterations=result.iterations,
        observations=result.observations,
        per_100k=result.per_100k,
        distinct_states=len(result.histogram.counts),
        cached=result.cached,
        violations=violations)


def run_soundness(tests, chips, model="ptx", incantations=BEST,
                  iterations=None, seed=0, jobs=1, executor="thread",
                  cache=True, cache_dir=None, chunk_size=DEFAULT_CHUNK_SIZE,
                  sim_session=None, progress=None, engine=None,
                  model_engine=None):
    """Run the Sec. 5.4 conformance campaign over ``tests`` x ``chips``.

    ``tests`` is any iterable of litmus tests (a generator streams —
    chunked planning holds at most ``chunk_size`` tests' histograms at
    once, and a ``chunk_size`` below 1 is a :class:`ReproError`); names
    must be corpus-unique (see :func:`uniquify_tests`).
    ``model`` names the axiomatic reference (``"ptx"`` is the paper's).
    Sim cells use ``incantations``/``iterations``/``seed`` exactly like
    :meth:`Session.campaign`.  ``engine`` and ``model_engine`` are the
    sim and model engines (``None``: the engine of the session that
    runs them); they change only wall-clock, never a verdict, and the
    fast model engine is what makes diy corpora of length 6 and up
    enumerable within a campaign's budget.

    Example — validate a small generated corpus on two chips::

        from repro.diy import default_pool, generate_tests
        tests = generate_tests(default_pool(), max_length=4, max_tests=20)
        report = run_soundness(tests, ["Titan", "GTX7"], iterations=1000)
        assert report.ok, report.violation_lines()

    ``jobs``/``executor``/``cache``/``cache_dir`` configure the sim and
    model sessions this function builds, which share one worker pool
    and one result cache; pass ``sim_session`` to run the sim cells on
    an existing session instead (e.g. the benchmarks' shared memoising
    one), whose cache the model session then shares, and leave those
    four at their defaults: beside it they are a :class:`ReproError`.
    ``progress`` is an optional callable invoked with each finished
    :class:`CellConformance`.

    Returns a :class:`ConformanceReport`.  Raises
    :class:`~repro.errors.EnumerationError` rather than checking against
    a truncated (under-approximated) allowed set.
    """
    chips = resolve_chips(chips)
    if not chips:
        raise ReproError("run_soundness needs at least one chip")
    if chunk_size < 1:
        raise ReproError("chunk_size must be >= 1, got %r" % (chunk_size,))
    if sim_session is not None:
        ignored = ["%s=%r" % (name, value) for name, value, default in (
            ("jobs", jobs, 1), ("executor", executor, "thread"),
            ("cache", cache, True), ("cache_dir", cache_dir, None))
            if value != default]
        if ignored:
            raise ReproError(
                "run_soundness got %s beside sim_session, which brings its "
                "own; configure that session instead" % ", ".join(ignored))
    own_pool = None
    try:
        if jobs > 1:
            pool_cls = (_futures.ProcessPoolExecutor
                        if executor == "process"
                        else _futures.ThreadPoolExecutor)
            own_pool = pool_cls(max_workers=jobs)
        if sim_session is None:
            sim_session = Session(backend="sim", jobs=jobs,
                                  executor=executor, cache=cache,
                                  cache_dir=cache_dir, pool=own_pool,
                                  engine=engine)
        # Share the sim session's cache object so one cache_dir (and one
        # in-memory tier) serves both backends; keys never collide
        # because they embed the backend name.
        shared_cache = (sim_session.cache
                        if sim_session.cache is not None else cache)
        model_session = Session(
            backend=ModelBackend(model), jobs=jobs, executor=executor,
            cache=shared_cache, cache_dir=cache_dir, pool=own_pool,
            engine=model_engine)
        if engine is None:
            engine = sim_session.engine
        # Stats are reported as this campaign's delta, so reusing a
        # long-lived session (the benchmarks' shared one) still yields
        # per-campaign executed/cache-hit counts.
        sim_before = sim_session.stats.snapshot()
        model_before = model_session.stats.snapshot()
        report = ConformanceReport(model=model_session.backend.name)
        representative = chips[0]
        for chunk in chunked(tests, chunk_size):
            # One model spec per *test* — ModelBackend's cache signature
            # ignores chip/iterations/seed, so this is the memoisation
            # unit — and a sim spec per (test, chip) cell.
            model_specs = [
                RunSpec.make(test, representative, incantations=None,
                             iterations=1, seed=0, engine=model_engine)
                for test in chunk]
            allowed = {}
            for test, result in zip(chunk,
                                    model_session.run_specs(model_specs)):
                allowed[test.name] = result.answer
                report.add_test(test.name, len(result.answer))
            sim_specs = matrix(chunk, chips, incantations=incantations,
                               iterations=iterations, seed=seed,
                               engine=engine)
            for result in sim_session.run_specs(sim_specs):
                cell = _join_cell(result, allowed[result.test.name])
                report.add_cell(cell)
                if progress is not None:
                    progress(cell)
    finally:
        if own_pool is not None:
            own_pool.shutdown()
    report.sim_stats = {key: value - sim_before[key]
                        for key, value in sim_session.stats.snapshot().items()}
    report.model_stats = {
        key: value - model_before[key]
        for key, value in model_session.stats.snapshot().items()}
    return report
