"""Execution requests: the :class:`RunSpec` value type and its helpers.

A :class:`RunSpec` pins down everything that determines one execution
cell of the paper's campaigns — *which* litmus test, *which* chip,
*which* incantation combination, *how many* iterations and *which* seed
— and derives a stable content fingerprint from it.  The fingerprint is
the cache key of :mod:`repro.api.cache` and the base of the
deterministic per-shard seeds of :mod:`repro.api.backends`: two specs
with identical content hash identically across processes and sessions
(no reliance on Python's randomised ``hash``).
"""

import hashlib
from dataclasses import dataclass, replace

from ..errors import ReproError
from ..harness.incantations import Incantations, best_for
from ..litmus.writer import write_litmus
from ..model.models import resolve_model_engine
from ..sim.chip import ChipProfile, chip as resolve_chip
from ..sim.engine import resolve_engine

#: Sentinel accepted wherever an incantation combination is expected:
#: resolve to the most effective combination for the chip's vendor and
#: the test's idiom (the paper's reporting configuration, Sec. 3).
BEST = "best"


_INCANTATION_FLAGS = {
    "stress": "memory_stress", "memory-stress": "memory_stress",
    "bank-conflicts": "bank_conflicts", "bank": "bank_conflicts",
    "sync": "thread_sync", "thread-sync": "thread_sync",
    "random": "thread_rand", "thread-rand": "thread_rand",
}


def parse_incantations(text):
    """Parse a CLI-style incantation spec.

    Accepted forms: ``best`` (returns the :data:`BEST` sentinel),
    ``none``, ``all``, a Table 6 column number ``1``..``16``, or a
    ``+``-separated list of flags such as ``stress+sync+random``
    (the names printed by ``str(Incantations)``).
    """
    text = text.strip().lower()
    if text == BEST:
        return BEST
    if text == "none":
        return Incantations.none()
    if text == "all":
        return Incantations.all()
    if text.isdigit():
        try:
            return Incantations.from_column(int(text))
        except ValueError:
            raise ReproError("incantation column must be 1..16, got %s"
                             % text) from None
    flags = {}
    for part in text.split("+"):
        field_name = _INCANTATION_FLAGS.get(part.strip())
        if field_name is None:
            raise ReproError(
                "unknown incantation %r (expected best, none, all, a Table 6 "
                "column 1-16, or +-joined flags from: %s)"
                % (part.strip(), ", ".join(sorted(_INCANTATION_FLAGS))))
        flags[field_name] = True
    return Incantations(**flags)


def resolve_incantations(incantations, chip, test):
    """Normalise any accepted incantation spec to an :class:`Incantations`.

    ``None`` means the bare Sec. 4.2 setup; :data:`BEST` (or the string
    forms of :func:`parse_incantations`) resolve against the chip's
    vendor and the test's idiom.
    """
    if incantations is None:
        return Incantations.none()
    if isinstance(incantations, Incantations):
        return incantations
    if isinstance(incantations, str):
        parsed = parse_incantations(incantations)
        if parsed is not BEST:
            return parsed
        return best_for(chip.vendor, test.idiom or "mp")
    raise ReproError("cannot interpret incantations %r" % (incantations,))


def _chip_signature(chip):
    """Canonical text of everything about a chip that affects simulation.

    The dataclass ``repr`` covers every probability knob and structural
    switch; field order is fixed by the class definition, so the text is
    stable across runs and processes.
    """
    return repr(chip)


@dataclass(frozen=True)
class RunSpec:
    """One execution cell: test x chip x incantations x iterations x seed.

    Construct via :meth:`RunSpec.make` (which resolves chip short names
    and incantation specs) rather than directly, unless all fields are
    already normalised.
    """

    test: object                 #: a :class:`~repro.litmus.test.LitmusTest`
    chip: ChipProfile
    incantations: Incantations
    iterations: int
    seed: int = 0
    #: Simulation engine for sim backends: ``"fast"`` (the compiled
    #: cells of :mod:`repro.sim.compile`), ``"batch"`` (the numpy
    #: lockstep lowering of :mod:`repro.sim.batch`) or ``"reference"``
    #: (the generic interpreter).  ``reference``/``fast`` are
    #: bit-identical by property-tested contract and ``batch`` is
    #: distribution-equivalent under a documented seeded stream-break,
    #: so the engine is *not* part of the content fingerprint (and
    #: therefore never perturbs shard seeds) — but it *is* part of the
    #: sim backend's cache signature, so cached histograms never cross
    #: engines (a cached reference result must not mask a fast-engine
    #: bug, and a batch histogram must never satisfy a bit-exact
    #: fast/reference request).
    engine: str = "fast"
    #: Model-checking engine for model backends, with the same contract
    #: as ``engine``: ``"fast"`` (compiled model + pruned enumeration,
    #: :func:`repro.model.enumerate.enumerate_allowed`) or
    #: ``"reference"`` (materialise-then-check).  Excluded from the
    #: fingerprint, included in the model backend's cache signature.
    model_engine: str = "fast"

    @staticmethod
    def make(test, chip, incantations=BEST, iterations=None, seed=0,
             engine=None, model_engine=None):
        """Build a normalised spec.

        ``engine=None`` resolves through
        :func:`repro.sim.engine.resolve_engine` (the ``REPRO_ENGINE``
        environment variable, default ``"fast"``); ``model_engine=None``
        likewise through
        :func:`repro.model.models.resolve_model_engine`
        (``REPRO_MODEL_ENGINE``, default ``"fast"``).

        >>> from repro.litmus import library
        >>> spec = RunSpec.make(library.build("mp"), "Titan",
        ...                     iterations=1000, seed=7)
        >>> spec.key
        ('mp', 'Titan')
        >>> spec.engine
        'fast'
        >>> spec.model_engine
        'fast'
        """
        from ..harness.runner import default_iterations

        chip = resolve_chip(chip)
        incantations = resolve_incantations(incantations, chip, test)
        if iterations is None:
            iterations = default_iterations()
        if iterations < 1:
            raise ReproError("iterations must be positive, got %r" % iterations)
        return RunSpec(test=test, chip=chip, incantations=incantations,
                       iterations=int(iterations), seed=int(seed),
                       engine=resolve_engine(engine),
                       model_engine=resolve_model_engine(model_engine))

    @property
    def key(self):
        """The campaign grid key: ``(test name, chip short)``."""
        return (self.test.name, self.chip.short)

    def with_iterations(self, iterations):
        return replace(self, iterations=int(iterations))

    def with_engine(self, engine):
        return replace(self, engine=resolve_engine(engine))

    def with_model_engine(self, model_engine):
        return replace(self,
                       model_engine=resolve_model_engine(model_engine))

    def fingerprint(self):
        """Stable content hash of this spec (hex digest).

        Covers the full litmus text (not just the name), the chip's
        complete profile (so recalibrated knobs invalidate old cache
        entries), the incantation column, iterations and seed.  The
        ``engine`` and ``model_engine`` are deliberately **excluded**:
        per-shard seeds derive from this digest, and engine-independent
        seeding is exactly what makes the engine-equivalence contracts
        testable (fast/reference bit-identity, batch distribution
        equivalence on the very same shard seeds).  All
        fields are frozen, so the digest is computed once and memoised
        (cache lookup, store and every shard seed re-ask for it).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = "\x1e".join([
            write_litmus(self.test),
            _chip_signature(self.chip),
            "column=%d" % self.incantations.column,
            "iterations=%d" % self.iterations,
            "seed=%d" % self.seed,
        ])
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def __str__(self):
        return "%s on %s [%s] x%d seed=%d" % (
            self.test.name, self.chip.short, self.incantations,
            self.iterations, self.seed)


def matrix(tests, chips, incantations=BEST, iterations=None, seed=0,
           engine=None, model_engine=None):
    """Cartesian-product campaign plan: one :class:`RunSpec` per
    (test, chip) cell — the planner behind ``Session.campaign``."""
    specs = []
    for test in tests:
        for chip in chips:
            specs.append(RunSpec.make(test, chip, incantations=incantations,
                                      iterations=iterations, seed=seed,
                                      engine=engine,
                                      model_engine=model_engine))
    return specs
