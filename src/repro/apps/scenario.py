"""Declarative application scenarios: the Sec. 3.2 / 6-7 case studies
as campaign-ready value objects.

The paper's headline argument is that weak behaviours break *deployed*
GPU code — the CUDA by Example / Stuart-Owens / He-Yu spin locks and the
Cederman-Tsigas work-stealing deque.  A :class:`Scenario` captures one
such study declaratively:

* the CUDA-eDSL **kernels** (one per thread),
* the **initial memory** image and thread **placement**,
* a **projection** of the final memory onto the observable locations
  (so outcome histograms stay small and readable), and
* a **loss predicate** — a litmus :class:`~repro.litmus.condition.Condition`
  over the projected final memory whose observation count *is* the
  paper's lost-task / wrong-result / isolation-violation count.

Compiling a scenario yields a launch-shaped
:class:`~repro.litmus.test.LitmusTest` whose condition is the loss
predicate, which is what lets the whole campaign stack (histograms,
``SpecResult.observations``, ``CampaignResult`` tables, caching) treat
application campaigns exactly like litmus campaigns.

:data:`SCENARIOS` registers the full corpus: the deque's mp/lb
distillations and a two-slot round trip, every published lock x
fenced/unfenced x inter-CTA/intra-CTA dot-product placement, the He-Yu
isolation scenario and a ticket-lock counter.  Each unfenced scenario's
name pairs with a ``+fenced`` twin carrying the paper's fix.

A :class:`ScenarioSpec` pins one execution cell — scenario x chip x
runs x seed x intensity x engine — and fingerprints it, mirroring
:class:`repro.api.spec.RunSpec`: the fingerprint drives the result
cache and the deterministic per-shard seeds, and deliberately excludes
the engine (fast/reference bit-identity keeps shard streams shared).
"""

import hashlib
import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError, ReproError
from ..litmus.condition import And, Condition, FinalState, MemEq, Not, Or
from ..litmus.writer import write_litmus
from ..sim.chip import ChipProfile, chip as resolve_chip
from ..sim.engine import resolve_engine
from .runtime import build_launch_test
from .deque import (HEAD, TAIL, TAIL2, TASK, TASK2, owner_roundtrip_kernel,
                    pop_then_push_kernel, push_kernel, steal_kernel,
                    thief_roundtrip_kernel)
from .spinlock import (COUNTER, LOCKS, MUTEX, SERVING, accumulate_kernel,
                       reader_kernel, ticket_kernel, writer_kernel)

#: Default relaxation-intent multiplier for app campaigns.  It stands in
#: for the paper's stressful workloads: on hardware the app bugs fire at
#: 4-750 per 100k, far below interactive run budgets, so campaigns boost
#: the chips' relaxation intents the way the incantations do for litmus
#: tests (Sec. 4.3).
STRESS = 100.0

#: Default launches per scenario cell.
DEFAULT_RUNS = 300


def _exists(expr):
    return Condition("exists", expr)


@dataclass(frozen=True)
class Scenario:
    """One declarative application scenario.

    ``name`` is ``family`` plus the ``+fenced`` marker; the loss
    predicate's locations must lie inside the projection, which must lie
    inside the initial memory (validated at registration).
    """

    name: str
    family: str
    fenced: bool
    kernels: tuple            #: one CUDA-eDSL Kernel per thread
    init_mem: tuple           #: sorted ((location, value), ...)
    loss: Condition           #: loss predicate over projected final memory
    placement: str = "inter-cta"
    shared: tuple = ()
    projection: tuple = ()    #: observable locations; () = all
    description: str = ""
    section: str = ""         #: paper anchor (figure / section)

    @staticmethod
    def make(name, family, fenced, kernels, init_mem, loss, **kwargs):
        """Build and validate a scenario (``init_mem`` may be a dict)."""
        scenario = Scenario(name=name, family=family, fenced=fenced,
                            kernels=tuple(kernels),
                            init_mem=tuple(sorted(dict(init_mem).items())),
                            loss=loss, **kwargs)
        scenario.validate()
        return scenario

    def validate(self):
        locations = {location for location, _ in self.init_mem}
        if not locations:
            raise ReproError("scenario %r has no memory locations"
                             % self.name)
        projection = set(self.projection) if self.projection else locations
        missing = projection - locations
        if missing:
            raise ReproError("scenario %r projects unknown locations %s"
                             % (self.name, sorted(missing)))
        unobservable = self.loss.locations() - projection
        if unobservable:
            raise ReproError(
                "scenario %r: loss predicate reads %s outside the "
                "projection" % (self.name, sorted(unobservable)))
        if self.loss.registers():
            raise ReproError("scenario %r: loss predicates range over "
                             "final memory, not registers" % self.name)

    def test(self):
        """The launch-shaped litmus test (built once, memoised).

        The test's condition *is* the loss predicate, so histogram
        observation counts read directly as loss counts.
        """
        cached = self.__dict__.get("_test")
        if cached is None:
            cached = build_launch_test(
                self.kernels, dict(self.init_mem), condition=self.loss,
                placement=self.placement, shared=self.shared, name=self.name)
            object.__setattr__(self, "_test", cached)
        return cached

    def project(self, state):
        """Project a full :class:`FinalState` onto the observable
        locations (a no-op for scenarios that observe everything)."""
        if not self.projection:
            return state
        keep = self._projection_set()
        return FinalState(
            regs=(), mem=tuple((location, value) for location, value
                               in state.mem if location in keep))

    def _projection_set(self):
        cached = self.__dict__.get("_projection_cache")
        if cached is None:
            cached = frozenset(self.projection)
            object.__setattr__(self, "_projection_cache", cached)
        return cached

    def project_histogram(self, histogram):
        """Fold a histogram of full final states onto the projection."""
        if not self.projection:
            return histogram
        from ..harness.histogram import Histogram
        projected = Histogram()
        for state, count in histogram.counts.items():
            projected.add(self.project(state), count)
        return projected

    def __str__(self):
        return "%s [%s, %d threads]%s" % (
            self.name, self.placement, len(self.kernels),
            " — %s" % self.description if self.description else "")


@dataclass(frozen=True)
class ScenarioSpec:
    """One application execution cell: scenario x chip x runs x seed x
    intensity x engine.

    The campaign-layer twin of :class:`repro.api.spec.RunSpec`: the
    same fingerprint/sharding/caching contracts, with the scenario's
    compiled litmus text as the content anchor.  ``iterations`` counts
    kernel launches (the app analogue of litmus iterations — the shared
    shard planner reads this field).
    """

    scenario: Scenario
    chip: ChipProfile
    iterations: int
    seed: int = 0
    intensity: float = STRESS
    #: Simulation engine, with the same contract as ``RunSpec.engine``:
    #: excluded from the fingerprint (shard seeds stay engine-neutral),
    #: included in the app backend's cache signature.
    engine: str = "fast"

    def __post_init__(self):
        # A negative or NaN multiplier silently disables every
        # relaxation (no draw ever fires), which would "verify" the
        # published, losing code; infinity is no intensity either.
        if not (math.isfinite(self.intensity) and self.intensity >= 0):
            raise ReproError("intensity must be a finite number >= 0, "
                             "got %r" % (self.intensity,))

    @staticmethod
    def make(scenario, chip, runs=None, seed=0, intensity=STRESS,
             engine=None):
        """Build a normalised spec; ``scenario`` may be a registry name
        and ``chip`` a Table 1 short name."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        chip = resolve_chip(chip)
        if runs is None:
            runs = DEFAULT_RUNS
        if runs < 1:
            raise ReproError("runs must be positive, got %r" % runs)
        return ScenarioSpec(scenario=scenario, chip=chip,
                            iterations=int(runs), seed=int(seed),
                            intensity=float(intensity),
                            engine=resolve_engine(engine))

    @property
    def test(self):
        return self.scenario.test()

    @property
    def key(self):
        """The campaign grid key: ``(scenario name, chip short)``."""
        return (self.scenario.name, self.chip.short)

    @property
    def runs(self):
        return self.iterations

    @property
    def incantations(self):
        """App campaigns stress chips through the intensity multiplier
        rather than Table 6 incantations; this is the display/caching
        stand-in the shared result plumbing expects."""
        return "intensity=%g" % self.intensity

    def with_engine(self, engine):
        return replace(self, engine=resolve_engine(engine))

    def with_runs(self, runs):
        return replace(self, iterations=int(runs))

    def fingerprint(self):
        """Stable content hash (hex digest), memoised.

        Covers the scenario's full compiled litmus text (kernels,
        placement, initial memory, loss predicate), the projection, the
        chip's complete profile, the intensity, runs and seed.  The
        ``engine`` is deliberately excluded — per-shard seeds derive
        from this digest, and engine-independent seeding is what makes
        the fast/reference bit-identity contract testable.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = "\x1e".join([
            write_litmus(self.test),
            "projection=%s" % ",".join(self.scenario.projection),
            repr(self.chip),
            "intensity=%r" % self.intensity,
            "runs=%d" % self.iterations,
            "seed=%d" % self.seed,
        ])
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def __str__(self):
        return "%s on %s [x%g] x%d seed=%d" % (
            self.scenario.name, self.chip.short, self.intensity,
            self.iterations, self.seed)


# -- scenario builders ------------------------------------------------------

def _name(family, fenced):
    return family + ("+fenced" if fenced else "")


def deque_mp_scenario(fenced):
    """Fig. 7: push vs steal — the deque's message-passing loss."""
    return Scenario.make(
        _name("deque-mp", fenced), "deque-mp", fenced,
        kernels=(push_kernel(1, fenced), steal_kernel(fenced)),
        init_mem={TASK: 0, HEAD: 0, TAIL: 0,
                  "stolen": -1, "claimed_out": -1},
        loss=_exists(And(MemEq(TAIL, 1), MemEq("stolen", 0))),
        projection=(TAIL, "stolen"),
        description="deque push vs steal: steal sees the new tail but a "
                    "stale task",
        section="Sec. 3.2.1, Fig. 7")


def deque_lb_scenario(fenced):
    """Fig. 8: pop-then-push vs steal — the load-buffering loss."""
    return Scenario.make(
        _name("deque-lb", fenced), "deque-lb", fenced,
        kernels=(pop_then_push_kernel(1, fenced),
                 steal_kernel(fenced)),
        init_mem={TASK: 0, HEAD: 0, TAIL: 1,
                  "stolen": -1, "claimed_out": -1, "popped_out": -1},
        loss=_exists(And(MemEq("popped_out", 1), MemEq("stolen", 1))),
        projection=("popped_out", "stolen"),
        description="deque pop+push vs steal: the steal reads the later "
                    "push while the pop's CAS reads the steal",
        section="Sec. 3.2.1, Fig. 8")


def deque_roundtrip_scenario(fenced):
    """Two-slot round trip: owner pushes, thief steals and hands a
    processed task back through the second slot."""
    return Scenario.make(
        _name("deque-rt", fenced), "deque-rt", fenced,
        kernels=(owner_roundtrip_kernel(1, fenced),
                 thief_roundtrip_kernel(2, fenced)),
        init_mem={TASK: 0, HEAD: 0, TAIL: 0,
                  TASK2: 0, TAIL2: 0,
                  "stolen": -1, "got": -1},
        loss=_exists(Or(And(MemEq(TAIL, 1), MemEq("stolen", 0)),
                        MemEq("got", 0))),
        projection=(TAIL, TAIL2, "stolen", "got"),
        description="two-slot deque round trip: either leg can lose its "
                    "task to a stale slot read",
        section="Sec. 3.2.1, Figs. 6-7 (round trip)")


def make_dot_scenario(family, lock_builder, fenced, placement="inter-cta",
                      locals_=(5, 7), description="", section=""):
    """Build a dot-product scenario around an arbitrary lock builder."""
    lock = lock_builder(fenced)
    kernels = tuple(accumulate_kernel(lock, value)
                    for value in locals_)
    expected = sum(locals_)
    return Scenario.make(
        _name(family, fenced), family, fenced,
        kernels=kernels,
        init_mem={"sum": 0, MUTEX: 0},
        loss=_exists(Not(MemEq("sum", expected))),
        placement=placement,
        projection=("sum",),
        description=description, section=section)


_LOCK_TITLES = {
    "cbe": ("CUDA by Example lock", "Sec. 3.2.2, Fig. 2"),
    "so": ("Stuart-Owens exchange lock", "Sec. 3.2.2"),
    "heyu": ("He-Yu transaction lock", "Sec. 3.2.3, Fig. 10"),
}


def dot_product_scenario(lock, fenced, placement="inter-cta",
                         locals_=(5, 7)):
    """The dot-product client under a registered lock (``cbe``/``so``/
    ``heyu``), at either placement."""
    try:
        builder = LOCKS[lock]
    except KeyError:
        raise ConfigurationError(
            "unknown lock %r; valid locks: %s"
            % (lock, ", ".join(sorted(LOCKS)))) from None
    title, section = _LOCK_TITLES[lock]
    family = "dot-%s" % lock
    if placement != "inter-cta":
        family += "-cta"
    return make_dot_scenario(
        family, builder, fenced, placement=placement, locals_=locals_,
        description="dot-product partial sums under the %s (%s)"
                    % (title, placement),
        section=section)


def isolation_scenario(fixed):
    """Fig. 11 distilled back into CUDA: the He-Yu lock's isolation
    violation (a critical section reads a *future* value)."""
    return Scenario.make(
        _name("isolation", fixed), "isolation", fixed,
        kernels=(reader_kernel(fixed), writer_kernel()),
        init_mem={"x": 0, MUTEX: 1, "out": 0},
        loss=_exists(MemEq("out", 1)),
        projection=("out",),
        description="He-Yu isolation: the holder's critical section reads "
                    "the next critical section's write",
        section="Sec. 3.2.3, Fig. 11")


def ticket_counter_scenario(fenced, locals_=(5, 7)):
    """A ticket-lock counter: plain-store lock handoff between tickets."""
    kernels = tuple(ticket_kernel(ticket, value, fenced)
                    for ticket, value in enumerate(locals_))
    expected = sum(locals_)
    return Scenario.make(
        _name("ticket", fenced), "ticket", fenced,
        kernels=kernels,
        init_mem={COUNTER: 0, SERVING: 0},
        loss=_exists(Not(MemEq(COUNTER, expected))),
        projection=(COUNTER,),
        description="ticket-lock counter: the serving handoff overtakes "
                    "the critical section's counter write",
        section="Sec. 3.2.2 (ticket-lock variant)")


def _build_registry():
    scenarios = []
    for fenced in (False, True):
        scenarios.append(deque_mp_scenario(fenced))
        scenarios.append(deque_lb_scenario(fenced))
        scenarios.append(deque_roundtrip_scenario(fenced))
        for lock in sorted(LOCKS):
            for placement in ("inter-cta", "intra-cta"):
                scenarios.append(dot_product_scenario(
                    lock, fenced, placement=placement))
        scenarios.append(isolation_scenario(fenced))
        scenarios.append(ticket_counter_scenario(fenced))
    registry = {}
    for scenario in scenarios:
        if scenario.name in registry:
            raise ReproError("duplicate scenario name %r" % scenario.name)
        registry[scenario.name] = scenario
    return registry


#: The scenario registry: name -> canonical :class:`Scenario`.
SCENARIOS = _build_registry()

#: Scenario families (unfenced/fenced pairs), in registry order.
FAMILIES = list(dict.fromkeys(scenario.family
                              for scenario in SCENARIOS.values()))


def get_scenario(name):
    """Resolve a registry name to its :class:`Scenario`."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown scenario %r; valid scenarios: %s"
            % (name, ", ".join(sorted(SCENARIOS)))) from None


def select_scenarios(names=("all",), fenced="both"):
    """Resolve CLI-style selectors to scenario objects, in registry order.

    Each selector is ``all``, a family name (both variants — a family
    shares its name with its unfenced member, and the family wins; use
    the ``fenced`` filter or the explicit ``+fenced`` name to pick one
    variant) or a full scenario name; ``fenced`` filters to
    ``on``/``off``/``both``.
    """
    if fenced not in ("on", "off", "both"):
        raise ConfigurationError(
            "fenced filter must be on/off/both, got %r" % (fenced,))
    chosen = []
    for selector in names:
        if selector == "all":
            chosen.extend(SCENARIOS.values())
        elif selector in FAMILIES:
            chosen.extend(scenario for scenario in SCENARIOS.values()
                          if scenario.family == selector)
        elif selector in SCENARIOS:
            chosen.append(SCENARIOS[selector])
        else:
            raise ConfigurationError(
                "unknown scenario selector %r; valid: all, a family (%s) "
                "or a full name (see `repro-litmus list`)"
                % (selector, ", ".join(FAMILIES)))
    if fenced != "both":
        want = fenced == "on"
        chosen = [scenario for scenario in chosen
                  if scenario.fenced == want]
    # De-duplicate while preserving selection order.
    unique = list(dict.fromkeys(scenario.name for scenario in chosen))
    return [SCENARIOS[name] for name in unique]
