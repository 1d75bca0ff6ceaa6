"""Chip profiles: the GPUs of Table 1 as simulator configurations.

Real hardware is unavailable, so each chip is modelled as a
:class:`ChipProfile`: a set of *structural switches* saying which
micro-architectural relaxations exist (store buffering, non-FIFO drain,
out-of-order loads, the load-load hazard, un-invalidated L1 lines,
atomics that do or don't order) plus *probability knobs* calibrated
against the paper's observation tables so that weak-outcome rates land
near the published per-100k counts.

The switches are inferred from the paper's data:

* **GTX 280** (Tesla) — no weak behaviour observed (Sec. 1 fn. 7):
  everything off.
* **GTX 540m** (Fermi GF108) — coRR (Fig. 1: 11642) and mp-L1 (Fig. 3:
  4979) but *zero* on every inter-CTA ``.cg``/atomic test (Figs. 7-11):
  load-load reordering and the load-load hazard only; stores and atomics
  ordered; a ``membar.cta`` restores mp-L1 but does not invalidate the
  L1 (Fig. 4: 1934 with ``membar.cta``).
* **Tesla C2075** (Fermi GF110) — everything relaxed, and no fence of any
  scope reliably invalidates the L1 (Figs. 3 and 4: weak under
  ``membar.sys``).
* **GTX 660 / GTX Titan** (Kepler) — everything relaxed; ``membar.gl``
  restores all orderings; ``membar.cta`` leaks inter-CTA (Fig. 3: 14 and
  1696); residual L1 staleness is tiny (Fig. 4: 2 and 141).
* **GTX 750** (Maxwell) — a rare store-drain reordering only (Fig. 3
  no-fence: 3); atomics and volatiles ordered; no hazard, no staleness.
* **Radeon HD 6570** (TeraScale 2) — no coRR, no store buffering; W→W
  drain reordering (cas-sl: 508) and load-load reordering (mp: 9327).
* **Radeon HD 7970** (GCN 1.0) — massive R→W reordering (Tab. 6 lb:
  38664), W→W (cas-sl: 748), loads reorder (mp: 2956); sb essentially
  absent (Tab. 6: 2); no coRR.
"""

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..ptx.types import Scope


@dataclass(frozen=True)
class ChipProfile:
    """Static description of one GPU chip for the simulator.

    Structural switches (booleans) decide *whether* a relaxation can ever
    happen; probability knobs decide *how often* the per-iteration intent
    fires (before the harness multiplies in incantation efficacy).
    """

    name: str
    short: str
    vendor: str
    architecture: str
    year: int
    n_sms: int = 8

    # -- per-relaxation intent probabilities ------------------------------
    #: keys: ``r_pass_w`` (load before older store: sb), ``w_pass_w``
    #: (non-FIFO store drain: mp writer side, cas-sl), ``r_pass_r``
    #: (out-of-order loads: mp reader side), ``w_pass_r`` (store before
    #: older load: lb), ``rr_hazard`` (same-address load reorder: coRR).
    #: A missing key means the relaxation is structurally absent.
    p_relax: dict = field(default_factory=dict)
    atomic_ordered: bool = True       #: atomics issue strictly in order
    volatile_ordered: bool = True     #: .volatile accesses issue in order
    l1_stale_reads: bool = False      #: .ca loads may hit un-invalidated lines

    # -- L1 (.ca) pathologies of the Fermi generation ----------------------
    #: same-address load-load reordering when the two loads use *different*
    #: cache operators (the coRR-L2-L1 refill path of Fig. 4) — distinct
    #: from ``rr_hazard``, which Fig. 4 shows does not apply across cache
    #: levels (GTX 660: coRR 9599 but coRR-L2-L1 only 2).
    p_mixed_hazard: float = 0.0
    #: probability that the Fig. 4 refill path survives a fence of the
    #: given scope (TesC: even membar.sys, Fig. 4 bottom row).
    p_mixed_bypass: dict = field(default_factory=dict)
    #: probability that a ``.ca`` load to a *different* location passes a
    #: fence of the given scope (why "no fence is sufficient under default
    #: CUDA compilation schemes" on the Tesla C2075, Sec. 3.1.2).
    p_ca_bypass: dict = field(default_factory=dict)

    # -- legacy stale-L1 machinery (off by default; kept configurable) ----
    p_stale: float = 0.0              #: L1-staleness intent
    p_l1_warm: float = 0.5            #: warm line per location (given intent)
    p_store_invalidates_own_l1: float = 1.0
    p_cg_evicts_l1: float = 1.0       #: .cg load evicts the matching L1 line
    #: probability that a fence of the given scope invalidates stale lines
    fence_l1_inval: dict = field(default_factory=dict)
    #: fraction of reordering weakness that survives an under-scoped fence
    #: (e.g. membar.cta in an inter-CTA test); 0 = the fence still works
    underscoped_fence_damping: float = 0.0

    RELAXATIONS = ("r_pass_w", "w_pass_w", "r_pass_r", "w_pass_r",
                   "rr_hazard", "volatile_relax")
    SCOPED_BYPASSES = ("mixed_bypass", "ca_bypass")

    def fence_inval_probability(self, scope):
        return self.fence_l1_inval.get(scope, 1.0)

    def relax_probability(self, kind):
        # ``volatile_relax`` is a *dampener* on reordering volatile pairs
        # (chips whose volatiles reorder less often than plain accesses);
        # absent means volatile pairs reorder as freely as plain ones.
        default = 1.0 if kind == "volatile_relax" else 0.0
        return self.p_relax.get(kind, default)

    def draw_intents(self, rng, intensity=1.0):
        """Draw this iteration's relaxation intents (one Bernoulli per
        relaxation kind), scaled by the harness's incantation intensity."""
        intents = {kind: rng.random() < self.relax_probability(kind) * intensity
                   for kind in self.RELAXATIONS if kind != "volatile_relax"}
        intents["volatile_relax"] = (
            rng.random() < self.relax_probability("volatile_relax"))
        intents["mixed_hazard"] = rng.random() < self.p_mixed_hazard * intensity
        for scope in Scope:
            intents["mixed_bypass_%s" % scope.value] = (
                rng.random() < self.p_mixed_bypass.get(scope, 0.0))
            intents["ca_bypass_%s" % scope.value] = (
                rng.random() < self.p_ca_bypass.get(scope, 0.0))
        return intents

    @property
    def is_weak(self):
        return (any(p > 0 for p in self.p_relax.values())
                or self.l1_stale_reads)

    def __str__(self):
        return "%s (%s %s, %d)" % (self.short, self.vendor, self.architecture,
                                   self.year)


def _nvidia(short, name, architecture, year, **kwargs):
    return ChipProfile(name=name, short=short, vendor="Nvidia",
                       architecture=architecture, year=year, **kwargs)


def _amd(short, name, architecture, year, **kwargs):
    return ChipProfile(name=name, short=short, vendor="AMD",
                       architecture=architecture, year=year, **kwargs)


#: The chips of Table 1, keyed by the paper's short names.
CHIPS = {
    "GTX280": _nvidia(
        "GTX280", "GeForce GTX 280", "Tesla", 2008,
        # No weak behaviour was observed on this chip (Sec. 1, fn. 7).
    ),
    "GTX5": _nvidia(
        "GTX5", "GeForce GTX 540m", "Fermi", 2011, n_sms=2,
        p_relax={"rr_hazard": 0.48, "r_pass_r": 0.46},
        atomic_ordered=True, volatile_ordered=False, l1_stale_reads=True,
        p_mixed_hazard=0.10, p_mixed_bypass={Scope.CTA: 0.76},
        underscoped_fence_damping=0.0,
    ),
    "TesC": _nvidia(
        "TesC", "Tesla C2075", "Fermi", 2011, n_sms=14,
        p_relax={"rr_hazard": 0.35, "r_pass_r": 0.88, "w_pass_w": 0.004,
                 "r_pass_w": 0.15, "w_pass_r": 0.05, "volatile_relax": 0.45},
        atomic_ordered=False, volatile_ordered=False, l1_stale_reads=True,
        p_mixed_hazard=0.115,
        p_mixed_bypass={Scope.CTA: 0.73, Scope.GL: 0.50, Scope.SYS: 0.48},
        p_ca_bypass={Scope.CTA: 0.015, Scope.GL: 0.018, Scope.SYS: 0.015},
        underscoped_fence_damping=0.029,
    ),
    "GTX6": _nvidia(
        "GTX6", "GeForce GTX 660", "Kepler", 2012, n_sms=5,
        p_relax={"rr_hazard": 0.39, "r_pass_r": 0.24, "w_pass_w": 0.003,
                 "r_pass_w": 0.15, "w_pass_r": 0.025},
        atomic_ordered=False, volatile_ordered=False, l1_stale_reads=True,
        p_mixed_hazard=0.00008,
        underscoped_fence_damping=0.004,
    ),
    "Titan": _nvidia(
        "Titan", "GeForce GTX Titan", "Kepler", 2013, n_sms=14,
        p_relax={"rr_hazard": 0.4, "r_pass_r": 0.37, "w_pass_w": 0.04,
                 "r_pass_w": 0.13, "w_pass_r": 0.065, "volatile_relax": 0.37},
        atomic_ordered=False, volatile_ordered=False, l1_stale_reads=True,
        p_mixed_hazard=0.0052,
        underscoped_fence_damping=0.28,
    ),
    "GTX7": _nvidia(
        "GTX7", "GeForce GTX 750", "Maxwell", 2014, n_sms=4,
        p_relax={"w_pass_w": 0.00006},
        atomic_ordered=True, volatile_ordered=True,
    ),
    "HD6570": _amd(
        "HD6570", "Radeon HD 6570", "TeraScale 2", 2011, n_sms=6,
        p_relax={"r_pass_r": 0.68, "w_pass_w": 0.038},
        atomic_ordered=False, volatile_ordered=True,
    ),
    "HD7970": _amd(
        "HD7970", "Radeon HD 7970", "GCN 1.0", 2012, n_sms=32,
        p_relax={"r_pass_r": 0.17, "w_pass_w": 0.07, "w_pass_r": 0.8,
                 "r_pass_w": 0.00003},
        atomic_ordered=False, volatile_ordered=True,
    ),
}

#: The chips whose results the paper tabulates (Table 1 minus the
#: GTX 280, which exhibited no weak behaviour and is omitted from the
#: results tables — Sec. 1).
RESULT_CHIPS = ["GTX5", "TesC", "GTX6", "Titan", "GTX7", "HD6570", "HD7970"]
NVIDIA_RESULT_CHIPS = ["GTX5", "TesC", "GTX6", "Titan", "GTX7"]
AMD_RESULT_CHIPS = ["HD6570", "HD7970"]


def chip(name):
    """Resolve a :class:`ChipProfile` (returned as is) or a Table 1 short
    name; an unknown name raises :class:`ConfigurationError` listing the
    valid ones."""
    if isinstance(name, ChipProfile):
        return name
    try:
        return CHIPS[name]
    except KeyError:
        raise ConfigurationError("unknown chip %r; valid chips: %s"
                                 % (name, ", ".join(sorted(CHIPS)))) from None
