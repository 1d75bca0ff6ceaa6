"""The paper's PTX model and comparison models, in ``.cat`` text.

``PTX_CAT`` is the concatenation of the paper's Fig. 15 (SPARC RMO core:
SC-per-location with load-load hazard, no-thin-air, the parametric
``rmo(fence)`` relation) and Fig. 16 (the per-scope instantiation:
``rmo-cta``/``rmo-gl``/``rmo-sys`` acyclicity).  The comparison models —
SC, x86-TSO and plain (unscoped) RMO — support the benchmark that places
the PTX model in the weak-to-strong spectrum.
"""

from .cat import CatModel, compile_model
from .enumerate import (allowed_final_states, enumerate_allowed,
                        enumerate_executions)

#: The two model-checking engines.  ``reference`` interprets the .cat
#: text over pair-set relations for every materialised candidate
#: execution; ``fast`` compiles the model once
#: (:func:`~repro.model.cat.compile_model`) and runs a pruned,
#: consistency-aware enumeration over indexed relations
#: (:func:`~repro.model.enumerate.enumerate_allowed`).  Identical
#: allowed sets, truncation flags and error behaviour by
#: property-tested contract (``tests/test_model_compile.py``).
MODEL_ENGINES = ("reference", "fast")

#: Engine used when nothing picks one explicitly.
DEFAULT_MODEL_ENGINE = "fast"


def resolve_model_engine(engine):
    """Normalise a model-engine choice: ``None`` means
    :data:`DEFAULT_MODEL_ENGINE`; anything else must name one of
    :data:`MODEL_ENGINES`."""
    from .._util import resolve_choice
    return resolve_choice(engine, MODEL_ENGINES, DEFAULT_MODEL_ENGINE,
                          "model engine")

#: Fig. 15 — the RMO core.
RMO_CORE_CAT = r"""
(* Fig. 15: RMO .cat core *)
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
"""

#: Fig. 16 — RMO per scope.
RMO_PER_SCOPE_CAT = r"""
(* Fig. 16: RMO per scope *)
let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
let rmo-cta = rmo(cta-fence) & cta
let rmo-gl = rmo(gl-fence) & gl
let rmo-sys = rmo(sys-fence) & sys
acyclic rmo-cta as cta-constraint
acyclic rmo-gl as gl-constraint
acyclic rmo-sys as sys-constraint
"""

#: The paper's full PTX model (Sec. 5.3: "the concatenation of Fig. 15 and
#: Fig. 16"), plus the standard atomicity axiom for RMWs (enforced
#: structurally by our enumeration; stated here for completeness).
PTX_CAT = RMO_CORE_CAT + RMO_PER_SCOPE_CAT + r"""
empty rmw & (fre; coe) as atomicity
"""

#: Sequential consistency (Lamport): one total order embedding po and com.
SC_CAT = r"""
let com = rf | co | fr
acyclic (po | com) as sc
"""

#: x86-TSO in the herding-cats style: program order is preserved except
#: write-to-read; reads are not reordered; store buffering is the only
#: relaxation.  (No x86 fences appear in PTX tests, so membar relations
#: stand in for mfence.)
TSO_CAT = r"""
let com = rf | co | fr
acyclic (po-loc | com) as sc-per-loc
let ppo = po \ WR(po)
let fence = membar.cta | membar.gl | membar.sys
acyclic (ppo | fence | rfe | co | fr) as tso
"""

#: Plain SPARC RMO (no scopes): every fence orders globally.  This is what
#: Fig. 15 alone gives a CPU; comparing it against PTX_CAT isolates the
#: contribution of scoped fences.
RMO_CAT = RMO_CORE_CAT + r"""
let fence = membar.cta | membar.gl | membar.sys
acyclic rmo(fence) as rmo-constraint
"""

#: SC-per-location *without* the load-load-hazard exemption: this is the
#: check nearly all CPUs pass but Nvidia Fermi/Kepler fail (coRR, Fig. 1).
COHERENCE_CAT = r"""
let com = rf | co | fr
acyclic (po-loc | com) as sc-per-loc
"""


class AxiomaticModel:
    """A named axiomatic model bound to the execution enumerator.

    Wraps a :class:`~repro.model.cat.CatModel` with test-level queries:
    which final states does the model allow for a litmus test, and does it
    allow a given test's weak outcome?
    """

    def __init__(self, name, cat_text):
        self.name = name
        self.cat = CatModel(cat_text, name=name)

    def allows(self, execution):
        return self.cat.allows(execution)

    def failed_checks(self, execution):
        return self.cat.failed_checks(execution)

    def compiled(self):
        """The fast-engine compilation of this model (memoised)."""
        return compile_model(self.cat)

    def allowed_outcomes(self, test, fuel=128, on_fuel="error",
                         max_executions=None, on_limit="error",
                         engine=None):
        """The set of final states allowed for ``test``.

        With ``on_limit="error"`` (the default, mirroring ``on_fuel``) a
        ``max_executions`` cap that cuts the enumeration short raises
        instead of silently under-approximating the allowed set.

        ``engine`` picks the checking engine (``None`` means ``"fast"``).
        ``"fast"`` compiles the model once and prunes the enumeration
        with its monotone checks; ``"reference"`` materialises every
        candidate execution and interprets the .cat text against it.
        Identical results either way.
        """
        if resolve_model_engine(engine) == "fast":
            return enumerate_allowed(test, self.compiled(), fuel=fuel,
                                     on_fuel=on_fuel,
                                     max_executions=max_executions,
                                     on_limit=on_limit)
        executions = enumerate_executions(test, fuel=fuel, on_fuel=on_fuel,
                                          max_executions=max_executions,
                                          on_limit=on_limit)
        return allowed_final_states(executions, model=self)

    def allows_condition(self, test, fuel=128, on_fuel="error", engine=None):
        """Does any allowed execution satisfy the test's final condition?

        For ``exists`` conditions this is the paper's allowed/forbidden
        verdict for the weak behaviour the test characterises.
        """
        if resolve_model_engine(engine) == "fast":
            return any(test.condition.holds(state)
                       for state in self.allowed_outcomes(
                           test, fuel=fuel, on_fuel=on_fuel, engine="fast"))
        executions = enumerate_executions(test, fuel=fuel, on_fuel=on_fuel)
        for execution in executions:
            if test.condition.holds(execution.final_state) and self.allows(execution):
                return True
        return False

    def witnesses(self, test, fuel=128, on_fuel="error"):
        """Allowed executions satisfying the final condition."""
        executions = enumerate_executions(test, fuel=fuel, on_fuel=on_fuel)
        return [execution for execution in executions
                if test.condition.holds(execution.final_state)
                and self.allows(execution)]

    def __repr__(self):
        return "AxiomaticModel(%s)" % self.name


def ptx_model():
    """The paper's model of Nvidia GPU hardware (Sec. 5.3)."""
    return AxiomaticModel("ptx", PTX_CAT)


def sc_model():
    return AxiomaticModel("sc", SC_CAT)


def tso_model():
    return AxiomaticModel("tso", TSO_CAT)


def rmo_model():
    """Unscoped SPARC RMO (Fig. 15 with a single global fence level)."""
    return AxiomaticModel("rmo", RMO_CAT)


def coherence_model():
    """SC-per-location only (the coRR discriminator)."""
    return AxiomaticModel("coherence", COHERENCE_CAT)


#: Registry used by benchmarks and the CLI.
MODELS = {
    "ptx": ptx_model,
    "sc": sc_model,
    "tso": tso_model,
    "rmo": rmo_model,
    "coherence": coherence_model,
}


def load_model(name):
    try:
        return MODELS[name]()
    except KeyError:
        raise KeyError("unknown model %r; known: %s"
                       % (name, ", ".join(sorted(MODELS))))
