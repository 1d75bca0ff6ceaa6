"""Fast-path equivalence: the compiled model engine vs the reference.

The contract of the model-side fast path mirrors the sim-side one
(``tests/test_sim_compile.py``): for any test and model, the compiled
engine (:func:`repro.model.cat.compile_model` +
:func:`repro.model.enumerate.enumerate_allowed`) must produce the
*identical* allowed set, the identical ``truncated`` flag and the
identical :class:`~repro.errors.EnumerationError` behaviour as
enumerating every candidate execution and checking each against the
interpreted ``.cat`` text.  These tests enforce that contract across
the litmus library, every registered model, diy dependency corpora and
deep (length-6) cycles, plus the indexed-relation algebra itself, and
pin down the engine switch's plumbing through
``RunSpec``/``ModelBackend``/``Session``/CLI.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ModelBackend, RunSpec, Session, make_backend
from repro.api.conformance import run_soundness, uniquify_tests
from repro.diy import coe, default_pool, enumerate_cycles, fre, generate_tests, po, rfe
from repro.diy.generate import cycle_to_test
from repro.errors import EnumerationError, GenerationError, ReproError
from repro.litmus import library
from repro.model import (DEFAULT_MODEL_ENGINE, MODEL_ENGINES,
                         CompiledCatModel, EventIndex, IndexedRelation,
                         Relation, compile_model, enumerate_allowed,
                         enumerate_executions, resolve_model_engine)
from repro.model.cat import CatModel
from repro.model.events import Event
from repro.model.models import MODELS, load_model, ptx_model

LIBRARY_TESTS = sorted(library.PAPER_TESTS)
MODEL_NAMES = sorted(MODELS)


# ---------------------------------------------------------------------------
# Indexed relations vs pair-set relations.
# ---------------------------------------------------------------------------

def _events(n):
    return [Event(eid=i, tid=0, kind="R", po_index=i, loc="x", value=0)
            for i in range(n)]


EVENTS = _events(8)
INDEX = EventIndex(EVENTS)


def _pairs(indices):
    return [(EVENTS[a], EVENTS[b]) for a, b in indices]


pair_indices = st.tuples(st.integers(0, 7), st.integers(0, 7))
pair_sets = st.sets(pair_indices, max_size=20)


def _both(indices):
    """The same relation in both representations."""
    pairs = _pairs(indices)
    return Relation(pairs), IndexedRelation.from_pairs(INDEX, pairs)


class TestIndexedRelationEquivalence:
    """Randomised algebra equivalence: every operator agrees."""

    @given(pair_sets)
    def test_roundtrip(self, indices):
        relation, indexed = _both(indices)
        assert indexed.to_relation() == relation
        assert len(indexed) == len(relation)
        assert bool(indexed) == bool(relation)

    @given(pair_sets, pair_sets)
    def test_union_intersection_difference(self, a, b):
        ra, ia = _both(a)
        rb, ib = _both(b)
        assert (ia | ib).to_relation() == ra | rb
        assert (ia & ib).to_relation() == ra & rb
        assert (ia - ib).to_relation() == ra - rb

    @given(pair_sets, pair_sets)
    def test_composition(self, a, b):
        ra, ia = _both(a)
        rb, ib = _both(b)
        assert (ia >> ib).to_relation() == ra >> rb

    @given(pair_sets)
    def test_inverse(self, indices):
        relation, indexed = _both(indices)
        assert (~indexed).to_relation() == ~relation

    @given(pair_sets)
    def test_transitive_closure(self, indices):
        relation, indexed = _both(indices)
        assert (indexed.transitive_closure().to_relation()
                == relation.transitive_closure())

    @given(pair_sets)
    def test_reflexive_closure(self, indices):
        relation, indexed = _both(indices)
        assert (indexed.reflexive_closure().to_relation()
                == relation.reflexive_closure(EVENTS))

    @given(pair_sets)
    def test_acyclicity_and_irreflexivity(self, indices):
        relation, indexed = _both(indices)
        assert indexed.is_acyclic() == relation.is_acyclic()
        assert indexed.is_irreflexive() == relation.is_irreflexive()
        assert indexed.is_empty() == relation.is_empty()

    @given(pair_sets)
    def test_find_cycle_consistent(self, indices):
        """Both representations agree on cyclicity, and any cycle found
        is a genuine closed walk through the relation."""
        relation, indexed = _both(indices)
        cycle = indexed.find_cycle()
        assert (cycle is None) == (relation.find_cycle() is None)
        if cycle is not None:
            for i, event in enumerate(cycle):
                assert (event, cycle[(i + 1) % len(cycle)]) in relation

    @given(pair_sets)
    def test_membership_and_pairs(self, indices):
        relation, indexed = _both(indices)
        assert set(indexed.pairs()) == set(relation.pairs)
        for pair in relation:
            assert pair in indexed

    def test_restrict_masks(self):
        relation, indexed = _both({(0, 1), (1, 2), (2, 3)})
        domain = INDEX.mask_of([EVENTS[0], EVENTS[2]])
        rng = INDEX.mask_of([EVENTS[1], EVENTS[3]])
        kept = indexed.restrict_masks(domain, rng).to_relation()
        assert kept == Relation(_pairs([(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# Compiled model vs reference interpreter, per execution.
# ---------------------------------------------------------------------------

class TestCompiledModel:
    def test_compile_is_memoised_per_cat(self):
        model = ptx_model()
        assert model.compiled() is model.compiled()
        assert compile_model(model) is model.compiled()
        assert isinstance(model.compiled(), CompiledCatModel)

    def test_checks_ordered_cheapest_first(self):
        compiled = ptx_model().compiled()
        costs = [check.cost for check in compiled.checks]
        assert costs == sorted(costs)

    def test_all_registered_models_fully_prune_safe(self):
        """Every paper/comparison model is built from monotone operators
        (difference only against fixed relations), so every check can
        reject partial assignments."""
        for name in MODEL_NAMES:
            compiled = load_model(name).compiled()
            assert compiled.prune_checks == compiled.checks

    def test_late_bound_names_resolve_like_the_reference(self):
        """A name bound *after* a function's definition resolves through
        the live environment at check time in the reference interpreter
        (local-then-env lookup); the compile pass must match, not fall
        back to the primitive relation of the same name."""
        text = ("let guard(x) = x | com\n"
                "let com = 0\n"
                "acyclic guard(po) as g\n")
        cat = CatModel(text)
        compiled = CompiledCatModel(cat)
        for execution in enumerate_executions(library.build("sb")):
            assert compiled.allows(execution) == cat.allows(execution)

    def test_bare_indexed_execution_adapter_works(self):
        """allows_view on a hand-built IndexedExecution (no slot count
        supplied) must evaluate, not crash on an unsized memo."""
        from repro.model import IndexedExecution

        model = ptx_model()
        compiled = model.compiled()
        execution = enumerate_executions(library.build("mp"))[0]
        assert (compiled.allows_view(IndexedExecution(execution))
                == model.allows(execution))

    def test_growing_difference_is_not_prune_safe(self):
        """A difference whose right side grows during enumeration must
        not prune: an early failure could be rescued by later rf/co
        pairs disappearing from the result."""
        compiled = CompiledCatModel(CatModel("acyclic po \\ rf as shaky"))
        assert not compiled.checks[0].prune_safe
        fixed = CompiledCatModel(CatModel("acyclic po \\ WR(po) as tso-ish"))
        assert fixed.checks[0].prune_safe

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           model_name=st.sampled_from(MODEL_NAMES))
    def test_per_execution_verdicts_match(self, name, model_name):
        """CompiledCatModel.allows over indexed relations agrees with the
        reference interpreter on every candidate execution."""
        model = load_model(model_name)
        compiled = model.compiled()
        for execution in enumerate_executions(library.build(name),
                                              on_fuel="discard"):
            assert compiled.allows(execution) == model.allows(execution)


# ---------------------------------------------------------------------------
# Engine parity: allowed sets, truncation, errors.
# ---------------------------------------------------------------------------

def _reference_allowed(test, model, **kwargs):
    executions = enumerate_executions(test, **kwargs)
    allowed = {execution.final_state for execution in executions
               if model.allows(execution)}
    return allowed, executions.truncated


class TestEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           model_name=st.sampled_from(MODEL_NAMES))
    def test_library_allowed_sets_identical(self, name, model_name):
        """The headline property: every library test x model yields the
        identical allowed set on both engines."""
        test = library.build(name)
        model = load_model(model_name)
        reference, truncated = _reference_allowed(test, model,
                                                  on_fuel="discard")
        fast = enumerate_allowed(test, model, on_fuel="discard")
        assert set(fast) == reference
        assert fast.truncated == truncated

    _CORPUS = None

    @classmethod
    def _corpus(cls):
        if cls._CORPUS is None:
            tests = generate_tests(default_pool(), max_length=4,
                                   max_tests=None)
            dep = [t for t in tests
                   if "Addr" in t.name or "Data" in t.name
                   or "Ctrl" in t.name]
            cls._CORPUS = dep[:40] + tests[:20]
        return cls._CORPUS

    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, 10**6),
           model_name=st.sampled_from(MODEL_NAMES))
    def test_diy_corpus_allowed_sets_identical(self, index, model_name):
        """Generated tests — including address/data/control dependency
        chains, whose provisional rf candidates exercise the deferred
        solver — agree between engines."""
        corpus = self._corpus()
        test = corpus[index % len(corpus)]
        model = load_model(model_name)
        reference, truncated = _reference_allowed(test, model)
        fast = enumerate_allowed(test, model)
        assert set(fast) == reference
        assert fast.truncated == truncated

    _DEEP = None

    @classmethod
    def _deep_tests(cls):
        """Length-6 cycles over a write-heavy pool (the enumeration
        shapes that were previously infeasible)."""
        if cls._DEEP is None:
            pool = [po("W", "W", same_loc=True),
                    po("R", "R", same_loc=True), rfe(), fre(), coe()]
            tests = []
            for cycle in enumerate_cycles(pool, 6):
                if len(tests) >= 6:
                    break
                try:
                    tests.append(cycle_to_test(cycle))
                except GenerationError:
                    continue
            cls._DEEP = tests
        return cls._DEEP

    @pytest.mark.parametrize("model_name", ["ptx", "sc"])
    def test_length6_allowed_sets_identical(self, model_name):
        model = load_model(model_name)
        for test in self._deep_tests():
            reference, truncated = _reference_allowed(test, model)
            fast = enumerate_allowed(test, model)
            assert set(fast) == reference, test.name
            assert fast.truncated == truncated

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           cap=st.integers(1, 30))
    def test_truncation_parity(self, name, cap):
        """Under a max_executions cap with on_limit='truncate', both
        engines see the identical candidate prefix: same partial allowed
        set, same truncated flag."""
        test = library.build(name)
        model = ptx_model()
        reference, truncated = _reference_allowed(
            test, model, on_fuel="discard", max_executions=cap,
            on_limit="truncate")
        fast = enumerate_allowed(test, model, on_fuel="discard",
                                 max_executions=cap, on_limit="truncate")
        assert set(fast) == reference
        assert fast.truncated == truncated

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           cap=st.integers(1, 30))
    def test_enumeration_error_parity(self, name, cap):
        """on_limit='error' raises on the identical caps (with the
        identical message) on both engines."""
        test = library.build(name)
        model = ptx_model()
        reference_error = fast_error = None
        try:
            enumerate_executions(test, on_fuel="discard",
                                 max_executions=cap, on_limit="error")
        except EnumerationError as error:
            reference_error = str(error)
        try:
            enumerate_allowed(test, model, on_fuel="discard",
                              max_executions=cap, on_limit="error")
        except EnumerationError as error:
            fast_error = str(error)
        assert reference_error == fast_error

    def test_fuel_truncation_parity(self):
        test = library.build("sl-future")
        model = ptx_model()
        reference, truncated = _reference_allowed(test, model, fuel=12,
                                                  on_fuel="truncate")
        fast = enumerate_allowed(test, model, fuel=12, on_fuel="truncate")
        assert set(fast) == reference
        assert fast.truncated == truncated

    def test_bad_on_limit_rejected(self):
        with pytest.raises(ValueError):
            enumerate_allowed(library.build("mp"), ptx_model(),
                              on_limit="sometimes")

    def test_allowed_outcomes_engine_dispatch(self):
        model = ptx_model()
        test = library.build("mp+membar.gls")
        fast = model.allowed_outcomes(test, engine="fast")
        reference = model.allowed_outcomes(test, engine="reference")
        assert set(fast) == set(reference)
        assert model.allows_condition(test, engine="fast") \
            == model.allows_condition(test, engine="reference")


# ---------------------------------------------------------------------------
# Engine switch plumbing: RunSpec / backends / Session / CLI.
# ---------------------------------------------------------------------------

class TestModelEngineSwitch:
    def test_default_engine_is_fast(self):
        assert DEFAULT_MODEL_ENGINE == "fast"
        assert resolve_model_engine(None) == "fast"
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        assert spec.engine == "fast"

    def test_bad_engine_argument(self):
        with pytest.raises(ReproError):
            RunSpec.make(library.build("mp"), "Titan", iterations=10,
                         engine="oracular")

    def test_batch_spec_fails_on_the_model_backend(self):
        """``batch`` is a sim engine: a model session refuses it with
        one error naming the model engines, before anything runs."""
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=1,
                            engine="batch")
        with pytest.raises(ReproError) as excinfo:
            Session(backend="model", cache=False).run(spec)
        message = str(excinfo.value)
        assert "batch" in message
        for engine in MODEL_ENGINES:
            assert repr(engine) in message

    def test_fingerprint_model_engine_independent(self):
        """Shard seeds derive from the fingerprint, so the fingerprint
        must not see the model engine (mirroring the sim engine)."""
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=100,
                            engine="fast")
        reference = replace(spec, engine="reference")
        assert spec.fingerprint() == reference.fingerprint()

    def test_cache_signature_model_engine_dependent(self):
        """Cached verdicts must not cross engines: a reference verdict
        answering a fast-engine request would mask fast-path bugs."""
        backend = ModelBackend()
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=1,
                            engine="fast")
        assert (backend.cache_signature(spec)
                != backend.cache_signature(
                    replace(spec, engine="reference")))

    def test_cache_signature_still_chip_independent(self):
        backend = ModelBackend()
        test = library.build("mp")
        titan = RunSpec.make(test, "Titan", iterations=1)
        gtx = RunSpec.make(test, "GTX6", iterations=99, seed=7)
        assert backend.cache_signature(titan) == backend.cache_signature(gtx)

    def test_session_model_engine_default_and_override(self):
        session = Session(backend="model", engine="reference", cache=False)
        test = library.build("mp")
        result = session.run(test, "Titan", iterations=1)
        assert result.spec.engine == "reference"
        result = session.run(RunSpec.make(test, "Titan", iterations=1,
                                          engine="fast"))
        assert result.spec.engine == "fast"

    def test_sessions_identical_across_engines(self):
        test = library.build("mp+membar.gls")
        answers = {}
        for engine in MODEL_ENGINES:
            session = Session(backend="model", cache=False, engine=engine)
            result = session.run(test, "Titan", iterations=1)
            answers[engine] = result.answer
        assert answers["fast"] == answers["reference"]

    def test_cli_model_engine_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["model", "mp", "--model-engine",
                                  "reference"])
        assert args.model_engine == "reference"
        args = parser.parse_args(["soundness", "--model-engine", "fast"])
        assert args.model_engine == "fast"
        # run and campaign pick the model engine with --engine.
        for command in ("run", "campaign"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "mp", "--model-engine", "fast"])

    @pytest.mark.parametrize("argv", (
        ["run", "mp", "--backend", "model"],
        ["campaign", "mp", "--chips", "Titan", "--backend", "model"],
    ))
    def test_cli_engine_picks_the_model_engine(self, monkeypatch, argv):
        from repro import cli
        from repro.model.models import AxiomaticModel

        engines = []
        original = AxiomaticModel.allowed_outcomes

        def recording(self, test, *args, engine=None, **kwargs):
            engines.append(engine)
            return original(self, test, *args, engine=engine, **kwargs)

        monkeypatch.setattr(AxiomaticModel, "allowed_outcomes", recording)
        assert cli.main(argv + ["--engine", "reference"]) == 0
        assert engines == ["reference"]
        del engines[:]
        assert cli.main(argv) == 0
        assert engines == ["fast"]

    def test_cli_witness_subcommand(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["witness", "mp", "--model", "none"])
        assert args.model == "none" and args.output is None
        args = parser.parse_args(["witness", "mp", "-o", "mp.dot"])
        assert args.output == "mp.dot"

    def test_make_backend_error_lists_model_names(self):
        with pytest.raises(ReproError) as excinfo:
            make_backend("quantum")
        message = str(excinfo.value)
        assert "model:NAME" in message
        for name in MODEL_NAMES:
            assert name in message
        assert "model:<" not in message  # the old confusing rendering


# ---------------------------------------------------------------------------
# Sharded model backend.
# ---------------------------------------------------------------------------

class TestShardedModelBackend:
    def test_model_backend_declares_sharding(self):
        backend = ModelBackend()
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=1)
        shards = backend.shards(spec, shard_size=25000)
        assert len(shards) == 1
        assert shards[0].iterations == 0  # verdicts are not iterations

    def test_parallel_model_campaign_matches_serial(self):
        tests = [library.build(name) for name in
                 ("mp", "sb", "lb", "coRR", "mp+membar.gls")]
        serial = Session(backend="model", cache=False)
        threaded = Session(backend="model", cache=False, jobs=4,
                           executor="thread")
        a = serial.campaign(tests, ["Titan"], iterations=1)
        b = threaded.campaign(tests, ["Titan"], iterations=1)
        for key, result in a.results.items():
            assert result.answer == b.get(*key).answer

    def test_model_shards_do_not_pollute_iteration_stats(self):
        session = Session(backend="model", cache=False)
        session.run(library.build("mp"), "Titan", iterations=1)
        assert session.stats.simulated_iterations == 0
        assert session.stats.executed == 1

    def test_model_cache_entries_shard_size_independent(self):
        from repro.api import ResultCache

        class FineModel(ModelBackend):
            shard_size = 7

        cache = ResultCache()
        Session(backend=FineModel(), cache=cache).run(
            library.build("mp"), "Titan", iterations=1)
        session = Session(backend="model", cache=cache)
        session.run(library.build("mp"), "Titan", iterations=1)
        assert session.stats.executed == 0  # verdicts are decomposition-free

    def test_sharded_soundness_matches_serial(self):
        tests = uniquify_tests(generate_tests(default_pool(), max_length=3,
                                              max_tests=8))
        serial = run_soundness(tests, ["Titan"], iterations=80, seed=3,
                               cache=False)
        parallel = run_soundness(tests, ["Titan"], iterations=80, seed=3,
                                 jobs=3, executor="thread", cache=False)
        assert serial.ok == parallel.ok
        assert ([cell.observations for cell in serial.cells]
                == [cell.observations for cell in parallel.cells])
        assert serial.allowed_counts == parallel.allowed_counts


# ---------------------------------------------------------------------------
# The acceptance scenario: a length-6 soundness campaign.
# ---------------------------------------------------------------------------

class TestLength6Soundness:
    def test_length6_campaign_completes_and_is_sound(self):
        """A soundness campaign over a length-6 diy corpus — previously
        enumeration-infeasible — completes without EnumerationError and
        the PTX model allows every observation."""
        pool = [po("W", "W", same_loc=True), po("R", "R", same_loc=True),
                rfe(), fre(), coe()]
        tests = []
        for cycle in enumerate_cycles(pool, 6):
            if len(tests) >= 5:
                break
            try:
                tests.append(cycle_to_test(cycle))
            except GenerationError:
                continue
        assert len(tests) == 5
        report = run_soundness(uniquify_tests(tests), ["Titan", "GTX7"],
                               iterations=60, seed=11, cache=False)
        assert report.ok, report.violation_lines()
        assert len(report.cells) == len(tests) * 2
        # Every verdict enumerated once per test text, on the fast engine.
        assert report.model_stats["executed"] == len(tests)
