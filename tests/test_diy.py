"""Tests for the diy test generator: edges, cycles, synthesis, naming."""

import pytest

from repro.diy import (Cycle, SAME_CTA, classify, coe, cycle_to_test,
                       cycles_up_to, default_pool, dp, enumerate_cycles,
                       fenced, fre, generate_tests, idiom_of, parse_edge, po,
                       rfe, try_cycle)
from repro.errors import GenerationError
from repro.model.enumerate import enumerate_executions
from repro.model.models import ptx_model, sc_model
from repro.ptx.types import Scope

PTX = ptx_model()
SC = sc_model()


class TestEdges:
    def test_names(self):
        assert po("W", "W").name == "PodWW"
        assert po("R", "R", same_loc=True).name == "PosRR"
        assert dp("addr", "R").name == "DpAddrdR"
        assert fenced(Scope.GL, "W", "W").name == "FenceddWW.gl"
        assert rfe().name == "Rfe"
        assert rfe(SAME_CTA).name == "Rfe-cta"

    def test_parse_round_trip(self):
        for edge in default_pool():
            assert parse_edge(edge.name) == edge

    def test_dependencies_must_start_at_reads(self):
        with pytest.raises(GenerationError):
            dp("addr", "R").__class__("Dp", "W", "R", False, True, dep="addr")

    def test_communication_edges_same_location(self):
        assert rfe().same_loc and fre().same_loc and coe().same_loc

    def test_parse_unknown(self):
        with pytest.raises(GenerationError):
            parse_edge("Frobnicate")


class TestCycles:
    def test_mp_cycle_places_two_threads_two_locations(self):
        cycle = Cycle([po("W", "W"), rfe(), po("R", "R"), fre()])
        assert cycle.n_threads == 2
        assert cycle.n_locations == 2

    def test_corr_cycle_single_location(self):
        cycle = Cycle([rfe(), po("R", "R", same_loc=True), fre()])
        assert cycle.n_locations == 1
        assert cycle.n_threads == 2

    def test_normalisation_puts_external_edge_last(self):
        cycle = Cycle([rfe(), po("R", "R"), fre(), po("W", "W")])
        assert not cycle.edges[-1].same_thread

    def test_direction_mismatch_rejected(self):
        assert try_cycle([po("W", "R"), rfe()]) is None  # R then W->R

    def test_single_external_edge_rejected(self):
        assert try_cycle([po("W", "R"), fre()]) is None

    def test_single_location_change_rejected(self):
        assert try_cycle([po("W", "W"), coe(), fre(), rfe()]) is None

    def test_scope_consistency_rejected(self):
        # Three threads: T0-T1 same CTA, T1-T2 same CTA, T2-T0 different
        # CTA is contradictory.
        edges = [rfe(SAME_CTA), po("R", "W"), rfe(SAME_CTA), po("R", "W"),
                 rfe(), po("R", "W")]
        assert try_cycle(edges) is None

    def test_cta_groups(self):
        cycle = Cycle([po("W", "W"), rfe(SAME_CTA), po("R", "R"),
                       fre(SAME_CTA)])
        assert cycle.cta_groups == [0, 0]
        inter = Cycle([po("W", "W"), rfe(), po("R", "R"), fre()])
        assert inter.cta_groups == [0, 1]

    def test_enumeration_dedupes_rotations(self):
        pool = [po("W", "W"), po("R", "R"), rfe(), fre()]
        cycles = enumerate_cycles(pool, 4)
        names = [c.canonical() for c in cycles]
        assert len(names) == len(set(names))

    def test_cycles_up_to_length(self):
        pool = [po("R", "R", same_loc=True), rfe(), fre()]
        cycles = cycles_up_to(pool, 3)
        assert any(classify(c) == "coRR" for c in cycles)


class TestNaming:
    @pytest.mark.parametrize("edges,expected", [
        ([po("W", "W"), rfe(), po("R", "R"), fre()], "mp"),
        ([po("W", "R"), fre(), po("W", "R"), fre()], "sb"),
        ([po("R", "W"), rfe(), po("R", "W"), rfe()], "lb"),
        ([rfe(), po("R", "R", same_loc=True), fre()], "coRR"),
        ([po("W", "W"), coe(), po("W", "W"), coe()], "2+2w"),
        ([po("W", "W"), rfe(), po("R", "W"), coe()], "s"),
        ([po("W", "W"), coe(), po("W", "R"), fre()], "r"),
    ])
    def test_classic_names(self, edges, expected):
        assert classify(Cycle(edges)) == expected

    def test_decorated_name(self):
        cycle = Cycle([fenced(Scope.GL, "W", "W"), rfe(), dp("addr", "R"),
                       fre()])
        assert classify(cycle) == "mp+membar.gl+addr"
        assert idiom_of(cycle) == "mp"

    def test_scope_annotation_ignored_for_naming(self):
        intra = Cycle([po("W", "W"), rfe(SAME_CTA), po("R", "R"),
                       fre(SAME_CTA)])
        assert classify(intra) == "mp"


class TestSynthesis:
    def test_mp_test_structure(self):
        test = cycle_to_test(Cycle([po("W", "W"), rfe(), po("R", "R"), fre()]))
        assert test.n_threads == 2
        assert test.name == "mp"
        assert test.scope_tree.classify() == "inter-cta"
        # The generated condition pins the Rfe read to 1 and Fre read to 0.
        assert "=1" in str(test.condition) and "=0" in str(test.condition)

    def test_generated_mp_matches_paper_verdicts(self):
        test = cycle_to_test(Cycle([po("W", "W"), rfe(), po("R", "R"), fre()]))
        assert PTX.allows_condition(test)
        assert not SC.allows_condition(test)

    def test_fenced_dependency_variant_forbidden(self):
        cycle = Cycle([fenced(Scope.GL, "W", "W"), rfe(), dp("addr", "R"),
                       fre()])
        assert not PTX.allows_condition(cycle_to_test(cycle))

    def test_intra_cta_fence_allows_inter_cta_weakness(self):
        # mp with cta fences inter-CTA: allowed by the PTX model.
        cycle = Cycle([fenced(Scope.CTA, "W", "W"), rfe(),
                       fenced(Scope.CTA, "R", "R"), fre()])
        assert PTX.allows_condition(cycle_to_test(cycle))
        intra = Cycle([fenced(Scope.CTA, "W", "W"), rfe(SAME_CTA),
                       fenced(Scope.CTA, "R", "R"), fre(SAME_CTA)])
        assert not PTX.allows_condition(cycle_to_test(intra))

    def test_coe_cycle_condition_uses_memory(self):
        cycle = Cycle([po("W", "W"), coe(), po("W", "W"), coe()])
        test = cycle_to_test(cycle)
        assert test.condition.locations()

    def test_ctrl_dependency_emits_guard(self):
        cycle = Cycle([po("W", "W"), rfe(), dp("ctrl", "R"), fre()])
        test = cycle_to_test(cycle)
        guarded = [i for i in test.threads[1] if i.guard is not None]
        assert guarded

    def test_generated_tests_enumerable(self):
        for cycle in [Cycle([po("W", "W"), rfe(), po("R", "R"), fre()]),
                      Cycle([rfe(), po("R", "R", same_loc=True), fre()]),
                      Cycle([po("W", "W"), rfe(), dp("data", "W"), coe()])]:
            test = cycle_to_test(cycle)
            executions = enumerate_executions(test)
            assert executions
            assert any(test.condition.holds(e.final_state) for e in executions)

    def test_shared_region_rejected_across_ctas(self):
        cycle = Cycle([po("W", "W"), rfe(), po("R", "R"), fre()])
        with pytest.raises(GenerationError):
            cycle_to_test(cycle, regions={"x": "shared"})

    def test_shared_region_allowed_intra_cta(self):
        cycle = Cycle([po("W", "W"), rfe(SAME_CTA), po("R", "R"),
                       fre(SAME_CTA)])
        test = cycle_to_test(cycle, regions={"x": "shared"})
        assert str(test.space_of("x")) == "shared"


class TestFamilyGeneration:
    def test_generate_family(self):
        pool = default_pool(fences=(Scope.GL,))
        tests = generate_tests(pool, max_length=4, max_tests=120)
        assert len(tests) == 120
        names = [test.name for test in tests]
        assert len(set(names)) >= 30  # diverse family

    def test_family_includes_classics(self):
        pool = [po("W", "W"), po("R", "R"), po("W", "R"), po("R", "W"),
                rfe(), fre()]
        tests = generate_tests(pool, max_length=4)
        idioms = {test.idiom for test in tests}
        assert {"mp", "sb", "lb"} <= idioms

    def test_generated_tests_validate(self):
        pool = default_pool(fences=(Scope.GL,))
        for test in generate_tests(pool, max_length=3, max_tests=40):
            assert test.validate() == [], test.name

    def test_short_corpus_builds_few_candidates(self, monkeypatch):
        """The first 40 tests of the Sec. 5.4 corpus cost only the
        cycles before them: an eager enumeration builds all 50,888
        direction-compatible sequences of length 2-4 as candidates."""
        from repro.diy import cycles as cycles_module

        built = []

        def counting(edges):
            built.append(edges)
            return try_cycle(edges)

        monkeypatch.setattr(cycles_module, "try_cycle", counting)
        pool = default_pool(scopes=("dev", "cta"),
                            fences=(Scope.CTA, Scope.GL))
        assert len(generate_tests(pool, max_length=4, max_tests=40)) == 40
        assert 0 < len(built) < 2000


class TestNameUniqueness:
    """Distinct cycles classifying to one idiom must not share a name
    (they would silently merge rows in name-keyed campaign tables)."""

    def test_length3_collision_gets_deterministic_suffix(self):
        # The default pool at max_length=3 yields 4 distinct bodies; the
        # inter- and intra-CTA coRR cycles both classify as "coRR".
        tests = generate_tests(default_pool(), max_length=3)
        names = [test.name for test in tests]
        assert len(names) == len(set(names))
        assert "coRR" in names and "coRR-2" in names
        from repro.litmus.writer import write_litmus
        bodies = {write_litmus(test) for test in tests}
        assert len(bodies) == len(tests)

    def test_full_length4_pool_names_unique(self):
        tests = generate_tests(default_pool(), max_length=4)
        names = [test.name for test in tests]
        assert len(names) == len(set(names))

    def test_suffixes_are_deterministic_across_runs(self):
        first = [t.name for t in generate_tests(default_pool(), max_length=3)]
        second = [t.name for t in generate_tests(default_pool(), max_length=3)]
        assert first == second

    def test_allocator_never_collides_with_taken_names(self):
        from repro.diy import NameAllocator

        allocator = NameAllocator()
        assert allocator.assign("mp-2") == "mp-2"
        assert allocator.assign("mp") == "mp"
        # The ordinal skips the already-taken "mp-2".
        assert allocator.assign("mp") == "mp-3"
        assert allocator.assign("mp") == "mp-4"
