"""Tests for incantations, histograms, state sets and the litmus
runner."""

import json

import pytest

from repro.api import Session
from repro.errors import ConfigurationError
from repro.litmus import library
from repro.litmus.condition import FinalState, parse_condition
from repro.harness import (ALL_COMBINATIONS, Histogram, Incantations, TABLE6,
                           best_for, default_iterations, efficacy)
from repro.harness.histogram import StateSet


class TestIncantationColumns:
    """The Table 6 column key must satisfy every comparison made in the
    prose of Sec. 4.3 (see DESIGN.md for the derivation)."""

    def test_column_one_is_none(self):
        assert Incantations.from_column(1) == Incantations.none()

    def test_column_sixteen_is_all(self):
        assert Incantations.from_column(16) == Incantations.all()

    def test_column_five_is_bank_conflicts_alone(self):
        # "general bank conflicts alone do not expose any weak behaviours
        #  (see column 5)"
        assert Incantations.from_column(5) == Incantations(bank_conflicts=True)

    def test_columns_12_and_16_differ_by_bank_conflicts(self):
        a, b = Incantations.from_column(12), Incantations.from_column(16)
        assert a.memory_stress and a.thread_sync and a.thread_rand
        assert not a.bank_conflicts and b.bank_conflicts

    def test_columns_15_and_16_differ_by_thread_randomisation(self):
        a, b = Incantations.from_column(15), Incantations.from_column(16)
        assert not a.thread_rand and b.thread_rand
        assert (a.memory_stress, a.bank_conflicts, a.thread_sync) == \
               (b.memory_stress, b.bank_conflicts, b.thread_sync)

    def test_columns_10_and_12_differ_by_thread_sync(self):
        a, b = Incantations.from_column(10), Incantations.from_column(12)
        assert not a.thread_sync and b.thread_sync

    def test_columns_1_to_8_have_no_memory_stress(self):
        for column in range(1, 9):
            assert not Incantations.from_column(column).memory_stress

    def test_round_trip(self):
        for column in range(1, 17):
            assert Incantations.from_column(column).column == column

    def test_all_combinations_order(self):
        assert [inc.column for inc in ALL_COMBINATIONS] == list(range(1, 17))

    def test_bad_column_rejected(self):
        with pytest.raises(ValueError):
            Incantations.from_column(0)


class TestEfficacy:
    def test_no_incantations_is_zero_on_nvidia(self):
        # "The setup of Sec. 4.2 only witnessed weak behaviours in
        #  combination with incantations on Nvidia chips."
        for idiom in ("coRR", "lb", "mp", "sb"):
            assert efficacy("Nvidia", idiom, Incantations.none()) == 0.0

    def test_amd_weak_without_incantations(self):
        assert efficacy("AMD", "lb", Incantations.none()) > 0.0

    def test_best_is_one(self):
        for vendor in ("Nvidia", "AMD"):
            for idiom in ("coRR", "lb", "mp", "sb"):
                best = best_for(vendor, idiom)
                assert efficacy(vendor, idiom, best) == pytest.approx(1.0)

    def test_best_for_nvidia_corr_uses_all_four(self):
        assert best_for("Nvidia", "coRR") == Incantations.all()

    def test_best_for_nvidia_inter_cta_is_column_12(self):
        for idiom in ("lb", "mp", "sb"):
            assert best_for("Nvidia", idiom).column == 12

    def test_unknown_idiom_falls_back_to_mp(self):
        inc = Incantations.from_column(12)
        assert efficacy("Nvidia", "exotic", inc) == efficacy("Nvidia", "mp", inc)

    def test_table6_shape(self):
        for row in TABLE6.values():
            assert len(row) == 16


class TestHistogram:
    def _state(self, value):
        return FinalState.make({(0, "r0"): value})

    def test_add_and_total(self):
        histogram = Histogram()
        histogram.add(self._state(0), 3)
        histogram.add(self._state(1))
        assert histogram.total == 4
        assert len(histogram) == 2

    def test_observations(self):
        histogram = Histogram()
        histogram.add(self._state(0), 3)
        histogram.add(self._state(1), 7)
        condition = parse_condition("exists (0:r0=1)")
        assert histogram.observations(condition) == 7
        assert histogram.per_100k(condition) == pytest.approx(70000.0)

    def test_json_round_trip(self):
        histogram = Histogram()
        histogram.add(self._state(1), 7)
        histogram.add(FinalState.make({(0, "r0"): 0}, {"x": 2}), 3)
        records = json.loads(json.dumps(histogram.to_json()))
        assert [record["count"] for record in records] == [3, 7]
        assert records[0]["mem"] == [["x", 2]]
        assert Histogram.from_json(records) == histogram

    def test_merged(self):
        a, b = Histogram(), Histogram()
        a.add(self._state(0), 1)
        b.add(self._state(0), 2)
        assert a.merged(b).total == 3

    def test_merge_disjoint(self):
        a, b = Histogram(), Histogram()
        a.add(self._state(0), 3)
        b.add(self._state(1), 4)
        merged = Histogram.merge([a, b])
        assert merged.counts == {self._state(0): 3, self._state(1): 4}
        assert merged.total == 7

    def test_merge_overlapping(self):
        a, b, c = Histogram(), Histogram(), Histogram()
        a.add(self._state(0), 3)
        b.add(self._state(0), 2)
        b.add(self._state(1), 1)
        c.add(self._state(0), 5)
        merged = Histogram.merge([a, b, c])
        assert merged.counts == {self._state(0): 10, self._state(1): 1}

    def test_merge_with_empty_histograms(self):
        a = Histogram()
        a.add(self._state(0), 2)
        merged = Histogram.merge([Histogram(), a, Histogram()])
        assert merged.counts == a.counts
        assert Histogram.merge([]).total == 0
        assert Histogram.merge([Histogram(), Histogram()]).counts == {}

    def test_merge_is_order_independent(self):
        a, b = Histogram(), Histogram()
        a.add(self._state(0), 1)
        a.add(self._state(1), 2)
        b.add(self._state(1), 3)
        assert Histogram.merge([a, b]).counts == Histogram.merge([b, a]).counts

    def test_merge_does_not_mutate_inputs(self):
        a, b = Histogram(), Histogram()
        a.add(self._state(0), 1)
        b.add(self._state(0), 2)
        Histogram.merge([a, b])
        assert a.counts == {self._state(0): 1}
        assert b.counts == {self._state(0): 2}

    def test_pretty_marks_witnesses(self):
        histogram = Histogram()
        histogram.add(self._state(1), 5)
        condition = parse_condition("exists (0:r0=1)")
        assert "*witness*" in histogram.pretty(condition)


class TestStateSet:
    def _state(self, value):
        return FinalState.make({(0, "r0"): value})

    def test_condition_read_counts_states(self):
        states = StateSet(self._state(value) for value in (0, 1, 2))
        assert states.observations(parse_condition("exists (0:r0=1)")) == 1
        assert states.observations(parse_condition("exists (0:r0=3)")) == 0
        assert states.summary(parse_condition("exists (0:r0=1)")) \
            == "1/3 states weak"

    def test_merge_is_union(self):
        a = StateSet([self._state(0), self._state(1)])
        b = StateSet([self._state(1), self._state(2)])
        merged = StateSet.merge([a, b])
        assert type(merged) is StateSet
        assert merged == StateSet.merge([b, a]) \
            == {self._state(value) for value in (0, 1, 2)}
        assert StateSet.merge([]) == frozenset()

    def test_json_round_trip(self):
        states = StateSet([self._state(1), FinalState.make({}, {"x": 2})])
        records = json.loads(json.dumps(states.to_json()))
        assert StateSet.from_json(records) == states
        assert type(StateSet.from_json(records)) is StateSet

    def test_pretty_lists_states_in_a_fixed_order(self):
        states = StateSet(self._state(value) for value in (2, 0, 1))
        lines = states.pretty(parse_condition("exists (0:r0=1)")).splitlines()
        assert lines == ["States (3)", "  0:r0=0", "  0:r0=1  *witness*",
                         "  0:r0=2"]


class TestRunner:
    def test_no_incantations_no_weakness_on_nvidia(self):
        result = Session(cache=False).run(library.build("mp"), "Titan",
                                          incantations=None, iterations=400,
                                          seed=1)
        assert result.observations == 0

    def test_paper_config_witnesses_mp_on_titan(self):
        result = Session(cache=False).run(library.build("mp"), "Titan",
                                          iterations=2000, seed=1)
        assert result.observations > 0
        assert result.per_100k > 0

    def test_amd_weak_even_without_incantations(self):
        result = Session(cache=False).run(library.build("lb"), "HD7970",
                                          incantations=None, iterations=1500,
                                          seed=1)
        assert result.observations > 0

    def test_result_summary_format(self):
        result = Session(cache=False).run(library.build("mp"), "Titan",
                                          iterations=200, seed=1)
        assert "mp on Titan" in result.summary()

    def test_campaign_keys(self):
        campaign = Session(cache=False).campaign(
            [library.build("mp")], ["Titan", "GTX7"], iterations=100, seed=1)
        assert set(campaign.results) == {("mp", "Titan"), ("mp", "GTX7")}

    def test_iterations_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "37")
        result = Session(cache=False).run(library.build("mp"), "GTX7",
                                          incantations=None)
        assert result.iterations == 37


class TestDefaultIterations:
    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_ITERS", raising=False)
        assert default_iterations(1234) == 1234

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "42")
        assert default_iterations() == 42

    def test_clamped_to_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "-5")
        assert default_iterations() == 1

    def test_non_integer_fails_with_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "lots")
        with pytest.raises(ConfigurationError) as excinfo:
            default_iterations()
        assert "REPRO_ITERS" in str(excinfo.value)
        assert "lots" in str(excinfo.value)
