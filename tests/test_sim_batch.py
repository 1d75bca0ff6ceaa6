"""Batch-engine contracts: the numpy lockstep lowering of
:mod:`repro.sim.batch`.

Unlike the fast engine (bit-identical to the reference interpreter),
the batch engine runs every iteration of a shard in lockstep and draws
from a numpy generator seeded off the shard's ``Random`` — a documented
RNG stream-break.  Its contract is therefore *distribution* equivalence:
same per-tick Markov process, so for the same cell the outcome
histograms agree within sampling noise (total variation distance inside
:func:`repro.perf.tvd_envelope`), weak-behaviour verdicts and scenario
loss verdicts match the fast engine, and a given seed is reproducible.
These tests enforce that contract plus the engine's plumbing (guarded
numpy dependency, fingerprint/cache-signature split, ``resolve_choice``
precedence for every engine knob).
"""

import random
from dataclasses import replace

import pytest

import repro.sim.batch as batch_module
from repro.api import RunSpec, Session, SimBackend, plan_shards
from repro.errors import ConfigurationError, ReproError
from repro.harness.histogram import Histogram
from repro.harness.incantations import best_for, efficacy
from repro.litmus import library
from repro.model.models import MODEL_ENGINES, resolve_model_engine
from repro.perf import tvd, tvd_envelope
from repro.sim import (CHIPS, ENGINES, BatchCell, compile_batch_cell,
                       compile_cell, have_numpy, resolve_engine, run_batch,
                       run_iterations)

requires_numpy = pytest.mark.skipif(not have_numpy(),
                                    reason="numpy not installed")

#: Cells spanning the behaviour classes: plain message passing, the
#: load-load hazard, store buffering, atomics and the L1-staleness
#: machinery, over both vendors.
CELLS = (
    ("mp", "Titan"),
    ("coRR", "GTX5"),
    ("sb", "TesC"),
    ("cas-sl", "GTX6"),
    ("mp-L1", "TesC"),
)


def _cell_pair(name, chip_short):
    """Build the fast and batch lowering of one corpus cell with the
    campaign's best incantations (the configuration the backends run)."""
    test = library.build(name)
    chip = CHIPS[chip_short]
    incantations = best_for(chip.vendor, test.idiom or "mp")
    intensity = efficacy(chip.vendor, test.idiom or "mp", incantations)
    shuffle = incantations.thread_rand
    fast = compile_cell(test, chip, intensity=intensity,
                        shuffle_placement=shuffle)
    batch = compile_batch_cell(test, chip, intensity=intensity,
                               shuffle_placement=shuffle)
    return test, fast, batch


@requires_numpy
class TestDistributionEquivalence:
    N = 1500

    def test_library_cells_equivalent(self):
        """The headline contract: per cell, the batch histogram stays
        within the sampling-noise TVD envelope of the fast engine's."""
        for name, chip in CELLS:
            _, fast, batch = _cell_pair(name, chip)
            fast_counts = run_batch(fast, self.N, random.Random(0)).counts
            batch_counts = batch.run_many(self.N, random.Random(0)).counts
            assert sum(batch_counts.values()) == self.N
            distance = tvd(fast_counts, batch_counts, self.N)
            assert distance <= tvd_envelope(self.N), (
                "%s on %s: TVD %.4f above envelope %.4f"
                % (name, chip, distance, tvd_envelope(self.N)))

    def test_weak_verdicts_agree(self):
        """Decisive weak-behaviour verdicts must match: a state mass
        >= 5 on one engine may not face a zero on the other."""
        for name, chip in CELLS:
            test, fast, batch = _cell_pair(name, chip)
            fast_weak = Histogram(dict(
                run_batch(fast, self.N, random.Random(1)).counts)
            ).observations(test.condition)
            batch_weak = Histogram(dict(
                batch.run_many(self.N, random.Random(1)).counts)
            ).observations(test.condition)
            if max(fast_weak, batch_weak) >= 5:
                assert (fast_weak > 0) == (batch_weak > 0), (
                    "%s on %s: weak verdict diverged (fast=%d batch=%d)"
                    % (name, chip, fast_weak, batch_weak))

    def test_run_once_matches_many_distribution(self):
        """``run_once`` (the compatibility path app grids use) samples
        the same distribution as the lockstep batch."""
        _, fast, batch = _cell_pair("mp", "Titan")
        rng = random.Random(3)
        once = Histogram()
        for _ in range(600):
            once.add(batch.run_once(rng))
        many = batch.run_many(600, random.Random(4))
        assert tvd(once.counts, many.counts, 600) <= tvd_envelope(600)


@requires_numpy
class TestDeterminism:
    def test_same_seed_reproduces(self):
        _, _, batch = _cell_pair("cas-sl", "GTX6")
        first = batch.run_many(500, random.Random(11)).counts
        again = batch.run_many(500, random.Random(11)).counts
        assert first == again

    def test_chunking_preserves_stream(self):
        """Chunk boundaries (MAX_BATCH) must not change the result for
        a given seed: each chunk reseeds off the same Random stream."""
        _, _, batch = _cell_pair("mp", "Titan")
        whole = batch.run_many(400, random.Random(7)).counts
        try:
            batch_module.MAX_BATCH = 64
            chunked = batch.run_many(400, random.Random(7)).counts
        finally:
            batch_module.MAX_BATCH = 25000
        assert sum(chunked.values()) == 400
        # Chunking changes batch widths, hence which numpy draws land on
        # which iteration — distribution equivalence is the contract.
        assert tvd(whole, chunked, 400) <= tvd_envelope(400)

    def test_accumulates_into_given_histogram(self):
        _, _, batch = _cell_pair("mp", "Titan")
        histogram = Histogram()
        out = batch.run_many(40, random.Random(0), histogram)
        assert out is histogram and histogram.total == 40
        batch.run_many(40, random.Random(1), histogram)
        assert histogram.total == 80


@requires_numpy
class TestScenarioLossVerdicts:
    def test_app_scenarios_agree(self):
        """Campaign loss verdicts: the batch lowering of the branchy
        spin-lock kernels reaches the same loss/no-loss verdict."""
        from repro.apps.scenario import get_scenario

        for scenario_name, chip_short in (("deque-lb", "HD7970"),
                                          ("ticket", "TesC")):
            scenario = get_scenario(scenario_name)
            test = scenario.test()
            chip = CHIPS[chip_short]
            runs = 400
            fast = compile_cell(test, chip, intensity=100.0)
            batch = compile_batch_cell(test, chip, intensity=100.0)
            fast_losses = Histogram(dict(
                run_batch(fast, runs, random.Random(2)).counts)
            ).observations(test.condition)
            batch_losses = Histogram(dict(
                batch.run_many(runs, random.Random(2)).counts)
            ).observations(test.condition)
            if max(fast_losses, batch_losses) >= 5:
                assert (fast_losses > 0) == (batch_losses > 0), (
                    "%s on %s: loss verdict diverged (fast=%d batch=%d)"
                    % (scenario_name, chip_short, fast_losses,
                       batch_losses))


class TestNumpyGuard:
    def test_batch_registered(self):
        assert "batch" in ENGINES

    def test_sim_serves_the_batch_names_on_first_use(self):
        import repro.sim
        from repro.sim import BatchCell, compile_batch_cell, have_numpy
        assert (BatchCell, compile_batch_cell, have_numpy) == (
            batch_module.BatchCell, batch_module.compile_batch_cell,
            batch_module.have_numpy)
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.sim.no_such_name

    def test_missing_numpy_raises_configuration_error(self, monkeypatch):
        monkeypatch.setattr(batch_module, "np", None)
        assert not have_numpy()
        with pytest.raises(ConfigurationError) as excinfo:
            compile_batch_cell(library.build("mp"), CHIPS["Titan"])
        # The error must name the install extra, not just say "no numpy".
        assert "repro[batch]" in str(excinfo.value)

    def test_missing_numpy_blocks_run_iterations(self, monkeypatch):
        monkeypatch.setattr(batch_module, "np", None)
        with pytest.raises(ConfigurationError):
            run_iterations(library.build("mp"), CHIPS["Titan"], 10,
                           engine="batch")

    def test_fast_and_reference_do_not_need_numpy(self, monkeypatch):
        """The guarded-dependency contract: everything except the batch
        engine keeps working when numpy is absent."""
        monkeypatch.setattr(batch_module, "np", None)
        counts = run_iterations(library.build("mp"), CHIPS["Titan"], 30,
                                seed=0, engine="fast")
        assert sum(counts.values()) == 30


@requires_numpy
class TestEnginePlumbing:
    def test_fingerprint_excludes_batch_engine(self):
        """Shard seeds stay engine-neutral — the same shards feed all
        three engines, which is what makes equivalence testable."""
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=100,
                            engine="fast")
        batch = replace(spec, engine="batch")
        assert spec.fingerprint() == batch.fingerprint()
        assert ([shard.seed for shard in plan_shards(spec, 30)]
                == [shard.seed for shard in plan_shards(batch, 30)])

    def test_cache_signature_separates_all_engines(self):
        backend = SimBackend()
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=100)
        signatures = {backend.cache_signature(replace(spec, engine=engine))
                      for engine in ENGINES}
        assert len(signatures) == len(ENGINES)

    def test_backend_memo_keeps_engines_apart(self):
        """One backend serving fast and batch specs of the same cell
        must hold two separate lowered cells."""
        backend = SimBackend()
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=50,
                            engine="fast")
        fast_machine = backend._machine(spec)
        batch_machine = backend._machine(replace(spec, engine="batch"))
        assert isinstance(batch_machine, BatchCell)
        assert fast_machine is not batch_machine
        # Memoised: asking again returns the same lowered cells.
        assert backend._machine(spec) is fast_machine
        assert (backend._machine(replace(spec, engine="batch"))
                is batch_machine)

    def test_backend_run_batch_engine(self):
        backend = SimBackend(shard_size=40)
        spec = RunSpec.make(library.build("sb"), "TesC", iterations=100,
                            seed=5, engine="batch")
        histogram = backend.run(spec).answer
        assert histogram.total == 100

    def test_session_batch_engine(self):
        session = Session(engine="batch", cache=False)
        result = session.run(library.build("mp"), "Titan", iterations=80,
                             seed=1)
        assert result.spec.engine == "batch"
        assert result.histogram.total == 80


class TestResolveChoicePrecedence:
    """The engine-switch idiom, for all engine knobs: an explicit
    choice, else the default."""

    KNOBS = (
        (resolve_engine, ENGINES, "fast"),
        (resolve_model_engine, MODEL_ENGINES, "fast"),
    )

    def test_default_when_unset(self):
        for resolve, _, default in self.KNOBS:
            assert resolve(None) == default

    def test_every_choice_accepted(self):
        for resolve, choices, _ in self.KNOBS:
            for choice in choices:
                assert resolve(choice) == choice

    def test_environment_is_not_consulted(self, monkeypatch):
        """The engine is set in one place: ``REPRO_ENGINE`` and
        ``REPRO_MODEL_ENGINE`` are gone, and a stale export of either
        picks nothing."""
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        monkeypatch.setenv("REPRO_MODEL_ENGINE", "reference")
        for resolve, _, default in self.KNOBS:
            assert resolve(None) == default
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        assert spec.engine == "fast"
        assert Session(cache=False).engine == "fast"

    def test_invalid_explicit_lists_choices(self):
        for resolve, choices, _ in self.KNOBS:
            with pytest.raises(ReproError) as excinfo:
                resolve("warp-speed")
            message = str(excinfo.value)
            assert "warp-speed" in message
            for choice in choices:
                assert choice in message
