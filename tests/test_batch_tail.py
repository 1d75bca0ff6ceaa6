"""Straggler-tail hand-off and cross-worker plan-cache contracts.

The batch engine's tail hand-off drains a chunk's last spinning
survivors on the compiled fast engine instead of paying full-width
numpy dispatch, once a chunk is down to 5 % live rows.  Its contracts,
enforced here:

* the batch stream is pinned by golden histogram signatures, so any
  change to the RNG draw order shows up here first;
* the hand-off stays **distribution-equivalent** to the fast engine
  (TVD inside the sampling envelope, loss verdicts agreeing) on the
  spin-heavy scenarios it exists for;
* results are deterministic per seed and invariant across the
  session's jobs/executor decomposition;
* lowered plans round-trip through the process-safe plan store
  (:mod:`repro.sim.plancache`) bit-identically, tolerate corrupt
  entries, and surface hit/miss counters through ``SpecResult.stats``
  and the session stats — including across process-pool workers.
"""

import hashlib
import os
import pickle
import random

import pytest

from repro.api import RunSpec, Session
from repro.apps import app_session, build_launch_test, get_scenario
from repro.apps.scenario import ScenarioSpec
from repro.harness.histogram import Histogram
from repro.litmus import library
from repro.perf import tvd, tvd_envelope
from repro.sim import CHIPS, compile_batch_cell, compile_cell, have_numpy
from repro.sim.batch import _BatchState, _ThreadState, np
from repro.sim.engine import run_batch
from repro.sim.plancache import plan_signature, plan_store

requires_numpy = pytest.mark.skipif(not have_numpy(),
                                    reason="numpy not installed")

#: The scenarios whose spin loops motivate the hand-off (CAS, exchange,
#: intra-CTA and ticket locks), each on a chip from the perf corpus.
SPIN_CELLS = (
    ("dot-cbe", "Titan"),
    ("dot-so", "HD7970"),
    ("dot-heyu-cta", "TesC"),
    ("ticket", "TesC"),
)

#: Pinned histogram signatures of the batch engine's stream.
LITMUS_GOLDENS = (
    ("mp", "Titan", 3000, 11, "9c02bc0211d22054"),
    ("sb", "GTX5", 3000, 13, "f8df65608216ae38"),
    # > MAX_BATCH: more than one chunk.
    ("mp", "Titan", 26000, 5, "9348454f01b5e2b4"),
)
DOT_GOLDEN = ("dot-cbe", "Titan", 3000, 17, "029379b67897e1d6")

#: Pinned projected-histogram signatures of the spin cells through the
#: app backend (2000 launches, seed 17, the default stress intensity).
APP_GOLDENS = dict(zip(SPIN_CELLS, ("ef5e68c6a1b06341", "835c31717b924202",
                                    "0704fc27db2ab1cd", "ef1080640069bec7")))


class _SlotWithInvalProb:
    """Pickles as a batch plan's slot did while slots still carried the
    retired stale-L1 model's ``inval_prob``."""

    def __init__(self, slot):
        self.cls = type(slot)
        self.state = {name: getattr(slot, name)
                      for name in self.cls.__slots__}
        self.state["inval_prob"] = 1.0

    def __reduce__(self):
        return object.__new__, (self.cls,), (None, self.state)


def _signature(histogram):
    payload = repr(sorted((str(k), v) for k, v in histogram.counts.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _losses(histogram, test):
    return Histogram(dict(histogram.counts)).observations(test.condition)


@requires_numpy
class TestStreamGoldens:
    """The batch stream reproduces its pinned signatures."""

    @pytest.mark.parametrize("name,chip,n,seed,expected", LITMUS_GOLDENS)
    def test_litmus_goldens(self, name, chip, n, seed, expected):
        cell = compile_batch_cell(library.build(name), CHIPS[chip])
        histogram = run_batch(cell, n, random.Random(seed))
        assert _signature(histogram) == expected

    def test_scenario_golden(self):
        name, chip, n, seed, expected = DOT_GOLDEN
        cell = compile_batch_cell(get_scenario(name).test(), CHIPS[chip],
                                  intensity=100.0)
        histogram = run_batch(cell, n, random.Random(seed))
        assert _signature(histogram) == expected

    @pytest.mark.parametrize("name,chip", SPIN_CELLS)
    def test_app_backend_goldens(self, name, chip):
        spec = ScenarioSpec.make(name, chip, runs=2000, seed=17,
                                 intensity=100.0, engine="batch")
        result = app_session(cache=False).run_specs([spec])[0]
        assert _signature(result.histogram) == APP_GOLDENS[name, chip]

    @pytest.mark.parametrize("name,chip", (("mp", "Titan"), ("sb", "GTX5")))
    def test_plan_roundtrip_is_stream_neutral(self, name, chip):
        """A cell rebuilt from its pickled plan draws the same stream."""
        test = library.build(name)
        fresh = compile_batch_cell(test, CHIPS[chip])
        replayed = compile_batch_cell(test, CHIPS[chip], plan=fresh.plan())
        a = run_batch(fresh, 2000, random.Random(3))
        b = run_batch(replayed, 2000, random.Random(3))
        assert a.counts == b.counts


@requires_numpy
class TestTailParity:
    """The hand-off changes the RNG stream, never the distribution."""

    @pytest.mark.parametrize("name,chip", SPIN_CELLS)
    def test_spin_scenarios_tail_vs_fast(self, name, chip):
        runs, seed = 4000, 0
        test = get_scenario(name).test()
        profile = CHIPS[chip]
        tailed = compile_batch_cell(test, profile, intensity=100.0)
        fast = compile_cell(test, profile, intensity=100.0)
        tailed_h = run_batch(tailed, runs, random.Random(seed))
        fast_h = run_batch(fast, runs, random.Random(seed))
        assert tvd(tailed_h.counts, fast_h.counts, runs) <= tvd_envelope(runs)
        losses = _losses(tailed_h, test)
        fast_losses = _losses(fast_h, test)
        if max(losses, fast_losses) >= 5:  # decisive mass only
            assert (losses > 0) == (fast_losses > 0)


def _shared_heyu_cell():
    """The intra-CTA He-Yu lock with its locations in shared memory: a
    spinning cell whose batch state carries ``shm``."""
    scenario = get_scenario("dot-heyu-cta")
    init_mem = dict(scenario.init_mem)
    test = build_launch_test(list(scenario.kernels), init_mem,
                             placement=scenario.placement, shared=init_mem)
    return compile_batch_cell(test, CHIPS["TesC"], intensity=100.0)


@requires_numpy
class TestTailLayout:
    """Compaction and tail merges carry every declared per-row array."""

    def test_every_batch_slot_but_the_scalars_is_declared(self):
        assert (set(_BatchState.__slots__) - {"n", "rng", "threads"}
                == set(_BatchState._ARRAYS))
        assert set(_ThreadState.__slots__) - {"S"} == set(_ThreadState._ARRAYS)

    @pytest.mark.parametrize("build", (
        lambda: compile_batch_cell(get_scenario("dot-cbe").test(),
                                   CHIPS["Titan"], intensity=100.0),
        _shared_heyu_cell), ids=("global", "shared"))
    def test_coalesced_tail_keeps_every_array_aligned(self, build):
        cell = build()
        rng = random.Random(5)
        blocks, tails = [], []
        for _ in range(2):
            generator = np.random.Generator(
                np.random.PCG64(rng.getrandbits(64)))
            tail = cell._advance(_BatchState(cell, 400, generator), blocks,
                                 40)
            assert tail is not None and tail.n
            tails.append(tail)
        merged = cell._concat_states(tails)
        assert merged.n == sum(tail.n for tail in tails)
        assert (merged.shm is None) == (cell.n_shared == 0)
        merged.take(np.arange(1, merged.n))
        for state in (merged, *merged.threads):
            for name in state._ARRAYS:
                array = getattr(state, name)
                assert array is None or len(array) == merged.n, name
        # The merged rows run to completion, one final row each.
        assert cell._advance(merged, blocks, 0) is None
        assert sum(len(block) for block in blocks) == 800 - 1


@requires_numpy
class TestTailDeterminism:
    def test_same_seed_reproduces(self):
        test = get_scenario("dot-cbe").test()
        for _ in range(2):
            cell = compile_batch_cell(test, CHIPS["Titan"], intensity=100.0)
            histogram = run_batch(cell, 3000, random.Random(7))
            if _ == 0:
                first = histogram.counts
        assert histogram.counts == first

    def test_jobs_and_executor_invariant(self):
        spec = ScenarioSpec.make("ticket", "TesC", runs=600, seed=3,
                                 intensity=100.0, engine="batch")
        serial = app_session(cache=False, shard_size=150)
        threaded = app_session(cache=False, shard_size=150, jobs=3)
        process = app_session(cache=False, shard_size=150, jobs=2,
                              executor="process")
        results = [session.run_specs([spec])[0]
                   for session in (serial, threaded, process)]
        assert (results[0].histogram.counts == results[1].histogram.counts
                == results[2].histogram.counts)
        assert serial.stats.shards_executed == 4  # ceil(600 / 150)


@requires_numpy
class TestPlanCache:
    def test_roundtrip_and_stats(self, tmp_path):
        store = plan_store(str(tmp_path / "plans"))
        signature = plan_signature("sim-batch", 1, "litmus", "chip", 11)
        assert store.get(signature) is None
        test = library.build("mp")
        plan = compile_batch_cell(test, CHIPS["Titan"]).plan()
        store.put(signature, plan)
        retrieved = store.get(signature)
        # Plan payloads hold analysis objects without __eq__ — check
        # the round-trip structurally and by replaying the stream.
        assert retrieved is not None
        assert retrieved["version"] == plan["version"]
        assert len(retrieved["threads"]) == len(plan["threads"])
        replayed = compile_batch_cell(test, CHIPS["Titan"], plan=retrieved)
        fresh = compile_batch_cell(test, CHIPS["Titan"])
        assert (run_batch(replayed, 1500, random.Random(2)).counts
                == run_batch(fresh, 1500, random.Random(2)).counts)
        assert store.consume_stats() == {"plan_cache_hits": 1,
                                         "plan_cache_misses": 1}
        assert store.consume_stats() is None  # deltas drain

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path / "plans")
        store = plan_store(directory)
        signature = plan_signature("x")
        store.put(signature, {"version": 1})
        path = next(os.path.join(directory, name)
                    for name in os.listdir(directory))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get(signature) is None

    def test_plan_pickled_with_inval_prob_is_a_miss(self, tmp_path):
        """Slots lost ``inval_prob`` while the plan version, and so the
        plan file names, stayed: a plan pickled before fails to load,
        and the session re-lowers and overwrites it."""
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=200,
                            seed=7, engine="batch")
        old = compile_batch_cell(spec.test, spec.chip).plan()
        for S in old["threads"]:
            S.slots = [_SlotWithInvalProb(slot) for slot in S.slots]
        plans = tmp_path / "plans"
        plans.mkdir()
        path = plans / ("7b7d769a9cb007cd3084ec60baf6596e"
                        "f90347ea36f5ee1648570bcc2f62f08e.plan")
        path.write_bytes(pickle.dumps(old))
        session = Session(cache_dir=str(tmp_path))
        result = session.run(spec)
        assert (session.stats.plan_cache_hits,
                session.stats.plan_cache_misses) == (0, 1)
        assert os.listdir(plans) == [path.name]
        assert pickle.loads(path.read_bytes())["version"] == old["version"]
        assert result.histogram.counts == \
            Session(cache=False).run(spec).histogram.counts

    def test_signature_separates_content(self):
        assert plan_signature("a", 1) != plan_signature("a", 2)
        assert plan_signature("a", 1) == plan_signature("a", 1)

    def test_in_process_hit_and_spec_result_stats(self, tmp_path):
        first = app_session(cache_dir=str(tmp_path))
        second = app_session(cache_dir=str(tmp_path))
        spec_a = ScenarioSpec.make("ticket", "TesC", runs=200,
                                   engine="batch")
        # Same lowering (scenario/chip/intensity), different cache key;
        # the second session has its own compiled-cell memo, so its
        # lowering must hit the shared store.
        spec_b = ScenarioSpec.make("ticket", "TesC", runs=200, seed=1,
                                   engine="batch")
        result_a = first.run_specs([spec_a])[0]
        result_b = second.run_specs([spec_b])[0]
        assert result_a.stats["plan_cache_misses"] >= 1
        assert result_b.stats["plan_cache_hits"] >= 1
        assert second.stats.plan_cache_hits >= 1
        assert first.stats.plan_cache_misses >= 1
        cached = first.run_specs([spec_a])[0]
        assert cached.cached and cached.stats is None

    def test_litmus_batch_cells_share_the_store(self, tmp_path):
        """The sim backend lowers through the same plan store as the app
        backend: a second session on the directory hits the first one's
        plan, and the replayed cell samples as a fresh lowering does."""
        test = library.build("mp")
        first = Session(engine="batch", cache_dir=str(tmp_path))
        first.run(test, "Titan", iterations=2000, seed=1)
        assert (first.stats.plan_cache_hits,
                first.stats.plan_cache_misses) == (0, 1)
        second = Session(engine="batch", cache_dir=str(tmp_path))
        replayed = second.run(test, "Titan", iterations=2000, seed=2)
        assert (second.stats.plan_cache_hits,
                second.stats.plan_cache_misses) == (1, 0)
        fresh = Session(engine="batch", cache=False).run(
            test, "Titan", iterations=2000, seed=2)
        assert replayed.histogram.counts == fresh.histogram.counts

    def test_process_pool_workers_hit_shared_store(self, tmp_path):
        cache_dir = str(tmp_path)
        warmup = app_session(cache_dir=cache_dir)
        warmup.run_specs([ScenarioSpec.make("dot-cbe", "Titan", runs=200,
                                            seed=1, intensity=100.0,
                                            engine="batch")])
        assert warmup.stats.plan_cache_misses >= 1
        pooled = app_session(cache_dir=cache_dir, jobs=2,
                             executor="process", shard_size=100)
        pooled.run_specs([ScenarioSpec.make("dot-cbe", "Titan", runs=200,
                                            seed=2, intensity=100.0,
                                            engine="batch")])
        assert pooled.stats.plan_cache_hits >= 1
        assert pooled.stats.plan_cache_misses == 0
