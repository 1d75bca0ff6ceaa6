"""Typed shard results: the answer of each backend, its cache round
trip, concurrent writers of one cache directory, and the disk cache's
segments (torn and bad lines, reads per session, what a session sees).

Every backend returns a :class:`~repro.api.result.ShardResult`; the
exhaustive backend's answer is each branch's
:class:`~repro.exhaustive.explore.ExhaustiveResult`, counters and first
witness included, the witness tagged with the branch's root-plan index,
and the merge keeps the lowest index.  So a losing cell's witness
arrives with its verdict (fresh, pooled or cached) and equals the
serial exploration's — which is what lets ``verify`` skip re-exploring
losing cells.
"""

import errno
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.api import RunSpec, Session
from repro.api.cache import (DISK_FORMAT_VERSION, SEGMENT_PREFIX,
                             ResultCache, decode_entry, encode_entry)
from repro.api.result import ShardResult, SpecResult
from repro.apps import app_session
from repro.apps.scenario import ScenarioSpec, get_scenario, select_scenarios
from repro.exhaustive import (ExhaustiveBackend, ExhaustiveResult,
                              encode_exhaustive_histogram, exhaustive_session,
                              explore_test, verify_scenarios)
from repro.exhaustive.explore import Explorer
from repro.harness.histogram import Histogram, StateSet
from repro.litmus import FinalState, library
from repro.sim import CHIPS
from repro.sim.chip import RESULT_CHIPS

#: Losing cells of the scenario registry on the seven result chips.
LOST_CELLS = 54


def scenario_spec(name, chip="Titan", seed=0, intensity=1.0):
    return ScenarioSpec(scenario=get_scenario(name), chip=CHIPS[chip],
                        iterations=1, seed=seed, intensity=intensity)


@pytest.fixture(scope="module")
def serial_witnesses():
    """``(scenario, chip) -> explore_test witness`` of every losing
    registry cell on the result chips."""
    witnesses = {}
    for scenario in select_scenarios(["all"]):
        for chip in RESULT_CHIPS:
            result = explore_test(scenario.test(), CHIPS[chip])
            if result.losses:
                witnesses[(scenario.name, chip)] = result.witness
    assert len(witnesses) == LOST_CELLS
    return witnesses


class TestWitnessChannel:
    @pytest.mark.parametrize("jobs,executor", ((1, "thread"), (2, "thread"),
                                               (2, "process")))
    def test_lost_cells_carry_the_serial_witness(self, serial_witnesses,
                                                 jobs, executor):
        report = verify_scenarios(select_scenarios(["all"]), RESULT_CHIPS,
                                  jobs=jobs, executor=executor)
        lost = {(row.scenario, row.chip): row.witness
                for row in report.rows if not row.verified}
        assert lost == serial_witnesses

    def test_any_merge_order_keeps_the_serial_witness(self):
        # dot-cbe on Titan loses on more than one root branch, so the
        # merge has to pick the lowest-index witness, not the first seen.
        test = get_scenario("dot-cbe").test()
        chip = CHIPS["Titan"]
        explorer = Explorer(test, chip)
        parts = [encode_exhaustive_histogram(explorer.run_branch(index))
                 for index in range(len(explorer.root_plan()))]
        assert sum(part.answer.witness is not None for part in parts) > 1
        serial = explore_test(test, chip)
        for order in itertools.permutations(parts):
            merged = ShardResult.merge(order)
            assert merged.answer.witness == serial.witness
            assert merged.answer.witness_branch == 0
            assert merged.answer.losses == serial.losses
            assert merged.answer.transitions == serial.transitions
            assert merged.answer == serial

    def test_answer_merge_is_associative_and_commutative(self):
        def branch(states, executions, transitions, losses, bounded,
                   witness=None, witness_branch=None):
            return ExhaustiveResult(
                reachable=StateSet(FinalState.make({}, {"x": value})
                                   for value in states),
                executions=executions, transitions=transitions,
                losses=losses, bounded=bounded, strategy="dpor",
                loop_bound=3, witness=witness, witness_branch=witness_branch)

        answers = [branch((0,), 1, 5, 0, False),
                   branch((0, 1), 2, 7, 1, True, "w3", 3),
                   branch((2,), 4, 9, 2, False, "w1", 1)]
        merge = ExhaustiveResult.merge
        for a, b, c in itertools.permutations(answers):
            assert merge([a, b]) == merge([b, a])
            assert merge([merge([a, b]), c]) == merge([a, merge([b, c])])
        total = merge(answers)
        assert (total.executions, total.transitions, total.losses) \
            == (7, 21, 3)
        assert total.bounded
        assert total.reachable == StateSet.merge(answer.reachable
                                                 for answer in answers)
        assert len(total.reachable) == 3
        assert (total.witness, total.witness_branch) == ("w1", 1)

    def test_warm_verify_executes_nothing_and_renders_identically(
            self, tmp_path):
        scenarios = select_scenarios(["all"])
        cold_session = exhaustive_session(cache_dir=str(tmp_path))
        cold = verify_scenarios(scenarios, RESULT_CHIPS,
                                session=cold_session)
        warm_session = exhaustive_session(cache_dir=str(tmp_path))
        warm = verify_scenarios(scenarios, RESULT_CHIPS,
                                session=warm_session)
        assert warm_session.stats.executed == 0
        assert warm_session.stats.cache_hits == cold_session.stats.executed
        assert warm.lines() == cold.lines()
        assert sum(row.witness is not None for row in warm.rows) \
            == LOST_CELLS

    def test_no_witness_leaves_traces_out(self):
        report = verify_scenarios(["deque-mp"], ["Titan"], witnesses=False)
        (row,) = report.rows
        assert not row.verified and row.witness is None

    def test_in_plan_duplicates_carry_the_answer(self):
        session = exhaustive_session(cache=False)
        # Seed and intensity do not change the exploration, so the
        # second spec deduplicates onto the first.
        first, twin = session.run_specs([
            scenario_spec("deque-mp"),
            scenario_spec("deque-mp", seed=9, intensity=100.0)])
        assert session.stats.executed == 1
        assert session.stats.deduplicated == 1
        assert twin.cached
        assert twin.answer == first.answer
        assert twin.answer.witness is not None


def run_one(session, spec):
    (result,) = session.run_specs([spec])
    return result


class TestCacheAnswer:
    def _entry(self, directory):
        """The one segment in ``directory``; it holds one entry line,
        which is a whole JSON document."""
        (name,) = [name for name in os.listdir(directory)
                   if name.endswith(".json")]
        assert name.startswith(SEGMENT_PREFIX)
        return os.path.join(directory, name)

    def _rewrite(self, path, change):
        with open(path) as handle:
            (line,) = handle.read().splitlines()
        payload = json.loads(line)
        change(payload)
        # The writer's compact form, so the line keeps the key prefix
        # the reader indexes by and only ``change`` can make it a miss.
        with open(path, "w") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")

    def test_answer_round_trips_through_the_disk_cache(self, tmp_path):
        spec = scenario_spec("deque-mp")
        fresh = run_one(exhaustive_session(cache_dir=str(tmp_path)), spec)
        session = exhaustive_session(cache_dir=str(tmp_path))
        cached = run_one(session, spec)
        assert session.stats.executed == 0 and cached.cached
        assert cached.answer == fresh.answer
        with open(self._entry(str(tmp_path))) as handle:
            assert json.load(handle)["version"] == DISK_FORMAT_VERSION == 5

    @pytest.mark.parametrize("kind", ["sim", "app", "model", "exhaustive",
                                      "analysis"])
    def test_each_answer_kind_round_trips(self, tmp_path, kind):
        directory = str(tmp_path)
        if kind == "app":
            make_session = lambda: app_session(cache_dir=directory)
            spec = ScenarioSpec.make("deque-mp", "Titan", runs=40, seed=3)
        elif kind == "exhaustive":
            make_session = lambda: exhaustive_session(cache_dir=directory)
            spec = scenario_spec("deque-mp")
        else:
            make_session = lambda: Session(backend=kind, cache_dir=directory)
            spec = mp_spec("Titan")
        cold_session = make_session()
        cold = run_one(cold_session, spec)
        assert cold_session.stats.executed == 1
        warm_session = make_session()
        warm = run_one(warm_session, spec)
        assert warm_session.stats.executed == 0 and warm.cached
        assert type(warm.answer) is cold_session.backend.answer_type
        assert warm.answer == cold.answer
        assert warm.provenance == cold.provenance
        assert warm.observations == cold.observations

    @pytest.mark.parametrize("change", [
        lambda payload: payload.update(version=1),
        lambda payload: payload.update(version=2),
        lambda payload: payload.update(version=3),
        lambda payload: payload.update(version=4),
        lambda payload: payload.update(key="exhaustive-other"),
        lambda payload: payload.pop("provenance"),
        lambda payload: payload.update(provenance=3),
        lambda payload: payload.pop("answer"),
        lambda payload: payload.update(answer=None),
        lambda payload: payload.update(answer={}),
        lambda payload: payload.update(answer=[1, 2]),
        lambda payload: payload["answer"].update(executions="many"),
        lambda payload: payload["answer"].update(bounded=0),
        lambda payload: payload["answer"].update(loop_bound="3"),
        lambda payload: payload["answer"].pop("strategy"),
        lambda payload: payload["answer"].update(reachable=[{"regs": []}]),
        lambda payload: payload["answer"].update(witness_branch=None),
        lambda payload: payload["answer"]["witness"].update(events=[[0]]),
        lambda payload: payload["answer"]["witness"]["events"][0]
        .__setitem__(0, "T0"),
        lambda payload: payload["answer"]["witness"].pop("state"),
    ], ids=["v1", "v2", "v3", "v4", "other-key", "no-provenance",
            "bad-provenance", "no-answer", "null-answer", "empty-answer",
            "list-answer", "bad-counter", "bad-flag", "bad-loop-bound",
            "no-strategy", "state-without-mem", "witness-without-branch",
            "short-event", "bad-tid", "no-final-state"])
    def test_stale_or_malformed_entry_is_a_miss(self, tmp_path, change):
        spec = scenario_spec("deque-mp")
        original = run_one(exhaustive_session(cache_dir=str(tmp_path)), spec)
        path = self._entry(str(tmp_path))
        self._rewrite(path, change)
        session = exhaustive_session(cache_dir=str(tmp_path))
        again = run_one(session, spec)
        assert session.stats.executed == 1
        assert not again.cached
        assert again.answer == original.answer
        # The re-execution appended a whole entry, which heals the key.
        healed = exhaustive_session(cache_dir=str(tmp_path))
        assert run_one(healed, spec).cached
        assert healed.stats.executed == 0

    def test_sampling_backends_store_a_histogram(self, tmp_path):
        result = Session(cache_dir=str(tmp_path)).run(
            library.build("mp"), "Titan", iterations=50)
        assert isinstance(result.answer, Histogram)
        with open(self._entry(str(tmp_path))) as handle:
            payload = json.load(handle)
        assert "histogram" not in payload and "meta" not in payload
        assert sum(record["count"] for record in payload["answer"]) == 50
        assert Histogram.from_json(payload["answer"]) == result.answer


# -- concurrent writers ------------------------------------------------------

KEYS = ["shared-a", "shared-b", "shared-c"]
WRITE_SECONDS = 1.0


def _sample_result():
    """A result whose answer holds a witness, so writers race on the
    whole codec."""
    spec = scenario_spec("deque-mp")
    return SpecResult(spec=spec, backend=ExhaustiveBackend.name,
                      answer=ExhaustiveBackend().run(spec).answer)


def _hammer(cache_dir, result, go, errors):
    """Once ``go`` is set, put every key for WRITE_SECONDS (at least
    once); append any failure to ``errors``."""
    cache = ResultCache(cache_dir=cache_dir)
    go.wait(60)
    deadline = time.monotonic() + WRITE_SECONDS
    try:
        while True:
            for key in KEYS:
                cache.put(key, result)
            if time.monotonic() >= deadline:
                return
    except Exception as error:  # reported to the test, not swallowed
        errors.append(repr(error))


def _hammer_process(cache_dir, result, go):
    errors = []
    _hammer(cache_dir, result, go, errors)
    sys.exit(1 if errors else 0)


class TestConcurrentWriters:
    def test_threads_and_processes_share_one_directory(self, tmp_path):
        cache_dir = str(tmp_path)
        result = _sample_result()
        cores = os.cpu_count() or 1
        context = multiprocessing.get_context("spawn")
        go = context.Event()
        processes = [context.Process(target=_hammer_process,
                                     args=(cache_dir, result, go))
                     for _ in range(min(cores, 4) + 1)]
        errors = []
        threads = [threading.Thread(target=_hammer,
                                    args=(cache_dir, result, go, errors))
                   for _ in range(cores + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in processes + threads:
                worker.start()
            go.set()
            for worker in threads + processes:
                worker.join(timeout=WRITE_SECONDS + 120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stuck = [process for process in processes if process.is_alive()]
        for process in stuck:
            process.kill()
        assert not stuck
        assert errors == []
        assert [process.exitcode for process in processes] \
            == [0] * len(processes)
        # Every entry reads back whole, and no temporary is left over:
        # the directory holds one segment per writer, and each of its
        # lines is a whole entry.
        reader = ResultCache(cache_dir=cache_dir)
        for key in KEYS:
            entry = reader.get(key, result.spec, ExhaustiveBackend.name,
                               ExhaustiveResult)
            assert entry is not None, key
            assert entry.answer == result.answer
        whole = [encode_entry(key, result) for key in KEYS]
        names = os.listdir(cache_dir)
        assert len(names) == len(processes) + len(threads)
        for name in names:
            assert name.startswith(SEGMENT_PREFIX) and name.endswith(".json")
            with open(os.path.join(cache_dir, name), "rb") as handle:
                lines = handle.read().splitlines(keepends=True)
            assert len(lines) >= len(KEYS)
            assert all(line == whole[index % len(KEYS)]
                       for index, line in enumerate(lines))

    def test_failed_write_leaves_no_temporary(self, tmp_path):
        class Unserialisable:
            def to_json(self):
                return {"value": object()}

        result = _sample_result()
        broken = SpecResult(spec=result.spec, backend=result.backend,
                            answer=Unserialisable())
        with pytest.raises(TypeError):
            ResultCache(cache_dir=str(tmp_path)).put("key", broken)
        assert os.listdir(str(tmp_path)) == []


# -- the segment tier --------------------------------------------------------

CHIPS_OF_SPECS = ("Titan", "HD7970", "GTX280")


def mp_spec(chip):
    return RunSpec.make(library.build("mp"), chip, iterations=50, seed=3)


def segment_paths(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.startswith(SEGMENT_PREFIX))


class TestSegments:
    def _cold(self, directory, chips=CHIPS_OF_SPECS):
        session = Session(cache_dir=directory)
        results = session.run_specs([mp_spec(chip) for chip in chips])
        assert session.stats.executed == len(chips)
        return results

    def test_a_torn_tail_re_executes_only_its_entry(self, tmp_path):
        directory = str(tmp_path)
        cold = self._cold(directory)
        (path,) = segment_paths(directory)
        with open(path, "rb") as handle:
            data = handle.read()
        # Cut the last entry mid-line, as a writer killed mid-write would.
        cut = data.rstrip(b"\n").rfind(b"\n") + 1
        with open(path, "wb") as handle:
            handle.write(data[:cut + (len(data) - cut) // 2])
        session = Session(cache_dir=directory)
        warm = session.run_specs([mp_spec(chip) for chip in CHIPS_OF_SPECS])
        assert [result.cached for result in warm] == [True, True, False]
        assert session.stats.executed == 1
        assert [result.histogram.counts for result in warm] \
            == [result.histogram.counts for result in cold]

    def test_a_bad_line_before_a_good_one_still_hits(self, tmp_path):
        directory = str(tmp_path)
        (cold,) = self._cold(directory, chips=["Titan"])
        (path,) = segment_paths(directory)
        with open(path, "rb") as handle:
            good = handle.read()
        bad = good[:good.index(b',"answer":')] + b',"answer":\n'
        with open(path, "wb") as handle:
            handle.write(bad + good)
        session = Session(cache_dir=directory)
        (warm,) = session.run_specs([mp_spec("Titan")])
        assert warm.cached and session.stats.executed == 0
        assert warm.histogram.counts == cold.histogram.counts

    def _count_reads(self, monkeypatch, directory):
        """The paths under ``directory`` that ``open`` and
        ``os.listdir`` see, in call order, until ``monkeypatch.undo``."""
        opened, listed = [], []
        real_open, real_listdir = open, os.listdir

        def counting_open(path, *args, **kwargs):
            if str(path).startswith(directory):
                opened.append(str(path))
            return real_open(path, *args, **kwargs)

        def counting_listdir(path="."):
            listed.append(str(path))
            return real_listdir(path)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(os, "listdir", counting_listdir)
        return opened, listed

    def test_a_warm_session_opens_each_segment_once(self, tmp_path,
                                                    monkeypatch):
        directory = str(tmp_path)
        self._cold(directory, chips=CHIPS_OF_SPECS[:2])
        self._cold(directory, chips=CHIPS_OF_SPECS[2:])
        segments = segment_paths(directory)
        assert len(segments) == 2
        opened, listed = self._count_reads(monkeypatch, directory)
        session = Session(cache_dir=directory)
        specs = [mp_spec(chip) for chip in CHIPS_OF_SPECS]
        session.run_specs(specs)
        session.run_specs(specs)
        monkeypatch.undo()
        assert session.stats.executed == 0
        assert session.stats.cache_hits == 2 * len(specs)
        assert sorted(opened) == segments
        assert listed == [directory]

    def test_a_session_reads_only_its_backends_segments(self, tmp_path,
                                                        monkeypatch):
        directory = str(tmp_path)
        self._cold(directory, chips=["Titan"])
        run_one(Session(backend="model", cache_dir=directory),
                mp_spec("Titan"))
        (model, sim) = segment_paths(directory)
        assert os.path.basename(model).startswith("segment-model_ptx-")
        assert os.path.basename(sim).startswith("segment-sim-")
        for backend, segment in (("sim", sim), ("model", model)):
            opened, listed = self._count_reads(monkeypatch, directory)
            session = Session(backend=backend, cache_dir=directory)
            assert run_one(session, mp_spec("Titan")).cached
            monkeypatch.undo()
            assert session.stats.executed == 0
            assert opened == [segment] and listed == [directory]

    def test_a_failed_write_moves_to_a_fresh_segment(self, tmp_path,
                                                     monkeypatch):
        directory = str(tmp_path)
        result = _sample_result()
        cache = ResultCache(cache_dir=directory)
        cache.put("exhaustive-first", result)
        real_open = open

        class Torn:
            """A file whose write stops halfway, as on a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("builtins.open", lambda *args, **kwargs: Torn(
            real_open(*args, **kwargs)))
        with pytest.raises(OSError):
            cache.put("exhaustive-torn", result)
        monkeypatch.undo()
        cache.put("exhaustive-last", result)
        assert len(segment_paths(directory)) == 2
        reader = ResultCache(cache_dir=directory)
        assert [reader.get(key, result.spec, ExhaustiveBackend.name,
                           ExhaustiveResult) is not None
                for key in ("exhaustive-first", "exhaustive-torn",
                            "exhaustive-last")] == [True, False, True]

    def test_a_format_3_entry_is_ignored(self, tmp_path):
        directory = str(tmp_path)
        (cold,) = self._cold(directory, chips=["Titan"])
        (path,) = segment_paths(directory)
        with open(path) as handle:
            payload = json.loads(handle.read())
        os.unlink(path)
        key = payload.pop("key")
        payload["version"] = 3
        legacy = os.path.join(directory, key + ".json")
        with open(legacy, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        session = Session(cache_dir=directory)
        (again,) = session.run_specs([mp_spec("Titan")])
        assert not again.cached and session.stats.executed == 1
        assert again.histogram.counts == cold.histogram.counts
        # Left in place, not read and not deleted.
        assert os.path.exists(legacy)
        assert len(segment_paths(directory)) == 1

    def test_entries_written_after_the_first_lookup_re_execute(
            self, tmp_path):
        directory = str(tmp_path)
        early = Session(cache_dir=directory)
        run_one(early, mp_spec("Titan"))
        writer = Session(cache_dir=directory)
        written = run_one(writer, mp_spec("HD7970"))
        # ``early`` read the directory before ``writer`` appended.
        again = run_one(early, mp_spec("HD7970"))
        assert not again.cached and early.stats.executed == 2
        assert again.histogram.counts == written.histogram.counts
        third = Session(cache_dir=directory)
        hits = third.run_specs([mp_spec("Titan"), mp_spec("HD7970")])
        assert third.stats.executed == 0 and all(hit.cached for hit in hits)
        assert hits[1].histogram.counts == written.histogram.counts
        # Both copies of the entry stay valid.
        key = third._cache_key(mp_spec("HD7970"))
        copies = []
        for path in segment_paths(directory):
            with open(path, "rb") as handle:
                copies.extend(
                    decode_entry(line, key, Histogram)
                    for line in handle.read().splitlines()
                    if line.startswith(b'{"key":"%s"' % key.encode()))
        assert len(copies) == 2
        assert copies[0] == copies[1] is not None
