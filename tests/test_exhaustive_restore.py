"""The two invariants behind the explorer's cheap state handling.

* **Skipped restores are exact.**  The explorer remembers which snapshot
  the live machine equals and skips restoring it.  Whenever it does, a
  full image of the live machine — thread pc/seq/registers/pending
  destinations/queue, global memory, the placed SMs' shared banks and
  the loop counts, read off the machine by this module rather than by
  the explorer — must equal the image taken when the target snapshot
  was made.  The audit also checks every restore that does run.
* **A reused explorer behaves like a fresh one.**  ``run_branch`` on one
  explorer, in any order and after an aborted branch, returns exactly
  what a fresh explorer returns for that branch, witness included —
  which is what lets :class:`~repro.exhaustive.ExhaustiveBackend` keep
  one explorer per cell per worker thread.
"""

import pickle

import pytest

from repro.apps.scenario import ScenarioSpec, get_scenario, select_scenarios
from repro.errors import ExplorationLimit
from repro.exhaustive import ExhaustiveBackend, exhaustive_session
from repro.exhaustive import backend as exhaustive_backend
from repro.exhaustive.explore import Explorer
from repro.litmus import library
from repro.perf.exhaustbench import exhaust_corpus_test
from repro.sim.chip import CHIPS, RESULT_CHIPS

#: Per-branch transition budgets of the audit.  Naive enumeration of the
#: registry's spin cells runs to millions of transitions, so its
#: branches are cut short; every restore made before the cut is still
#: audited, and the cut exercises the exception path between branches.
BUDGETS = {"dpor": 2_000_000, "naive": 1_000}


def _image(explorer):
    """The live machine state a verdict can depend on."""
    memory = explorer.memory
    placed = sorted({thread.sm for thread in explorer.threads})
    return (tuple((thread.pc, thread.seq, dict(thread.regs),
                   set(thread.pending), list(thread.queue))
                  for thread in explorer.threads),
            dict(memory.global_mem),
            [dict(memory.shared_mem[sm]) for sm in placed],
            list(explorer._loop_counts))


class _Audit:
    """Checks every restore of every explorer against the image of the
    live machine at the time its target was snapshotted."""

    def __init__(self, monkeypatch):
        self.images = {}
        self.skipped = self.restored = 0
        snapshot, restore = Explorer._snapshot, Explorer._restore

        def audited_snapshot(explorer):
            taken = snapshot(explorer)
            # Keep the snapshot alive so its id is never reused.
            self.images[id(taken)] = (taken, _image(explorer))
            return taken

        def audited_restore(explorer, target):
            want = self.images[id(target)][1]
            if target is explorer._live:
                self.skipped += 1
                assert _image(explorer) == want, "skipped restore not exact"
            else:
                self.restored += 1
            restore(explorer, target)
            assert _image(explorer) == want, "restore not exact"

        monkeypatch.setattr(Explorer, "_snapshot", audited_snapshot)
        monkeypatch.setattr(Explorer, "_restore", audited_restore)

    def explore(self, test, chip, strategy):
        """Every root branch of one cell on one explorer."""
        explorer = Explorer(test, chip, strategy=strategy,
                            max_transitions=BUDGETS[strategy])
        for index in range(len(explorer.root_plan())):
            try:
                explorer.run_branch(index)
            except ExplorationLimit:
                pass
        self.images.clear()


CORPORA = {
    "registry": lambda: [scenario.test()
                         for scenario in select_scenarios(["all"])],
    "library": lambda: [library.build(name)
                        for name in sorted(library.PAPER_TESTS)],
}


@pytest.mark.parametrize("strategy", ("dpor", "naive"))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_skipped_restores_are_exact(monkeypatch, corpus, strategy):
    audit = _Audit(monkeypatch)
    for test in CORPORA[corpus]():
        for chip in RESULT_CHIPS:
            audit.explore(test, CHIPS[chip], strategy)
    # Most restores return to the frame just snapshotted.
    assert audit.skipped > audit.restored > 0


def test_shared_banks_of_placed_sms_are_audited():
    # The library corpus above covers shared memory through these two.
    for name in ("mp-volatile", "SB-fig12"):
        explorer = Explorer(library.build(name), CHIPS["HD7970"])
        assert explorer.memory.shared_addrs
        assert len(explorer.memory.shared_mem) > len(explorer._banks) > 0


#: ``(cell, chip, strategy)``; naive enumeration of mp-pad4 on Titan
#: runs past the default budget, so that cell is taken under DPOR only.
MULTI_BRANCH_CELLS = [
    (name, chip, strategy)
    for name, chip in (("dot-cbe", "Titan"), ("deque-mp", "Titan"),
                       ("isolation", "HD7970"), ("ticket+fenced", "GTX6"),
                       ("mp-volatile", "Titan"))
    for strategy in ("dpor", "naive")] + [("mp-pad4", "Titan", "dpor")]


def _cell_test(name):
    if name == "mp-pad4":
        return exhaust_corpus_test("litmus", name)
    if name in library.PAPER_TESTS:
        return library.build(name)
    return get_scenario(name).test()


@pytest.mark.parametrize("name,chip,strategy", MULTI_BRANCH_CELLS)
def test_reused_explorer_matches_fresh_explorers(name, chip, strategy):
    test, chip = _cell_test(name), CHIPS[chip]
    branches = len(Explorer(test, chip).root_plan())
    assert branches > 1
    fresh = [Explorer(test, chip, strategy=strategy).run_branch(index)
             for index in range(branches)]
    assert any(result.transitions for result in fresh)
    for order in (range(branches), reversed(range(branches))):
        reused = Explorer(test, chip, strategy=strategy)
        for index in order:
            assert reused.run_branch(index) == fresh[index], (index, order)


def test_explorer_reused_after_an_aborted_branch_matches_fresh():
    test, chip = get_scenario("deque-mp").test(), CHIPS["Titan"]
    # The branches explore 16, 40 and 1 transitions: at 30 the second
    # aborts while the others complete.
    budget = 30
    outcomes = []
    for index in range(len(Explorer(test, chip).root_plan())):
        try:
            outcomes.append(Explorer(test, chip, max_transitions=budget)
                            .run_branch(index))
        except ExplorationLimit:
            outcomes.append(ExplorationLimit)
    assert ExplorationLimit in outcomes and any(
        outcome is not ExplorationLimit for outcome in outcomes)
    reused = Explorer(test, chip, max_transitions=budget)
    for order in (range(len(outcomes)), reversed(range(len(outcomes)))):
        for index in order:
            if outcomes[index] is ExplorationLimit:
                with pytest.raises(ExplorationLimit):
                    reused.run_branch(index)
            else:
                assert reused.run_branch(index) == outcomes[index]


def test_serial_session_compiles_each_cell_once(monkeypatch):
    built = []

    class Counting(Explorer):
        def __init__(self, *args, **kwargs):
            built.append(args[0].name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(exhaustive_backend, "Explorer", Counting)
    specs = [ScenarioSpec(scenario=get_scenario(name), chip=CHIPS[chip],
                          iterations=1, seed=0, intensity=1.0)
             for name in ("deque-mp", "isolation", "dot-cbe")
             for chip in ("Titan", "HD7970")]
    session = exhaustive_session(jobs=1, cache=False)
    session.run_specs(specs)
    assert session.stats.shards_executed > 2 * len(specs)
    assert len(built) == len(specs)


def test_backend_memo_holds_one_cell_and_is_dropped_on_pickling():
    backend = ExhaustiveBackend()
    first = ScenarioSpec(scenario=get_scenario("deque-mp"),
                         chip=CHIPS["Titan"], iterations=1, seed=0,
                         intensity=1.0)
    explorer = backend._explorer(first)
    assert backend._explorer(first) is explorer
    assert len(backend.shards(first, 1)) > 1
    assert backend._explorer(first) is explorer
    # Seed and iteration count do not change the cell.
    twin = ScenarioSpec(scenario=first.scenario, chip=first.chip,
                        iterations=7, seed=3, intensity=1.0)
    assert backend._explorer(twin) is explorer
    other = ScenarioSpec(scenario=first.scenario, chip=CHIPS["GTX6"],
                         iterations=1, seed=0, intensity=1.0)
    assert backend._explorer(other) is not explorer
    assert backend._explorer(first) is not explorer
    clone = pickle.loads(pickle.dumps(backend))
    assert getattr(clone._local, "memo", None) is None
    assert clone.run_shard(first, backend.shards(first, 1)[0]) \
        == backend.run_shard(first, backend.shards(first, 1)[0])
