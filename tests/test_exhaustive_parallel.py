"""Property tests for branch-sharded parallel exploration.

The determinism invariant the parallel mode rests on: an exploration's
root plan is a pure function of the cell, every ``root_plan()`` entry
is an independent sub-exploration, and merging the per-branch results
in shard-index order reproduces the serial exploration bit for bit.
Therefore ``--jobs N`` — any N, thread or process pool — must yield
byte-identical reachable sets, transition counts and witness verdicts to
``--jobs 1`` over any corpus.  These tests sweep jobs in {1, 2, 4}
against both executor kinds on a randomized diy corpus on a weak chip
(Titan) and the in-order control (GTX280), plus the scenario registry
cells the paper's claims hang on.
"""

import pytest

from repro.api.result import ShardResult
from repro.api.spec import RunSpec
from repro.apps.scenario import ScenarioSpec, get_scenario
from repro.diy import (default_pool, fences_from_names, generate_tests,
                       scopes_from_names)
from repro.exhaustive import (ExhaustiveBackend, exhaustive_session,
                              exhaustive_verdict)
from repro.exhaustive.explore import Explorer
from repro.perf.exhaustbench import balance_bound, exhaust_corpus_test
from repro.sim import CHIPS

PARALLEL_CONFIGS = ((1, "thread"), (2, "thread"), (4, "thread"),
                    (2, "process"), (4, "process"))


def diy_corpus(max_tests=8):
    """A small deterministic diy corpus (seeded pool, fixed order)."""
    pool = default_pool(scopes=scopes_from_names(["dev", "cta"]),
                        fences=fences_from_names(["cta", "gl"]))
    return generate_tests(pool, max_length=4, max_tests=max_tests)


class TestParallelBitIdentity:
    @pytest.mark.parametrize("chip_short", ("Titan", "GTX280"))
    def test_diy_corpus_identical_across_jobs_and_executors(self,
                                                            chip_short):
        chip = CHIPS[chip_short]
        specs = [RunSpec.make(test, chip, iterations=1, seed=0)
                 for test in diy_corpus()]
        baseline = None
        for jobs, executor in PARALLEL_CONFIGS:
            session = exhaustive_session(jobs=jobs, executor=executor,
                                         cache=False)
            got = [result.answer for result in session.run_specs(specs)]
            if baseline is None:
                baseline = got
            else:
                assert got == baseline, (jobs, executor)

    def test_scenario_verdicts_identical_across_pools(self):
        specs = [ScenarioSpec(scenario=get_scenario(name),
                              chip=CHIPS["Titan"], iterations=1, seed=0,
                              intensity=1.0)
                 for name in ("deque-mp", "ticket", "isolation+fenced")]
        baseline = None
        for jobs, executor in PARALLEL_CONFIGS:
            session = exhaustive_session(jobs=jobs, executor=executor,
                                         cache=False)
            verdicts = [exhaustive_verdict(result)
                        for result in session.run_specs(specs)]
            if baseline is None:
                baseline = verdicts
            else:
                assert verdicts == baseline, (jobs, executor)

    def test_wide_cell_parallel_matches_serial_exploration(self):
        # The cell the rework exists for: mp-pad4 on Titan, previously
        # over the 2M-transition budget, now 12 balanced branches.
        test = exhaust_corpus_test("litmus", "mp-pad4")
        chip = CHIPS["Titan"]
        serial = Explorer(test, chip).run()
        spec = RunSpec.make(test, chip, iterations=1, seed=0)
        session = exhaustive_session(jobs=4, executor="process",
                                     cache=False)
        verdict = exhaustive_verdict(session.run(spec))
        assert verdict.transitions == serial.transitions
        assert verdict.reachable == serial.reachable
        assert verdict.losses == serial.losses
        assert verdict.bounded == serial.bounded
        assert verdict == serial


class TestBranchPartition:
    @pytest.mark.parametrize("cell", (("litmus", "iriw", "Titan"),
                                      ("litmus", "mp-pad4", "Titan"),
                                      ("scenario", "deque-mp", "Titan")))
    def test_merged_branches_equal_full_run(self, cell):
        # The branches run in reverse plan order on one explorer, as a
        # pool worker reusing its explorer may run them: no branch may
        # depend on what the explorer explored before it.
        kind, name, chip_short = cell
        test = exhaust_corpus_test(kind, name)
        chip = CHIPS[chip_short]
        explorer = Explorer(test, chip)
        full = explorer.run()
        plan = explorer.root_plan()
        reachable = set()
        executions = transitions = losses = 0
        bounded = False
        for index in reversed(range(len(plan))):
            branch = explorer.run_branch(index)
            reachable |= branch.reachable
            executions += branch.executions
            transitions += branch.transitions
            losses += branch.losses
            bounded = bounded or branch.bounded
        assert frozenset(reachable) == full.reachable
        assert executions == full.executions
        assert transitions == full.transitions
        assert losses == full.losses
        assert bounded == full.bounded

    def test_backend_shards_mirror_the_root_plan(self):
        test = exhaust_corpus_test("litmus", "mp-pad4")
        chip = CHIPS["Titan"]
        spec = RunSpec.make(test, chip, iterations=1, seed=0)
        backend = ExhaustiveBackend()
        shards = backend.shards(spec, shard_size=0)
        assert len(shards) == len(Explorer(test, chip).root_plan())
        assert all(shard.iterations == 0 for shard in shards)
        # Merging the per-shard results in any order reproduces the
        # backend's own (serial) answer, and its witness.
        merged = ShardResult.merge(backend.run_shard(spec, shard)
                                   for shard in reversed(shards))
        serial = backend.run(spec)
        assert merged.answer == serial.answer
        assert merged.answer.witness == Explorer(test, chip).run().witness

    def test_wide_cells_balance_at_four_workers(self):
        # The deterministic load-balance bound of the branch partition
        # — the machine-independent form of the "near-linear scaling on
        # the widest cells" acceptance line.
        test = exhaust_corpus_test("litmus", "mp-pad4")
        chip = CHIPS["Titan"]
        explorer = Explorer(test, chip)
        work = [explorer.run_branch(index).transitions
                for index in range(len(explorer.root_plan()))]
        assert balance_bound(work, 4) >= 2.5
