"""Tests for the application studies: spin locks and the deque."""

import pytest

from repro.api import Session
from repro.apps import build_launch_test, he_yu_lock, run_app_campaign
from repro.compiler.cuda import Kernel, Load, Store

#: High intensity stands in for the paper's stressful workloads: the app
#: bugs occur at 4-750 per 100k on hardware, far below unit-test budgets.
STRESS = 100.0


def losses(scenario, chip, runs, seed, intensity):
    """The loss count of one registry scenario cell: wrong sums, lost
    tasks or isolation violations over ``runs`` launches."""
    campaign = run_app_campaign([scenario], [chip], runs=runs, seed=seed,
                                intensity=intensity)
    return campaign.get(scenario, chip).observations


def run_launch(kernels, chip, init_mem, iterations=1, seed=0):
    """The final-state histogram of ``iterations`` plain launches."""
    return Session(cache=False).run(
        build_launch_test(kernels, init_mem), chip, incantations="none",
        iterations=iterations, seed=seed).histogram


class TestRuntime:
    def test_launch_returns_final_memory(self):
        (state,) = run_launch([Kernel([Store("x", 1)]),
                               Kernel([Load("v", "x")])], "GTX7",
                              {"x": 0}).counts
        assert state.loc("x") == 1

    def test_empty_memory_rejected(self):
        with pytest.raises(ValueError):
            build_launch_test([Kernel([Store("x", 1)])], init_mem={})

    def test_launches_deterministic(self):
        kernels = [Kernel([Store("x", 1)])]
        a = run_launch(kernels, "Titan", {"x": 0}, iterations=5, seed=1)
        b = run_launch(kernels, "Titan", {"x": 0}, iterations=5, seed=1)
        assert list(a.counts.items()) == list(b.counts.items())


class TestCudaByExampleLock:
    def test_buggy_lock_loses_updates_on_weak_chips(self):
        wrong = losses("dot-cbe", "Titan", runs=200, seed=1,
                       intensity=STRESS)
        assert wrong > 0

    def test_fenced_lock_always_correct(self):
        wrong = losses("dot-cbe+fenced", "Titan", runs=200, seed=1,
                       intensity=STRESS)
        assert wrong == 0

    def test_maxwell_unaffected(self):
        # GTX 750 orders atomics: the published lock happens to work.
        wrong = losses("dot-cbe", "GTX7", runs=200, seed=1,
                       intensity=STRESS)
        assert wrong == 0

    def test_amd_also_affected(self):
        wrong = losses("dot-cbe", "HD7970", runs=200, seed=1,
                       intensity=STRESS)
        assert wrong > 0


class TestStuartOwensLock:
    def test_exchange_is_no_substitute_for_a_fence(self):
        wrong = losses("dot-so", "Titan", runs=200, seed=2,
                       intensity=STRESS)
        assert wrong > 0

    def test_fenced_version_correct(self):
        wrong = losses("dot-so+fenced", "Titan", runs=200, seed=2,
                       intensity=STRESS)
        assert wrong == 0


class TestHeYuLock:
    def test_isolation_violated_by_published_lock(self):
        violations = losses("isolation", "Titan", runs=200, seed=1,
                            intensity=STRESS)
        assert violations > 0

    def test_fixed_lock_preserves_isolation(self):
        violations = losses("isolation+fenced", "Titan", runs=200, seed=1,
                            intensity=STRESS)
        assert violations == 0

    def test_lock_shapes(self):
        acquire, release = he_yu_lock(fixed=False)
        # The published release is a plain store followed by the useless
        # trailing fence (Fig. 10 lines 10-11).
        assert any(isinstance(s, Store) for s in release)


class TestWorkStealingDeque:
    def test_mp_bug_loses_pushed_task(self):
        lost = losses("deque-mp", "Titan", runs=300, seed=1,
                      intensity=STRESS)
        assert lost > 0

    def test_mp_bug_fixed_by_fences(self):
        lost = losses("deque-mp+fenced", "Titan", runs=300, seed=1,
                      intensity=STRESS)
        assert lost == 0

    def test_lb_bug_steals_future_push(self):
        lost = losses("deque-lb", "Titan", runs=300, seed=1,
                      intensity=STRESS)
        assert lost > 0

    def test_lb_bug_fixed_by_fences(self):
        lost = losses("deque-lb+fenced", "Titan", runs=300, seed=1,
                      intensity=STRESS)
        assert lost == 0

    def test_deque_safe_on_strong_chip(self):
        lost = losses("deque-mp", "GTX280", runs=200, seed=1,
                      intensity=STRESS)
        assert lost == 0
        lost = losses("deque-lb", "GTX280", runs=200, seed=1,
                      intensity=STRESS)
        assert lost == 0

    def test_lb_bug_on_gcn(self):
        # Fig. 8: HD7970 shows dlb-lb at 13591/100k — the strongest case.
        lost = losses("deque-lb", "HD7970", runs=300, seed=1, intensity=1.0)
        assert lost > 0
