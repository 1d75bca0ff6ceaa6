"""Published GPU applications the paper studies, on the simulator.

Three layers:

* :mod:`~repro.apps.runtime` — the mini CUDA runtime
  (:func:`build_launch_test`), which lowers kernels into a launch-shaped
  litmus test;
* :mod:`~repro.apps.scenario` — the declarative scenario corpus
  (kernels from :mod:`~repro.apps.deque` and
  :mod:`~repro.apps.spinlock` + init memory + placement + projection +
  loss predicate) and its registry;
* :mod:`~repro.apps.campaign` / :mod:`~repro.apps.backend` — scenario
  campaigns on the sharded, memoising ``repro.api`` Session stack.
  :func:`run_app_campaign` is the one way to run scenarios (a single
  cell is a one-scenario, one-chip campaign), and :class:`AppBackend`
  is the sim backend with a scenario's intensity and projection.
"""

from .deque import (owner_roundtrip_kernel, pop_then_push_kernel,
                    push_kernel, steal_kernel, thief_roundtrip_kernel)
from .runtime import build_launch_test
from .spinlock import (LOCKS, cuda_by_example_lock, he_yu_lock,
                       stuart_owens_lock, ticket_kernel)
from .scenario import (DEFAULT_RUNS, FAMILIES, SCENARIOS, STRESS, Scenario,
                       ScenarioSpec, dot_product_scenario, get_scenario,
                       select_scenarios)
from .backend import DEFAULT_APP_SHARD_SIZE, AppBackend
from .campaign import app_matrix, app_session, run_app_campaign

__all__ = [
    "owner_roundtrip_kernel", "pop_then_push_kernel", "push_kernel",
    "steal_kernel", "thief_roundtrip_kernel",
    "build_launch_test",
    "LOCKS", "cuda_by_example_lock", "he_yu_lock", "stuart_owens_lock",
    "ticket_kernel",
    "DEFAULT_RUNS", "FAMILIES", "SCENARIOS", "STRESS", "Scenario",
    "ScenarioSpec", "dot_product_scenario", "get_scenario",
    "select_scenarios",
    "DEFAULT_APP_SHARD_SIZE", "AppBackend",
    "app_matrix", "app_session", "run_app_campaign",
]
