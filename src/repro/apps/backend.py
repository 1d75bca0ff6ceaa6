"""The application backend: scenario campaigns on the campaign stack.

A scenario compiles to a launch-shaped litmus test, so
:class:`AppBackend` is the :class:`~repro.api.backends.SimBackend` with
scenario cells: sharded parallel execution, two-tier result caching,
in-plan deduplication, the ``fast``/``batch``/``reference`` engine
switch, the compiled-cell memo and the cross-worker plan store all come
from it unchanged.  What differs:

* **lowering** — a cell runs at ``spec.intensity`` (the stress
  multiplier standing in for incantations) on the scope tree's own
  placement, and the intensity keys the memo and the ``app-batch`` plan
  signatures;
* **sharding** — :data:`DEFAULT_APP_SHARD_SIZE` launches per shard;
  shard 0 runs on the spec's own seed, so a single-shard campaign cell
  consumes the exact ``Random`` stream of ``Grid.launch_many``;
* **projection** — each shard's raw histogram is folded onto the
  scenario's observable locations before it leaves the backend, so the
  cache stores (and campaigns merge) the projected outcome histograms
  the loss predicates read;
* **exact tier** — :meth:`AppBackend.exact` answers a cell without
  sampling when an early-stopping DPOR probe
  (:meth:`repro.exhaustive.explore.Explorer.probe`) shows every
  execution reaches one projected final state: every engine's histogram
  is then that state counted once per launch, for any seed.
"""

from ..api.backends import SimBackend
from ..api.result import ShardResult
from ..harness.histogram import Histogram

#: Default launches per shard.  Application launches are an order of
#: magnitude slower than litmus iterations (spin loops, multi-statement
#: critical sections), so app campaigns shard finer than the sim
#: backend's 25k: a paper-scale 100k-launch cell splits into ten
#: parallelisable shards while every interactive/test-sized cell still
#: fits in one shard and reproduces the serial driver stream exactly.
#: The batch engine sizes its own chunks adaptively from the cell's
#: retirement profile (see :func:`repro.sim.batch.compile_batch_cell`),
#: so the shard is a pure parallelism granule — wide shards keep the
#: numpy lockstep dense instead of fragmenting it.
DEFAULT_APP_SHARD_SIZE = 10000


class AppBackend(SimBackend):
    """Scenario execution on the simulated chips (Secs. 3.2, 6-7)."""

    name = "app"

    #: Compiled-cell memo cap per worker thread.
    MAX_COMPILED = 128

    def __init__(self, shard_size=DEFAULT_APP_SHARD_SIZE):
        super().__init__(shard_size)

    def cache_signature(self, spec):
        """Fingerprint plus engine — same rationale as the sim backend:
        the fingerprint stays engine-neutral, but a histogram cached by
        one engine must never mask a divergence in another (and batch
        histograms are only distribution-equivalent)."""
        return "%s-%s" % (spec.fingerprint(), spec.engine)

    def _lowering(self, spec):
        return spec.intensity, False, spec.intensity

    def _project(self, spec, histogram):
        return spec.scenario.project_histogram(histogram)

    def exact(self, spec):
        """``{s: launches}`` when a complete DPOR exploration of the cell
        reaches the single projected final state ``s``, else ``None``.

        Every engine samples inside the explorer's reachable set (the
        structural-intent argument of :mod:`repro.exhaustive.explore`,
        enforced by the differential tests), so there every engine's
        histogram is ``{s: launches}`` whatever the seed.  The probe
        gives up at a second projected state, a loop-bound hit or past
        ``launches`` x the cell's static op count transitions, fewer
        than sampling the launches would issue.
        """
        # Local import: the exhaustive package sits above the apps layer.
        from ..exhaustive.explore import Explorer
        explorer = Explorer(spec.test, spec.chip, intensity=spec.intensity)
        state = explorer.probe(spec.scenario.project,
                               spec.iterations * explorer.static_ops)
        if state is None:
            return None
        return ShardResult(Histogram({state: spec.iterations}))
