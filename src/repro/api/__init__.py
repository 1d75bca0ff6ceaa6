"""repro.api — the unified execution front door.

Everything that *runs* litmus tests goes through this package: the CLI,
the harness's backwards-compatible wrappers and the figure benchmarks
all build :class:`RunSpec` plans and hand them to a :class:`Session`,
which shards the work across a pool, merges histograms
deterministically and memoises completed specs by content fingerprint.

Quick tour::

    from repro.api import Session
    from repro.litmus import library

    session = Session(jobs=4, cache_dir="~/.repro-cache")
    result = session.run(library.build("mp"), "Titan", iterations=100000)
    print(result.summary())

    # Each session sets the engine of its backend once ("fast" compiled
    # cells by default, "reference" for the generic interpreter), and
    # every spec it builds carries it; histograms are bit-identical
    # either way.  A prepared RunSpec keeps its own engine.
    slow = Session(engine="reference")

    campaign = session.campaign(
        [library.build(name) for name in ("mp", "lb", "sb")],
        ["Titan", "GTX6", "HD7970"])
    print(campaign.summary_table())

    # Same request shape against the axiomatic model:
    checker = Session(backend="model:ptx")
    print(checker.run(library.build("mp"), "Titan").allowed)

    # The Sec. 5.4 soundness campaign — sim vs model over a corpus:
    from repro.api.conformance import run_soundness
    report = run_soundness(tests, ["TesC", "GTX6", "Titan", "GTX7"],
                           jobs=4, cache_dir=".repro-cache")
    assert report.ok, report.violation_lines()
"""

from .backends import (Backend, DEFAULT_SHARD_SIZE, ModelBackend, Shard,
                       SimBackend, make_backend, plan_shards, shard_seed)
from .cache import ResultCache, cache_key
from .conformance import (CellConformance, ConformanceReport, Violation,
                          run_soundness, uniquify_tests)
from .result import CampaignResult, ShardResult, SpecResult
from .session import DEFAULT_CHUNK_SIZE, Session, SessionStats
from .spec import (BEST, RunSpec, matrix, parse_incantations,
                   resolve_chip, resolve_incantations)

__all__ = [
    "Backend", "DEFAULT_SHARD_SIZE", "ModelBackend", "Shard", "SimBackend",
    "make_backend", "plan_shards", "shard_seed",
    "ResultCache", "cache_key",
    "CellConformance", "ConformanceReport", "Violation", "run_soundness",
    "uniquify_tests",
    "CampaignResult", "ShardResult", "SpecResult",
    "DEFAULT_CHUNK_SIZE", "Session", "SessionStats",
    "BEST", "RunSpec", "matrix", "parse_incantations", "resolve_chip",
    "resolve_incantations",
]
