"""The layers of ``repro`` the traced run measures, and their metrics.

:data:`TARGETS` lists the public functions and methods wrapped at each
layer boundary -- at cell, shard or branch granularity, never per
iteration.  A span is named after the metric its *self* time feeds, so a
layer's ``*_s`` metrics are the sums of its spans' self seconds over the
traced cold and warm pass.  Counts are exact: those the sessions already
keep (:class:`~repro.api.session.SessionStats`) are read from the
passes' stats, the others are taken in the wrappers, where the work
happens.

:data:`PER_LAYER` declares every per-layer metric with its unit, which
way is better, the end-to-end metric it should move and the workloads it
does work on (a layer reports 0 on a workload it is idle in).  It is the
table later changes cite by name; ``BENCHMARK.json`` lists the same
names and units.
"""

import re

from tracer import Target, self_times

#: The three workloads, for rows that apply to all of them.
ALL = ("soundness", "app-batch", "verify")

#: ``(name, unit, better, should move, workloads it works on)``.
PER_LAYER = [
    ("import.total_s", "s", "lower", "setup_s", ALL),
    ("import.numpy_s", "s", "lower", "setup_s", ALL),
    ("import.modules", "count", "lower", "setup_s", ALL),
    ("diy.generate_s", "s", "lower", "cold_s warm_s", ("soundness",)),
    ("diy.tests", "count", "lower", "cold_s warm_s", ("soundness",)),
    ("api.session.self_s", "s", "lower", "cold_s warm_s", ALL),
    ("api.session.specs", "count", "lower", "cold_s warm_s", ALL),
    ("api.session.executed", "count", "lower", "cold_s warm_s", ALL),
    ("api.session.cache_hits", "count", "higher", "cold_s warm_s", ALL),
    ("api.session.shards", "count", "lower", "cold_s warm_s", ALL),
    ("api.spec.fingerprint_s", "s", "lower", "warm_s",
     ("app-batch", "soundness")),
    ("api.spec.fingerprints", "count", "lower", "warm_s",
     ("app-batch", "soundness")),
    ("api.cache.put_s", "s", "lower", "cold_s", ALL),
    ("api.cache.get_s", "s", "lower", "warm_s", ALL),
    ("api.cache.entries", "count", "lower", "cold_s", ALL),
    ("api.cache.bytes_written", "bytes", "lower", "cold_s", ALL),
    ("api.cache.hit_ratio", "ratio", "higher", "warm_s", ALL),
    ("api.conformance.self_s", "s", "lower", "cold_s", ("soundness",)),
    ("sim.compile.lower_s", "s", "lower", "cold_s", ("soundness", "verify")),
    ("sim.compile.cells", "count", "lower", "cold_s",
     ("soundness", "verify")),
    ("sim.engine.run_s", "s", "lower", "cold_s", ("soundness",)),
    ("sim.engine.iterations", "count", "lower", "cold_s", ("soundness",)),
    ("sim.engine.iter_per_s", "1/s", "higher", "cold_s", ("soundness",)),
    ("sim.batch.lower_s", "s", "lower", "cold_s", ("app-batch",)),
    ("sim.batch.run_many_s", "s", "lower", "cold_s", ("app-batch",)),
    ("sim.batch.cells", "count", "lower", "cold_s", ("app-batch",)),
    ("sim.batch.launches", "count", "lower", "cold_s", ("app-batch",)),
    ("sim.batch.launches_per_s", "1/s", "higher", "cold_s", ("app-batch",)),
    ("sim.plancache.get_s", "s", "lower", "cold_s", ("app-batch",)),
    ("sim.plancache.put_s", "s", "lower", "cold_s", ("app-batch",)),
    ("sim.plancache.hits", "count", "higher", "cold_s", ("app-batch",)),
    ("sim.plancache.misses", "count", "lower", "cold_s", ("app-batch",)),
    ("model.enumerate_s", "s", "lower", "cold_s", ("soundness",)),
    ("model.enumerations", "count", "lower", "cold_s", ("soundness",)),
    ("apps.campaign_self_s", "s", "lower", "cold_s", ("app-batch",)),
    ("apps.project_s", "s", "lower", "cold_s", ("app-batch",)),
    ("exhaustive.explore.build_s", "s", "lower", "cold_s", ("verify",)),
    ("exhaustive.explore.root_plan_s", "s", "lower", "cold_s", ("verify",)),
    ("exhaustive.explore.branch_s", "s", "lower", "cold_s", ("verify",)),
    ("exhaustive.explore.branches", "count", "lower", "cold_s", ("verify",)),
    ("exhaustive.explore.transitions", "count", "lower", "cold_s",
     ("verify",)),
    ("exhaustive.explore.executions", "count", "lower", "cold_s",
     ("verify",)),
    ("exhaustive.explore.bounded_cells", "count", "lower", "cold_s",
     ("verify",)),
    ("exhaustive.verify.self_s", "s", "lower", "cold_s warm_s", ("verify",)),
    ("exhaustive.verify.witness_s", "s", "lower", "cold_s warm_s",
     ("verify",)),
    ("exhaustive.verify.witnesses", "count", "lower", "cold_s warm_s",
     ("verify",)),
    ("exhaustive.backend.codec_s", "s", "lower", "cold_s warm_s",
     ("verify",)),
    ("report.render_s", "s", "lower", "cold_s warm_s", ALL),
    ("trace.unattributed_s", "s", "lower", "none", ALL),
    ("trace.overhead_s", "s", "lower", "none", ALL),
]


# -- counters, each run in the wrapper of the call that did the work --------

def _calls(key):
    def count(tracer, args, result):
        tracer.counts[key] += 1
    return count


def _count_tests(tracer, args, result):
    tracer.counts["diy.tests"] += len(result)


def _count_run_batch(tracer, args, result):
    # A machine with run_many is a batch cell, counted there.
    if not hasattr(args[0], "run_many"):
        tracer.counts["sim.engine.iterations"] += args[1]


def _count_run_many(tracer, args, result):
    tracer.counts["sim.batch.launches"] += args[1]


def _count_branch(tracer, args, result):
    explorer = args[0]
    tracer.counts["exhaustive.explore.branches"] += 1
    tracer.counts["exhaustive.explore.transitions"] += result.transitions
    tracer.counts["exhaustive.explore.executions"] += result.executions
    if result.bounded:
        tracer.distinct["exhaustive.explore.bounded_cells"].add(
            (explorer.test.name, explorer.chip.short))


_FINGERPRINT = "api.spec.fingerprint_s"
_RENDER = "report.render_s"
_CODEC = "exhaustive.backend.codec_s"

TARGETS = [
    Target("repro.diy.generate", "generate_tests", "diy.generate_s",
           _count_tests),
    Target("repro.api.session", "Session.run_specs", "api.session.self_s"),
    Target("repro.api.spec", "RunSpec.fingerprint", _FINGERPRINT),
    Target("repro.apps.scenario", "ScenarioSpec.fingerprint", _FINGERPRINT),
    Target("repro.api.backends", "SimBackend.cache_signature", _FINGERPRINT),
    Target("repro.api.backends", "ModelBackend.cache_signature",
           _FINGERPRINT),
    Target("repro.apps.backend", "AppBackend.cache_signature", _FINGERPRINT),
    Target("repro.exhaustive.backend", "ExhaustiveBackend.cache_signature",
           _FINGERPRINT),
    Target("repro.api.cache", "ResultCache.get", "api.cache.get_s"),
    Target("repro.api.cache", "ResultCache.put", "api.cache.put_s",
           _calls("api.cache.entries")),
    Target("repro.api.conformance", "run_soundness",
           "api.conformance.self_s"),
    Target("repro.sim.compile", "compile_cell", "sim.compile.lower_s",
           _calls("sim.compile.cells")),
    Target("repro.sim.engine", "run_batch", "sim.engine.run_s",
           _count_run_batch),
    Target("repro.sim.batch", "compile_batch_cell", "sim.batch.lower_s",
           _calls("sim.batch.cells")),
    Target("repro.sim.batch", "BatchCell.run_many", "sim.batch.run_many_s",
           _count_run_many),
    Target("repro.sim.plancache", "PlanStore.get", "sim.plancache.get_s"),
    Target("repro.sim.plancache", "PlanStore.put", "sim.plancache.put_s"),
    Target("repro.model.models", "AxiomaticModel.allowed_outcomes",
           "model.enumerate_s", _calls("model.enumerations")),
    Target("repro.apps.campaign", "run_app_campaign", "apps.campaign_self_s"),
    Target("repro.apps.scenario", "Scenario.project_histogram",
           "apps.project_s"),
    Target("repro.exhaustive.explore", "Explorer.__init__",
           "exhaustive.explore.build_s"),
    Target("repro.exhaustive.explore", "Explorer.root_plan",
           "exhaustive.explore.root_plan_s"),
    Target("repro.exhaustive.explore", "Explorer.run_branch",
           "exhaustive.explore.branch_s", _count_branch),
    Target("repro.exhaustive.verify", "verify_scenarios",
           "exhaustive.verify.self_s"),
    Target("repro.exhaustive.explore", "explore_test",
           "exhaustive.verify.witness_s",
           _calls("exhaustive.verify.witnesses")),
    Target("repro.exhaustive.backend", "encode_exhaustive_histogram", _CODEC),
    Target("repro.exhaustive.backend", "exhaustive_verdict", _CODEC),
    Target("repro.api.conformance", "ConformanceReport.summary_table",
           _RENDER),
    Target("repro.api.conformance", "ConformanceReport.coverage_table",
           _RENDER),
    Target("repro.api.conformance", "ConformanceReport.summary", _RENDER),
    Target("repro.api.result", "CampaignResult.summary_table", _RENDER),
    Target("repro.api.result", "CampaignResult.summary", _RENDER),
    Target("repro.exhaustive.verify", "VerifyReport.lines", _RENDER),
]

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_metrics(stderr, scale=1.0):
    """``import.*`` metrics from an interpreter's ``-X importtime`` log,
    its wall times multiplied by ``scale``."""
    total_us = numpy_us = modules = 0
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cumulative_us, _, package = match.groups()
        total_us += int(self_us)
        modules += 1
        if package == "numpy":
            numpy_us = int(cumulative_us)
    return {"import.total_s": total_us / 1e6 * scale,
            "import.numpy_s": numpy_us / 1e6 * scale,
            "import.modules": modules}


#: Per-layer counts that are :class:`~repro.api.session.SessionStats`
#: fields.
_SESSION_COUNTS = {"api.session.specs": "planned",
                   "api.session.executed": "executed",
                   "api.session.cache_hits": "cache_hits",
                   "api.session.shards": "shards_executed",
                   "sim.plancache.hits": "plan_cache_hits",
                   "sim.plancache.misses": "plan_cache_misses"}


def layer_metrics(tracer, pass_seconds, stats, overhead_s, imports,
                  bytes_written):
    """Every :data:`PER_LAYER` metric of one traced run.

    ``pass_seconds`` are the times of the traced passes, on the spans'
    clock; the part of them no span covers is ``trace.unattributed_s``.  ``stats`` sums the
    session stats of those passes.
    """
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {name: selfs.get(name, 0.0)
               for name, unit, *_ in PER_LAYER if unit == "s"}
    metrics.update({name: counts[name]
                    for name, unit, *_ in PER_LAYER if unit == "count"})
    metrics.update({name: stats[field]
                    for name, field in _SESSION_COUNTS.items()})
    metrics.update(imports)
    metrics["api.spec.fingerprints"] = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == _FINGERPRINT
        and (parent < 0 or tracer.spans[parent][0] != _FINGERPRINT))
    metrics["api.cache.bytes_written"] = bytes_written
    # Serial sessions look every spec up once, and execute each miss.
    metrics["api.cache.hit_ratio"] = (
        stats["cache_hits"] / max(stats["cache_hits"] + stats["executed"], 1))
    metrics["exhaustive.explore.bounded_cells"] = len(
        tracer.distinct["exhaustive.explore.bounded_cells"])
    metrics["sim.engine.iter_per_s"] = _rate(
        counts["sim.engine.iterations"], metrics["sim.engine.run_s"])
    metrics["sim.batch.launches_per_s"] = _rate(
        counts["sim.batch.launches"], metrics["sim.batch.run_many_s"])
    metrics["trace.unattributed_s"] = sum(pass_seconds) - sum(selfs.values())
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
