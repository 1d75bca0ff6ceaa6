"""repro.perf — the performance-measurement subsystem.

Times the fast engines against their reference twins on pinned corpora
and records the repo's perf trajectory: the operational side in
``BENCH_engine.json`` (litmus cells) and ``BENCH_apps.json``
(application scenarios), the axiomatic side in ``BENCH_model.json``
and the exhaustive explorer's DPOR-vs-naive pruning factor in
``BENCH_exhaust.json``.  ``benchmarks/bench_perf.py`` writes each
report and diffs fresh ones against the tracked baselines, in CI's
perf-smoke and verify-smoke jobs.
"""

from .compare import (DEFAULT_THRESHOLD, compare_reports, load_report,
                      render_compare)
from .enginebench import (APP_CORPORA, ENGINE_CORPORA, AppBenchCell,
                          EngineBenchCell, bench_apps, bench_engines,
                          render_table, summarize, tvd, tvd_envelope)
from .exhaustbench import (EXHAUST_CORPORA, ExhaustBenchCell, bench_exhaust,
                           render_exhaust_table, summarize_exhaust)
from .harness import corpus_by_name, write_report
from .modelbench import (MODEL_CORPORA, ModelBenchCell, bench_model_engines,
                         render_model_table, summarize_model)

__all__ = [
    "DEFAULT_THRESHOLD", "compare_reports", "load_report", "render_compare",
    "APP_CORPORA", "ENGINE_CORPORA", "AppBenchCell", "EngineBenchCell",
    "bench_apps", "bench_engines", "render_table", "summarize", "tvd",
    "tvd_envelope",
    "EXHAUST_CORPORA", "ExhaustBenchCell", "bench_exhaust",
    "render_exhaust_table", "summarize_exhaust",
    "corpus_by_name", "write_report",
    "MODEL_CORPORA", "ModelBenchCell", "bench_model_engines",
    "render_model_table", "summarize_model",
]
