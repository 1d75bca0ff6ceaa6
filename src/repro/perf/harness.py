"""The pieces every ``BENCH_*.json`` benchmark shares.

One best-of timer (:func:`timed`, round-robin over the configurations
it compares, with the cyclic collector drained and paused), one
:func:`geomean`, one corpus lookup and one report writer, so the four
benchmarks measure, aggregate and record alike.
"""

import gc
import json
import math
import time
from dataclasses import asdict

from ..errors import ReproError


def geomean(values):
    """Geometric mean of positive values (0.0 for none)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def timed(runs, repeats=1):
    """Round-robin best-of-``repeats`` wall-clock of zero-argument
    callables; returns ``[(seconds, result), ...]`` in input order, with
    the fastest repeat's seconds and the last repeat's result.

    Timing each configuration's repeats back to back lets machine-state
    drift between the phases land entirely in one configuration's
    numbers and skew the ratios the reports track; interleaving samples
    every configuration under the same noise.  The collector is drained
    and paused around each call so a GC cycle triggered by an earlier
    measurement's garbage cannot land inside this one — that is how a
    warm pass used to lose to its own cold pass in the tracked reports.
    """
    best = [None] * len(runs)
    results = [None] * len(runs)
    was_enabled = gc.isenabled()
    try:
        for _ in range(max(repeats, 1)):
            for index, run in enumerate(runs):
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                results[index] = run()
                elapsed = time.perf_counter() - start
                if was_enabled:
                    gc.enable()
                if best[index] is None or elapsed < best[index]:
                    best[index] = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return [(max(seconds, 1e-9), result)
            for seconds, result in zip(best, results)]


def corpus_by_name(corpora, name):
    """Resolve a corpus name (``pinned``/``tiny``) against a benchmark's
    ``corpora`` mapping."""
    try:
        return corpora[name]
    except KeyError:
        raise ReproError("unknown perf corpus %r (expected %s)"
                         % (name, "/".join(sorted(corpora)))) from None


def rounded(mapping, digits):
    """``mapping`` with its float values rounded to ``digits``."""
    return {key: (round(value, digits) if isinstance(value, float)
                  else value)
            for key, value in mapping.items()}


def write_report(path, head, cells, summary, digits, tail=None):
    """Write one ``BENCH_*.json`` report and return its payload.

    The layout every tracked report and baseline pins: ``head``'s keys,
    ``cells`` (dataclasses, floats rounded to ``digits``), ``summary``
    as given, then ``tail``'s keys.
    """
    payload = dict(head, cells=[rounded(asdict(cell), digits)
                                for cell in cells],
                   summary=summary, **(tail or {}))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload
