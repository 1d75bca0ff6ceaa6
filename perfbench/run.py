"""End-to-end benchmark of the ``soundness``, ``app-batch`` and ``verify``
campaigns, with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 17 --seconds 35 \\
        --trace 0

One workload runs as one closed-loop client in this process (see
``workloads.py``).  A run lasts about ``--seconds``, the expected
verdicts and the warm-up included, but samples at least
:data:`MIN_CYCLES` cycles.  It first makes one unmeasured minimal pass
and one probe, so what passes and probes load lazily is loaded.  With
``--trace 0`` it then interleaves:

* cold passes, each on a fresh, empty disk-cache directory (``cold_s``);
* warm passes, each with a fresh session on the last cold directory
  (``warm_s``); back-to-back warm passes are grouped into samples of at
  least :data:`WARM_SAMPLE_S` and timed per pass;
* set-up probes, each a fresh interpreter running ``probe.py``
  (``setup_s``).

Every time is in reference seconds (``speed.py``): the time the code
would have taken at a fixed CPU speed, which the clock samples while
the pass or probe runs, so a run does not measure how busy the shared
host was.  Each timing is the median of its samples; ``peak_rss_mb`` is
the peak resident memory of this process.  Garbage is collected before,
never inside, a timed pass.

With ``--trace 1`` the run times untraced cold passes for a median,
then wraps the layers of ``repro`` (``layers.py``) and runs one traced
cold and one traced warm pass, whose spans the same clock times; it
prints the per-layer metrics and writes the spans to
``.perfbench/traces/``.  ``import.*`` comes from one probe run under
``-X importtime``.

Every pass is checked (``Workload.check``) as soon as it ends; a pass
that raises, whose verdicts differ from the expected ones, or -- when
warm -- that executes any cell or differs from its cold pass, counts as
failed.  The last line of standard output is the JSON result.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from layers import PER_LAYER, TARGETS, import_metrics, layer_metrics
from speed import ReferenceClock
from tracer import Patch, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
WORK = os.path.join(ROOT, ".perfbench")

#: The seed whose verdicts ``expected.json`` records.
DEFAULT_SEED = 17

#: ``(name, unit)`` of the metrics ``--trace 0`` prints.
END_TO_END = [("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MB")]

#: Shortest warm sample, in reference seconds.  An app-batch warm pass
#: takes ~25 ms, only a few of the clock's speed samples, so a sample
#: averages many passes.
WARM_SAMPLE_S = 3.0

#: Fewest sampling cycles per run, however long the passes: a median
#: of fewer samples cannot set an outlier aside.
MIN_CYCLES = 3


class Runner:
    """Runs, times and checks the passes of one workload.

    Each pass is checked as soon as it ends.  Only the failure count, the
    problem lines and the verdicts of the latest cold pass, which the
    warm passes after it must reproduce, are kept.
    """

    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.expected, self.problems = workload.expected()
        self.attempted = self.failed = 0
        #: Session stats of the latest pass that completed.
        self.stats = None
        #: Times the passes; it runs only while one does.
        self.clock = ReferenceClock()
        self.tracer = None
        self.cold_dir = None
        self._cold_verdicts = None
        self._dirs = 0

    def warm_up(self):
        """An unchecked, untimed minimal pass and probe."""
        self.workload.minimal_pass(os.path.join(self.work, "warm-up"))
        self.probe()

    def cold(self):
        if self.cold_dir is not None:
            shutil.rmtree(self.cold_dir, ignore_errors=True)
        self._dirs += 1
        self.cold_dir = os.path.join(self.work, "cache-%d" % self._dirs)
        return self._pass("cold")

    def warm(self):
        return self._pass("warm")

    def _pass(self, kind):
        """Reference seconds one pass took, or ``None`` if it raised."""
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.label = kind
        with self.clock:
            start = self.clock()
            try:
                report, self.stats = self.workload.run_pass(self.cold_dir)
            except Exception as error:  # a failed pass; the run goes on
                if kind == "cold":
                    self._cold_verdicts = None
                self._record(["%s pass raised %s: %s"
                              % (kind, type(error).__name__, error)])
                return None
            finally:
                if self.tracer is not None:
                    self.tracer.label = None
            elapsed = self.clock() - start
        self._check(kind, self.workload.verdicts(report))
        return elapsed

    def _check(self, kind, verdicts):
        faults = self.workload.check(verdicts, self.expected)
        if kind == "cold":
            self._cold_verdicts = verdicts
        else:
            if self.stats["executed"]:
                faults.append("warm pass executed %d cells"
                              % self.stats["executed"])
            if verdicts != self._cold_verdicts:
                faults.append("warm pass differs from its cold pass")
        self._record(faults)

    def _record(self, faults):
        if faults:
            self.failed += 1
            self.problems.extend(faults)

    def warm_sample(self):
        """Mean seconds per warm pass over at least WARM_SAMPLE_S."""
        total = passes = 0
        while total < WARM_SAMPLE_S:
            seconds = self.warm()
            if seconds is None:
                return None
            total += seconds
            passes += 1
        return total / passes

    def probe(self, *python_flags):
        """Spawn a set-up probe; returns ``(seconds, scale, stderr)``:
        the reference seconds from spawn to exit, the probe's reference
        seconds per wall second, and its standard error."""
        cache_dir = os.path.join(self.work, "probe")
        command = [sys.executable, *python_flags, PROBE, self.workload.name,
                   str(self.workload.seed), cache_dir]
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        if done.returncode:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        scale = float(done.stdout.split()[-1])
        return elapsed * scale, scale, done.stderr


def _summary(name, samples):
    quartiles = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else samples * 3)
    return ("%s: median %.4f s over %d samples (quartiles %.4f, %.4f)"
            % (name, statistics.median(samples), len(samples), quartiles[0],
               quartiles[2]))


def timed_run(runner, deadline):
    """The ``--trace 0`` run: end-to-end metrics."""
    runner.warm_up()
    samples = {"setup_s": [], "cold_s": [], "warm_s": []}
    for cycle in itertools.count(1):
        started = time.perf_counter()
        for name, sample in (("cold_s", runner.cold),
                             ("warm_s", runner.warm_sample),
                             ("setup_s", lambda: runner.probe()[0])):
            value = sample()
            if value is not None:
                samples[name].append(value)
        now = time.perf_counter()
        if cycle >= MIN_CYCLES and now + (now - started) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("host speed during the passes: %.3f of the reference (mean of %d "
          "samples)" % (runner.clock.mean_speed(), runner.clock.samples))
    for name, values in samples.items():
        if not values:
            raise RuntimeError("no %s sample: every pass failed" % name)
        print(_summary(name, values))
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def traced_run(runner, deadline):
    """The ``--trace 1`` run: per-layer metrics."""
    runner.warm_up()
    untraced = []
    for cycle in itertools.count(1):
        started = time.perf_counter()
        value = runner.cold()
        if value is not None:
            untraced.append(value)
        runner.warm()
        now = time.perf_counter()
        # Leave room for the traced pair, which runs a little slower.
        if cycle >= MIN_CYCLES and now + 2 * (now - started) > deadline:
            break
    if not untraced:
        raise RuntimeError("no untraced cold pass succeeded")
    print(_summary("untraced cold_s", untraced))
    tracer = runner.tracer = Tracer(clock=runner.clock)
    with Patch(tracer, TARGETS):
        cold = runner.cold()
        stats = Counter(runner.stats)
        written = sum(entry.stat().st_size for entry in os.scandir(
            runner.cold_dir) if entry.name.endswith(".json"))
        warm = runner.warm()
        stats.update(runner.stats)
    runner.tracer = None
    if cold is None or warm is None:
        raise RuntimeError("a traced pass failed")
    _, scale, importtime = runner.probe("-X", "importtime")
    _write_spans(runner.workload, tracer)
    return layer_metrics(tracer, [cold, warm], stats,
                         cold - statistics.median(untraced),
                         import_metrics(importtime, scale), written)


def _write_spans(workload, tracer):
    """Keep the traced run's spans next to the checkout's other output."""
    directory = os.path.join(WORK, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        "%s-seed%d.json" % (workload.name, workload.seed))
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                   "spans": tracer.spans}, handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("soundness", "app-batch", "verify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: the repro sources are missing from %s" % SRC)
    sys.path.insert(0, SRC)
    # The workloads pin every knob; REPRO_* overrides must not reach
    # this process or its probes.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, os.path.join(
        WORK, "%s-%d" % (args.workload, os.getpid())))
    try:
        if args.trace:
            metrics = traced_run(runner, deadline)
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics = timed_run(runner, deadline)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    for problem in runner.problems:
        print("FAILED CHECK: %s" % problem)
    print(json.dumps({
        "correct": not runner.failed and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
