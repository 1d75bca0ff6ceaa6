"""Steadiness report: is each end-to-end metric repeatable within the
bounds ``BENCHMARK.json`` gives it?

Runs every workload ``--runs`` times in a row (seeds ``--seed``,
``--seed`` + 1, ...; ``run_seconds`` from ``BENCHMARK.json``) and
prints, for each workload and end-to-end metric, the median of the
runs, their quartiles, the spread -- the distance between the quartiles
as a share of the median -- and a verdict against the metric's bound:
``steady`` when the spread is within a third of the bound, ``ok``
within the bound, ``NOISY`` beyond it.  ``--save`` keeps the runs;
``--compare`` judges the shift of each median from a saved set's, in
either direction, against the bound, the way two sets of runs of the
same code must agree.  Exits 1 when a verdict fails or a run is
incorrect::

    python3 perfbench/steadiness.py --runs 10 --save first.json
    python3 perfbench/steadiness.py --runs 10 --compare first.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if done.returncode:
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run (default 1)")
    parser.add_argument("--save", help="write the runs' metrics here")
    parser.add_argument("--compare", help="a file written by --save")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    workloads = [workload["name"] for workload in benchmark["workloads"]]
    values = {workload: {} for workload in workloads}
    ok = True
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            result = run_once(workload, seed, benchmark["run_seconds"])
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.4g" % (name, metric["value"])
                         for name, metric in result["metrics"].items())),
                flush=True)
    previous = {}
    if args.compare:
        with open(args.compare) as handle:
            previous = json.load(handle)

    print("\n%-10s %-12s %10s %10s %10s %7s %6s  %s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "bound",
             "verdict"))
    for workload, metrics in values.items():
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            median, q1, q3, share = spread(metrics[name])
            verdict = ("steady" if share <= bound / 3
                       else "ok" if share <= bound else "NOISY")
            ok &= share <= bound
            before = previous.get(workload, {}).get(name)
            if before:
                old = statistics.median(before)
                shift = (median - old) / old
                verdict += ", %+.1f%% vs saved: %s" % (
                    100 * shift, "ok" if abs(shift) <= bound else "DIFFERS")
                ok &= abs(shift) <= bound
            print("%-10s %-12s %10.4f %10.4f %10.4f %6.1f%% %6.2f  %s"
                  % (workload, name, median, q1, q3, 100 * share, bound,
                     verdict))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(values, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
