"""Set-up probe: what one fresh interpreter pays before real work.

Imports the CLI entry module, then builds the workload's session and
completes one minimal request of the workload's kind (one cell) on the
empty disk cache ``CACHE_DIR``, so one-off costs -- imports, model
compilation, batch lowering -- count however lazily the code loads
them.  ``run.py`` times the whole process, from spawn to exit, and
scales that time by the last line printed: the reference seconds
(``speed.py``) per wall second of the probe's work::

    python3 perfbench/probe.py WORKLOAD SEED CACHE_DIR
"""

import os
import sys
import time

from speed import ReferenceClock

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv):
    name, seed, cache_dir = argv
    start = time.perf_counter()
    with ReferenceClock() as clock:
        sys.path.insert(0, SRC)
        import repro.cli  # noqa: F401  (the entry module is the set-up)
        from workloads import WORKLOADS
        WORKLOADS[name](int(seed)).minimal_pass(cache_dir)
    print(clock() / (time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
