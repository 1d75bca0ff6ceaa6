"""Iteration counts of the litmus runner (Sec. 4.2).

The paper's testing tool runs each litmus test 100k times and reports
the histogram of observed outcomes.  Running a test is
:meth:`repro.api.Session.run` (one cell) or
:meth:`repro.api.Session.campaign` (a test x chip grid); this module
holds the iteration counts they default to.
"""

from .._util import env_int

#: The paper's iteration count per test.
PAPER_ITERATIONS = 100000


def default_iterations(fallback=10000):
    """Iteration count for benchmarks: ``REPRO_ITERS`` env or ``fallback``.

    A non-integer value fails fast with a clear
    :class:`~repro.errors.ConfigurationError`.
    """
    return env_int("REPRO_ITERS", fallback)
