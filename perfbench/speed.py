"""A clock that ticks in reference seconds, so timings do not follow the
speed of a shared host.

On a shared host a vCPU's speed changes from one second to the next --
on a 2-vCPU Intel Xeon VM a fixed pure-Python loop ran anywhere from 1x
to 2x its fastest time, in spells of one to several seconds -- and CPU
time follows wall time, because the slowdown is per cycle, not
preemption.  Medians of wall times then move with the share of slow
spells in a run, by a quarter or more from one run to the next.

:class:`ReferenceClock` measures the speed while the measured code runs.
Every :data:`INTERVAL` seconds a timer signal interrupts the program,
between two bytecodes, to time :func:`calibration_work`, a fixed piece
of pure-Python work.  The clock advances by the wall time since the
previous sample times the speed -- :data:`REFERENCE_S` over the median
time of the work's last three samples -- and stands still while the
work itself runs.  An interval it measures is therefore the time the
code would have taken at a speed at which the work takes
:data:`REFERENCE_S`, about its time on an idle core of that VM.
Dividing by a loop timed before and after a pass instead tracks a pass
that spans a change of speed poorly.
"""

import signal
import time

#: Seconds between two speed samples.
INTERVAL = 0.005

#: Seconds :func:`calibration_work` takes at the reference speed.
REFERENCE_S = 25e-6

#: The work is timed this many times when the clock starts.
_FIRST_SAMPLES = 3


def calibration_work(n=150):
    """Dict updates and integer arithmetic, like an interpreter-bound
    program: of the kinds of work tried, the one whose time tracked the
    workloads' best."""
    table = {}
    acc = 0
    for i in range(n):
        key = i & 31
        table[key] = table.get(key, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    return acc


def _time_work():
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Reference seconds elapsed while the clock ran.

    Use as a context manager: the clock runs inside the ``with`` block
    and keeps its reading between blocks.  Calling it returns the
    reading.  Only one clock may run at a time, in the main thread.
    """

    def __init__(self):
        self._reading = 0.0
        self._last = None
        self._speed = 1.0
        self._recent = []
        self._previous = None
        #: Speed samples taken, and the sum of their speeds.
        self.samples = 0
        self.speed_sum = 0.0

    def __enter__(self):
        self._recent = [_time_work() for _ in range(_FIRST_SAMPLES)]
        self._speed = REFERENCE_S / sorted(self._recent)[1]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._reading = self()
        self._last = None
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def __call__(self):
        if self._last is None:
            return self._reading
        return self._reading + (time.perf_counter() - self._last) * self._speed

    def _sample(self, signum, frame):
        if self._last is None:  # a signal left over from the timer
            return
        self._reading = self()
        self._recent = self._recent[1:] + [_time_work()]
        self._speed = REFERENCE_S / sorted(self._recent)[1]
        self.samples += 1
        self.speed_sum += self._speed
        self._last = time.perf_counter()

    def mean_speed(self):
        """Mean sampled speed, as a share of the reference speed."""
        return self.speed_sum / self.samples if self.samples else self._speed
