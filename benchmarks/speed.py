"""The machine's speed, probed while the benchmark runs.

On a shared host the same code runs up to twice as slow in spells lasting
from a fraction of a second to minutes, when other tenants load the
machine.  Within a 30 s run such spells decide a measured time more than
any change to the program would.  So while a ``SpeedMeter`` is active, a
timer signal interrupts the program every PROBE_INTERVAL_S and times a
fixed pure-Python task (dict, tuple and sort work, with the collector off
so that knotforge's heap does not enter it).  A timed step's reported time
is then:

* its own time: its wall time minus the probes that interrupted it, and
* that time at the reference speed: own time * PROBE_REF_S / (mean
  duration of the probes taken during the step, or of the two nearest
  ones for a step too short to be interrupted).

The probes take about 5 % of the run's wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# The probe task's duration on an idle 2-vCPU x86_64 KVM guest (Intel Xeon,
# CPython 3.11): the speed that scaled times refer to.
PROBE_REF_S = 0.002
PROBE_INTERVAL_S = 0.05


def _probe_task():
    table = {}
    for i in range(8000):
        key = (i % 89, i % 11)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())


def probe() -> float:
    """Seconds the probe task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Probes the speed from SIGALRM while active (``with SpeedMeter() as m``)."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []   # when each probe began
        self.probes: list[float] = []   # the probe task's duration
        self.spent: list[float] = []    # the whole interruption, probe included
        self.total_spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:      # a slow probe outlasted the interval
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            duration = probe()
            self.starts.append(t0)
            self.probes.append(duration)
            self.spent.append(time.perf_counter() - t0)
            self.total_spent += self.spent[-1]
        finally:
            self._busy = False

    def clock(self) -> float:
        """A clock that stands still while a probe runs: the program's own time."""
        return time.perf_counter() - self.total_spent

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()        # so that the last step has a probe after it

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(own seconds, own seconds at the reference speed) of the step [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - sum(self.spent[lo:hi])
        nearest = self.probes[lo:hi] or self.probes[max(lo - 1, 0):lo + 1]
        return own, own * PROBE_REF_S / statistics.fmean(nearest)
