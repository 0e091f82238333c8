"""Correction for the drifting speed of a shared machine.

On a shared VM the same pure-Python work runs up to 1.7 times slower while
other tenants are busy, in episodes that last from seconds to whole runs.
The benchmark therefore times a fixed probe every PROBE_INTERVAL_S while
jobs run (from a SIGALRM handler in the main thread) and multiplies each
job's time by the mean of PROBE_REF_S / (probe time) over the probes near the
job: the result is the job's time at the speed where the probe takes
PROBE_REF_S.  Probe time is taken out of the job's own time.

The probe calls nothing in rrlab.  It mixes the kinds of work rrlab's time
goes to: mpmath arithmetic at 256 bits, small-integer loops, and
big-integer products; the mpmath part is real and complex.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from mpmath.ctx_mp import MPContext

_MP = MPContext()
_MP.prec = 256
_A, _B = _MP.sqrt(2), _MP.pi
_Z = _MP.expjpi(_MP.mpf(2) / 5)
_BIG = 3**700
_BIG_SHIFT = _BIG.bit_length()  # keeps the product at the size of _BIG

PROBE_REF_S = 0.0015
PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.25  # probes this close to a job's start or end describe its speed


def probe() -> float:
    """Seconds one fixed piece of mixed work takes now."""
    start = time.perf_counter()
    x, z = _A, _Z
    for _ in range(40):
        x = x * _B + _A
        x = x / _B
        z = z * _Z + _A
        z = z / _Z
    n = 0
    for i in range(2000):
        n = (n * 31 + i) % 1_000_003
    y = _BIG
    for i in range(150):
        y = ((y * _BIG) >> _BIG_SHIFT) + i
    return time.perf_counter() - start


def slowdown(probes: list) -> float:
    """How much slower than the reference speed the machine ran while these
    evenly spaced probes ran: the inverse of their mean speed."""
    return 1 / statistics.fmean(PROBE_REF_S / p for p in probes)


class Sampler:
    """Probes the machine's speed on a timer while the `with` block runs."""

    def __init__(self):
        self.times: list = []  # perf_counter at each probe
        self.probes: list = []  # its duration
        self.paused = 0.0  # total seconds spent probing

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append(probe())
        self.times.append(start)
        self.paused += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter with the probing time taken out."""
        return time.perf_counter() - self.paused

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(5):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(5):
            self._tick()

    def slowdown_between(self, start: float, end: float) -> float:
        """Slowdown over [start, end], from the probes within WINDOW_S of it.

        Probes come at even intervals, so the job's time at reference speed
        is its time times the mean speed (PROBE_REF_S / probe time) of the
        probes; a median would pick one speed for a job that spans several.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return slowdown(self.probes[lo:hi] or self.probes)
