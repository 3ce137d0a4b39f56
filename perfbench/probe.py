"""Host speed probe: scales measured seconds to a fixed reference speed.

The shared host's speed drifts by up to a factor of two, in phases from
a fraction of a second to a minute, so raw seconds mostly measure the
neighbours.  While a pass runs, a SIGALRM handler times a small fixed
kernel every INTERVAL_S seconds of wall time.  A request's seconds are
its wall time minus the time spent in the handler, multiplied by
REF_S over the mean kernel time sampled during the request.  The kernel
is plain Python, independent of the program, so a change to the program
cannot move it.  No thread or process is started: the handler runs in
the main thread between bytecodes.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_S = 0.002      # kernel time that defines the reference speed
MIN_SAMPLES = 3


def kernel():
    acc, table = 0, {}
    for i in range(1, 4000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i * i
        acc = (acc * 31 + i) % 1000003
    f = Fraction(0)
    for i in range(1, 50):
        f += Fraction(1, i)
    return acc, f


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.paused = [0]     # ns spent in the handler; read by the tracer

    def _handler(self, signum, frame):
        start = time.perf_counter_ns()
        kernel()
        spent = time.perf_counter_ns() - start
        self.samples.append(spent * 1e-9)
        self.paused[0] += spent

    def __enter__(self) -> "SpeedProbe":
        self.samples += [sample() for _ in range(MIN_SAMPLES)]
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, int, int]:
        return time.perf_counter_ns(), self.paused[0], len(self.samples)

    def measure(self, mark) -> tuple[float, float]:
        """(raw seconds since mark without the handler's time, scale factor).

        The scale uses the samples taken since the mark, or the latest
        MIN_SAMPLES when the interval was too short to hold that many."""
        start, paused, first = mark
        raw = (time.perf_counter_ns() - start - (self.paused[0] - paused)) * 1e-9
        taken = self.samples[min(first, len(self.samples) - MIN_SAMPLES):]
        return raw, REF_S * len(taken) / sum(taken)
