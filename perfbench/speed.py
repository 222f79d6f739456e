"""Host speed probe: turns measured times into times at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
up to a factor of two within seconds as the host's load changes (the CPU
time of a fixed operation tracks its wall time, so the process is not
waiting: the vCPU itself runs slower). A timer interrupts the benchmark
every ``INTERVAL_S`` and runs a small fixed computation, the probe, which is
the benchmark's own code and never changes with the program. How long the
probe takes measures the host's speed at that moment.

An operation's time at reference speed is its measured time, less the time
spent in probes, times the mean of ``REFERENCE_S / probe time`` over the
probes from ``WINDOW_S`` before it started to ``WINDOW_S`` after it ended:
the work it did, in seconds of a host on which the probe takes exactly
``REFERENCE_S``. A slow spell of the host lengthens the operation and the
probes alike, so it cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.05
WINDOW_S = 0.25
# The probe's duration at the reference speed: about its shortest duration
# on a 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.0012
ROUNDS = 20

# A fixed cubic graph on 40 vertices: a ring with diameters.
_N = 40
_ADJ = [((v + 1) % _N, (v - 1) % _N, (v + _N // 2) % _N) for v in range(_N)]


def probe() -> list[int]:
    """ROUNDS rounds of colour refinement on _ADJ: tuples, sorting and a
    dict, like the program's own inner loops, on a working set of its own."""
    colour = [v % 3 for v in range(_N)]
    for _ in range(ROUNDS):
        sig = [(colour[v], tuple(sorted(colour[w] for w in _ADJ[v])))
               for v in range(_N)]
        index = {s: j for j, s in enumerate(sorted(set(sig)))}
        colour = [index[s] ^ (v & 1) for v, s in enumerate(sig)]
    return colour


class SpeedProbe:
    """Runs the probe on SIGALRM every INTERVAL_S between ``start`` and
    ``stop``. ``spent`` is the total time spent in probes so far, for
    subtracting from the operations they interrupted."""

    def __init__(self):
        self.starts: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._saved = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the host's speed
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += t1 - t0

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Remove the timer and handler; does nothing if not started."""
        if self._saved is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed, relative to the reference, around [t0, t1]."""
        i = bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect_right(self.starts, t1 + WINDOW_S)
        if j <= i:  # a long call without bytecodes held the probes off
            i, j = max(i - 1, 0), i + 1
        return statistics.fmean(self.speeds[i:j])

    def reference_time(self, t0: float, t1: float, busy: float) -> float:
        """``busy`` seconds measured over [t0, t1], at the reference speed."""
        return busy * self.speed(t0, t1)
