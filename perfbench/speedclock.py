"""Host-speed correction for the benchmark's timings.

The benchmark host's speed varies by up to 2.5x within seconds, on each core
independently, and ``time.process_time`` varies with it, so the slow spells
are not descheduling that CPU time could exclude.  A ``SpeedClock``
therefore samples the speed of the core the benchmark is running on while
it runs: a profiling timer interrupts the process every ``INTERVAL_S`` of
CPU time and the signal handler times a short fixed snippet.  A step's raw
time ``T`` is reported scaled as ``T * f ** SENSITIVITY`` with
``f = mean(nominal / snippet time)``: the time the same work would take at
the snippet's nominal speed.  On a quiet host ``f`` is close to 1.

Two snippets exist: one of small complex numpy operations, which resembles
the package's own inner loops and is used in-process, and one of plain
Python, used in the fresh interpreters that time set-up, where numpy is not
loaded yet.  This module imports numpy only when the numpy snippet is used.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.005
# The package's code slows by about this power of the snippet's slowdown:
# fits over blocks of pure K3, noisy K3, speed, scan and CLI work on the
# host gave 0.55 to 1.52 depending on the block and on the hour.  With 0.8
# the blocks' spread (IQR over median) was 0.04-0.12, against 0.4-0.6 raw
# in slow spells and 0.05-0.2 raw when the host was steadier.  One exponent
# for all code leaves a bias by kind of code; see README.md.
SENSITIVITY = 0.8
# Below this many samples in a step, the most recent samples are used.
MIN_SAMPLES = 20

# Snippet times on a quiet core of the host the benchmark was defined on
# (2 cores, Python 3.11.7, numpy 2.4.6); they only fix the unit.
NOMINAL_NUMPY_S = 20e-6
NOMINAL_PYTHON_S = 9e-6


def python_snippet() -> float:
    acc = 0.0
    table = {}
    for i in range(40):
        acc += math.sin(i * 0.1) * i
        table[i & 7] = acc
    return acc + len(table)


def make_numpy_snippet():
    import numpy as np

    a = np.array([[0.6, 0.8j], [0.8j, 0.6]])

    def numpy_snippet() -> float:
        v = np.array([1.0 + 0.0j, 0.0j])
        acc = 0.0
        for _ in range(8):
            v = a @ v
            acc += abs(np.vdot(v, v))
        return acc

    return numpy_snippet


class SpeedClock:
    """Samples host speed under a profiling timer and scales step times."""

    def __init__(self, snippet, nominal_s: float):
        self.snippet = snippet
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self.sample_starts: list[float] = []

    @classmethod
    def numpy(cls) -> "SpeedClock":
        return cls(make_numpy_snippet(), NOMINAL_NUMPY_S)

    @classmethod
    def python(cls) -> "SpeedClock":
        return cls(python_snippet, NOMINAL_PYTHON_S)

    def _handler(self, _signum, _frame):
        t0 = time.perf_counter()
        self.snippet()
        self.samples.append(time.perf_counter() - t0)
        self.sample_starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, since: int = 0) -> float:
        """Mean of nominal / snippet time over the samples from index ``since``."""
        window = self.samples[since:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        if not window:
            return 1.0
        return sum(self.nominal_s / s for s in window) / len(window)

    def pauses(self) -> tuple[list[float], list[float]]:
        """Start times and durations of every handler run, in time order."""
        n = len(self.sample_starts)  # the handler appends its duration first
        return self.sample_starts[:n], self.samples[:n]

    def timed(self, fn):
        """Run ``fn()``; return ``(result, raw_s, scaled_s)``."""
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw * self.factor(first) ** SENSITIVITY
