"""Timing in reference-speed seconds, to cancel the host's speed swings.

On a shared machine the speed of this one process can change by up to ~1.7x
for seconds at a time, when other work lands on the same physical core.
Wall time then measures the neighbours as much as the program.  SpeedClock
runs a fixed calibration kernel (the reference simulator on a fixed circuit,
independent of deltasynth) from a SIGALRM handler every PERIOD seconds.  It
scales each stretch of wall time by K_REF over the kernel's recent time.  A
reading is the time the same work would take at the speed where the kernel
takes K_REF seconds.  The kernel's own time is left out of every reading.

Everything runs in this process and thread: the handler runs between
bytecodes of whatever the main thread is doing.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque

from inputs import TWO_QUBIT_POOL
from reference import simulate_circuit

PERIOD = 0.05
# Kernel time in the fast state of a shared 2-core x86-64 host under Python
# 3.11; readings are seconds at that speed.
K_REF = 0.0025
# Samples in the running median that sets the current speed.
WINDOW = 5

_RNG = random.Random("calibration")
_GATES = [_RNG.choice(TWO_QUBIT_POOL) for _ in range(300)]


def kernel_seconds() -> float:
    start = time.perf_counter()
    simulate_circuit(2, _GATES, False)
    return time.perf_counter() - start


def scaled(seconds: float, samples) -> float:
    """seconds of wall time at the speed shown by kernel samples."""
    return seconds * K_REF / statistics.median(samples)


class SpeedClock:
    """A clock in reference-speed seconds, running while entered."""

    def __init__(self):
        self._recent = deque(maxlen=WINDOW)
        self._ref = 0.0
        self._last = time.perf_counter()
        self._factor = 1.0
        self._seq = 0
        self._busy = False
        self._previous_handler = None

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a tick that arrives during the kernel is skipped
            return
        self._busy = True
        now = time.perf_counter()
        self._ref += (now - self._last) * self._factor
        self._recent.append(kernel_seconds())
        self._factor = K_REF / statistics.median(self._recent)
        self._last = time.perf_counter()
        self._seq += 1
        self._busy = False

    def __call__(self) -> float:
        while True:
            seq = self._seq
            value = self._ref + (time.perf_counter() - self._last) * self._factor
            if seq == self._seq:
                return value

    def __enter__(self):
        for _ in range(WINDOW):
            self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False
