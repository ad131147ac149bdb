"""Host-speed reference for CPU-bound timings.

On a shared host the speed of the same code drifts by up to a factor of
two within minutes, and CPU time drifts with wall time.  The benchmark
therefore times a fixed reference kernel (interpreted Python plus small
numpy operations, like the simulator and the SWFI ops) next to every
CPU-bound operation, and reports that operation's time at the nominal
host speed:

    reported = measured * NOMINAL_S / kernel time measured beside it

A program change moves ``measured`` and not the kernel, so it shows in
full; host drift moves both and cancels.  The raw wall-clock figures are
printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's time on the reference host (2 shared vCPUs, Python 3.11.7,
#: numpy 2.4.6) in a quiet period; it fixes the scale of reported times
NOMINAL_S = 0.005


def _kernel() -> float:
    start = time.perf_counter()
    table: dict = {}
    vec = np.arange(64, dtype=np.float32)
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i
        if i % 20 == 0:
            vec = vec * np.float32(1.0001) + np.float32(0.5)
    return time.perf_counter() - start


def sample() -> float:
    """The reference kernel's current time: the faster of two runs, so
    the first run's cache refill after other work does not count."""
    return min(_kernel(), _kernel())


def scale(seconds: float, reference: float) -> float:
    """*seconds* measured beside a *reference* sample, at nominal speed."""
    return seconds * NOMINAL_S / reference

