"""Host-speed calibration, so that timings do not follow the host's drift.

On a shared host the speed a process gets drifts by up to 2x over seconds
and minutes, and CPU time drifts with wall time, so neither tells the
program's cost apart from the host's.  The benchmark therefore times a
fixed loop (``sample``) between its measured calls, and scales
each measured time by ``NOMINAL_S / calibration``: the time the call would
have taken at the speed at which the loop takes ``NOMINAL_S``.  The loop
mixes interpreter work with numpy arithmetic on small arrays, as the
program's Bessel recurrences and quadrature do, and shares no code with
the program, so a change to the program moves the scaled times and leaves
the loop alone.  Of the loops tried on a 2-CPU VM, this mix slowed most
nearly in step with the library workloads: pure interpreter work slowed
less than they did, and numpy on large arrays much less.

A calibration is the median of ``REPEATS`` timings of the loop.  The speed
of a stretch of calls is the median of the calibrations nearest to it (see
``factors``), so a preemption that lengthens one of them does not carry
over to the calls around it.

The runner calibrates between the processes it launches through a helper
process, ``python3 bench/hostspeed.py``, which answers each line it reads
with one calibration.  So numpy never loads into the runner: a child's
``ru_maxrss`` counts the peak RSS of the process that launched it, and the
runner must stay small for the peak RSS of a CLI process to be its own.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

NOMINAL_S = 100e-6   # the loop's time at the reference speed
REPEATS = 5
_ITERATIONS = 300
_ARRAY_STEPS = 30


@functools.cache
def _array():
    import numpy as np

    return np, np.linspace(0.1, 3.0, 64)


def _loop():
    np, w = _array()
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(_ITERATIONS):
        x = i * 0.5
        acc += x * x - acc * 1e-3
        table[i & 31] = acc
    for _ in range(_ARRAY_STEPS):
        w = np.sqrt(w * w + 1.0) - 0.5
    return time.perf_counter() - start


def sample():
    """One calibration: the median time of ``REPEATS`` runs of the loop, in seconds."""
    return statistics.median(_loop() for _ in range(REPEATS))


def factors(calibrations):
    """Scale factor of each stretch between two consecutive calibrations.

    Stretch i lies between ``calibrations[i]`` and ``calibrations[i + 1]``;
    its speed is the median of the calibrations from i - 1 to i + 2.
    """
    cal = calibrations
    return [NOMINAL_S / statistics.median(cal[max(0, i - 1):i + 3]) for i in range(len(cal) - 1)]


if __name__ == "__main__":
    for _ in sys.stdin:
        sys.stdout.write(f"{sample()!r}\n")
        sys.stdout.flush()
