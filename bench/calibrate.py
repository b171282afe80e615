"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts, by
up to 1.8x, for seconds to a minute at a time: a fixed pure-Python loop
takes 60 ms in one stretch and 110 ms in the next, and CPU time drifts
with wall time, so the drift is not time stolen from the process but work
running slower.  A run of 20 s sees a few such stretches, so wall times
of whole runs spread by about a quarter of their median between seeds
and between repeats of one seed.

So every timed interval is bracketed by a fixed reference loop (the
benchmark's own code, exact rational arithmetic like the program's hot
path, never the program's) and reported at the reference speed:

    reference time = wall time * REFERENCE_S / mean(loop before, loop after)

REFERENCE_S is a constant, about the loop's median on a 2-vCPU Xeon
virtual machine, so a reference time reads close to the wall time there,
and a change to the program moves it as it moves the wall time at a fixed
host speed.  On that machine this cut the spread of a 20 s run's job rate
over 20 s windows from 0.17 to 0.04 of its median.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.004
_STEPS = 600
_FACTOR = Fraction(3, 5)


def reference_loop() -> float:
    """Wall time of one run of the fixed reference loop, in seconds."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, _STEPS):
        total += Fraction(i % 7 + 1, i % 11 + 1) * _FACTOR
    elapsed = perf_counter() - t0
    if total <= 0:  # consume the result
        raise AssertionError("reference loop went wrong")
    return elapsed


def at_reference(wall_s: float, loop_before: float, loop_after: float) -> float:
    """`wall_s` at the reference speed, from the loops around it."""
    return wall_s * REFERENCE_S / ((loop_before + loop_after) / 2.0)
