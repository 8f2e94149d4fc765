"""Host-speed normalization of the benchmark's times.

On a shared host the speed of the same code drifts by up to a third, in
phases that last from seconds to minutes, so a raw time depends on when it
was taken.  The benchmark therefore times a fixed pure-Python loop next to
every measured interval and reports the interval in units of that loop,
scaled by ``LOOP_S`` back to seconds: the time the interval would take on a
host where the loop takes ``LOOP_S``.  A change to ``limitlab`` moves the
interval but not the loop, so it shows in full; a slower phase of the host
moves both, and cancels.  The raw times are kept beside the normalized ones.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 200_000
# The loop's fastest time on the 2-core x86_64 host of the baseline in
# README.md.  Only a fixed scale: it makes normalized times read in seconds.
LOOP_S = 0.0135


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def normalize(seconds: float, loop: float) -> float:
    """``seconds`` measured while the reference loop took ``loop`` seconds, at ``LOOP_S``."""
    return seconds / loop * LOOP_S
