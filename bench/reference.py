"""The yardstick for the host's speed at the moment.

The benchmark runs on a shared host whose speed swings by half within
seconds.  It times this loop just before and just after each block of the
program's calls and scales the block's time to the reference speed, at
which the loop takes NOMINAL_S:

    scaled = seconds * NOMINAL_S / (the loop's seconds around the block)

A swing moves the scaled time far less than the time alone.  A change to
the program moves both alike, since the loop does not use the program.
"""

import time

NOMINAL_S = 0.010


def reference() -> float:
    """Seconds for a fixed pure-Python loop, about 10 ms on a 2-vCPU Xeon VM.
    Of the loops tried (this one, one that builds tuples and a dict, one of
    numpy arithmetic on a 16 MB array, and their sums), this one tracked the
    host's swings in the program's speed best."""
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    return time.perf_counter() - t0
