"""A probe of how fast a shared host runs pure-Python code right now."""

import time

# time of calibrate() at the reference host speed
REFERENCE_LOOP_S = 0.175


def calibrate():
    """Seconds for a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x ^= (i * i) & 0xFFFF
    return time.perf_counter() - t0
