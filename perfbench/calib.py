"""Host-speed calibration: time a fixed slice of work next to the program.

The benchmark runs on a shared host whose speed for one process changes by
up to about 1.8x within fractions of a second (other tenants contend for the
same cores and caches).  Raw op times follow that, so runs of the same code
disagree.  A slice is a fixed loop of interpreter work and libm calls that
never touches struvebounds; it is timed right before and after each stretch
of program work, and the stretch's time is rescaled to a host whose slice
takes ``REF_SLICE_S``:

    normalised time = raw time * REF_SLICE_S / mean(slice before, slice after)

``REF_SLICE_S`` is a fixed constant (about the slice's time on an idle
2-vCPU x86-64 host), so normalised times of two versions of the program are
comparable and read as "ms at that host speed".  The raw times are kept in
the run's record.
"""

from __future__ import annotations

import math
import statistics
import time

REF_SLICE_S = 0.0035
SLICE_ITERS = 10_000


def slice_s() -> float:
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    d = {}
    for i in range(SLICE_ITERS):
        x = (i % 997) * 1e-3 + 0.1
        acc += math.exp(-x) * math.cos(x) + math.lgamma(x + 1.0) / (1.0 + x * x)
        d[i & 255] = acc
    return time.perf_counter() - t0


def measure(k: int = 3) -> float:
    """Median of k slices, so one interrupted slice does not count."""
    return statistics.median(slice_s() for _ in range(k))


def normalise(raw_s: float, before: float, after: float) -> float:
    """raw_s rescaled to the reference host speed, from the slices around it."""
    return raw_s * REF_SLICE_S / (0.5 * (before + after))
