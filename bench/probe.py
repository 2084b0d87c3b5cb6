"""A fixed probe of host speed, used to scale measured times.

The speed of a shared 2-core Xeon VM drifted by +-20% over seconds to
minutes, for any code.  So a fixed pure-Python probe runs right before and
right after each timed interval, outside it, and the interval is scaled by
PROBE_REF_S / (the mean of the two probes).  Scaled times read as seconds
at the speed at which the probe takes PROBE_REF_S, its median on that VM
with Python 3.11.  The probe uses no library code, so a change to the
library cannot move it.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.007


def probe() -> float:
    """Seconds for a fixed loop of interpreter work that uses no library code."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * PROBE_REF_S / ((before + after) / 2)
