"""Host-speed probe: a fixed kernel timed between the passes of a run.

The speed of a small shared host wanders by tens of percent over
minutes, and CPU time follows wall time, so the slowdown is the host's,
not scheduling.  The probe does a fixed amount of the kinds of work the
workloads do, touches nothing of the program, and is timed before the
first pass and after every pass.  A pass's host factor is the mean of
the probes on either side of it over ``REFERENCE_S``, the probe's
median on the reference host (see README.md); dividing a pass time by
its factor gives the time at the reference host's speed.

The probe's one large array is allocated once, at import, and worked on
in place, so the probe adds a constant to the measuring process's
resident memory instead of a transient peak between passes that could
hide a smaller one of the program.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.45
_SORTED = np.empty(400_000)


def host_probe() -> float:
    """Seconds taken by the fixed kernel."""
    t0 = time.perf_counter()
    # dict and tuple work, as in the expander and the cache reader
    table: dict[tuple[int, int], int] = {}
    for i in range(180_000):
        key = (i % 31, i % 37)
        table[key] = table.get(key, 0) + i * i
    # float arithmetic in Python, as in the renewal and correlation sums
    acc = 0.0
    for i in range(1, 450_000):
        acc += math.exp(-i * 1e-5) / i
    # many small numpy calls, as in the Metropolis sampler
    a = np.arange(32.0)
    for _ in range(24_000):
        float(np.sum(np.log(np.expm1(-0.01 * a) ** 2 + 1.0)))
    # whole-array passes, as in sparse assembly and histograms
    b = _SORTED
    np.random.default_rng(0).standard_normal(out=b)
    for _ in range(30):
        b.sort()
        b *= 0.999
    return time.perf_counter() - t0
