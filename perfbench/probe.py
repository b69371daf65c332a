"""Machine-speed probe.

On the shared 2-vCPU host the reference results come from, identical runs
measured up to 1.8 times apart from one minute to the next, with set-up,
reconstruction and evaluation slowing together. A run therefore times a
fixed piece of work that does not depend on the program, at points spread
over the run, and scales its timings by ``REFERENCE_S / probe``: the
reported values are what the run would have measured on a machine where
the probe takes ``REFERENCE_S``. Raw wall-clock values are printed next to
them.

The probe mixes what the chain spends its time on: interpreter work on
dicts and small objects, many small numpy calls, and dense matrix-vector
products.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.007

_MATRIX = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)


def speed_probe() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(24000):
        key = (i * 7919) % 613
        counts[key] = counts.get(key, 0) + i
    a = np.arange(32.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0) - 1.0
    v = np.ones(300)
    for _ in range(40):
        v = _MATRIX @ v
        v /= v.max()
    return time.perf_counter() - t0
