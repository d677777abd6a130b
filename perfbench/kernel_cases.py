"""Fixed-input cases for the three oracle sweep kernels.

The inputs are those of ``benchmarks/bench_kernels.py``: the shift of the
plane along (1, -1), group window 24, boxes [-4, 4]^2.  They do not depend on
the benchmark seed, so the per-layer ``kernels.*.fixed_case_s`` numbers compare
one kernel implementation with another on identical work.
"""

from __future__ import annotations

import time

import numpy as np

from coarseact import _kernels

REPEATS = 3


def grid(radius: int, k: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def cases() -> dict:
    m = np.array([[1.0], [-1.0]])
    b_lo = np.array([-4.0, -4.0])
    b_hi = np.array([4.0, 4.0])
    lgrid = grid(24, 1)
    xgrid = grid(24, 2)
    rng = np.random.default_rng(0)
    xs = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    ys = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    zs = rng.integers(-20, 21, size=(300, 2)).astype(float)
    ws = rng.integers(-20, 21, size=(300, 2)).astype(float)
    return {
        "transporter_sweep": (lgrid, m, b_lo, b_hi, b_lo - 3, b_hi + 5, xgrid),
        "orbit_pair_sweep": (xs, ys, lgrid, m, b_lo, b_hi),
        "orbit_compose_sweep": (zs, ws, lgrid, lgrid, m, b_lo, b_hi, b_lo, b_hi),
    }


def time_cases() -> dict:
    """Best of ``REPEATS`` wall seconds per sweep, after one warm-up call."""
    out = {}
    for name, args in cases().items():
        fn = getattr(_kernels, name)
        fn(*args)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out
