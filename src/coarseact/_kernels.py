"""Hot enumeration kernels for the brute-force oracle.

Each sweep is a vectorized numpy search.  Box ends travel as float64 arrays
so that ±inf encodes unbounded interval ends; all finite values are integers
well inside the exact float range.

The oracle's semantics live here as explicit searches over window points and
group elements, deliberately independent of the symbolic interval calculus.
"""

from __future__ import annotations

import numpy as np


def kernel_backend() -> str:
    return "numpy"


def transporter_sweep(lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid) -> np.ndarray:
    """For each group element l: does some window point x lie in b with x+Ml ∈ b2."""
    lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid = _as_arrays(
        lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid
    )
    in_b = ((xgrid >= b_lo) & (xgrid <= b_hi)).all(axis=1)
    xs = xgrid[in_b]
    if not len(xs):
        return np.zeros(len(lgrid), dtype=bool)
    out = np.zeros(len(lgrid), dtype=bool)
    shifts = lgrid @ m.T  # (nl, d)
    chunk = max(1, 2_000_000 // max(1, len(xs)))
    for start in range(0, len(lgrid), chunk):
        sh = shifts[start:start + chunk]
        moved = xs[None, :, :] + sh[:, None, :]
        ok = ((moved >= b2_lo) & (moved <= b2_hi)).all(axis=2).any(axis=1)
        out[start:start + chunk] = ok
    return out


def orbit_pair_sweep(xs, ys, lgrid, m, b_lo, b_hi) -> np.ndarray:
    """Pairwise orbit-pair membership by explicit search over group elements."""
    xs, ys, lgrid, m, b_lo, b_hi = _as_arrays(xs, ys, lgrid, m, b_lo, b_hi)
    shifts = lgrid @ m.T  # (nl, d)
    out = (xs == ys).all(axis=1)
    chunk = max(1, 2_000_000 // max(1, len(shifts)))
    for start in range(0, len(xs), chunk):
        vx = xs[start:start + chunk][:, None, :] - shifts[None, :, :]
        vy = ys[start:start + chunk][:, None, :] - shifts[None, :, :]
        ok = (
            ((vx >= b_lo) & (vx <= b_hi)).all(axis=2)
            & ((vy >= b_lo) & (vy <= b_hi)).all(axis=2)
        ).any(axis=1)
        out[start:start + chunk] |= ok
    return out


def orbit_compose_sweep(xs, zs, lgrid, hgrid, m, b1_lo, b1_hi, b2_lo, b2_hi) -> np.ndarray:
    """Pairwise membership in E(L,B1)∘E(L,B2) via explicit (l, h) search."""
    xs, zs, lgrid, hgrid, m, b1_lo, b1_hi, b2_lo, b2_hi = _as_arrays(
        xs, zs, lgrid, hgrid, m, b1_lo, b1_hi, b2_lo, b2_hi
    )
    shifts_l = lgrid @ m.T
    shifts_h = hgrid @ m.T
    n = len(xs)
    out = np.zeros(n, dtype=bool)
    for p in range(n):
        vx = xs[p][None, :] - shifts_l
        feas_l = ((vx >= b1_lo) & (vx <= b1_hi)).all(axis=1)
        if not feas_l.any():
            continue
        vz = zs[p][None, :] - shifts_h
        feas_h = ((vz >= b2_lo) & (vz <= b2_hi)).all(axis=1)
        if not feas_h.any():
            continue
        sl = shifts_l[feas_l]
        sh = shifts_h[feas_h]
        lo = np.maximum(b1_lo + sl[:, None, :], b2_lo + sh[None, :, :])
        hi = np.minimum(b1_hi + sl[:, None, :], b2_hi + sh[None, :, :])
        if ((lo <= hi).all(axis=2)).any():
            out[p] = True
    return out


def _as_arrays(*xs):
    return tuple(np.asarray(x, dtype=np.float64) for x in xs)
