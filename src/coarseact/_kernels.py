"""Hot enumeration kernels for the brute-force oracle.

Each sweep is a vectorized numpy search.  Box ends travel as float64 arrays
so that ±inf encodes unbounded interval ends; all finite values are integers
well inside the exact float range.  A bounded set is a union of boxes: its
ends are ``(pieces, d)`` arrays, and a single box may pass its ``(d,)`` ends.
Every sweep tests "inside the set" against all pieces at once.

The oracle's semantics live here as explicit searches over window points and
group elements, deliberately independent of the symbolic interval calculus.
"""

from __future__ import annotations

import numpy as np

_CELLS = 2_000_000  # float cells per vectorized step


def kernel_backend() -> str:
    return "numpy"


def transporter_sweep(lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid) -> np.ndarray:
    """For each group element l: does some window point x lie in b with x+Ml ∈ b2."""
    lgrid, m, xgrid = _as_arrays(lgrid, m, xgrid)
    b_lo, b_hi, b2_lo, b2_hi = _as_ends(b_lo, b_hi, b2_lo, b2_hi)
    xs = xgrid[_inside(xgrid, b_lo, b_hi)]
    out = np.zeros(len(lgrid), dtype=bool)
    shifts = lgrid @ m.T  # (nl, d)
    chunk = _chunk(len(xs) * len(b2_lo))
    for start in range(0, len(lgrid), chunk):
        moved = xs[None, :, :] + shifts[start:start + chunk, None, :]
        out[start:start + chunk] = _inside(moved, b2_lo, b2_hi).any(axis=1)
    return out


def orbit_pair_sweep(xs, ys, lgrid, m, b_lo, b_hi) -> np.ndarray:
    """Pairwise orbit-pair membership by explicit search over group elements.

    (x, y) is a member when x == y or some shift M·l puts both x − M·l and
    y − M·l in b.  The x side is searched once per distinct x; each y is then
    tested only against the shifts its x admits, block by block, until one
    puts it in b.
    """
    xs, ys, lgrid, m = _as_arrays(xs, ys, lgrid, m)
    b_lo, b_hi = _as_ends(b_lo, b_hi)
    shifts = _distinct_shifts(lgrid, m)
    out = (xs == ys).all(axis=1)
    ux, which = np.unique(xs, axis=0, return_inverse=True)
    which = which.reshape(-1)  # numpy 2.0.0 returns it as a column
    step = _chunk(len(shifts) * len(b_lo))
    admits = np.zeros((len(ux), len(shifts)), dtype=bool)  # x − M·l ∈ b
    for start in range(0, len(ux), step):
        moved = ux[start:start + step, None, :] - shifts
        admits[start:start + step] = _inside(moved, b_lo, b_hi)
    live = admits.any(axis=0)
    shifts, admits = shifts[live], admits[:, live]
    pending = np.flatnonzero(~out)
    start = 0
    while len(pending) and start < len(shifts):
        # blocks double in size: the first few shifts often settle every pair
        stop = start + min(start + 1, _chunk(len(pending) * len(b_lo)))
        pair, shift = np.nonzero(admits[which[pending], start:stop])
        hit = _inside(ys[pending[pair]] - shifts[start + shift], b_lo, b_hi)
        out[pending[pair[hit]]] = True
        pending = pending[~out[pending]]
        start = stop
    return out


def orbit_compose_sweep(xs, zs, lgrid, hgrid, m, b1_lo, b1_hi, b2_lo, b2_hi) -> np.ndarray:
    """Pairwise membership in (B1×B1)_L ∘ (B2×B2)_L via explicit (l, h) search.

    A middle point exists when x − M·l ∈ B1, z − M·h ∈ B2 and some piece of
    B1 + M·l meets some piece of B2 + M·h.  The diagonal clauses of the
    orbit-pair structures are the caller's.
    """
    xs, zs, lgrid, hgrid, m = _as_arrays(xs, zs, lgrid, hgrid, m)
    b1_lo, b1_hi, b2_lo, b2_hi = _as_ends(b1_lo, b1_hi, b2_lo, b2_hi)
    shifts_l = _distinct_shifts(lgrid, m)
    shifts_h = _distinct_shifts(hgrid, m)
    out = np.zeros(len(xs), dtype=bool)
    for p in range(len(xs)):
        sl = shifts_l[_inside(xs[p] - shifts_l, b1_lo, b1_hi)][:, None, None, None, :]
        sh = shifts_h[_inside(zs[p] - shifts_h, b2_lo, b2_hi)][None, :, None, None, :]
        # axes: (l, h, piece of B1, piece of B2, d)
        lo = np.maximum(b1_lo[:, None] + sl, b2_lo[None] + sh)
        hi = np.minimum(b1_hi[:, None] + sl, b2_hi[None] + sh)
        out[p] = (lo <= hi).all(axis=-1).any()
    return out


def _inside(points, lo, hi) -> np.ndarray:
    """Whether each point (last axis d) lies in some box of (pieces, d) ends."""
    p = points[..., None, :]
    return ((p >= lo) & (p <= hi)).all(axis=-1).any(axis=-1)


def _distinct_shifts(lgrid, m) -> np.ndarray:
    """The shifts M·l of the window, each once: only M·l enters membership."""
    return np.unique(lgrid @ m.T, axis=0)


def _chunk(cells_per_row: int) -> int:
    return max(1, _CELLS // max(1, cells_per_row))


def _as_arrays(*xs):
    return tuple(np.asarray(x, dtype=np.float64) for x in xs)


def _as_ends(*ends):
    """Box ends as (pieces, d) arrays; a single box's (d,) ends become one piece."""
    return tuple(np.atleast_2d(e) for e in _as_arrays(*ends))
