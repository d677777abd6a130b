"""Hot enumeration kernels for the brute-force oracle.

Each sweep is a vectorized numpy search.  Box ends travel as float64 arrays
so that ±inf encodes unbounded interval ends; all finite values are integers
well inside the exact float range.  A bounded set is a union of boxes: its
ends are ``(pieces, d)`` arrays, and a single box may pass its ``(d,)`` ends.
Every sweep tests "inside the set" against all pieces at once, one coordinate
at a time.  The transporter sweep marks b's window points in an integer grid
and counts those in b2 − M·l from a summed-area table of the marks (Crow,
SIGGRAPH 1984), with 2^d reads per piece of b2.  The orbit-pair sweeps drop
the coordinates that no piece bounds, then dedupe the shifts M·l on the rest.

The oracle's semantics live here as explicit searches over window points and
group elements, deliberately independent of the symbolic interval calculus.
"""

from __future__ import annotations

import numpy as np

_CELLS = 2_000_000  # rows × points × pieces compared per vectorized step


def kernel_backend() -> str:
    return "numpy"


def transporter_sweep(lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid) -> np.ndarray:
    """For each group element l: does some window point x lie in b with x+Ml ∈ b2.

    xgrid holds integer points; the count table spans the bounding box of
    those that lie in b, so pass a box grid, as the oracle does.
    """
    lgrid, m, xgrid = _as_arrays(lgrid, m, xgrid)
    b_lo, b_hi, b2_lo, b2_hi = _as_ends(b_lo, b_hi, b2_lo, b2_hi)
    xs = xgrid[_inside(xgrid, b_lo, b_hi)].astype(np.intp)
    if not len(xs):
        return np.zeros(len(lgrid), dtype=bool)
    d = xs.shape[1]
    low = xs.min(axis=0)
    xs -= low
    size = xs.max(axis=0) + 1
    # table[j] counts the marked points x with x − low < j in every coordinate
    table = np.zeros(size + 1, dtype=np.intp)
    table[tuple(xs.T + 1)] = 1
    for axis in range(d):
        table = table.cumsum(axis=axis)
    # per group element and piece of b2: (b2 − M·l) ∩ the marked box as table
    # indices; with 2^d reads per row, deduplicating the shifts would cost more
    base = (lgrid @ m.T)[:, None] + low
    lo = np.minimum(np.maximum(b2_lo - base, 0), size)
    hi = np.maximum(np.minimum(b2_hi + 1 - base, size), lo)
    ends = np.stack([hi, lo]).astype(np.intp)
    # read all 2^d corners at once, then difference them out axis by axis
    count = table[tuple(
        ends[..., i].reshape((1,) * i + (2,) + (1,) * (d - 1 - i) + lo.shape[:-1])
        for i in range(d)
    )]
    for _ in range(d):
        count = count[0] - count[1]
    return (count > 0).any(axis=1)


def orbit_pair_sweep(xs, ys, lgrid, m, b_lo, b_hi) -> np.ndarray:
    """Pairwise orbit-pair membership by explicit search over group elements.

    (x, y) is a member when x == y or some shift M·l puts both x − M·l and
    y − M·l in b.  The x side is searched once per distinct x; each y is then
    tested only against the shifts its x admits, block by block, until one
    puts it in b.
    """
    xs, ys, lgrid, m = _as_arrays(xs, ys, lgrid, m)
    b_lo, b_hi = _as_ends(b_lo, b_hi)
    out = (xs == ys).all(axis=1)
    # only M·l on the coordinates that some piece bounds enters membership
    kept = _bounded_columns(b_lo, b_hi)
    xs, ys, b_lo, b_hi = (v[:, kept] for v in (xs, ys, b_lo, b_hi))
    shifts = _distinct_rows(lgrid @ m[kept].T)[0]
    ux, which = _distinct_rows(xs)
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
    # a coordinate that neither factor bounds leaves every middle point free
    kept = _bounded_columns(b1_lo, b1_hi, b2_lo, b2_hi)
    xs, zs, b1_lo, b1_hi, b2_lo, b2_hi = (
        v[:, kept] for v in (xs, zs, b1_lo, b1_hi, b2_lo, b2_hi))
    shifts_l = _distinct_rows(lgrid @ m[kept].T)[0]
    shifts_h = _distinct_rows(hgrid @ m[kept].T)[0]
    out = np.zeros(len(xs), dtype=bool)
    left = _inside(xs[:, None] - shifts_l, b1_lo, b1_hi)
    right = _inside(zs[:, None] - shifts_h, b2_lo, b2_hi)
    for p in range(len(xs)):
        sl = shifts_l[left[p]][:, None, None, None, :]
        sh = shifts_h[right[p]][None, :, None, None, :]
        # axes: (l, h, piece of B1, piece of B2, d)
        lo = np.maximum(b1_lo[:, None] + sl, b2_lo[None] + sh)
        hi = np.minimum(b1_hi[:, None] + sl, b2_hi[None] + sh)
        out[p] = (lo <= hi).all(axis=-1).any()
    return out


def _inside(points, lo, hi) -> np.ndarray:
    """Whether each point (last axis d) lies in some box of (pieces, d) ends."""
    p = points[..., 0, None]
    hit = (p >= lo[:, 0]) & (p <= hi[:, 0])
    for i in range(1, points.shape[-1]):
        p = points[..., i, None]
        hit &= (p >= lo[:, i]) & (p <= hi[:, i])
    return hit.any(axis=-1)


def _bounded_columns(*ends) -> np.ndarray:
    """Mask of the coordinates where some piece has a finite end.  A free
    coordinate changes no answer, so the first one stands in when none is
    bounded, and every point keeps a column."""
    kept = np.isfinite(np.concatenate(ends)).any(axis=0)
    kept[0] |= not kept.any()
    return kept


def _distinct_rows(rows) -> tuple:
    """The distinct rows of a 2-d array in ``np.unique(rows, axis=0)`` order,
    and each row's index among them, from one lexsort."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return ordered[new], which


def _chunk(cells_per_row: int) -> int:
    return max(1, _CELLS // max(1, cells_per_row))


def _as_arrays(*xs):
    return tuple(np.asarray(x, dtype=np.float64) for x in xs)


def _as_ends(*ends):
    """Box ends as (pieces, d) arrays; a single box's (d,) ends become one piece."""
    return tuple(np.atleast_2d(e) for e in _as_arrays(*ends))
