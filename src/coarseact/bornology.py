"""Bornologies over finite sets and integer lattices.

Infinite ground spaces carry bornologies as monotone exhaustion chains of boxes
whose interval ends are affine in the chain index m (so monotonicity/covering
are sign checks and least-index queries close-form).  A chain may carry an
integer matrix M, in which case level m denotes the lattice preimage
{n : M·n ∈ shape(m)}; plain chains are the M = identity case.  Finite ground
spaces use explicit finite bases.  Boundedness queries return certified
three-valued verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .boxes import (
    NEG_INF,
    POS_INF,
    Box,
    BoxSet,
    FinitePoints,
    GeometryError,
    GroundSpace,
    UnionSet,
    UnsupportedVariant,
    _canonical,
    full_box,
    is_finite_end,
    row_range,
    set_bounding_box,
    set_is_empty,
    set_pieces,
)
from .verdicts import (
    BoundVerdict,
    CheckItem,
    CheckReport,
    bounded_at,
    unbounded,
)

MAXIMAL = "maximal"
FINITE_BASE = "finite_base"
CHAIN = "chain"


@dataclass(frozen=True)
class AffineEnd:
    """An interval end a*m + b in the chain index m, or symbolic ±inf."""

    coeff: int = 0
    offset: int = 0
    inf: int = 0  # -1, 0, +1

    def __call__(self, m: int):
        if self.inf:
            return POS_INF if self.inf > 0 else NEG_INF
        return self.coeff * m + self.offset

    @property
    def is_symbolic(self) -> bool:
        return self.inf != 0


def affine(coeff: int, offset: int) -> AffineEnd:
    return AffineEnd(coeff, offset)


AFF_NEG_INF = AffineEnd(inf=-1)
AFF_POS_INF = AffineEnd(inf=1)


@dataclass(frozen=True)
class BornologySpec:
    """Maximal | FiniteBase(finite space) | Chain(shape[, matrix])."""

    kind: str
    space: GroundSpace
    base: tuple = ()        # finite_base: tuple of FinitePoints
    shape: tuple = ()       # chain: per-constraint-coordinate (lower, upper) AffineEnds
    matrix: tuple | None = None  # chain: rows of M; level m = {n : M n ∈ shape(m)}


def maximal_bornology(space: GroundSpace) -> BornologySpec:
    return BornologySpec(MAXIMAL, space)


def finite_base_bornology(space: GroundSpace, base) -> BornologySpec:
    return BornologySpec(FINITE_BASE, space, base=tuple(base))


def chain_bornology(space: GroundSpace, shape, matrix=None) -> BornologySpec:
    shape = tuple(tuple(pair) for pair in shape)
    if matrix is None and len(shape) != space.dim:
        raise GeometryError("chain shape must have one end pair per coordinate")
    if matrix is not None and len(shape) != len(matrix):
        raise GeometryError("matrix chain: one shape pair per matrix row")
    return BornologySpec(CHAIN, space, shape=shape, matrix=matrix)


def cubes_chain(space: GroundSpace) -> BornologySpec:
    """The metric bornology of the sup metric: level m = [-m, m]^d."""
    return chain_bornology(space, [(affine(-1, 0), affine(1, 0))] * space.dim)


def level_box(spec: BornologySpec, m: int) -> Box:
    """Constraint box of level m (the level set itself for plain chains)."""
    if spec.kind == MAXIMAL:
        return full_box(spec.space.dim if spec.space.is_lattice else 1)
    if spec.kind != CHAIN:
        raise UnsupportedVariant("level_box: chain or maximal bornology only")
    lower, upper = [], []
    for lo, hi in spec.shape:
        lower.append((POS_INF if lo.inf > 0 else NEG_INF) if lo.inf else lo.coeff * m + lo.offset)
        upper.append((POS_INF if hi.inf > 0 else NEG_INF) if hi.inf else hi.coeff * m + hi.offset)
    return _canonical(tuple(lower), tuple(upper))


def chain_recession(spec: BornologySpec) -> Box:
    """Recession box of the constraint chain (index-independent)."""
    return Box(
        tuple(NEG_INF if lo.is_symbolic else 0 for lo, _ in spec.shape),
        tuple(POS_INF if hi.is_symbolic else 0 for _, hi in spec.shape),
    )


def is_full_at_some_level(spec: BornologySpec) -> bool:
    """Whether some (equivalently every) level is the whole space."""
    if spec.kind == MAXIMAL:
        return True
    if spec.kind == CHAIN and spec.matrix is None:
        return all(lo.is_symbolic and hi.is_symbolic for lo, hi in spec.shape)
    return False


# --- axiom checks ----------------------------------------------------------


def bornology_axiom_check(spec: BornologySpec) -> CheckReport:
    """Covering / union / downward conditions, per representation."""
    if spec.kind == MAXIMAL:
        return CheckReport(
            "bornology(maximal)",
            (CheckItem("covering", True), CheckItem("union_closed", True),
             CheckItem("downward_closed", True)),
        )
    if spec.kind == FINITE_BASE:
        return _finite_base_check(spec)
    return _chain_check(spec)


def _finite_base_check(spec: BornologySpec) -> CheckReport:
    labels = set(spec.space.labels)
    covered = set()
    for elem in spec.base:
        covered |= elem.points
    items = []
    missing = sorted(labels - covered, key=str)
    items.append(
        CheckItem("covering", not missing, witness=missing[0] if missing else None)
    )
    bad_pair = None
    for b1, b2 in itertools.combinations_with_replacement(spec.base, 2):
        union = b1.points | b2.points
        if not any(union <= b.points for b in spec.base):
            bad_pair = (sorted(b1.points, key=str), sorted(b2.points, key=str))
            break
    items.append(CheckItem("pair_dominated", bad_pair is None, witness=bad_pair))
    return CheckReport("bornology(finite_base)", tuple(items))


def _chain_check(spec: BornologySpec) -> CheckReport:
    items = []
    mono_bad = None
    cover_bad = None
    for i, (lo, hi) in enumerate(spec.shape):
        if not (lo.is_symbolic or lo.coeff <= 0) or not (hi.is_symbolic or hi.coeff >= 0):
            mono_bad = mono_bad or ("coordinate", i)
        if not (lo.inf == -1 or (not lo.is_symbolic and lo.coeff < 0)):
            cover_bad = cover_bad or _uncovered_witness(spec, i, low=True)
        if not (hi.inf == 1 or (not hi.is_symbolic and hi.coeff > 0)):
            cover_bad = cover_bad or _uncovered_witness(spec, i, low=False)
    items.append(CheckItem("monotone", mono_bad is None, witness=mono_bad))
    items.append(CheckItem("covering", cover_bad is None, witness=cover_bad))
    return CheckReport("bornology(chain)", tuple(items))


def _uncovered_witness(spec, i, low):
    # a point never reached in constraint coordinate i
    if spec.matrix is not None:
        return ("constraint_row", i)
    lo, hi = spec.shape[i]
    val = (lo.offset - 1) if low else (hi.offset + 1)
    point = [0] * len(spec.shape)
    point[i] = val
    return tuple(point)


# --- generated bornology on finite spaces ----------------------------------


def generate_from_base(base) -> tuple:
    """Downward closure of a finite base, as the antichain of maximal elements."""
    sets = [frozenset(elem.points) for elem in base]
    maximal = [s for s in sets if not any(s < t for t in sets)]
    out = []
    for s in maximal:
        if s not in out:
            out.append(s)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(map(str, s)))))


def finite_bornology_closure(space: GroundSpace, base) -> set:
    """Smallest bornology containing a covering base: close under union/subset."""
    family = {frozenset(elem.points) for elem in base}
    family.add(frozenset())
    changed = True
    while changed:
        changed = False
        current = list(family)
        for s1 in current:
            for s2 in current:
                u = s1 | s2
                if u not in family:
                    family.add(u)
                    changed = True
        for s in list(family):
            for x in s:
                sub = s - {x}
                if sub not in family:
                    family.add(sub)
                    changed = True
    return family


# --- boundedness ------------------------------------------------------------


def least_index_cover_lower(end: AffineEnd, v) -> int | None:
    """Smallest m ≥ 0 with end(m) ≤ v, or None."""
    if end.inf:
        return 0 if end.inf == -1 else None
    if v == NEG_INF:
        return None
    if v == POS_INF:
        return 0
    if end.coeff < 0:
        return max(0, -((v - end.offset) // -end.coeff))
    return 0 if end.offset <= v else None


def least_index_cover_upper(end: AffineEnd, v) -> int | None:
    """Smallest m ≥ 0 with end(m) ≥ v, or None."""
    if end.inf:
        return 0 if end.inf == 1 else None
    if v == POS_INF:
        return None
    if v == NEG_INF:
        return 0
    if end.coeff > 0:
        return max(0, -((end.offset - v) // end.coeff))
    return 0 if end.offset >= v else None


def first_level(spec: BornologySpec, points: int = 1) -> int | None:
    """Least index whose level box holds at least `points` (1 or 2) points.

    A coordinate's width hi(m) - lo(m) is affine in m, so the first index
    where it reaches 0 (a point) or 1 (two points) is one least-index query;
    a coordinate with an infinite end is wide from index 0.  None when no
    level qualifies, which a chain passing the axioms never gives.
    """
    if spec.kind == MAXIMAL:
        return 0

    def first_width(lo, hi, width):
        if lo.is_symbolic or hi.is_symbolic:
            return 0
        gap = AffineEnd(lo.coeff - hi.coeff, lo.offset - hi.offset)
        return least_index_cover_lower(gap, -width)

    nonempty = [first_width(lo, hi, 0) for lo, hi in spec.shape]
    if None in nonempty:
        return None
    if points == 1:
        return max(nonempty)
    wide = [m for m in (first_width(lo, hi, 1) for lo, hi in spec.shape) if m is not None]
    return max(max(nonempty), min(wide)) if wide else None


def constraint_ranges(spec: BornologySpec, s) -> list[tuple]:
    """Exact (lo, hi) of each constraint row over s (identity rows if no matrix);
    a single box is read from its own ends or one row_range per matrix row."""
    if isinstance(s, BoxSet) and not s.box.empty:
        b = s.box
        if spec.matrix is None:
            return list(zip(b.lower, b.upper))
        return [row_range(row, b) for row in spec.matrix]
    pieces = set_pieces(s)
    if not pieces:
        return []
    n_rows = len(spec.shape)
    ranges = []
    for r in range(n_rows):
        row = spec.matrix[r] if spec.matrix is not None else _unit_row(n_rows, r)
        lo, hi = POS_INF, NEG_INF
        for piece in pieces:
            if isinstance(piece, FinitePoints):
                vals = [sum(c * x for c, x in zip(row, p)) for p in piece.points]
                plo, phi = min(vals), max(vals)
            else:
                plo, phi = row_range(row, piece.box)
            lo = min(lo, plo)
            hi = max(hi, phi)
        ranges.append((lo, hi))
    return ranges


def _unit_row(n, r):
    return tuple(1 if i == r else 0 for i in range(n))


def is_bounded(spec: BornologySpec, s, budget=None) -> BoundVerdict:
    """Least chain level containing s, or a certified escape.

    Exact for Box/FinitePoints/UnionOf descriptors: containment in a box level
    depends only on per-row extents, which the range computation gets exactly.
    """
    if spec.kind == MAXIMAL:
        return bounded_at(0, note="maximal bornology")
    if set_is_empty(s):
        return bounded_at(0, note="empty set")
    if spec.kind == FINITE_BASE:
        return _finite_base_bounded(spec, s)
    ranges = constraint_ranges(spec, s)
    worst = 0
    for r, ((lo_end, hi_end), (lo, hi)) in enumerate(zip(spec.shape, ranges)):
        k_lo = least_index_cover_lower(lo_end, lo)
        k_hi = least_index_cover_upper(hi_end, hi)
        if k_lo is None or k_hi is None:
            return _chain_escape(spec, s, r, lo if k_lo is None else hi)
        worst = max(worst, k_lo, k_hi)
    return bounded_at(worst)


def _finite_base_bounded(spec: BornologySpec, s) -> BoundVerdict:
    if isinstance(s, UnionSet):
        pts = set()
        for piece in s.members:
            if not isinstance(piece, FinitePoints):
                raise UnsupportedVariant("finite-base boundedness needs point sets")
            pts |= piece.points
        s = FinitePoints(frozenset(pts))
    if not isinstance(s, FinitePoints):
        raise UnsupportedVariant("finite-base boundedness needs FinitePoints")
    maximal = generate_from_base(spec.base)
    for idx, elem in enumerate(maximal):
        if s.points <= elem:
            return bounded_at(idx, note="contained in maximal base element")
    stray = sorted(s.points - set().union(*maximal) if maximal else s.points, key=str)
    witness = stray[:1] or sorted(s.points, key=str)[:1]
    return unbounded(witness=witness, note="no base element contains the set")


def _chain_escape(spec, s, row, bad_value) -> BoundVerdict:
    """Unbounded verdict with an escape ray inside s when one exists."""
    low_side = bad_value == NEG_INF
    direction = None
    base_point = None
    bb = set_bounding_box(s)
    if spec.matrix is None:
        if low_side and bb.lower[row] == NEG_INF:
            direction = _unit(-1, row, bb.dim)
        elif not low_side and bb.upper[row] == POS_INF:
            direction = _unit(1, row, bb.dim)
    else:
        for c in range(len(spec.matrix[0])):
            coeff = spec.matrix[row][c]
            if coeff == 0:
                continue
            if low_side and ((coeff > 0 and bb.lower[c] == NEG_INF)
                             or (coeff < 0 and bb.upper[c] == POS_INF)):
                direction = _unit(-1 if coeff > 0 else 1, c, bb.dim)
                break
            if not low_side and ((coeff > 0 and bb.upper[c] == POS_INF)
                                 or (coeff < 0 and bb.lower[c] == NEG_INF)):
                direction = _unit(1 if coeff > 0 else -1, c, bb.dim)
                break
    if direction is not None:
        base_point = _point_inside(bb)
    witness = ()
    if direction is not None and base_point is not None:
        witness = tuple(
            tuple(b + t * d for b, d in zip(base_point, direction)) for t in (0, 1, 4)
        )
    return unbounded(
        direction=direction,
        base_point=base_point,
        witness=witness,
        note=f"constraint row {row} escapes every level",
    )


def _unit(sign, i, d):
    v = [0] * d
    v[i] = sign
    return tuple(v)


def _point_inside(bb: Box):
    if bb.empty:
        return None
    return tuple(
        int(lo) if is_finite_end(lo) else (int(hi) if is_finite_end(hi) else 0)
        for lo, hi in zip(bb.lower, bb.upper)
    )


# --- induction --------------------------------------------------------------


def orbit_pullback(matrix, base_point, b: BornologySpec) -> BornologySpec:
    """The pullback of b along the orbit map n ↦ base_point + M·n on ℤ^k."""
    params = GroundSpace.lattice(len(matrix[0]))
    if b.kind == MAXIMAL:
        return maximal_bornology(params)
    if b.kind != CHAIN or b.matrix is not None:
        raise UnsupportedVariant("orbit inclusion needs a plain chain upstream")
    # {n : x + M n ∈ shape(m)} = {n : M n ∈ shape(m) - x}
    shifted = tuple(
        (_shift_end(lo, -x), _shift_end(hi, -x))
        for (lo, hi), x in zip(b.shape, base_point)
    )
    return chain_bornology(params, shifted, matrix=matrix)


def _shift_end(end: AffineEnd, delta: int) -> AffineEnd:
    if end.is_symbolic:
        return end
    return AffineEnd(end.coeff, end.offset + delta)
