"""Exact calculus of finitely-describable subsets of finite label sets and ℤ^d.

Sets are finite point lists, integer boxes (products of integer intervals with
independent ±inf ends), or flat unions of those.  This class is closed under
intersection, translation, and difference sets, which is all the transporter
calculus needs.  Interval ends are Python ints or float ±inf; the only end
arithmetic performed pairs a lower with an upper end, so inf - inf of equal
signs never arises on non-empty inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf, prod
from operator import sub

NEG_INF = -inf
POS_INF = inf

UNION_CAP = 64


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class EmptyBoxError(GeometryError):
    pass


class UnsupportedVariant(GeometryError):
    pass


@dataclass(frozen=True)
class GroundSpace:
    """A finite label set or the integer lattice ℤ^d."""

    kind: str  # "finite" | "lattice"
    labels: tuple = ()
    dim: int = 0

    @staticmethod
    def finite(labels) -> "GroundSpace":
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise GeometryError("finite ground space labels must be distinct")
        return GroundSpace("finite", labels=labels)

    @staticmethod
    def lattice(d: int) -> "GroundSpace":
        if d < 1:
            raise GeometryError("lattice dimension must be >= 1")
        return GroundSpace("lattice", dim=d)

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice"


def is_finite_end(v) -> bool:
    return v != NEG_INF and v != POS_INF


@dataclass(frozen=True)
class Box:
    """Product of integer intervals; canonical empty box has zeroed ends."""

    lower: tuple
    upper: tuple
    empty: bool = False

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DimensionMismatch("box end tuples differ in length")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, p: tuple) -> bool:
        if len(p) != self.dim:
            raise DimensionMismatch(f"point dim {len(p)} vs box dim {self.dim}")
        if self.empty:
            return False
        return all(lo <= x <= hi for lo, x, hi in zip(self.lower, p, self.upper))

    def is_bounded(self) -> bool:
        if self.empty:
            return True
        return all(is_finite_end(v) for v in self.lower + self.upper)

    def widths(self) -> tuple:
        """Per-coordinate point counts (may be inf); 0 for the empty box."""
        if self.empty:
            return tuple(0 for _ in self.lower)
        return tuple(
            hi - lo + 1 if is_finite_end(lo) and is_finite_end(hi) else POS_INF
            for lo, hi in zip(self.lower, self.upper)
        )


def box(*pairs) -> Box:
    """Build a box from (lower, upper) pairs, canonicalizing emptiness."""
    lower, upper = tuple(zip(*pairs)) or ((), ())
    return _canonical(lower, upper)


def _canonical(lower: tuple, upper: tuple) -> Box:
    for lo, hi in zip(lower, upper):
        if lo > hi or lo == POS_INF or hi == NEG_INF:
            return empty_box(len(lower))
    return Box(lower, upper)


def empty_box(d: int) -> Box:
    return Box((0,) * d, (0,) * d, empty=True)


def full_box(d: int) -> Box:
    return Box((NEG_INF,) * d, (POS_INF,) * d)


def cube(radius: int, d: int) -> Box:
    return Box((-radius,) * d, (radius,) * d)


def point_box(p: tuple) -> Box:
    return Box(tuple(p), tuple(p))


def box_intersect(b1: Box, b2: Box) -> Box:
    if b1.dim != b2.dim:
        raise DimensionMismatch("box_intersect: dimension mismatch")
    if b1.empty or b2.empty:
        return empty_box(b1.dim)
    return _canonical(
        tuple(map(max, b1.lower, b2.lower)), tuple(map(min, b1.upper, b2.upper))
    )


def difference_box(target: Box, source: Box) -> Box:
    """The translation set {v : (v + source) ∩ target ≠ ∅}.

    Coordinatewise [lo_t - hi_s, hi_t - lo_s] with inf-arithmetic.  Empty
    inputs are rejected; callers short-circuit those to the empty transporter.
    """
    if target.dim != source.dim:
        raise DimensionMismatch("difference_box: dimension mismatch")
    if target.empty or source.empty:
        raise EmptyBoxError("difference_box requires non-empty boxes")
    lower = tuple(map(sub, target.lower, source.upper))
    upper = tuple(map(sub, target.upper, source.lower))
    # a nan end is inf - inf: equal-signed infinite ends, which a lower and
    # an upper end of canonical non-empty boxes never are
    for lo, hi in zip(lower, upper):
        if lo != lo or hi != hi:
            raise GeometryError("opposite-end invariant violated: inf - inf")
    return _canonical(lower, upper)


def translate_box(b: Box, v: tuple) -> Box:
    if len(v) != b.dim:
        raise DimensionMismatch("translate_box: vector dimension mismatch")
    if b.empty:
        return b
    return Box(
        tuple(lo + x for lo, x in zip(b.lower, v)),
        tuple(hi + x for hi, x in zip(b.upper, v)),
    )


def negate_box(b: Box) -> Box:
    if b.empty:
        return b
    return Box(tuple(-u for u in b.upper), tuple(-l for l in b.lower))


def minkowski_sum(b1: Box, b2: Box) -> Box:
    if b1.dim != b2.dim:
        raise DimensionMismatch("minkowski_sum: dimension mismatch")
    if b1.empty or b2.empty:
        return empty_box(b1.dim)
    return Box(
        tuple(a + b for a, b in zip(b1.lower, b2.lower)),
        tuple(a + b for a, b in zip(b1.upper, b2.upper)),
    )


def box_hull(b1: Box, b2: Box) -> Box:
    if b1.empty:
        return b2
    if b2.empty:
        return b1
    return Box(
        tuple(min(a, b) for a, b in zip(b1.lower, b2.lower)),
        tuple(max(a, b) for a, b in zip(b1.upper, b2.upper)),
    )


def box_contains_box(outer: Box, inner: Box) -> bool:
    if outer.dim != inner.dim:
        raise DimensionMismatch("box containment: dimension mismatch")
    if inner.empty:
        return True
    if outer.empty:
        return False
    return all(ol <= il for ol, il in zip(outer.lower, inner.lower)) and all(
        iu <= ou for iu, ou in zip(inner.upper, outer.upper)
    )


def box_points(b: Box):
    """Iterate the integer points of a bounded box, lexicographically."""
    if b.empty:
        return iter(())
    if not b.is_bounded():
        raise GeometryError("box_points requires a bounded box")
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(b.lower, b.upper)]
    return itertools.product(*ranges)


def clip_box(b: Box, radius: int) -> Box:
    """Intersect with the centered window cube of the given radius."""
    return box_intersect(b, cube(radius, b.dim))


# --- set descriptors -------------------------------------------------------


@dataclass(frozen=True)
class FinitePoints:
    """Deduplicated finite point list (lattice tuples or finite-space labels)."""

    points: frozenset

    @staticmethod
    def of(points) -> "FinitePoints":
        return FinitePoints(frozenset(points))


@dataclass(frozen=True)
class BoxSet:
    box: Box


@dataclass(frozen=True)
class UnionSet:
    """Flat union of FinitePoints/BoxSet members, at most UNION_CAP of them."""

    members: tuple

    def __post_init__(self):
        if len(self.members) > UNION_CAP:
            raise GeometryError(f"union cap {UNION_CAP} exceeded")
        for m in self.members:
            if isinstance(m, UnionSet):
                raise UnsupportedVariant("unions are kept flat")


SetDescriptor = (FinitePoints, BoxSet, UnionSet)


def box_set(*pairs) -> BoxSet:
    return BoxSet(box(*pairs))


def points_set(*pts) -> FinitePoints:
    return FinitePoints.of(pts)


def empty_set(d: int) -> BoxSet:
    return BoxSet(empty_box(d))


def union_set(*members):
    """Flatten, drop empties, merge 1-d box overlaps, collapse trivial unions."""
    flat = []
    for m in members:
        if isinstance(m, UnionSet):
            flat.extend(m.members)
        else:
            flat.append(m)
    kept = []
    for m in flat:
        if isinstance(m, BoxSet) and m.box.empty:
            continue
        if isinstance(m, FinitePoints) and not m.points:
            continue
        kept.append(m)
    kept = _merge_intervals(kept)
    if not kept:
        d = _descriptor_dim(flat[0]) if flat else 1
        return empty_set(d)
    if len(kept) == 1:
        return kept[0]
    return UnionSet(tuple(kept))


def _descriptor_dim(s) -> int:
    if isinstance(s, BoxSet):
        return s.box.dim
    if isinstance(s, FinitePoints):
        for p in s.points:
            return len(p) if isinstance(p, tuple) else 1
        return 1
    return _descriptor_dim(s.members[0])


def _merge_intervals(members):
    """Merge overlapping/adjacent 1-d boxes; other members pass through."""
    boxes1d = [m for m in members if isinstance(m, BoxSet) and m.box.dim == 1]
    if len(boxes1d) < 2:
        return members
    rest = [m for m in members if m not in boxes1d]
    ivals = sorted((b.box.lower[0], b.box.upper[0]) for b in boxes1d)
    merged = [ivals[0]]
    for lo, hi in ivals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + 1:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    return [BoxSet(box(iv)) for iv in merged] + rest


def set_membership(s, x) -> bool:
    """Decide x ∈ s under the variant semantics."""
    if isinstance(s, FinitePoints):
        return x in s.points
    if isinstance(s, BoxSet):
        return s.box.contains(x)
    if isinstance(s, UnionSet):
        return any(set_membership(m, x) for m in s.members)
    raise UnsupportedVariant(f"not a set descriptor: {s!r}")


def set_is_empty(s) -> bool:
    if isinstance(s, FinitePoints):
        return not s.points
    if isinstance(s, BoxSet):
        return s.box.empty
    return all(set_is_empty(m) for m in s.members)


def set_translate(s, v: tuple):
    """Pointwise shift by an integer vector (lattice descriptors only)."""
    if isinstance(s, FinitePoints):
        for p in s.points:
            if len(p) != len(v):
                raise DimensionMismatch("set_translate: vector dimension mismatch")
        return FinitePoints(frozenset(tuple(a + b for a, b in zip(p, v)) for p in s.points))
    if isinstance(s, BoxSet):
        return BoxSet(translate_box(s.box, v))
    return UnionSet(tuple(set_translate(m, v) for m in s.members))


def set_negate(s):
    if isinstance(s, FinitePoints):
        return FinitePoints(frozenset(tuple(-a for a in p) for p in s.points))
    if isinstance(s, BoxSet):
        return BoxSet(negate_box(s.box))
    return UnionSet(tuple(set_negate(m) for m in s.members))


def set_bounding_box(s) -> Box:
    if isinstance(s, BoxSet):
        return s.box
    if isinstance(s, FinitePoints):
        if not s.points:
            return empty_box(_descriptor_dim(s))
        pts = list(s.points)
        d = len(pts[0])
        return Box(
            tuple(min(p[i] for p in pts) for i in range(d)),
            tuple(max(p[i] for p in pts) for i in range(d)),
        )
    hull = empty_box(_descriptor_dim(s))
    for m in s.members:
        hull = box_hull(hull, set_bounding_box(m))
    return hull


def set_pieces(s) -> list:
    """Non-empty FinitePoints/BoxSet members of s."""
    if isinstance(s, UnionSet):
        return [m for m in s.members if not set_is_empty(m)]
    return [] if set_is_empty(s) else [s]


def set_boxes(s) -> list[Box]:
    """Decompose into non-empty boxes (points become singleton boxes)."""
    out = []
    for piece in set_pieces(s):
        if isinstance(piece, BoxSet):
            out.append(piece.box)
        else:
            out.extend(point_box(p) for p in sorted(piece.points))
    return out


def set_points_within(s, radius: int) -> list:
    """Integer points of s in the centered window, sorted."""
    if isinstance(s, BoxSet):  # box_points is lexicographic and repeats no point
        return list(box_points(clip_box(s.box, radius)))
    seen = set()
    for piece in set_pieces(s):
        if isinstance(piece, FinitePoints):
            seen.update(p for p in piece.points if max(map(abs, p)) <= radius)
        else:
            seen.update(box_points(clip_box(piece.box, radius)))
    return sorted(seen)


def box_size(b: Box):
    """The number of integer points of b: 0 when empty, inf when unbounded."""
    return prod(b.widths())


# --- integer matrix helpers ------------------------------------------------


def mat_vec(m: tuple, v: tuple) -> tuple:
    """m is a tuple of rows; returns m @ v."""
    return tuple(sum(r * x for r, x in zip(row, v)) for row in m)


def row_range(row: tuple, b: Box) -> tuple:
    """Exact range of row·v over v ∈ b as (lo, hi); b must be non-empty."""
    if b.empty:
        raise EmptyBoxError("row_range of an empty box")
    lo = hi = 0
    for c, (l, u) in zip(row, zip(b.lower, b.upper)):
        if c == 0:
            continue
        a, bb = c * l, c * u
        lo += min(a, bb)
        hi += max(a, bb)
    return lo, hi


def image_hull(m: tuple, b: Box) -> Box:
    """Per-coordinate exact hull of {m·v : v ∈ b} (a box with tight extents)."""
    if b.empty:
        return empty_box(len(m))
    return box(*(row_range(row, b) for row in m))
