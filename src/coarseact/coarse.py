"""Entourage descriptors, their normal forms, and coarse structures.

The engine builds four normal forms: the translation-invariant DiffRel(s) =
{(x,y) : y - x ∈ s}, the connected pairs diag ∪ B×B, the orbit pairs E(L,B),
and compositions of two orbit pairs.  Sup-metric balls and lattice group-right
levels are built as DiffRels, and orbit pairs of surjective translation
actions rewrite to DiffRel exactly; that is what makes the structure-comparison
identities decidable.  A coarse structure on a finite ground space is the set
of subsets of one equivalence relation, closed from a relation base by
union–find.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import boxes as bx
from .boxes import (
    NEG_INF,
    POS_INF,
    Box,
    BoxSet,
    FinitePoints,
    GeometryError,
    GroundSpace,
    UnsupportedVariant,
    box_hull,
    box_intersect,
    cube,
    difference_box,
    full_box,
    is_finite_end,
    mat_vec,
    minkowski_sum,
    point_box,
    set_bounding_box,
    set_boxes,
    set_is_empty,
    set_membership,
    set_negate,
    set_translate,
    union_set,
)
from .bornology import (
    AFF_POS_INF,
    CHAIN,
    MAXIMAL,
    AffineEnd,
    BornologySpec,
    bornology_axiom_check,
    chain_bornology,
    chain_recession,
    cubes_chain,
    first_level,
    is_bounded,
    least_index_cover_upper,
    level_box,
    maximal_bornology,
    _point_inside,
    _unit,
)
from .actions import (
    ActionInstance,
    GroupSpec,
    _case_extent,
    _echelon,
    _interval_k1,
    _k1_interval,
    _k1_rows,
    _recession_rays,
    column_lattice_index,
    covering_residues,
    lattice_box_feasible,
    require_exact_rule,
    transporter,
    transporter_extent,
    uncovered_direction,
)
from .verdicts import (
    Budget,
    DEFAULT_BUDGET,
    BoundVerdict,
    Verdict,
    bounded_at,
    confirmed,
    not_applicable,
    refuted,
    unbounded,
    verdict_inconclusive,
)

NBHD_ENUM_CAP = 60
# the rank-1 batch kernel runs in int64 while coordinates and finite ends stay
# below _K1_SMALL in magnitude; ±_K1_INF then stand for infinite ends
_K1_SMALL, _K1_INF = 2**40, 2**61


# --- entourage descriptors ---------------------------------------------------


@dataclass(frozen=True)
class DiffRel:
    """Translation-invariant relation {(x,y) : y - x ∈ shift_set}."""

    space: GroundSpace
    shift_set: object


@dataclass(frozen=True)
class ConnectedPairs:
    """diag ∪ (B × B): a level of the connected-pairs structure."""

    space: GroundSpace
    bounded_set: object


@dataclass(frozen=True)
class OrbitPair:
    """(B × B) swept by the group action, union the diagonal."""

    action: ActionInstance
    bounded_set: object

    @property
    def space(self) -> GroundSpace:
        return self.action.space


@dataclass(frozen=True)
class Compose:
    """e1 ∘ e2; the engine composes orbit pairs of one action."""

    e1: object
    e2: object


# --- membership --------------------------------------------------------------


def entourage_members(e, pairs, budget: Budget = DEFAULT_BUDGET) -> list:
    """Membership of each pair in e: exact where decidable, None where only
    budget evidence exists.  The work that depends on e alone runs once.

    pairs is a sequence of (x, y) or an (n, 2, d) integer array.  A translation
    orbit pair, or a composition of two that no rewrite makes a DiffRel, whose
    shifts have rank ≤ 1 on the rows its sets bound (_shift_generator) answers
    the whole batch by interval arithmetic over integer arrays: int64 with
    ±2**61 for infinite ends while every coordinate and finite end is below
    2**40 in magnitude, Python ints past that.
    """
    factors = (e.e1, e.e2) if isinstance(e, Compose) else (e,)
    a = getattr(factors[0], "action", None)
    gen = None
    if all(isinstance(f, OrbitPair) and f.action is a for f in factors) and a.is_translation:
        sets = [f.bounded_set for f in factors]
        gen = a.matrix if a.group.rank == 1 else _shift_generator(a.matrix, *sets)
    if gen is not None and len(factors) == 2:
        rw = _rewrite_compose(e, *map(entourage_rewrite, factors))
        if rw.exact and not isinstance(rw.descriptor, Compose):
            e, gen = rw.descriptor, None
    if gen is not None:
        return _k1_members(gen, factors, pairs) if len(pairs) else []
    member = _member_test(e, budget)
    if hasattr(pairs, "tolist"):
        pairs = [(tuple(x), tuple(y)) for x, y in pairs.tolist()]
    return [member(x, y) for x, y in pairs]


def entourage_membership(e, pair, budget: Budget = DEFAULT_BUDGET):
    """Membership of one pair, by the scalar test: no numpy is loaded."""
    return _member_test(e, budget)(*pair)


def _member_test(e, budget: Budget):
    """A per-pair membership function for e, with e's own work done."""
    if isinstance(e, DiffRel):
        s = e.shift_set
        return lambda x, y: set_membership(s, tuple(b - a for a, b in zip(x, y)))
    if isinstance(e, ConnectedPairs):
        s = e.bounded_set
        return lambda x, y: x == y or (set_membership(s, x) and set_membership(s, y))
    if isinstance(e, OrbitPair):
        return _orbit_pair_test(e)
    if isinstance(e, Compose):
        return _compose_test(e, budget)
    raise UnsupportedVariant(f"not an entourage: {e!r}")


def _orbit_pair_test(e: OrbitPair):
    a, b = e.action, e.bounded_set
    if set_is_empty(b):
        return lambda x, y: x == y
    if not a.is_translation:
        require_exact_rule(a)
        mappings = map(a.rule.mapping, range(len(a.group.elements)))
        moved = [{mapping[p] for p in b.points} for mapping in mappings]
        return lambda x, y: x == y or any(x in s and y in s for s in moved)
    pieces = set_boxes(b)
    # one column reads the same intervals as its reduction: a free row has no finite end
    gen = a.matrix if a.group.rank == 1 else _shift_generator(a.matrix, b)
    if gen is not None:
        offsets = _k1_offsets(gen, pieces)

        def member_k1(x, y):
            # (x,y) ∈ E(L,B) iff x = y or some I_p(x) meets some I_q(y)
            if x == y:
                return True
            jys = offsets(y)
            return any(max(lo, u) <= min(hi, v) for lo, hi in offsets(x) for u, v in jys)

        return member_k1

    def member(x, y):
        if x == y:
            return True
        undecided = False
        # x ⊖ p: the shifts M·l that carry the piece p to x
        px, py = point_box(x), point_box(y)
        ys = [difference_box(py, q) for q in pieces]
        for cu in [difference_box(px, p) for p in pieces]:
            for cv in ys:
                c = box_intersect(cu, cv)
                r = lattice_box_feasible(a.matrix, c) if not c.empty else False
                if r is True:
                    return True
                undecided = undecided or r is None
        return None if undecided else False

    return member


def _shift_generator(m: tuple, *sets):
    """A one-column matrix v with {M·l} = {t·v} on the rows of M where some
    piece of the sets has a finite end, and zero on the other (free) rows,
    when that shift lattice has rank ≤ 1; None at rank 2.  Orbit-pair
    membership, composition and neighbourhoods meet the sets on those rows
    only, so v answers them in place of M."""
    kept = {i for s in sets for p in set_boxes(s)
            for i, (lo, hi) in enumerate(zip(p.lower, p.upper))
            if is_finite_end(lo) or is_finite_end(hi)}
    basis = _echelon(tuple(row if i in kept else (0,) * len(row) for i, row in enumerate(m)))
    if len(basis) > 1:
        return None
    return tuple((c,) for c in (basis[0][1] if basis else (0,) * len(m)))


def _k1_offsets(m: tuple, pieces):
    """For k = 1, x ↦ the non-empty intervals I_p(x) = {l : x - M·l ∈ p}."""
    rows = [_k1_rows(m, p.lower, p.upper) for p in pieces]
    return lambda x: [iv for r in rows if (iv := _k1_interval(r, x)) is not None]


def _k1_members(m: tuple, factors, pairs) -> list:
    """entourage_members of E(L,B) or E(L,B1)∘E(L,B2) for a translation action
    whose shifts are t·v for the one column v of m, by interval arithmetic over
    every pair at once."""
    import numpy as np

    pts = _int_array(pairs)
    pieces = [set_boxes(f.bounded_set) for f in factors]
    ends = [v for ps in pieces for p in ps for v in p.lower + p.upper if is_finite_end(v)]
    inf = _K1_INF
    if pts.dtype == object or any(abs(v) >= _K1_SMALL for v in ends):
        # Python ints: interval ends stay within 4 times the largest coordinate
        # or end, so 16 times that stands for infinity
        pts = pts.astype(object)
        inf = 2 ** (max(map(abs, ends + [pts.min(), pts.max()])).bit_length() + 4)
    # coordinate-major (d, n) copies: numpy reduces and indexes along n fastest
    x, y = np.ascontiguousarray(pts.transpose(1, 2, 0))
    rows = [[_k1_rows(m, p.lower, p.upper) for p in ps] for ps in pieces]
    ix, iy = ([[_k1_bounds(r, q, inf) for r in rs] for rs in rows] for q in (x, y))
    out = (x == y).all(axis=0)
    # (x,y) ∈ E(L,B) iff x = y or some I_p(x) meets some I_q(y)
    for jx, jy in zip(ix, iy):
        for (lo, hi), (u, v) in itertools.product(jx, jy):
            out |= np.maximum(lo, u) <= np.minimum(hi, v)
    if len(factors) == 2:
        # (x,z) ∈ E(L,B1)∘E(L,B2) also when M·l ∈ x ⊖ B1, M·h ∈ z ⊖ B2 and
        # M·(l - h) ∈ B2 ⊖ B1: l - h lies in one of the intervals J_t, and h
        # in I_u(x) ⊖ J_t (the Minkowski difference of integer intervals is exact)
        jts = [(max(iv[0], -inf), min(iv[1], inf)) for pc in pieces[0] for pd in pieces[1]
               if (iv := _interval_k1(m, difference_box(pd, pc))) is not None]
        for (lo, hi), (t0, t1), (u, v) in itertools.product(ix[0], jts, iy[1]):
            out |= (lo <= hi) & (np.maximum(lo - t1, u) <= np.minimum(hi - t0, v))
    return out.tolist()


def _k1_bounds(rows: tuple, pts, inf):
    """_k1_interval at n points given as a (d, n) integer array: arrays lo, hi
    with ±inf for infinite ends and lo > hi where the interval is empty."""
    import numpy as np

    zeros, lows, highs = rows
    n = pts.shape[1]
    lo, hi = np.full(n, -inf, dtype=pts.dtype), np.full(n, inf, dtype=pts.dtype)
    for i, s, a, e in lows:
        lo = np.maximum(lo, -((e - s * pts[i]) // a))
    for i, s, a, e in highs:
        hi = np.minimum(hi, (s * pts[i] - e) // a)
    for i, zlo, zhi in zeros:
        off = (pts[i] < zlo) | (pts[i] > zhi)
        lo[off], hi[off] = inf, -inf
    return lo, hi


def _int_array(values):
    """values as an int64 array when every entry is below 2**40 in magnitude,
    else as an array of Python ints; exact either way."""
    import numpy as np

    try:
        arr = np.asarray(values, dtype=np.int64)
        if not arr.size or -_K1_SMALL < arr.min() <= arr.max() < _K1_SMALL:
            return arr
    except OverflowError:
        pass
    return np.array(values, dtype=object)


def _compose_test(e: Compose, budget: Budget):
    e1, e2 = e.e1, e.e2
    f1, f2 = entourage_rewrite(e1), entourage_rewrite(e2)
    rw = _rewrite_compose(e, f1, f2)
    if rw.exact and not isinstance(rw.descriptor, Compose):
        return _member_test(rw.descriptor, budget)
    in1, in2 = _member_test(e1, budget), _member_test(e2, budget)
    r1, r2 = reach(e1, f1), reach(e2, f2)

    def member(x, z):
        # through y = x or y = z
        thru = _tristate_or(_tristate_and(in1(x, x), in2(x, z)),
                            _tristate_and(in1(x, z), in2(z, z)))
        if thru is True:
            return True
        candidates, complete = _compose_candidates(r1, r2, e1.space, x, z, budget)
        saw_none = thru is None
        for y in candidates:
            both = _tristate_and(in1(x, y), in2(y, z))
            if both is True:
                return True
            saw_none = saw_none or both is None
        return False if complete and not saw_none else None

    return member


def _compose_candidates(r1, r2, space: GroundSpace, x, z, budget: Budget):
    """(candidate midpoints, complete): y must satisfy y-x ∈ r1 and z-y ∈ r2,
    the reaches of the two factors; complete means that region was fully
    enumerated.  A finite space offers every label."""
    if not space.is_lattice:
        return space.labels, True
    d = space.dim
    cands = {tuple(x), tuple(z)}
    if r1 is None or r2 is None:
        cands.update(bx.box_points(cube(min(budget.window, 8), d)))
        return sorted(cands), False
    region1 = set_translate(r1, x)
    region2 = set_translate(set_negate(r2), z)
    inter = _intersect_sets(region1, region2)
    bb = set_bounding_box(inter)
    complete = bx.box_size(bb) <= 4000
    if not complete:
        radius = budget.window if d == 1 else (10 if d == 2 else 4)
        bb = bx.clip_box(bb, min(budget.window, radius))
    cands.update(y for y in bx.box_points(bb) if set_membership(inter, y))
    return sorted(cands), complete


def _tristate_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _tristate_or(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


# --- reach and rewrite -------------------------------------------------------


def reach(e, rw: Rewrite):
    """A set containing {y - x : (x,y) ∈ e} on lattices; None when unknown.
    rw is e's rewrite, whose DiffRel (exact or not) already holds (B ⊖ B) ∪ {0}.

    May over-approximate (used for candidate generation and hull reasoning).
    """
    sp = e.space
    if not sp.is_lattice:
        return None
    if isinstance(e, (DiffRel, OrbitPair)) and isinstance(rw.descriptor, DiffRel):
        return rw.descriptor.shift_set
    if isinstance(e, OrbitPair):
        diff, _ = _piecewise_difference(e.bounded_set, e.bounded_set)
        return _union_or_hull(diff, FinitePoints(frozenset({(0,) * sp.dim})))[0]
    return None


def _piecewise_difference(starget, ssource):
    """({y - x : x ∈ ssource, y ∈ starget}, exact) as a union of boxes."""
    out = []
    for tb in set_boxes(starget):
        for sb in set_boxes(ssource):
            out.append(BoxSet(difference_box(tb, sb)))
    if not out:
        return BoxSet(bx.empty_box(bx._descriptor_dim(starget))), True
    return _union_or_hull(*out)


def _piecewise_minkowski(s1, s2):
    """(s1 + s2, exact) as a union of boxes."""
    out = []
    for a in set_boxes(s1):
        for b in set_boxes(s2):
            out.append(BoxSet(minkowski_sum(a, b)))
    if not out:
        return BoxSet(bx.empty_box(bx._descriptor_dim(s1))), True
    return _union_or_hull(*out)


def _union_or_hull(*members):
    """(union, exact): past the union cap the bounding hull stands in for the
    union, and exact turns False because the hull over-approximates it."""
    try:
        return union_set(*members), True
    except GeometryError:
        hull = bx.empty_box(bx._descriptor_dim(members[0]))
        for m in members:
            hull = box_hull(hull, set_bounding_box(m))
        return BoxSet(hull), False


@dataclass(frozen=True)
class Rewrite:
    descriptor: object
    exact: bool


def entourage_rewrite(e) -> Rewrite:
    """Sound normalization; exact=False marks an over-approximating bound."""
    if isinstance(e, OrbitPair):
        return _rewrite_orbit_pair(e)
    if isinstance(e, Compose):
        return _rewrite_compose(e, entourage_rewrite(e.e1), entourage_rewrite(e.e2))
    return Rewrite(e, True)


def _rewrite_orbit_pair(e: OrbitPair) -> Rewrite:
    a = e.action
    if not a.is_translation or not a.space.is_lattice:
        return Rewrite(e, True)
    d = a.space.dim
    zero = FinitePoints(frozenset({(0,) * d}))
    if set_is_empty(e.bounded_set):
        return Rewrite(DiffRel(a.space, zero), True)
    if all(all(v == 0 for v in row) for row in a.matrix):
        return Rewrite(ConnectedPairs(a.space, e.bounded_set), True)
    diff, exact_diff = _piecewise_difference(e.bounded_set, e.bounded_set)
    diff, exact_union = _union_or_hull(diff, zero)
    exact = column_lattice_index(a.matrix) == 1 and exact_diff and exact_union
    return Rewrite(DiffRel(a.space, diff), exact)


def _rewrite_compose(e: Compose, r1: Rewrite, r2: Rewrite) -> Rewrite:
    """Operands whose rewrites r1, r2 are exact DiffRels compose to a DiffRel;
    any other composition stays as it is."""
    d1, d2 = r1.descriptor, r2.descriptor
    if isinstance(d1, DiffRel) and isinstance(d2, DiffRel) and r1.exact and r2.exact:
        shifts, exact = _piecewise_minkowski(d1.shift_set, d2.shift_set)
        return Rewrite(DiffRel(d1.space, shifts), exact)
    return Rewrite(e, True)


def _intersect_sets(s1, s2):
    """s1 ∩ s2; past the union cap, its box hull (the compose candidates are
    searched in it, and a superset of the midpoints loses none of them)."""
    pieces = [BoxSet(box_intersect(a, b)) for a in set_boxes(s1) for b in set_boxes(s2)]
    return _union_or_hull(*pieces)[0] if pieces else s1


def orbit_compose_bound(e1: OrbitPair, e2: OrbitPair):
    """The composition bound set (L_{B1,B2}·B1) ∪ B1 ∪ B2, box-hulled.

    A permutation rule moves B1 by each transporter element.  On a lattice
    the bound is only available when the transporter is bounded; None
    otherwise.  It over-approximates, so a hull past the union cap keeps it
    sound.
    """
    a = e1.action
    b1, b2 = e1.bounded_set, e2.bounded_set
    if set_is_empty(b1) and set_is_empty(b2):
        return b1
    if set_is_empty(b1) or set_is_empty(b2):
        return _union_or_hull(b1, b2)[0]
    t = transporter(a, b1, b2)
    if not a.is_translation:
        moved = set(b1.points) | set(b2.points)
        for g in t.elements:
            gi = a.group.elements.index(g)
            moved |= {a.rule.mapping(gi)[p] for p in b1.points}
        return FinitePoints(frozenset(moved))
    v, hull = transporter_extent(a, t)
    if not v.bounded:
        return None
    if hull is None:
        return _union_or_hull(b1, b2)[0]
    swept = minkowski_sum(bx.image_hull(a.matrix, hull), set_bounding_box(b1))
    return _union_or_hull(BoxSet(swept), b1, b2)[0]


# --- neighborhoods -----------------------------------------------------------


def neighborhood(e, a_set, budget: Budget = DEFAULT_BUDGET):
    """(E[A], exact): the set {y : ∃x ∈ A, (x,y) ∈ E}."""
    if isinstance(e, DiffRel):
        return _piecewise_minkowski(a_set, e.shift_set)
    if isinstance(e, ConnectedPairs):
        # A itself (the diagonal), plus all of B once A meets B
        meets = any(
            not box_intersect(p, q).empty
            for p in set_boxes(a_set)
            for q in set_boxes(e.bounded_set)
        )
        part = e.bounded_set if meets else BoxSet(bx.empty_box(e.space.dim))
        return _union_or_hull(a_set, part)
    if isinstance(e, OrbitPair):
        return _orbit_neighborhood(e, a_set, budget)
    raise UnsupportedVariant(f"neighborhood of {e!r}")


def _orbit_neighborhood(e: OrbitPair, a_set, budget: Budget):
    a = e.action
    b = e.bounded_set
    if set_is_empty(b):
        return a_set, True
    if not a.is_translation:
        require_exact_rule(a)
        out = set()
        for i in range(len(a.group.elements)):
            mapping = a.rule.mapping(i)
            moved = {mapping[p] for p in b.points}
            if any(set_membership(a_set, p) for p in moved):
                out |= moved
        out |= {p for p in a.space.labels if set_membership(a_set, p)}
        return FinitePoints(frozenset(out)), True
    if not isinstance(a_set, FinitePoints):
        rw = _rewrite_orbit_pair(e)
        if rw.exact:
            return neighborhood(rw.descriptor, a_set, budget)
        raise UnsupportedVariant("orbit-pair neighborhoods take finite point sets")
    pieces = []
    exact = True
    for x in sorted(a_set.points):
        part, ok = _orbit_point_neighborhood(e, x, budget)
        pieces.append(part)
        exact = exact and ok
    if not pieces:
        return a_set, exact
    out, ok = _union_or_hull(*pieces)
    return out, exact and ok


def _orbit_point_neighborhood(e: OrbitPair, x, budget: Budget):
    """E(L,B)[x] = ∪_{l : M l ∈ x⊖B} (B + M l) ∪ {x}, realized piecewise.

    A rank ≤ 1 shift generator stands in for M, and rank 0 is a connected-pairs
    neighbourhood; each distinct shift translates the whole of B once.
    """
    b, m = e.bounded_set, e.action.matrix
    xpt = FinitePoints(frozenset({x}))
    gen = _shift_generator(m, b)
    if gen is not None and not any(c for (c,) in gen):
        return neighborhood(ConnectedPairs(e.space, b), xpt, budget)
    m = gen or m
    shifts = set()
    truncated = False
    for piece in set_boxes(b):
        c = difference_box(point_box(x), piece)
        ray, status, bb = _case_extent(m, c)
        if ray is not None or status is None:
            # window-truncated sweep over an unbounded transporter
            truncated = True
            bb = cube(budget.window, len(m[0]))
        if bb is not None:
            shifts.update(filter(c.contains, (mat_vec(m, l) for l in bx.box_points(bb))))
    moved = [bx.translate_box(piece, v) for v in sorted(shifts) for piece in set_boxes(b)]
    hulled = len(moved) > NBHD_ENUM_CAP
    if hulled:
        moved = [functools.reduce(box_hull, moved)]
    out, ok = _union_or_hull(xpt, *(BoxSet(t) for t in dict.fromkeys(moved)))
    return out, ok and not (truncated or hulled)


# --- coarse structures -------------------------------------------------------


@dataclass(frozen=True)
class FiniteClosure:
    """Coarse structure on a finite space: the subsets of its largest relation."""

    space: GroundSpace
    maximal: tuple  # (largest relation,) as a frozenset of pairs

    def contains_relation(self, rel) -> bool:
        rel = frozenset(rel)
        return any(rel <= m for m in self.maximal)


@dataclass(frozen=True)
class ChainStructure:
    """Cofinal chain of entourages, by family kind."""

    space: GroundSpace
    kind: str  # metric_ball | connected_pairs | group_right | orbit_pair
    bornology: BornologySpec | None = None
    group: GroupSpec | None = None
    action: ActionInstance | None = None

    def level(self, n: int):
        if self.kind == "metric_ball":
            return DiffRel(self.space, BoxSet(cube(n, self.space.dim)))
        if self.kind == "connected_pairs":
            lvl = BoxSet(level_box(self.bornology, n))
            return ConnectedPairs(self.space, lvl)
        if self.kind == "group_right":
            return DiffRel(self.space, BoxSet(level_box(self.group.bornology, n)))
        if self.kind == "orbit_pair":
            b_n = BoxSet(level_box(self.action.space_bornology, n))
            return OrbitPair(self.action, b_n)
        raise UnsupportedVariant(f"chain kind {self.kind}")


def metric_ball_structure(space: GroundSpace) -> ChainStructure:
    return ChainStructure(space, "metric_ball")


def close_finite_base(space: GroundSpace, base) -> FiniteClosure:
    """Smallest coarse structure containing the base.

    A coarse structure on a finite set is closed under finite unions, so it
    is the set of subsets of one relation; that relation holds the diagonal
    and is closed under transpose and composition, so it is the equivalence
    closure of the base, found by union–find over the labels.
    """
    if space.is_lattice:
        raise GeometryError("finite closure needs a finite ground set")
    parent = {x: x for x in space.labels}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rel in base:
        for x, y in rel:
            parent[find(x)] = find(y)
    return FiniteClosure(space, (frozenset(
        (x, y) for x in space.labels for y in space.labels if find(x) == find(y)),))


def _full_closure(space: GroundSpace) -> FiniteClosure:
    return FiniteClosure(space, (frozenset(itertools.product(space.labels, repeat=2)),))


def associated_connected_structure(b: BornologySpec):
    """E_B: levels diag ∪ (B_n × B_n); every pair on a finite space."""
    if not b.space.is_lattice:
        return _full_closure(b.space)
    return ChainStructure(b.space, "connected_pairs", bornology=b)


def group_right_structure(g: GroupSpec):
    """E^R: level k is the relation l^{-1}h ∈ D_k.  A finite group's one
    level is the whole group, so its relation holds every pair."""
    if g.is_lattice:
        return ChainStructure(GroundSpace.lattice(g.rank), "group_right", group=g)
    return _full_closure(GroundSpace.finite(g.elements))


def associated_orbit_structure(a: ActionInstance):
    """E(L, B_X) as a chain of orbit-pair levels.  On a finite space the one
    level is ⋃_g (gX × gX) = X × X, since every g maps X onto X."""
    if a.space.is_lattice:
        return ChainStructure(a.space, "orbit_pair", action=a)
    return _full_closure(a.space)


# --- induced bornology and coarse boundedness --------------------------------


def induced_bornology_chain(cs) -> BornologySpec:
    """A chain cofinal in B_E (the coarsely bounded sets) for the given cs."""
    if isinstance(cs, FiniteClosure):
        return maximal_bornology(cs.space)
    if cs.kind == "metric_ball":
        return cubes_chain(cs.space)
    if cs.kind == "connected_pairs":
        return cs.bornology
    if cs.kind == "group_right":
        return _widened_chain(cs.group.bornology)
    if cs.kind == "orbit_pair":
        return cs.action.space_bornology
    raise UnsupportedVariant(f"induced bornology of {cs!r}")


def _widened_chain(b: BornologySpec) -> BornologySpec:
    if b.kind == MAXIMAL:
        return b
    shape = tuple(
        (
            lo if lo.is_symbolic else AffineEnd(lo.coeff - 1, lo.offset),
            hi if hi.is_symbolic else AffineEnd(hi.coeff + 1, hi.offset),
        )
        for lo, hi in b.shape
    )
    return chain_bornology(b.space, shape)


def coarsely_bounded(cs, s, budget: Budget = DEFAULT_BUDGET) -> BoundVerdict:
    """Is s coverable as E[A] for finite A and a chain level E?

    Certificates carry (level, A).  Exact for the chain kinds this package
    constructs; escape directions come from index-independent recession data,
    so no answer depends on budget (kept for the primitives' common signature).
    """
    if isinstance(cs, FiniteClosure):
        return bounded_at(0, note="finite space: A may be the whole ground set")
    if set_is_empty(s):
        return bounded_at(0, note="empty set")
    if cs.kind in ("metric_ball", "group_right"):
        return _diffrel_coarsely_bounded(cs, s)
    if cs.kind == "connected_pairs":
        return _connected_coarsely_bounded(cs.bornology, s)
    if cs.kind == "orbit_pair":
        return _orbit_coarsely_bounded(cs.action, s)
    raise UnsupportedVariant(f"coarsely_bounded over {cs!r}")


def _diffrel_coarsely_bounded(cs, s) -> BoundVerdict:
    """s is coarsely bounded in a DiffRel chain exactly when one translate of
    one level's difference box holds s's bounding box."""
    diffs, bset, _ = _leq_form(cs)
    d = cs.space.dim
    bb = set_bounding_box(s)
    # every non-empty level has the infinite ends of the first one
    for i, side, _ in _open_sides(diffs, bb):
        return unbounded(direction=_unit(side, i, d), base_point=_point_inside(bb),
                         note="set is infinite where every level reach is finite")
    # the fit index: the least level at least as wide as bb in every coordinate;
    # a point fits in the 0 that every orbit level holds
    widths = Box((0,) * d, tuple(hi - lo for lo, hi in zip(bb.lower, bb.upper)))
    if bset is not None and _within_zero(widths):
        n = 0
    else:
        fit = diffs if diffs.kind == MAXIMAL else chain_bornology(
            cs.space, [(AffineEnd(0, 0), _width_end(lo, hi)) for lo, hi in diffs.shape])
        n = is_bounded(fit, BoxSet(widths)).index
        if n is None:
            return BoundVerdict("inconclusive", note="no level fits: the chain fails the axioms")
    a = _fit_translate(bb, _level_diffs(diffs, bset, n))
    return bounded_at(n, note=f"A={{{a}}}")


def _fit_translate(target: Box, shape: Box):
    """An integer a with target ⊆ a + shape, or None."""
    a = []
    for lo_t, hi_t, lo_s, hi_s in zip(target.lower, target.upper, shape.lower, shape.upper):
        lo_inf_t, hi_inf_t = lo_t == NEG_INF, hi_t == POS_INF
        lo_inf_s, hi_inf_s = lo_s == NEG_INF, hi_s == POS_INF
        if (lo_inf_t and not lo_inf_s) or (hi_inf_t and not hi_inf_s):
            return None
        # choose the shift; any coordinate with matching infinite ends is free
        cand_lo = lo_t - lo_s if not lo_inf_t and not lo_inf_s else NEG_INF
        cand_hi = hi_t - hi_s if not hi_inf_t and not hi_inf_s else POS_INF
        # need a_i <= lo_t - lo_s and a_i >= hi_t - hi_s
        lo_need = cand_hi if cand_hi != POS_INF else None
        hi_need = cand_lo if cand_lo != NEG_INF else None
        if lo_need is not None and hi_need is not None and lo_need > hi_need:
            return None
        pick = lo_need if lo_need is not None else (hi_need if hi_need is not None else 0)
        a.append(int(pick))
    return tuple(a)


def _connected_coarsely_bounded(b: BornologySpec, s) -> BoundVerdict:
    """diag ∪ B_n × B_n holds s in one E_n[A] exactly when s is bounded, so
    is_bounded's verdict (level or escape) is the answer."""
    v = is_bounded(b, s)
    if v.bounded:
        lvl = level_box(b, v.index) if b.kind != MAXIMAL else None
        anchor = _point_inside(lvl) if lvl is not None and not lvl.empty else None
        note = f"A={{point of level {v.index}}}" if anchor is not None else "A=s itself"
        return bounded_at(v.index, note=note)
    return v


def _orbit_coarsely_bounded(a: ActionInstance, s) -> BoundVerdict:
    sb = a.space_bornology  # an empty level rewrites exactly, so read the first non-empty one
    rw = _rewrite_orbit_pair(OrbitPair(a, BoxSet(level_box(sb, first_level(sb) or 0))))
    if rw.exact and isinstance(rw.descriptor, DiffRel):
        cs = ChainStructure(a.space, "orbit_pair", action=a)
        return _diffrel_coarsely_bounded(cs, s)
    if rw.exact and isinstance(rw.descriptor, ConnectedPairs):
        return _connected_coarsely_bounded(sb, s)
    v = is_bounded(sb, s)
    if v.bounded:
        return bounded_at(v.index, note="A={point of the bounded set}")
    if sb.kind == CHAIN and not _recession_rays(a.matrix, chain_recession(sb)):
        return v  # weakly proper: induced bornology equals the space bornology
    return BoundVerdict("inconclusive", note="orbit chain without exact rewrite")


# --- containment between structures ------------------------------------------
#
# A lattice chain structure is read in one of three normal forms: a DiffRel
# chain (metric balls, group-right levels), connected pairs diag ∪ B_n × B_n,
# or orbit pairs E(L, B_n).  Every level is built from boxes whose ends are
# affine in n, and under the covering axiom every finite end widens without
# bound, so the non-empty levels of a chain share their infinite ends: "∃m with
# X_n ⊆ Y_m" holds for every n once it holds at the first level of X with an
# off-diagonal pair, and the least such m is one is_bounded read per n.


def _leq_form(cs):
    """(diffs, bset, matrix) of a lattice chain structure.  diffs is the chain
    of level difference sets {y - x : (x,y) ∈ level n}; a connected or orbit
    chain also has its level sets B_n as bset and its shift matrix (None when
    zero), and its level n holds the differences (B_n ⊖ B_n) ∪ {0}, all
    realised at l = 0.  A DiffRel chain has bset None."""
    if cs.kind == "metric_ball":
        return cubes_chain(cs.space), None, None
    if cs.kind == "group_right":
        return cs.group.bornology, None, None
    if cs.kind == "connected_pairs":
        b, m = cs.bornology, None
    elif cs.kind == "orbit_pair":
        require_exact_rule(cs.action)
        b, m = cs.action.space_bornology, cs.action.matrix
        m = m if any(any(row) for row in m) else None
    else:
        raise UnsupportedVariant(f"chain kind {cs.kind}")
    return _difference_chain(b), b, m


def _width_end(lo: AffineEnd, hi: AffineEnd) -> AffineEnd:
    """hi - lo as an end in the chain index; +inf when either end is infinite."""
    if lo.is_symbolic or hi.is_symbolic:
        return AFF_POS_INF
    return AffineEnd(hi.coeff - lo.coeff, hi.offset - lo.offset)


def _difference_chain(b: BornologySpec) -> BornologySpec:
    """The chain of B_n ⊖ B_n = ∏ [-(hi - lo), hi - lo], empty where B_n is."""
    if b.kind == MAXIMAL:
        return b
    ends = [_width_end(lo, hi) for lo, hi in b.shape]
    return chain_bornology(b.space, [(AffineEnd(-w.coeff, -w.offset, -w.inf), w) for w in ends])


def _level_diffs(diffs: BornologySpec, bset, n: int) -> Box:
    """The differences of level n: a connected or orbit level holds the
    diagonal's 0 also where B_n is empty."""
    box = level_box(diffs, n)
    return point_box((0,) * box.dim) if bset is not None and box.empty else box


def _within_zero(box: Box) -> bool:
    return box.empty or set(box.lower + box.upper) == {0}


def _first_wide(diffs: BornologySpec) -> int:
    """The first level whose differences hold a nonzero shift."""
    n = first_level(diffs)
    return first_level(diffs, 2) if _within_zero(level_box(diffs, n)) else n


def _open_sides(spec: BornologySpec, box: Box) -> list:
    """(coordinate, side, end) where box is infinite and every level of spec
    ends at the finite affine end."""
    if spec.kind == MAXIMAL:
        return []
    return [(r, s, end) for r, ends in enumerate(spec.shape)
            for s, end, v in zip((-1, 1), ends, (box.lower[r], box.upper[r]))
            if not end.is_symbolic and not is_finite_end(v)]


def _escape_family(p, q, wx, wy, end: AffineEnd, base: int) -> tuple:
    """The pairs (p + t·wx, q + t·wy) with t = |a|·m + |b| + |base| + 1 for the
    end a·m + b, one AffineEnd per coordinate: a coordinate that starts at base
    and moves by at least t passes the end at every m."""
    k, k0 = abs(end.coeff), abs(end.offset) + abs(base) + 1
    return tuple(tuple(AffineEnd(k * w, c + k0 * w) for c, w in zip(pt, ws))
                 for pt, ws in ((p, wx), (q, wy)))


def family_pair(family, m: int) -> tuple:
    """The member at index m of a refutation family of structure_leq."""
    return tuple(tuple(e(m) for e in pt) for pt in family)


def _escape(n: int, family, budget: Budget) -> Verdict:
    return refuted(witness={"level": n, "pair": family_pair(family, budget.max_index),
                            "family": family},
                   detail=f"level {n} escapes every level: the family holds one pair per level")


def structure_leq(cs1, cs2, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """∀n ∃m: level1_n ⊆ level2_m, read from the affine ends of both chains.

    The confirmed witness lists (n, max(n, least m)) for n ≤ max_index.  A
    refutation names a level n and a family m ↦ pair of level-n pairs outside
    level m (see family_pair), with its member at m = max_index as "pair".
    """
    if isinstance(cs1, FiniteClosure) and isinstance(cs2, FiniteClosure):
        if cs1.space != cs2.space:
            raise GeometryError("structure_leq: ground space mismatch")
        (rel,), (top,) = cs1.maximal, cs2.maximal
        if not rel <= top:
            return refuted(witness={"relation": sorted(rel, key=str)[:4],
                                    "pair": next(iter(rel - top))})
        return confirmed("antichain containment")
    if isinstance(cs1, FiniteClosure) or isinstance(cs2, FiniteClosure):
        raise GeometryError("structure_leq: mixed finite/lattice structures")
    if cs1.space != cs2.space:
        raise GeometryError("structure_leq: ground space mismatch")
    dx, bx, mx = _leq_form(cs1)
    dy, by, my = _leq_form(cs2)
    if not all(s.matrix is None and bornology_axiom_check(s).passed
               for s in (bx or dx, by or dy)):
        return verdict_inconclusive("a chain fails the bornology axioms")
    dim = cs1.space.dim
    zero = (0,) * dim
    n = _first_wide(dx)
    diffs = _level_diffs(dx, bx, n)
    # a level-n pair whose difference passes the ends of every level of cs2
    for r, s, end in _open_sides(dy, diffs):
        unit = _unit(s, r, dim)
        if bx is None:
            q = _point_inside(diffs)
            return _escape(n, _escape_family(zero, q, zero, unit, end, q[r]), budget)
        # B_n is infinite along r: move one of two equal points along it
        b = level_box(bx, n)
        p = _point_inside(b)
        if not is_finite_end((b.upper if s > 0 else b.lower)[r]):
            return _escape(n, _escape_family(p, p, zero, unit, end, 0), budget)
        return _escape(n, _escape_family(p, p, _unit(-s, r, dim), zero, end, 0), budget)
    exact = by is None or (my is not None and column_lattice_index(my) == 1)
    if not exact:
        # on a zero row r of M' the pairs of E(L', B'_m) off the diagonal stay
        # in B'_m, so a level-n pair that reaches past a finite end of B' there
        # escapes; level n reaches along the nonzero rows of M and B_n's
        # infinite ends, and a DiffRel level reaches everywhere
        reach = full_box(dim) if bx is None else level_box(bx, n)
        if mx is not None:
            free = [any(row) for row in mx]
            reach = Box(tuple(NEG_INF if f else v for f, v in zip(free, reach.lower)),
                        tuple(POS_INF if f else v for f, v in zip(free, reach.upper)))
        for r, s, end in _open_sides(by, reach):
            if my is not None and any(my[r]):
                continue
            # a pair (p, q) of level n that moves by w, at least one step along r
            w = _unit(s, r, dim)
            if bx is None:
                v = _point_inside(diffs)
                p, q = zero, (v if any(v) else _second_point(diffs, v))
            elif mx is not None and any(mx[r]):
                b = level_box(bx, n)
                p = _point_inside(b)
                q = _second_point(b, p)
                j = next(j for j, c in enumerate(mx[r]) if c)
                w = tuple(s * (1 if mx[r][j] > 0 else -1) * row[j] for row in mx)
            else:
                p = _point_inside(level_box(bx, n))
                q = tuple(a + c for a, c in zip(p, w))
            return _escape(n, _escape_family(p, q, w, w, end, p[r]), budget)

    def least(k: int):
        """The least m with level k ⊆ level m, or None when no rule applies."""
        d = _level_diffs(dx, bx, k)
        if by is not None and _within_zero(d):
            return 0  # level k lies in the diagonal, which every level holds
        if exact:
            return is_bounded(dy, BoxSet(d)).index
        ms = []
        if mx is None or my is None or mx == my:
            # B_k ⊆ B'_m suffices, and into connected pairs it is exact once
            # no zero-row escape exists; a DiffRel level needs B' full
            v = is_bounded(by, BoxSet(full_box(dim) if bx is None else level_box(bx, k)))
            ms += [v.index] if v.bounded else []
        if my is not None and len(my) == 1 == len(my[0]):
            # d = k = 1: (x, x+u) ∈ E(L', B') for every x exactly when B' is
            # wide enough to hold u in every class mod the column gcd g
            u = max(-d.lower[0], d.upper[0]) + abs(my[0][0]) - 1
            m = least_index_cover_upper(_width_end(*by.shape[0]) if by.kind != MAXIMAL
                                        else AFF_POS_INF, u)
            ms += [m] if m is not None else []
        return min(ms, default=None)

    if least(n) is None:
        return verdict_inconclusive(f"level {n}: no containment rule for these chains")
    return confirmed("levelwise containment",
                     witness=tuple((k, max(k, least(k))) for k in range(budget.max_index + 1)))


def structures_equivalent(cs1, cs2, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    v1 = structure_leq(cs1, cs2, budget)
    if not v1.confirmed:
        return v1
    v2 = structure_leq(cs2, cs1, budget)
    if not v2.confirmed:
        return v2
    return confirmed("mutually cofinal", witness=(v1.witness, v2.witness))


# --- group actions against coarse structures ---------------------------------


def equi_controlled_check(a: ActionInstance, cs, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """For each level E, find F with E_l ⊆ F for every l (E_L controlled)."""
    if isinstance(cs, FiniteClosure):
        return _equi_finite(a, cs)
    if not a.is_translation:
        raise UnsupportedVariant("chain structures need translation actions")
    if cs.kind in ("metric_ball", "group_right"):
        return confirmed(
            "translations preserve difference relations: E_L = E at every level",
            witness=tuple((n, n) for n in range(budget.max_index + 1)),
        )
    if cs.kind == "orbit_pair":
        if cs.action is a or (
            cs.action.is_translation and cs.action.matrix == a.matrix
        ):
            return confirmed(
                "orbit-pair levels are sweep-invariant: L_*(E(L,B)) = E(L,B)",
                witness=tuple((n, n) for n in range(budget.max_index + 1)),
            )
        return verdict_inconclusive("orbit chain of a different action")
    if cs.kind == "connected_pairs":
        return _equi_connected(a, cs, budget)
    raise UnsupportedVariant(f"equi_controlled over {cs!r}")


def _equi_connected(a: ActionInstance, cs, budget: Budget) -> Verdict:
    b = cs.bornology
    m = a.matrix
    if b.kind == MAXIMAL:
        return confirmed("full levels absorb every sweep")
    if all(all(v == 0 for v in row) for row in m):
        return confirmed("trivial action: E_l = E")
    # sweep hull of B_n under all translates M·l
    rec = chain_recession(b) if b.kind == CHAIN else None
    n_wit = first_level(b, 2)
    sweep_dirs = []
    for r, row in enumerate(m):
        if any(v != 0 for v in row):
            sweep_dirs.append(r)
    absorbed = rec is not None and all(
        rec.lower[r] == NEG_INF and rec.upper[r] == POS_INF for r in sweep_dirs
    )
    if absorbed:
        return confirmed("chain recession absorbs the sweep directions")
    lvl = level_box(b, n_wit)
    x = _point_inside(lvl)
    y = _second_point(lvl, x)
    t = _escape_scale(b, budget.max_index, x, y)
    l_vec = _sweep_l(a, t)
    shift = mat_vec(m, l_vec)
    witness_pair = (
        tuple(p + s for p, s in zip(x, shift)),
        tuple(p + s for p, s in zip(y, shift)),
    )
    return refuted(
        witness={"level": n_wit, "l": l_vec, "pair": witness_pair},
        detail="swept level escapes every candidate level",
    )


def _escape_scale(b: BornologySpec, top: int, *points) -> int:
    """A shift size past every finite end of the chain up to level top."""
    bound = 0
    for lo, hi in b.shape:
        for end in (lo, hi):
            if not end.is_symbolic:
                bound = max(bound, abs(end.coeff) * top + abs(end.offset))
    for p in points:
        bound = max(bound, max(abs(c) for c in p))
    return 2 * bound + 2


def _second_point(lvl: Box, x):
    for i, (lo, hi) in enumerate(zip(lvl.lower, lvl.upper)):
        if hi != lo:
            y = list(x)
            y[i] = x[i] + 1 if (hi == POS_INF or x[i] + 1 <= hi) else x[i] - 1
            return tuple(y)
    return x


def _sweep_l(a: ActionInstance, t: int):
    k = a.group.rank
    for cand in bx.box_points(cube(1, k)):
        if any(cand) and any(mat_vec(a.matrix, cand)):
            return tuple(c * t for c in cand)
    return (t,) * k


def _equi_finite(a: ActionInstance, cs: FiniteClosure) -> Verdict:
    (rel,) = cs.maximal
    mappings = [a.rule.mapping(i) for i in range(len(a.group.elements))]
    escaped = {(g[x], g[y]) for g in mappings for x, y in rel} - rel
    if escaped:
        return refuted(witness={"pair": next(iter(escaped))})
    return confirmed("swept relations stay in the closure")


def coarsely_transitive_check(a: ActionInstance, cs, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Condition: some coarsely bounded B has L·B = X (finite B suffices)."""
    equi = equi_controlled_check(a, cs, budget)
    if not equi.confirmed:
        return not_applicable("equi-controlledness precondition failed", witness=equi)
    reps = covering_residues(a)
    if reps is not None:
        return confirmed("finite residue system covers the space",
                         witness={"B": reps})
    w = uncovered_direction(a)
    t = budget.window
    sample = tuple(t * c for c in w) if w else None
    return refuted(
        witness={"direction": w, "uncovered_point": sample},
        detail="column lattice is rank-deficient: no bounded set covers",
    )
