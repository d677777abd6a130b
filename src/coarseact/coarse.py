"""Entourage descriptors, their normal forms, and coarse structures.

The engine builds four normal forms: the translation-invariant DiffRel(s) =
{(x,y) : y - x ∈ s}, the connected pairs diag ∪ B×B, the orbit pairs E(L,B),
and compositions of two orbit pairs.  Sup-metric balls and lattice group-right
levels are built as DiffRels, and orbit pairs of surjective translation
actions rewrite to DiffRel exactly; that is what makes the structure-comparison
identities decidable.  Finite ground spaces close explicit relation bases into
an antichain of maximal relations by fixpoint.
"""

from __future__ import annotations

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
    is_finite_end,
    mat_vec,
    minkowski_sum,
    point_box,
    set_bounding_box,
    set_boxes,
    set_contains_set,
    set_is_empty,
    set_membership,
    set_negate,
    set_pieces,
    set_points_within,
    set_translate,
    union_set,
)
from .bornology import (
    CHAIN,
    MAXIMAL,
    AffineEnd,
    BornologySpec,
    chain_bornology,
    chain_recession,
    cubes_chain,
    first_level,
    generate_from_base,
    is_bounded,
    level_box,
    maximal_bornology,
    _point_inside,
    _unit,
)
from .actions import (
    ActionInstance,
    GroupSpec,
    _case_extent,
    _interval_k1,
    _k1_interval,
    _k1_rows,
    _recession_rays,
    column_lattice_index,
    covering_residues,
    lattice_box_feasible,
    rational_bbox,
    require_exact_rule,
    transporter,
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

    pairs is a sequence of (x, y) or an (n, 2, d) integer array.  A rank-1
    translation orbit pair, or a composition of two that no rewrite makes a
    DiffRel, answers the whole batch by interval arithmetic over integer
    arrays: int64 with ±2**61 for infinite ends while every coordinate and
    finite end is below 2**40 in magnitude, Python ints past that.
    """
    factors = (e.e1, e.e2) if isinstance(e, Compose) else (e,)
    a = getattr(factors[0], "action", None)
    if not (all(isinstance(f, OrbitPair) and f.action is a for f in factors)
            and a.is_translation and a.group.rank == 1):
        factors = ()
    elif len(factors) == 2:
        rw = _rewrite_compose(e, *map(entourage_rewrite, factors))
        if rw.exact and not isinstance(rw.descriptor, Compose):
            e, factors = rw.descriptor, ()
    if factors:
        return _k1_members(factors, pairs) if len(pairs) else []
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
    if a.group.rank == 1:
        offsets = _k1_offsets(a.matrix, pieces)

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


def _k1_offsets(m: tuple, pieces):
    """For k = 1, x ↦ the non-empty intervals I_p(x) = {l : x - M·l ∈ p}."""
    rows = [_k1_rows(m, p.lower, p.upper) for p in pieces]
    return lambda x: [iv for r in rows if (iv := _k1_interval(r, x)) is not None]


def _k1_members(factors, pairs) -> list:
    """entourage_members of E(L,B) or E(L,B1)∘E(L,B2) for a rank-1 translation
    action, by interval arithmetic over every pair at once."""
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
    m = factors[0].action.matrix
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
    gb = a.group.bornology
    hull = None
    for case in t.cases:
        # a maximal group bornology bounds every transporter: no ray is sought
        ray, status, bb = ((None, False, rational_bbox(t.matrix, case)) if gb.kind == MAXIMAL
                           else _case_extent(t.matrix, case))
        if ray is not None or status is None:
            return None
        if bb is not None:
            hull = bb if hull is None else box_hull(hull, bb)
    if gb.kind != MAXIMAL and hull is not None and not is_bounded(gb, BoxSet(hull)).bounded:
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

    The feasible l come from every constraint piece; each feasible l then
    translates the whole of B.
    """
    a = e.action
    b = e.bounded_set
    m = a.matrix
    xpt = FinitePoints(frozenset({x}))
    feasible_ls = set()
    truncated = False
    for piece in set_boxes(b):
        c = difference_box(point_box(x), piece)
        ray, status, bb = _case_extent(m, c)
        if ray is not None or status is None:
            # window-truncated sweep over an unbounded transporter
            truncated = True
            bb = cube(budget.window, len(m[0]))
        if bb is not None:
            feasible_ls.update(l for l in bx.box_points(bb) if c.contains(mat_vec(m, l)))
    parts = [xpt]
    exact = not truncated
    pieces = set_boxes(b)
    if len(feasible_ls) * len(pieces) > NBHD_ENUM_CAP:
        hull = None
        for l in sorted(feasible_ls):
            for piece in pieces:
                t = bx.translate_box(piece, mat_vec(m, l))
                hull = t if hull is None else box_hull(hull, t)
        if hull is not None:
            parts.append(BoxSet(hull))
        exact = False
    else:
        boxes = []
        for l in sorted(feasible_ls):
            for piece in pieces:
                boxes.append(bx.translate_box(piece, mat_vec(m, l)))
        parts.extend(BoxSet(t) for t in dict.fromkeys(boxes))
    out, ok = _union_or_hull(*parts)
    return out, exact and ok


# --- coarse structures -------------------------------------------------------


@dataclass(frozen=True)
class FiniteClosure:
    """Coarse structure on a finite space: antichain of maximal relations."""

    space: GroundSpace
    maximal: tuple  # sorted tuple of frozensets of pairs

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
    """Smallest coarse structure containing the base, as a maximal antichain.

    Fixpoint over transpose/union/composition on the antichain; subsets are
    implicit.  Ground sets are capped at 12 elements.
    """
    if space.is_lattice or len(space.labels) > 12:
        raise GeometryError("finite closure needs a finite ground set of size <= 12")
    diag = frozenset((x, x) for x in space.labels)
    current = _antichain([diag] + [frozenset(r) for r in base])
    while True:
        cands = set(current)
        for r in current:
            cands.add(frozenset((y, x) for x, y in r))
        for r1, r2 in itertools.product(current, repeat=2):
            cands.add(r1 | r2)
            cands.add(_compose_rel(r1, r2))
        new = _antichain(cands)
        if new == current:
            break
        current = new
    return FiniteClosure(space, tuple(sorted(current, key=_rel_key)))


def _compose_rel(r1, r2):
    by_first = {}
    for y, z in r2:
        by_first.setdefault(y, []).append(z)
    return frozenset((x, z) for x, y in r1 for z in by_first.get(y, ()))


def _antichain(rels):
    rels = set(rels)
    return [r for r in rels if not any(r < s for s in rels)]


def _rel_key(rel):
    return (len(rel), sorted((str(x), str(y)) for x, y in rel))


def associated_connected_structure(b: BornologySpec):
    """E_B: levels diag ∪ (B_n × B_n); full closure on finite spaces."""
    if not b.space.is_lattice:
        labels = b.space.labels
        full = frozenset(itertools.product(labels, labels))
        return close_finite_base(b.space, [full])
    return ChainStructure(b.space, "connected_pairs", bornology=b)


def group_right_structure(g: GroupSpec):
    """E^R: level k is the relation l^{-1}h ∈ D_k."""
    if g.is_lattice:
        return ChainStructure(GroundSpace.lattice(g.rank), "group_right", group=g)
    space = GroundSpace.finite(g.elements)
    rels = []
    levels = (
        [FinitePoints(frozenset(g.elements))]
        if g.bornology.kind == MAXIMAL
        else [FinitePoints(s) for s in generate_from_base(g.bornology.base)]
    )
    for d_set in levels:
        rel = set()
        for i, j in itertools.product(range(len(g.elements)), repeat=2):
            li = g.mul[g.inverse_index(i)][j]
            if g.elements[li] in d_set.points:
                rel.add((g.elements[i], g.elements[j]))
        rels.append(frozenset(rel))
    return close_finite_base(space, rels)


def associated_orbit_structure(a: ActionInstance):
    """E(L, B_X) as a chain of orbit-pair levels (finite: explicit closure)."""
    if a.space.is_lattice:
        return ChainStructure(a.space, "orbit_pair", action=a)
    if a.space_bornology.kind == MAXIMAL:
        elems = [frozenset(a.space.labels)]
    else:
        elems = list(generate_from_base(a.space_bornology.base))
    rels = []
    for elem in elems:
        e = OrbitPair(a, FinitePoints(frozenset(elem)))
        rels.append(
            frozenset(
                (x, y)
                for x in a.space.labels
                for y in a.space.labels
                if entourage_membership(e, (x, y)) is True
            )
        )
    return close_finite_base(a.space, rels)


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
    constructs; escape directions come from index-independent recession data.
    """
    if isinstance(cs, FiniteClosure):
        return bounded_at(0, note="finite space: A may be the whole ground set")
    if set_is_empty(s):
        return bounded_at(0, note="empty set")
    if cs.kind in ("metric_ball", "group_right"):
        return _diffrel_coarsely_bounded(cs, s, budget)
    if cs.kind == "connected_pairs":
        return _connected_coarsely_bounded(cs.bornology, s, budget)
    if cs.kind == "orbit_pair":
        return _orbit_coarsely_bounded(cs.action, s, budget)
    raise UnsupportedVariant(f"coarsely_bounded over {cs!r}")


def _level_shift_set(cs, n: int):
    rw = entourage_rewrite(cs.level(n))
    return rw.descriptor.shift_set


def _diffrel_coarsely_bounded(cs, s, budget: Budget) -> BoundVerdict:
    d = cs.space.dim
    bb = set_bounding_box(s)
    # reach flags unioned over levels: an empty low level must not hide the
    # symbolic ends that later levels carry
    lo_inf = [False] * d
    hi_inf = [False] * d
    for n in range(budget.max_index + 1):
        shift_bb = set_bounding_box(_level_shift_set(cs, n))
        if shift_bb.empty:
            continue
        for i in range(d):
            lo_inf[i] = lo_inf[i] or shift_bb.lower[i] == NEG_INF
            hi_inf[i] = hi_inf[i] or shift_bb.upper[i] == POS_INF
    rec = Box(
        tuple(NEG_INF if f else 0 for f in lo_inf),
        tuple(POS_INF if f else 0 for f in hi_inf),
    )
    for i in range(d):
        if bb.lower[i] == NEG_INF and rec.lower[i] != NEG_INF:
            return unbounded(direction=_unit(-1, i, d), base_point=_point_inside(bb),
                             note="set is infinite where every level reach is finite")
        if bb.upper[i] == POS_INF and rec.upper[i] != POS_INF:
            return unbounded(direction=_unit(1, i, d), base_point=_point_inside(bb),
                             note="set is infinite where every level reach is finite")
    for n in range(budget.max_index + 1):
        shift_bb = set_bounding_box(_level_shift_set(cs, n))
        if shift_bb.empty:
            continue
        a = _fit_translate(bb, shift_bb)
        if a is not None:
            return bounded_at(n, note=f"A={{{a}}}")
    return BoundVerdict("inconclusive", note="no single-translate fit within budget")


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


def _connected_coarsely_bounded(b: BornologySpec, s, budget: Budget) -> BoundVerdict:
    v = is_bounded(b, s)
    if v.bounded:
        lvl = level_box(b, v.index) if b.kind != MAXIMAL else None
        anchor = _point_inside(lvl) if lvl is not None and not lvl.empty else None
        note = f"A={{point of level {v.index}}}" if anchor is not None else "A=s itself"
        return bounded_at(v.index, note=note)
    # s may still be B_n plus finitely many stray points
    if isinstance(s, BoxSet) and b.kind == CHAIN and b.matrix is None:
        n = budget.max_index
        slabs = bx.box_difference_slabs(s.box, level_box(b, n))
        if all(sl.is_bounded() for sl in slabs):
            return bounded_at(n, note="A = finite remainder outside the level")
    return v


def _orbit_coarsely_bounded(a: ActionInstance, s, budget: Budget) -> BoundVerdict:
    rw = _rewrite_orbit_pair(OrbitPair(a, BoxSet(level_box(a.space_bornology, 0))))
    if rw.exact and isinstance(rw.descriptor, DiffRel):
        cs = ChainStructure(a.space, "orbit_pair", action=a)
        return _diffrel_coarsely_bounded(cs, s, budget)
    if rw.exact and isinstance(rw.descriptor, ConnectedPairs):
        return _connected_coarsely_bounded(a.space_bornology, s, budget)
    v = is_bounded(a.space_bornology, s)
    if v.bounded:
        return bounded_at(v.index, note="A={point of the bounded set}")
    if a.space_bornology.kind == CHAIN and not _recession_rays(
        a.matrix, chain_recession(a.space_bornology)
    ):
        return v  # weakly proper: induced bornology equals the space bornology
    return BoundVerdict("inconclusive", note="orbit chain without exact rewrite")


# --- containment between structures ------------------------------------------


def entourage_leq_exact(e1, e2):
    """(verdict, witness) for e1 ⊆ e2 using rewrites only; None = undecided.

    An inexact (over-approximating) rewrite of e1 may still prove containment;
    refutation witnesses are only issued from exact forms and replay through
    entourage_membership.
    """
    r1, r2 = entourage_rewrite(e1), entourage_rewrite(e2)
    d1, d2 = r1.descriptor, r2.descriptor
    if isinstance(d1, DiffRel) and _is_zero_only(d1.shift_set, d1.space.dim):
        for cand in (e2, d2):
            if isinstance(cand, (OrbitPair, ConnectedPairs)):
                return True, None
        if isinstance(d2, DiffRel) and r2.exact:
            zero = (0,) * d1.space.dim
            if set_membership(d2.shift_set, zero):
                return True, None
    if isinstance(d1, DiffRel) and isinstance(d2, DiffRel):
        contained = set_contains_set(d2.shift_set, d1.shift_set)
        # an over-approximation is sound on the left only
        if contained is True and r2.exact:
            return True, None
        if contained is False and r1.exact and r2.exact:
            v = _witness_shift(d1.shift_set, d2.shift_set)
            if v is not None:
                dim = d1.space.dim
                return False, ((0,) * dim, v)
        if r1.exact and not r2.exact and isinstance(e2, OrbitPair):
            return _leq_diffrel_into_orbit_line(d1, e2)
        return None, None
    if isinstance(d2, ConnectedPairs):
        return _leq_into_connected(d1, r1.exact, d2)
    if isinstance(d1, ConnectedPairs):
        return _leq_from_connected(d1, d2, r2.exact)
    if isinstance(d1, OrbitPair) and isinstance(d2, OrbitPair):
        if d1.action is d2.action or (
            d1.action.is_translation
            and d2.action.is_translation
            and d1.action.matrix == d2.action.matrix
        ):
            c = set_contains_set(d2.bounded_set, d1.bounded_set)
            if c is True:
                return True, None
    if isinstance(d1, DiffRel) and r1.exact and isinstance(e2, OrbitPair):
        return _leq_diffrel_into_orbit_line(d1, e2)
    return None, None


def _leq_diffrel_into_orbit_line(d1: DiffRel, e2: OrbitPair):
    """Exact d=k=1 rule: membership of (x, x+v) depends only on x mod the
    column gcd, so bounded shift sets check finitely."""
    a = e2.action
    if not (a.is_translation and a.space.is_lattice
            and a.space.dim == 1 and a.group.rank == 1):
        return None, None
    g = column_lattice_index(a.matrix)
    if g is None or g == 0:
        return None, None
    b_bb = set_bounding_box(e2.bounded_set)
    shifts = d1.shift_set
    for piece in set_pieces(shifts):
        if isinstance(piece, BoxSet) and not piece.box.is_bounded():
            if b_bb.is_bounded():
                diam = int(b_bb.upper[0] - b_bb.lower[0])
                v = (diam + 1,) if piece.box.upper[0] == POS_INF else (-diam - 1,)
                if set_membership(shifts, v) and \
                        entourage_membership(e2, ((0,), v)) is False:
                    return False, ((0,), v)
            return None, None
    vs = set_points_within(shifts, 4096)
    if len(vs) > 4096:
        return None, None
    for v in vs:
        for r in range(g):
            pair = ((r,), (r + v[0],))
            m = entourage_membership(e2, pair)
            if m is False:
                return False, pair
            if m is None:
                return None, None
    return True, None


def _is_zero_only(s, d) -> bool:
    zero = (0,) * d
    for piece in set_pieces(s):
        if isinstance(piece, FinitePoints):
            if piece.points - {zero}:
                return False
        elif not (piece.box.lower == zero and piece.box.upper == zero):
            return False
    return True


def _leq_into_connected(d1, exact1, d2: ConnectedPairs):
    """e1 ⊆ diag ∪ (B×B): the off-diagonal part of e1 must sit inside B×B."""
    b = d2.bounded_set
    dim = d2.space.dim
    if isinstance(d1, DiffRel):
        zero = (0,) * dim
        off_diag = []
        for p in set_pieces(d1.shift_set):
            if isinstance(p, FinitePoints):
                rest = FinitePoints(p.points - {zero})
                if rest.points:
                    off_diag.append(rest)
            elif not (p.box.lower == zero and p.box.upper == zero):
                off_diag.append(p)
        if not off_diag:
            return True, None
        if set_bounding_box(b) == bx.full_box(dim):
            return True, None
        if not exact1:
            return None, None
        # pick a nonzero shift v and a base point outside B: the pair escapes
        v = None
        for p in off_diag:
            for cand in set_points_within(p, 8):
                if any(c != 0 for c in cand):
                    v = cand
                    break
            if v:
                break
        x = _point_outside(b, dim)
        if v is None or x is None:
            return None, None
        return False, (x, tuple(a + c for a, c in zip(x, v)))
    if isinstance(d1, ConnectedPairs):
        b1 = d1.bounded_set
        if _count_points_at_most(b1, 1):
            return True, None
        if set_contains_set(b, b1) is True:
            return True, None
        return None, None
    return None, None


def _leq_from_connected(d1: ConnectedPairs, d2, exact2):
    """diag ∪ (B×B) ⊆ e2: reduces to the difference set of B landing in e2."""
    b = d1.bounded_set
    dim = d1.space.dim
    zero = (0,) * dim
    if isinstance(d2, DiffRel):
        if not set_membership(d2.shift_set, zero):
            x = (0,) * dim
            return False, (x, x)
        if set_is_empty(b) or _count_points_at_most(b, 1):
            return True, None
        # a hulled difference set over-approximates: containment stays sound
        # and an escape is replayed by _pair_realizing_escape
        diff, _ = _piecewise_difference(b, b)
        c = set_contains_set(d2.shift_set, diff)
        if c is True:
            return True, None
        if c is False and exact2:
            pair = _pair_realizing_escape(b, d2.shift_set)
            if pair is not None:
                return False, pair
        return None, None
    return None, None


def _pair_realizing_escape(b, outer_shifts):
    """x, y ∈ b whose difference escapes outer_shifts, if constructible."""
    for p1 in set_boxes(b):
        for p2 in set_boxes(b):
            diff = difference_box(p2, p1)
            v = _witness_shift(BoxSet(diff), outer_shifts)
            if v is None:
                continue
            feas = box_intersect(p1, bx.translate_box(p2, tuple(-c for c in v)))
            x = _point_inside(feas)
            if x is None:
                continue
            y = tuple(a + c for a, c in zip(x, v))
            if set_membership(b, x) and set_membership(b, y):
                return (x, y)
    return None


def _count_points_at_most(s, n: int) -> bool:
    count = 0
    for piece in set_pieces(s):
        count += len(piece.points) if isinstance(piece, FinitePoints) else bx.box_size(piece.box)
        if count > n:
            return False
    return True


def _point_outside(s, d, radius: int = 64):
    for t in range(1, radius + 1):
        for sign in (1, -1):
            for i in range(d):
                p = _unit(sign * t, i, d)
                if not set_membership(s, p):
                    return p
    return None


def _witness_shift(inner, outer):
    """A vector in inner \\ outer, searching piece corners then small windows."""
    for piece in set_pieces(inner):
        if isinstance(piece, FinitePoints):
            for p in sorted(piece.points):
                if not set_membership(outer, p):
                    return p
        else:
            for corner in bx._finite_corners(piece.box):
                if piece.box.contains(corner) and not set_membership(outer, corner):
                    return corner
    for piece in set_pieces(inner):
        if isinstance(piece, BoxSet):
            for p in bx.box_points(bx.clip_box(piece.box, 16)):
                if not set_membership(outer, p):
                    return p
    return None


def _window_leq(e1, e2, budget: Budget):
    """Refutation by directed/grid counterexample pairs; else inconclusive.

    Only window evidence exists on this path, so the positive answer is never
    claimed here.
    """
    d = e1.space.dim if e1.space.is_lattice else None
    if d is None:
        return None, None
    ts = sorted(
        set(range(0, min(budget.window, 2 * budget.max_index + 4) + 1))
        | {budget.window // 2, budget.window}
    )
    pairs = []
    z = (0,) * d
    for t in ts:
        for i in range(d):
            for sign in (1, -1):
                p = _unit(sign * t, i, d)
                pairs.append((z, p))
                pairs.append((p, z))
                for j in range(d):
                    step = _unit(1, j, d)
                    pairs.append((p, tuple(a + s for a, s in zip(p, step))))
                    pairs.append((p, tuple(a + 2 * s for a, s in zip(p, step))))
    r = 3 if d <= 2 else 1
    grid = list(bx.box_points(cube(r, d)))
    pairs.extend((a, b) for a in grid for b in grid)
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        seen.add(pair)
        m1 = entourage_membership(e1, pair, budget)
        if m1 is True:
            m2 = entourage_membership(e2, pair, budget)
            if m2 is False:
                return False, pair
    return None, None


def structure_leq(cs1, cs2, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """∀n ∃m: level1_n ⊆ level2_m, with witnesses on failure.

    Chains are monotone, so a counterexample pair against the top budget level
    certifies escape from every smaller level.
    """
    if isinstance(cs1, FiniteClosure) and isinstance(cs2, FiniteClosure):
        if cs1.space != cs2.space:
            raise GeometryError("structure_leq: ground space mismatch")
        for rel in cs1.maximal:
            if not cs2.contains_relation(rel):
                extra = next(iter(rel - frozenset().union(*cs2.maximal)), None)
                return refuted(witness={"relation": sorted(rel, key=str)[:4],
                                        "pair": extra})
        return confirmed("antichain containment")
    if isinstance(cs1, FiniteClosure) or isinstance(cs2, FiniteClosure):
        raise GeometryError("structure_leq: mixed finite/lattice structures")
    if cs1.space != cs2.space:
        raise GeometryError("structure_leq: ground space mismatch")
    top = budget.max_index
    # containment indexes may exceed the level budget (e.g. m = 2n); search
    # further for certificates, refute against the deepest searched level
    m_top = 4 * top + 8
    pairs = []
    for n in range(top + 1):
        e1 = cs1.level(n)
        found = None
        for m in itertools.chain(range(n, m_top + 1), range(0, n)):
            ok, _ = entourage_leq_exact(e1, cs2.level(m))
            if ok is True:
                found = m
                break
        if found is None:
            ok_top, witness = _window_leq(e1, cs2.level(m_top), budget)
            if ok_top is False:
                return refuted(
                    witness={"level": n, "pair": witness},
                    detail=f"level {n} escapes every level <= {m_top}",
                )
            return verdict_inconclusive(
                f"level {n}: no containment certificate within budget"
            )
        pairs.append((n, found))
    return confirmed("levelwise containment", witness=tuple(pairs))


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
    for rel in cs.maximal:
        swept = set(rel)
        for i in range(len(a.group.elements)):
            mapping = a.rule.mapping(i)
            swept |= {(mapping[x], mapping[y]) for x, y in rel}
        if not cs.contains_relation(frozenset(swept)):
            extra = next(iter(frozenset(swept) - frozenset().union(*cs.maximal)))
            return refuted(witness={"pair": extra})
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
