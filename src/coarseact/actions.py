"""Bornological groups, actions, transporters, and properness classification.

Groups are finite (explicit tables) or ℤ^k; lattice actions are translation
rules x ↦ x + M·l for an integer d×k matrix M.  Every quantitative object
(transporter, stabilizer, orbit bornology) is then a box or a lattice preimage
{l : M·l ∈ C}, and boundedness reduces to recession-cone triviality of a
rational polyhedron, decided exactly for k ≤ 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

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
    box,
    box_hull,
    difference_box,
    is_finite_end,
    mat_vec,
    set_boxes,
)
from .bornology import (
    CHAIN,
    FINITE_BASE,
    MAXIMAL,
    BornologySpec,
    bornology_axiom_check,
    chain_recession,
    finite_base_bornology,
    first_level,
    generate_from_base,
    is_bounded,
    is_full_at_some_level,
    level_box,
    maximal_bornology,
    orbit_pullback,
    _unit,
)
from .verdicts import (
    Budget,
    CheckItem,
    CheckReport,
    DEFAULT_BUDGET,
    Verdict,
    bounded_at,
    confirmed,
    inconclusive,
    refuted,
    unbounded,
)

ENUM_CAP = 200_000


class ConsistencyError(AssertionError):
    """A proved implication was observed violated: an implementation bug."""


# --- groups and actions -----------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Finite group (tables) or ℤ^k, with a bornology on the element set."""

    kind: str  # "finite" | "lattice"
    bornology: BornologySpec
    elements: tuple = ()
    mul: tuple = ()  # mul[i][j] = index of elements[i] * elements[j]
    rank: int = 0

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice"

    def identity_index(self) -> int:
        for e in range(len(self.elements)):
            if all(self.mul[e][j] == j for j in range(len(self.elements))):
                return e
        raise GeometryError("group table has no identity")

    def inverse_index(self, i: int) -> int:
        e = self.identity_index()
        for j in range(len(self.elements)):
            if self.mul[i][j] == e and self.mul[j][i] == e:
                return j
        raise GeometryError(f"element {i} has no inverse")


def lattice_group(rank: int, bornology: BornologySpec) -> GroupSpec:
    if rank > 2:
        raise UnsupportedVariant("lattice groups are supported for rank k <= 2")
    return GroupSpec("lattice", bornology, rank=rank)


def finite_group(elements, mul, bornology: BornologySpec) -> GroupSpec:
    g = GroupSpec("finite", bornology, elements=tuple(elements),
                  mul=tuple(tuple(r) for r in mul))
    report = group_table_check(g)
    if not report.passed:
        raise GeometryError(f"not a group table: {report.failures()}")
    return g


def group_table_check(g: GroupSpec) -> CheckReport:
    """Identity, inverses, and exhaustive associativity for |L| <= 8."""
    if g.is_lattice:
        return CheckReport("group_table(lattice)", (CheckItem("vector_addition", True),))
    n = len(g.elements)
    items = []
    try:
        e = g.identity_index()
        items.append(CheckItem("identity", True, witness=e))
    except GeometryError:
        return CheckReport("group_table", (CheckItem("identity", False),))
    inv_ok = True
    for i in range(n):
        try:
            g.inverse_index(i)
        except GeometryError:
            inv_ok = False
            items.append(CheckItem("inverses", False, witness=i))
            break
    if inv_ok:
        items.append(CheckItem("inverses", True))
    assoc_witness = None
    if n <= 8:
        for a, b, c in itertools.product(range(n), repeat=3):
            if g.mul[g.mul[a][b]][c] != g.mul[a][g.mul[b][c]]:
                assoc_witness = (a, b, c)
                break
    items.append(CheckItem("associativity", assoc_witness is None, witness=assoc_witness))
    return CheckReport("group_table", tuple(items))


@dataclass(frozen=True)
class TranslationRule:
    """x ↦ x + M·l; automatically a homomorphism."""

    matrix: tuple  # d rows x k columns


@dataclass(frozen=True)
class PermutationRule:
    """perms[i] maps each space label to its image under group element i."""

    perms: tuple  # tuple of dict-like tuples of (label, label)

    def mapping(self, i: int) -> dict:
        return dict(self.perms[i])


@dataclass(frozen=True)
class AffineRule:
    """x ↦ A·x + M·l with A a signed permutation.

    Accepted in the file format but routed through the window oracle only;
    the exact calculus raises UnsupportedVariant on these rules because the
    composite bookkeeping is non-abelian.
    """

    point_matrix: tuple  # d x d signed permutation rows
    matrix: tuple        # d x k

    def apply_index(self, l: tuple, x: tuple) -> tuple:
        ax = mat_vec(self.point_matrix, x)
        return tuple(a + b for a, b in zip(ax, mat_vec(self.matrix, l)))


def is_signed_permutation(rows: tuple) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    for r in rows:
        if sum(1 for v in r if v in (1, -1)) != 1 or any(v not in (-1, 0, 1) for v in r):
            return False
    cols = list(zip(*rows))
    return all(sum(1 for v in c if v != 0) == 1 for c in cols)


@dataclass(frozen=True)
class ActionInstance:
    name: str
    group: GroupSpec
    space: GroundSpace
    rule: object
    space_bornology: BornologySpec

    @property
    def is_translation(self) -> bool:
        return isinstance(self.rule, TranslationRule)

    @property
    def is_window_only(self) -> bool:
        return isinstance(self.rule, AffineRule)

    @property
    def matrix(self) -> tuple:
        return self.rule.matrix


def require_exact_rule(a: ActionInstance):
    """The exact calculus covers translation and permutation rules only."""
    if a.is_window_only:
        raise UnsupportedVariant("affine rules route through the window oracle only")


def action_homomorphism_check(a: ActionInstance) -> CheckReport:
    """Permutation rules: exhaustive homomorphism test for |L| <= 8."""
    if isinstance(a.rule, AffineRule):
        ok = is_signed_permutation(a.rule.point_matrix)
        return CheckReport(
            "action_rule",
            (CheckItem("signed_permutation", ok),
             CheckItem("homomorphism", True,
                       detail="deferred: affine rules are window-oracle only")),
        )
    if a.is_translation:
        m = a.matrix
        if len(m) != a.space.dim or any(len(r) != a.group.rank for r in m):
            return CheckReport("action_rule", (CheckItem("matrix_shape", False),))
        return CheckReport("action_rule", (CheckItem("additivity", True),))
    n = len(a.group.elements)
    witness = None
    if n <= 8:
        for i, j in itertools.product(range(n), repeat=2):
            mi, mj = a.rule.mapping(i), a.rule.mapping(j)
            mij = a.rule.mapping(a.group.mul[i][j])
            if any(mi[mj[x]] != mij[x] for x in a.space.labels):
                witness = (i, j)
                break
    e = a.group.identity_index()
    id_ok = all(a.rule.mapping(e)[x] == x for x in a.space.labels)
    return CheckReport(
        "action_rule",
        (CheckItem("identity_acts_trivially", id_ok),
         CheckItem("homomorphism", witness is None, witness=witness)),
    )


# --- bornological-map checks --------------------------------------------------
#
# Chain ends are affine in the index and the covering axiom makes each finite
# end widen without bound, so a sum, negation or image of levels is bounded
# unless an infinite end meets a finite end of the target chain.


def _axiom_failure(*specs):
    """(name, witness) of the first failed axiom among the bornologies, or None."""
    for spec in specs:
        failures = bornology_axiom_check(spec).failures()
        if failures:
            return (failures[0].name, failures[0].witness)
    return None


def group_bornological_check(g: GroupSpec) -> CheckReport:
    """Multiplication and inversion send bounded sets to bounded sets.

    D_i + D_j has the chain's own infinite ends, so multiplication passes;
    -D_i swaps the ends, so inversion fails on a side whose end is finite
    while the opposite end is infinite.
    """
    if not g.is_lattice or g.bornology.kind == MAXIMAL:
        return CheckReport(
            "group_bornological",
            (CheckItem("multiplication", True), CheckItem("inversion", True)),
        )
    if g.bornology.kind != CHAIN or g.bornology.matrix is not None:
        raise UnsupportedVariant("lattice group bornology must be a plain chain")
    failed = _axiom_failure(g.bornology)
    shape = g.bornology.shape
    inv_bad = failed
    for c, (lo, hi) in enumerate(shape):
        if hi.inf == 1 and not lo.is_symbolic:
            inv_bad = inv_bad or ("coordinate", c, "lower", _unit(-1, c, len(shape)))
        if lo.inf == -1 and not hi.is_symbolic:
            inv_bad = inv_bad or ("coordinate", c, "upper", _unit(1, c, len(shape)))
    return CheckReport(
        "group_bornological",
        (CheckItem("multiplication", failed is None, witness=failed),
         CheckItem("inversion", inv_bad is None, witness=inv_bad)),
    )


def action_bornological_check(a: ActionInstance) -> CheckReport:
    """The action map sends product-bounded sets to bounded sets.

    Translation rules: the image of D_i × B_j is B_j ⊕ M·D_i.  Row r of it
    reaches +inf when a positive entry meets an infinite upper group end or a
    negative entry an infinite lower one (every nonzero entry, under the
    maximal group bornology), and the check fails where a finite space end
    faces such a row.  Permutation rules on finite spaces are vacuous.
    """
    if isinstance(a.rule, AffineRule):
        return CheckReport(
            "action_bornological",
            (CheckItem("image_bounded", True,
                       detail="window-oracle-only rule: exact check deferred"),),
        )
    if not a.is_translation:
        return CheckReport("action_bornological", (CheckItem("image_bounded", True),))
    if a.space_bornology.kind == MAXIMAL:
        return CheckReport("action_bornological", (CheckItem("image_bounded", True),))
    if a.space_bornology.kind != CHAIN or a.space_bornology.matrix is not None:
        raise UnsupportedVariant("space bornology must be a plain chain or maximal")
    gb = a.group.bornology
    bad = _axiom_failure(gb, a.space_bornology)
    for r, (lo, hi) in enumerate(a.space_bornology.shape):
        if not lo.is_symbolic and _row_reaches_infinity(gb, a.matrix[r], -1):
            bad = bad or ("coordinate", r, "lower")
        if not hi.is_symbolic and _row_reaches_infinity(gb, a.matrix[r], 1):
            bad = bad or ("coordinate", r, "upper")
    return CheckReport(
        "action_bornological", (CheckItem("image_bounded", bad is None, witness=bad),)
    )


def _row_reaches_infinity(gb: BornologySpec, row, sign: int) -> bool:
    """Whether row·D_i reaches sign·inf: an entry of that sign meets an
    infinite upper group end, or one of the other sign an infinite lower end."""
    if gb.kind == MAXIMAL:
        return any(row)
    return any(
        gb.shape[c][1].inf == 1 if v * sign > 0 else gb.shape[c][0].inf == -1
        for c, v in enumerate(row) if v
    )


# --- exact rational geometry for {l : M·l ∈ C} ------------------------------


def _ineqs_from_box(m: tuple, c: Box) -> list:
    """Constraints a·l <= b (integer data) for M·l ∈ C; None if C empty."""
    if c.empty:
        return None
    out = []
    for row, lo, hi in zip(m, c.lower, c.upper):
        if is_finite_end(hi):
            out.append((tuple(row), int(hi)))
        if is_finite_end(lo):
            out.append((tuple(-x for x in row), -int(lo)))
    return out


def _recession_rays(m: tuple, rec: Box) -> list:
    """Nonzero integer rays of {r : M·r ∈ rec}; complete for k <= 2."""
    k = len(m[0]) if m else 0
    if k == 0:
        return []

    def feasible(r):
        if all(x == 0 for x in r):
            return False
        v = mat_vec(m, r)
        return all(lo <= x <= hi for lo, x, hi in zip(rec.lower, v, rec.upper))

    if k == 1:
        return [r for r in ((1,), (-1,)) if feasible(r)]
    if k > 2:
        raise UnsupportedVariant("recession analysis implemented for k <= 2")
    cands = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for row, lo, hi in zip(m, rec.lower, rec.upper):
        if lo == NEG_INF and hi == POS_INF:
            continue
        a = _primitive(row)
        if a is None:
            continue
        cands.update({a, (-a[0], -a[1]), (-a[1], a[0]), (a[1], -a[0])})
    rays = sorted(r for r in cands if feasible(r))
    return rays


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in v)


def _fm_bounds_k2(ineqs, var: int):
    """Rational (lo, hi) range of l[var] via Fourier–Motzkin; None if infeasible.

    Finite ends are exact rationals as (numerator, denominator > 0) pairs.
    """
    other = 1 - var
    pos, neg, pure = [], [], []
    for a, b in ineqs:
        if a[other] > 0:
            pos.append((a, b))
        elif a[other] < 0:
            neg.append((a, b))
        else:
            pure.append((a, b))
    derived = list(pure)
    for (a1, b1), (a2, b2) in itertools.product(pos, neg):
        # eliminate l[other]
        w1, w2 = -a2[other], a1[other]
        coeff = w1 * a1[var] + w2 * a2[var]
        rhs = w1 * b1 + w2 * b2
        derived.append(((coeff if var == 0 else 0, coeff if var == 1 else 0), rhs))
    lo, hi = NEG_INF, POS_INF
    for a, b in derived:
        c = a[var]
        if c > 0:
            if hi == POS_INF or b * hi[1] < hi[0] * c:
                hi = (b, c)
        elif c < 0:
            if lo == NEG_INF or -b * lo[1] > lo[0] * -c:
                lo = (-b, -c)
        elif b < 0:
            return None
    if lo != NEG_INF and hi != POS_INF and lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return (lo, hi)


def _interval_k1(m: tuple, c: Box):
    """Exact integer interval {l : M·l ∈ C} for k = 1; None if empty."""
    lo, hi = NEG_INF, POS_INF
    for (a,), clo, chi in zip(m, c.lower, c.upper):
        if a < 0:
            a, clo, chi = -a, -chi, -clo
        if a == 0 and not clo <= 0 <= chi:
            return None
        # a·l ∈ [clo, chi], a ≥ 0
        if a and is_finite_end(clo):
            lo = max(lo, _ceil_div(int(clo), a))
        if a and is_finite_end(chi):
            hi = min(hi, int(chi) // a)
    return (lo, hi) if lo <= hi else None


def _k1_rows(m: tuple, lower: tuple, upper: tuple) -> tuple:
    """x - M·l ∈ p (k = 1, p the box with these ends) read once per p: row i
    with a = M[i][0] ≠ 0 is |a|·l ∈ [s·x_i - hi, s·x_i - lo], s = sign(a) and
    (lo, hi) the ends times s in order, finite ends only; zero rows keep p's."""
    zeros, lows, highs = [], [], []
    for i, (row, lo, hi) in enumerate(zip(m, lower, upper)):
        a, s = row[0], 1
        if a == 0:
            zeros.append((i, lo, hi))
            continue
        if a < 0:
            a, s, lo, hi = -a, -1, -hi, -lo
        if is_finite_end(hi):
            lows.append((i, s, a, int(hi)))
        if is_finite_end(lo):
            highs.append((i, s, a, int(lo)))
    return zeros, lows, highs


def _k1_interval(rows: tuple, x: tuple):
    """{l ∈ ℤ : x - M·l ∈ p} as (lo, hi) with ±inf ends, for the rows
    _k1_rows read from M and p; None if empty.  Builds no box."""
    zeros, lows, highs = rows
    for i, lo, hi in zeros:
        if not lo <= x[i] <= hi:
            return None
    lo, hi = NEG_INF, POS_INF
    for i, s, a, e in lows:
        lo = max(lo, -((e - s * x[i]) // a))
    for i, s, a, e in highs:
        hi = min(hi, (s * x[i] - e) // a)
    return (lo, hi) if lo <= hi else None


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def lattice_box_feasible(m: tuple, c: Box, cap: int = ENUM_CAP) -> bool | None:
    """Exact integer feasibility of M·l ∈ C over l ∈ ℤ^k (k <= 2).

    Layers: rational infeasibility, bounded enumeration, full-dimensional
    recession (always feasible), and a unimodular strip reduction for
    one-dimensional recession.  None only when an enumeration cap is hit.
    """
    if c.empty:
        return False
    k = len(m[0]) if m else 0
    if k == 1:
        iv = _interval_k1(m, c)
        return iv is not None
    if k != 2:
        raise UnsupportedVariant("integer feasibility implemented for k <= 2")
    ineqs = _ineqs_from_box(m, c)
    r0 = _fm_bounds_k2(ineqs, 0)
    if r0 is None:
        return False
    rec = Box(
        tuple(NEG_INF if lo == NEG_INF else 0 for lo in c.lower),
        tuple(POS_INF if hi == POS_INF else 0 for hi in c.upper),
    )
    rays = _recession_rays(m, rec)
    if _has_two_independent(rays):
        # full-dimensional recession: arbitrarily large balls, integers inside
        return True
    if rays:
        # all recession lies on one line; align it with e1, then the e2-range
        # of the transformed polyhedron is rationally bounded
        u = _unimodular_for_ray(rays[0])
        mu = tuple(tuple(sum(row[t] * u[t][s] for t in range(2)) for s in range(2))
                   for row in m)
        ineqs_u = _ineqs_from_box(mu, c)
        r1u = _fm_bounds_k2(ineqs_u, 1)
        if r1u is None:
            return False
        return _enumerate_k2_var(ineqs_u, 1, r1u, cap)
    # bounded region: enumerate the smaller variable
    r1 = _fm_bounds_k2(ineqs, 1)
    if r1 is None:
        return False
    if _no_wider(r0, r1):
        return _enumerate_k2_var(ineqs, 0, r0, cap)
    return _enumerate_k2_var(ineqs, 1, r1, cap)


def _has_two_independent(rays) -> bool:
    for r1, r2 in itertools.combinations(rays, 2):
        if r1[0] * r2[1] - r1[1] * r2[0] != 0:
            return True
    return False


def _unimodular_for_ray(ray):
    """Unimodular U (columns) with U·e1 = primitive(ray); shrinks var-1 range."""
    r = _primitive(ray)
    g, a, b = _xgcd(r[0], r[1])
    # a*r0 + b*r1 = 1 after scaling; columns [r, (-b, a)]
    return ((r[0], -b), (r[1], a))


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _enumerate_k2_var(ineqs, var, rng, cap) -> bool | None:
    """Enumerate one variable over its bounded rational range; exact under cap."""
    if rng[0] == NEG_INF or rng[1] == POS_INF:
        return None
    lo, hi = _ceil_div(*rng[0]), rng[1][0] // rng[1][1]
    if hi - lo + 1 > cap:
        return None
    other = 1 - var
    for v in range(lo, hi + 1):
        olo, ohi = NEG_INF, POS_INF
        ok = True
        for a, b in ineqs:
            rest = b - a[var] * v
            co = a[other]
            if co > 0:
                ohi = min(ohi, rest // co)
            elif co < 0:
                olo = max(olo, _ceil_div(rest, co))
            elif rest < 0:
                ok = False
                break
        if ok and olo <= ohi:
            return True
    return False


def _no_wider(r0, r1) -> bool:
    """Exact width comparison of two rational ranges; unbounded is widest."""
    if r1[0] == NEG_INF or r1[1] == POS_INF:
        return True
    if r0[0] == NEG_INF or r0[1] == POS_INF:
        return False
    (l0, dl0), (h0, dh0) = r0
    (l1, dl1), (h1, dh1) = r1
    return (h0 * dl0 - l0 * dh0) * dh1 * dl1 <= (h1 * dl1 - l1 * dh1) * dh0 * dl0


def rational_bbox(m: tuple, c: Box) -> Box | None:
    """Bounding box of the rational polyhedron {l : M·l ∈ C} (must be bounded).

    k = 1: interval intersection.  k = 2: feasible pairwise vertex enumeration.
    Returns None when the polyhedron is rationally empty.
    """
    k = len(m[0]) if m else 0
    if c.empty:
        return None
    if k == 1:
        iv = _interval_k1(m, c)
        # a non-empty interval is a canonical box already
        return None if iv is None else Box((iv[0],), (iv[1],))
    if k != 2:
        raise UnsupportedVariant("bounding boxes implemented for k <= 2")
    ineqs = _ineqs_from_box(m, c)
    los, his = [POS_INF, POS_INF], [NEG_INF, NEG_INF]
    for (a1, b1), (a2, b2) in itertools.combinations(ineqs, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        # the vertex is (x / det, y / det); scale so that det > 0
        x = b1 * a2[1] - b2 * a1[1]
        y = a1[0] * b2 - a2[0] * b1
        if det < 0:
            det, x, y = -det, -x, -y
        if all(a[0] * x + a[1] * y <= b * det for a, b in ineqs):
            for i, t in enumerate((x, y)):
                los[i] = min(los[i], _ceil_div(t, det))
                his[i] = max(his[i], t // det)
    if los[0] == POS_INF:
        return None
    return box((los[0], his[0]), (los[1], his[1]))


# --- transporters ------------------------------------------------------------


@dataclass(frozen=True)
class LatticeTransporter:
    """{l ∈ ℤ^k : M·l ∈ some case box}; cases are a flat union."""

    matrix: tuple
    cases: tuple  # tuple of Box

    def member(self, l: tuple) -> bool:
        v = mat_vec(self.matrix, l)
        return any(case.contains(v) for case in self.cases)


@dataclass(frozen=True)
class ExplicitTransporter:
    elements: frozenset

    def member(self, l) -> bool:
        return l in self.elements


def transporter(a: ActionInstance, b, b2):
    """L_{B,B'} = {l : l·B ∩ B' ≠ ∅} as an exact descriptor; a translation
    rule gives a LatticeTransporter, with no cases when it is empty."""
    require_exact_rule(a)
    if a.is_translation:
        cases = []
        for src in set_boxes(b):
            for tgt in set_boxes(b2):
                c = difference_box(tgt, src)
                if not c.empty:
                    cases.append(c)
        return LatticeTransporter(a.matrix, tuple(dict.fromkeys(cases)))
    hits = []
    for i in range(len(a.group.elements)):
        mapping = a.rule.mapping(i)
        moved = {mapping[x] for x in b.points}
        if moved & set(b2.points):
            hits.append(a.group.elements[i])
    return ExplicitTransporter(frozenset(hits))


def transporter_bounded(a: ActionInstance, t) -> "object":
    """Boundedness of a transporter in the group bornology, with certificate."""
    gb = a.group.bornology
    if gb.kind == MAXIMAL:
        return bounded_at(0, note="maximal group bornology")
    if isinstance(t, ExplicitTransporter):
        if not t.elements:
            return bounded_at(0, note="empty transporter")
        return is_bounded(gb, FinitePoints(t.elements))
    hull = None
    for case in t.cases:
        ray, status, bb = _case_extent(t.matrix, case)
        if status is None:
            return inconclusive("feasibility enumeration cap hit")
        if ray is not None:
            return _ray_unbounded(ray)
        if bb is not None:
            hull = bb if hull is None else box_hull(hull, bb)
    if hull is None:
        return bounded_at(0, note="empty transporter")
    return is_bounded(gb, BoxSet(hull))


def _ray_unbounded(ray):
    """The verdict on a transporter whose case polyhedron has this ray."""
    return unbounded(direction=ray, base_point=None,
                     note="recession ray of the transporter polyhedron")


def _case_extent(m, case: Box):
    """(ray, status, bbox) of {l : M·l ∈ case}, the case read once: an integer
    ray of a feasible case with status True, or no ray, rational_bbox(M, case)
    and status False (None when the feasibility enumeration cap was hit).
    For k = 1 all three come from one integer interval, (1,) ray first."""
    if case.empty:
        return None, False, None
    if m and len(m[0]) == 1:
        iv = _interval_k1(m, case)
        if iv is None:
            return None, False, None
        if iv[0] != NEG_INF and iv[1] != POS_INF:
            return None, False, Box((iv[0],), (iv[1],))
        return ((1,) if iv[1] == POS_INF else (-1,)), True, None
    rec = Box(
        tuple(NEG_INF if lo == NEG_INF else 0 for lo in case.lower),
        tuple(POS_INF if hi == POS_INF else 0 for hi in case.upper),
    )
    rays = _recession_rays(m, rec)
    feasible = lattice_box_feasible(m, case) if rays else False
    if feasible:
        return rays[0], True, None
    return None, feasible, rational_bbox(m, case)


# --- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    b_proper: Verdict
    weakly_b_proper: Verdict
    bi: Verdict
    sample_points: tuple = ()
    detail: str = ""

    def flags(self) -> dict:
        return {
            "b_proper": self.b_proper.confirmed,
            "weakly_b_proper": self.weakly_b_proper.confirmed,
            "bi": self.bi.confirmed,
        }


def kernel_vector(m: tuple):
    """A nonzero integer kernel vector of M, or None when injective."""
    k = len(m[0]) if m else 0
    if k == 1:
        return None if any(row[0] != 0 for row in m) else (1,)
    if k == 2:
        if all(all(x == 0 for x in row) for row in m):
            return (1, 0)
        row = next(r for r in m if any(x != 0 for x in r))
        cand = _primitive((-row[1], row[0]))
        if all(r[0] * cand[0] + r[1] * cand[1] == 0 for r in m):
            return cand
        return None
    raise UnsupportedVariant("kernel analysis implemented for k <= 2")


# --- the column lattice M·ℤ^k: echelon basis and canonical residues ---------


def _echelon(m: tuple) -> tuple:
    """Echelon basis ((pivot, vector), ...) of the column lattice M·ℤ^k.

    Integer gcd elimination one coordinate at a time: each basis vector is
    zero before its pivot coordinate and positive on it, and the pivots
    strictly increase, so the vectors form a basis of the lattice.
    """
    pool = [tuple(col) for col in zip(*m)]
    basis = []
    for p in range(len(m)):
        piv, rest = None, []
        for v in pool:
            if piv is None and v[p]:
                piv = v
                continue
            while v[p]:
                q = piv[p] // v[p]
                piv, v = v, tuple(x - q * y for x, y in zip(piv, v))
            if any(v):
                rest.append(v)
        if piv is not None:
            basis.append((p, piv if piv[p] > 0 else tuple(-x for x in piv)))
        pool = rest
    return tuple(basis)


def _residue(basis: tuple, v: tuple) -> tuple:
    """Canonical representative of v + M·ℤ^k: each pivot coordinate in [0, pivot).

    Two vectors share a coset exactly when their residues are equal, so v
    lies in M·ℤ^k exactly when its residue is zero.
    """
    v = list(v)
    for p, b in basis:
        q = v[p] // b[p]
        if q:
            for i in range(p, len(v)):
                v[i] -= q * b[i]
    return tuple(v)


def _lattice_index(basis: tuple, d: int):
    return prod(b[p] for p, b in basis) if len(basis) == d else None


def _coset_firsts(basis: tuple, d: int, max_radius: int):
    """Points of ℤ^d in cube-shell order, each the first one met in its coset."""
    origin = (0,) * d
    seen = {_residue(basis, origin)}
    yield origin
    for radius in range(1, max_radius + 1):
        for p in bx.box_points(bx.cube(radius, d)):
            if max(map(abs, p)) < radius:
                continue
            r = _residue(basis, p)
            if r not in seen:
                seen.add(r)
                yield p


def column_lattice_index(m: tuple):
    """Index of the column lattice in ℤ^d when full rank, else None."""
    return _lattice_index(_echelon(m), len(m))


def coset_sample_points(a: ActionInstance, cap: int = 32) -> tuple:
    """Origin plus one representative per column-lattice coset, capped."""
    if not a.is_translation:
        return tuple(a.space.labels[:cap])
    basis = _echelon(a.matrix)
    index = _lattice_index(basis, len(a.matrix))
    target = min(cap, index) if index else cap
    return tuple(itertools.islice(_coset_firsts(basis, a.space.dim, 6), target))


def _space_levels(a: ActionInstance, budget: Budget):
    sb = a.space_bornology
    if sb.kind == FINITE_BASE:
        return [FinitePoints(e) for e in generate_from_base(sb.base)]
    if sb.kind == MAXIMAL and not a.space.is_lattice:
        return [FinitePoints(frozenset(a.space.labels))]
    return [BoxSet(level_box(sb, n)) for n in range(budget.max_index + 1)]


def classify(a: ActionInstance, budget: Budget = DEFAULT_BUDGET) -> Classification:
    """B-proper / weakly B-proper / bounded-isotropy flags with certificates.

    Translation rules are decided universally: transporter recession cones do
    not depend on the chain index, so cone triviality at one level settles
    every level pair.  Per-level bound indexes are recorded up to the budget.
    """
    require_exact_rule(a)
    if a.is_translation:
        cls = _classify_translation(a, budget)
    else:
        cls = _classify_finite(a, budget)
    _assert_implications(cls)
    return cls


def _assert_implications(cls: Classification):
    if cls.b_proper.confirmed and not cls.weakly_b_proper.confirmed:
        raise ConsistencyError("B-proper must imply weakly B-proper")
    if cls.weakly_b_proper.confirmed and not cls.bi.confirmed:
        raise ConsistencyError("weakly B-proper must imply bounded isotropy")


def _classify_translation(a: ActionInstance, budget: Budget) -> Classification:
    m = a.matrix
    gb = a.group.bornology
    maximal_group = gb.kind == MAXIMAL
    sb = a.space_bornology
    if sb.kind == MAXIMAL:
        rec_b = bx.full_box(a.space.dim)
    else:
        rec_b = chain_recession(sb)

    # bounded isotropy: the stabilizer of every point is the kernel lattice
    kv = kernel_vector(m)
    if kv is None:
        bi = confirmed("trivial kernel: stabilizers are {0}")
    elif maximal_group:
        bi = confirmed("kernel lattice is bounded in the maximal bornology")
    else:
        bi = refuted(witness={"direction": kv}, detail="kernel lattice is unbounded")

    # weakly B-proper: cone {r : M r ∈ rec(B_X)} trivial
    samples = coset_sample_points(a)
    if maximal_group:
        weakly = confirmed("maximal group bornology bounds every transporter")
    else:
        w_rays = _recession_rays(m, rec_b)
        if not w_rays:
            certs = []
            for x in samples[: min(4, len(samples))]:
                for j in range(min(3, budget.max_index + 1)):
                    t = transporter(a, FinitePoints(frozenset({x})), _level_set(a, j))
                    v = transporter_bounded(a, t)
                    certs.append(((x, j), v.outcome, v.index))
            weakly = confirmed(
                "point-transporter recession cone is trivial", witness=tuple(certs)
            )
        else:
            x = samples[0]
            j = is_bounded(sb, FinitePoints(frozenset({x}))).index
            weakly = refuted(
                witness={"point": x, "level": j, "direction": w_rays[0]},
                detail="point transporter contains a recession ray",
            )

    # B-proper: cone {r : M r ∈ rec(B_X ⊖ B_X)} trivial
    if maximal_group:
        b_proper = confirmed("maximal group bornology bounds every transporter")
    else:
        if sb.kind == MAXIMAL:
            rec_c = bx.full_box(a.space.dim)
        else:
            rec_c = difference_box(rec_b, rec_b)
        p_rays = _recession_rays(m, rec_c)
        if not p_rays:
            certs = []
            for i in range(min(3, budget.max_index + 1)):
                for j in range(min(3, budget.max_index + 1)):
                    t = transporter(a, _level_set(a, i), _level_set(a, j))
                    v = transporter_bounded(a, t)
                    certs.append(((i, j), v.outcome, v.index))
            b_proper = confirmed(
                "transporter recession cone is trivial", witness=tuple(certs)
            )
        else:
            lv = first_level(sb)
            b_proper = refuted(
                witness={"levels": (lv, lv), "direction": p_rays[0]},
                detail="level-pair transporter contains a recession ray",
            )
    return Classification(b_proper, weakly, bi, sample_points=samples)


def _level_set(a: ActionInstance, n: int):
    """Level n of the space bornology; on a finite space, the n-th generated
    set (capped at the last) or the whole space under the maximal bornology."""
    if a.space.is_lattice:
        return BoxSet(level_box(a.space_bornology, n))
    if a.space_bornology.kind == MAXIMAL:
        return FinitePoints(frozenset(a.space.labels))
    elems = generate_from_base(a.space_bornology.base)
    return FinitePoints(elems[min(n, len(elems) - 1)])


def _classify_finite(a: ActionInstance, budget: Budget) -> Classification:
    levels = _space_levels(a, budget)
    worst = None
    for b1 in levels:
        for b2 in levels:
            t = transporter(a, b1, b2)
            v = transporter_bounded(a, t)
            if not v.bounded:
                worst = (b1, b2, v)
    if worst is None:
        b_proper = confirmed("all base-pair transporters bounded")
    else:
        b_proper = refuted(witness=worst, detail="unbounded transporter")
    pts = list(a.space.labels)
    weakly_bad = None
    for x in pts:
        for b2 in levels:
            t = transporter(a, FinitePoints(frozenset({x})), b2)
            v = transporter_bounded(a, t)
            if not v.bounded:
                weakly_bad = (x, v)
    weakly = (
        confirmed("all point transporters bounded")
        if weakly_bad is None
        else refuted(witness=weakly_bad)
    )
    bi_bad = None
    for x in pts:
        t = transporter(a, FinitePoints(frozenset({x})), FinitePoints(frozenset({x})))
        v = transporter_bounded(a, t)
        if not v.bounded:
            bi_bad = (x, v)
    bi = confirmed("all stabilizers bounded") if bi_bad is None else refuted(witness=bi_bad)
    return Classification(b_proper, weakly, bi, sample_points=tuple(pts))


# --- orbit bornologies and cofinality ----------------------------------------


def orbit_bornologies(a: ActionInstance, x):
    """(pullback, pushforward) bornologies on the orbit parameter lattice."""
    if a.is_translation:
        if all(all(v == 0 for v in row) for row in a.matrix):
            # one-point orbit: both bornologies are trivial on it
            point_space = GroundSpace.finite((tuple(x),))
            return maximal_bornology(point_space), maximal_bornology(point_space)
        if kernel_vector(a.matrix) is not None:
            raise GeometryError(
                "orbit parameterization needs a trivial kernel; factor the action first"
            )
        # the orbit map is injective, so the pushforward is the group bornology
        gb = a.group.bornology
        if gb.kind not in (MAXIMAL, CHAIN) or gb.matrix is not None:
            raise UnsupportedVariant("orbit projection needs a plain chain upstream")
        return orbit_pullback(a.matrix, tuple(x), a.space_bornology), gb
    orbit = sorted({a.rule.mapping(i)[x] for i in range(len(a.group.elements))}, key=str)
    sb = a.space_bornology
    ospace = GroundSpace.finite(tuple(orbit))
    if sb.kind == MAXIMAL:
        pull = maximal_bornology(ospace)
    else:
        pull = finite_base_bornology(
            ospace,
            tuple(FinitePoints(frozenset(e.points & set(orbit))) for e in sb.base),
        )
    gb = a.group.bornology
    if gb.kind == MAXIMAL:
        push = maximal_bornology(ospace)
    else:
        push = finite_base_bornology(
            ospace,
            tuple(
                FinitePoints(frozenset(a.rule.mapping(a.group.elements.index(g))[x]
                                       for g in e.points))
                for e in gb.base
            ),
        )
    return pull, push


def chains_mutually_cofinal(pull: BornologySpec, push: BornologySpec,
                            budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Whether two bornologies on the same parameter space are equal as families.

    push ⊆ pull is checked level-by-level (exact per level, universal via the
    recession boxes); pull ⊆ push via transporter-style cone analysis of the
    preimage levels.
    """
    if pull.kind == FINITE_BASE or push.kind == FINITE_BASE:
        f1 = _finite_antichain(pull)
        f2 = _finite_antichain(push)
        if f1 == f2:
            return confirmed("equal maximal antichains")
        return refuted(witness={"only_pull": sorted(f1 - f2, key=str),
                                "only_push": sorted(f2 - f1, key=str)})
    if pull.kind == MAXIMAL and push.kind == MAXIMAL:
        return confirmed("both maximal")

    # direction 1: every push level bounded in pull
    for i in range(budget.max_index + 1):
        if push.kind == MAXIMAL:
            if pull.kind == MAXIMAL or is_full_at_some_level(pull):
                continue
            return refuted(
                witness={"direction": "push maximal vs bounded pull levels"},
                detail="pushforward is maximal but pullback levels are proper",
            )
        v = is_bounded(pull, BoxSet(level_box(push, i)))
        if not v.bounded:
            return refuted(witness={"push_level": i, "verdict": v},
                           detail="pushforward level escapes the pullback")

    # direction 2: every pull level bounded in push
    if pull.kind == MAXIMAL:
        if is_full_at_some_level(push):
            return confirmed("both families contain the full space")
        return refuted(
            witness={"direction": (1,) + (0,) * (push.space.dim - 1)},
            detail="maximal pullback vs proper pushforward levels",
        )
    if push.kind == MAXIMAL:
        return confirmed("pushforward is maximal")
    if pull.matrix is None:
        for j in range(budget.max_index + 1):
            v = is_bounded(push, BoxSet(level_box(pull, j)))
            if not v.bounded:
                return refuted(witness={"pull_level": j, "verdict": v})
        return confirmed("levels mutually bounded up to budget")
    rec_c = chain_recession(pull)
    rays = _recession_rays(pull.matrix, rec_c)
    if rays:
        return refuted(witness={"direction": rays[0]},
                       detail="pullback level contains a recession ray")
    for j in range(budget.max_index + 1):
        bb = rational_bbox(pull.matrix, level_box(pull, j))
        if bb is None:
            continue
        v = is_bounded(push, BoxSet(bb))
        if not v.bounded:
            return refuted(witness={"pull_level": j, "verdict": v})
    return confirmed("preimage levels bounded in the pushforward chain")


def _finite_antichain(spec: BornologySpec) -> set:
    if spec.kind == FINITE_BASE:
        return set(generate_from_base(spec.base))
    if spec.kind == MAXIMAL and not spec.space.is_lattice:
        return {frozenset(spec.space.labels)}
    raise UnsupportedVariant("finite antichain comparison needs finite bornologies")


# --- coarse transitivity support ---------------------------------------------


def covering_residues(a: ActionInstance) -> tuple | None:
    """A finite B with L·B = X (full-rank column lattice), else None."""
    if not a.is_translation:
        reps = []
        covered = set()
        for x in a.space.labels:
            if x in covered:
                continue
            reps.append(x)
            covered |= {a.rule.mapping(i)[x] for i in range(len(a.group.elements))}
        return tuple(reps)
    basis = _echelon(a.matrix)
    index = _lattice_index(basis, len(a.matrix))
    if index is None:
        return None
    return tuple(itertools.islice(_coset_firsts(basis, a.space.dim, 4 * index + 4), index))


def uncovered_direction(a: ActionInstance) -> tuple | None:
    """A lattice direction transverse to the column lattice span, if rank-deficient."""
    m = a.matrix
    d = a.space.dim
    if column_lattice_index(m) is not None:
        return None
    cands = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    cands.append((1,) * d)
    for w in cands:
        if not _in_rational_span(m, w):
            return w
    return None


def _in_rational_span(m, w) -> bool:
    # the echelon basis has one vector per unit of rank over the rationals
    return len(_echelon(m)) == len(_echelon(tuple((*row, c) for row, c in zip(m, w))))
