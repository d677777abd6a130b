"""Brute-force window oracle and differential cross-check driver.

Everything here recomputes by explicit enumeration over finite windows.  For
lattice rules every group element of a window is tried, in one vectorized
sweep per question, and a point is inside a bounded set when raw comparisons
put it in some box of the union; for permutation rules every group element is
tried in turn.  No code path is shared with the symbolic engine beyond the
instance model, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kern
from . import boxes as bx
from .boxes import (
    Box,
    BoxSet,
    FinitePoints,
    GeometryError,
    GroundSpace,
    cube,
    is_finite_end,
    set_boxes,
    set_is_empty,
    set_membership,
    set_points_within,
)
from .bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    BornologySpec,
    affine,
    bornology_axiom_check,
    chain_bornology,
    is_bounded,
    level_box,
    maximal_bornology,
    finite_base_bornology,
)
from .actions import (
    ActionInstance,
    PermutationRule,
    TranslationRule,
    action_bornological_check,
    finite_group,
    group_bornological_check,
    lattice_group,
    transporter,
)
from .coarse import (
    Compose,
    ConnectedPairs,
    DiffRel,
    OrbitPair,
    close_finite_base,
    entourage_members,
    neighborhood,
)
from .verdicts import Budget, DEFAULT_BUDGET


@dataclass
class CrossCheckReport:
    primitive: str
    instance: str
    window: int
    mismatches: list = field(default_factory=list)
    advisory: list = field(default_factory=list)
    seconds: dict = field(default_factory=lambda: {"symbolic": 0.0, "oracle": 0.0})

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def timed(self, side: str, fn, *args):
        """fn(*args), its wall time added to seconds[side]: "symbolic" or "oracle"."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[side] += time.perf_counter() - start


# --- transporter oracle -------------------------------------------------------


def existence_truncation_bound(a: ActionInstance, b, b2, gw: int) -> int:
    """A window radius certifying the ∃x truncation in the transporter oracle.

    If some x witnesses l, the nearest witness lies in b ∩ (b2 - M·l), whose
    closest-to-origin corner is bounded by the finite ends plus |M·l|.
    """
    return max(_per_coordinate_bounds(a, b, b2, gw))


def _per_coordinate_bounds(a: ActionInstance, b, b2, gw: int) -> list:
    """Certified witness-window radius per space coordinate."""
    pieces = set_boxes(b), set_boxes(b2)
    out = []
    for r, row in enumerate(a.matrix):
        shifts = (0, gw * sum(map(abs, row)))
        ends = [abs(int(v)) + shift for ps, shift in zip(pieces, shifts) for p in ps
                for v in (p.lower[r], p.upper[r]) if is_finite_end(v)]
        # with no finite end in either set the coordinate is vacuous: 0 witnesses it
        out.append(max(ends) + 1 if ends else 0)
    return out


_SWEEP_BYTES = 16 << 20  # the most one transporter sweep may allocate


def _affine_oracle_transporter(a: ActionInstance, b, b2, gw: int, xw: int):
    """Window enumeration for x ↦ A·x + M·l rules; always advisory-flagged."""
    xw = min(xw, 16 if a.space.dim <= 2 else 6)
    notes = ["affine rule: window-oracle evidence only"]
    hits = [l for l in bx.box_points(cube(gw, a.group.rank)) if any(
        set_membership(b, x) and set_membership(b2, a.rule.apply_index(l, x))
        for x in bx.box_points(cube(xw, a.space.dim)))]
    return sorted(hits), notes, gw


def oracle_transporter(a: ActionInstance, b, b2, gw: int, xw: int):
    """{l in the group window : ∃x ∈ b ∩ window, x + M·l ∈ b2} by enumeration.

    The witness grid uses per-coordinate certified radii clipped to xw; when
    the enumeration budget forces a smaller grid than the certificate asks
    for, an advisory note is attached (positive hits stay sound).
    Returns (sorted elements, advisory notes, effective group window).
    """
    if a.is_window_only:
        return _affine_oracle_transporter(a, b, b2, gw, xw)
    if not a.is_translation:
        hits = [g for i, g in enumerate(a.group.elements)
                if set(map(a.rule.mapping(i).get, b.points)) & b2.points]
        return sorted(hits, key=str), [], 0
    return oracle_transporters(a, b, [b2], gw, xw)[0]


def oracle_transporters(a: ActionInstance, b, b2s, gw: int, xw: float) -> list:
    """oracle_transporter of a translation action for (b, b2), each b2 of b2s.
    Each pair keeps its own radii, notes and group window; the pairs that
    share a group window read one summed-area table over b's points in their
    largest radii box, each clipped to its own, when that joint sweep fits
    the enumeration budget, and sweep one by one when it does not."""
    d, k = a.space.dim, a.group.rank
    hull = _hull(b)
    plans = [_sweep_plan(a, b, b2, gw, xw, hull) for b2 in b2s]
    ends = [_ends(b2, d) for b2 in b2s]
    b_lo, b_hi = _ends(b, d)
    out = [None] * len(b2s)
    for eff_gw in dict.fromkeys(p[2] for p in plans):
        idx = [i for i, p in enumerate(plans) if p[2] == eff_gw]
        size = _sweep_bytes(hull, [max(r) for r in zip(*(plans[i][0] for i in idx))],
                            (2 * eff_gw + 1) ** k * sum(len(ends[i][0]) for i in idx))
        for run in [idx] if size <= _SWEEP_BYTES else [[i] for i in idx]:
            radii = np.array([plans[i][0] for i in run], dtype=float)
            reach = radii.max(axis=0)
            lgrid = _grid([-eff_gw] * k, [eff_gw] * k)
            # window points outside b's hull are never witnesses: enumerate only the hull
            xgrid = _grid(np.maximum(hull[0], -reach), np.minimum(hull[1], reach))
            hits = kern.transporter_sweep(
                lgrid, np.array(a.matrix, dtype=float), b_lo, b_hi,
                *(np.concatenate(e) for e in zip(*(ends[i] for i in run))), xgrid,
                np.repeat(np.arange(len(run)), [len(ends[i][0]) for i in run]), -radii, radii,
            )
            for i, hit in zip(run, hits):
                out[i] = (sorted(map(tuple, lgrid[hit].astype(np.int64).tolist())),
                          plans[i][1], eff_gw)
    return out


def _sweep_plan(a: ActionInstance, b, b2, gw: int, xw: float, hull) -> tuple:
    """(witness radii, advisory notes, group window) of one transporter pair:
    the certified radii capped at xw, shrunk to the enumeration budget.
    hull is ``_hull(b)``."""
    notes = []
    k = a.group.rank
    pieces = len(set_boxes(b2))
    while True:
        per = _per_coordinate_bounds(a, b, b2, gw)
        radii = [min(xw, r) for r in per]
        if any(r > xw for r in per):
            notes.append(f"witness window {xw} below the certified bound {max(per)}")
        size = _sweep_bytes(hull, radii, (2 * gw + 1) ** k * pieces)
        if size <= _SWEEP_BYTES or gw <= 4:
            break
        gw = max(4, gw // 2)
        notes = [f"group window shrunk to {gw} to fit the enumeration budget"]
    if size > _SWEEP_BYTES:
        while size > _SWEEP_BYTES and any(r > 2 for r in radii):
            radii = [max(2, r - max(1, r // 4)) for r in radii]
            size = _sweep_bytes(hull, radii, (2 * gw + 1) ** k * pieces)
        notes.append("witness grid truncated below the certificate: advisory only")
    return radii, notes, gw


def _sweep_bytes(hull, radii, rows: int) -> int:
    """A bound on the bytes a transporter sweep's arrays take, in 8-byte entries:
    3d + 2 per point of b's hull within the radii (its window grid row, counted
    three times over although ``_grid`` builds it in one allocation, so this
    term is an upper bound, and its count-table entry, twice over while the
    table is summed) and 2^d + 6d + 2 per group element and piece of b2 (its
    2^d table reads, its clipped ends, six times over while they are built,
    and its group element and shift)."""
    d = len(radii)
    points = math.prod(max(0, min(hi, r) - max(lo, -r) + 1) for lo, hi, r in zip(*hull, radii))
    return 8 * (int(points) * (3 * d + 2) + rows * (2 ** d + 6 * d + 2))


def _hull(s) -> tuple:
    """The lowest lower and the highest upper end of s's boxes, per coordinate."""
    pieces = set_boxes(s)
    return ([min(v) for v in zip(*(p.lower for p in pieces))],
            [max(v) for v in zip(*(p.upper for p in pieces))])


# --- entourage membership oracle -----------------------------------------------


def oracle_entourage_member(e, pair, gw: int) -> bool:
    """Membership of one pair by explicit enumeration."""
    x, y = pair
    if isinstance(e, DiffRel):
        return set_membership(e.shift_set, tuple(b - a for a, b in zip(x, y)))
    if isinstance(e, ConnectedPairs):
        return x == y or (
            set_membership(e.bounded_set, x) and set_membership(e.bounded_set, y)
        )
    if isinstance(e, OrbitPair):
        return oracle_orbit_members_batch(e, [x], [y], gw)[0]
    raise GeometryError(f"oracle cannot enumerate {e!r}")


def _oracle_members(e, pairs, gw: int) -> list:
    """Membership of many pairs: orbit pairs in one batch, others pair by pair."""
    if isinstance(e, OrbitPair):
        return oracle_orbit_members_batch(e, [p[0] for p in pairs], [p[1] for p in pairs], gw)
    return [oracle_entourage_member(e, p, gw) for p in pairs]


def oracle_orbit_members_batch(e: OrbitPair, xs, ys, gw: int) -> list:
    """Orbit-pair membership of the pairs (xs[i], ys[i]) at once.

    Lattice rules: one kernel sweep over the group window, against every box
    of the bounded set (sound only within the window; callers size gw from
    the transporter bound); xs and ys may be (pairs, d) arrays.  Permutation
    rules: every group element in turn."""
    a = e.action
    if not a.is_translation:
        return [_permuted_orbit_member(e, x, y) for x, y in zip(xs, ys)]
    d = a.space.dim
    return kern.orbit_pair_sweep(
        np.asarray(xs, dtype=float).reshape(-1, d),
        np.asarray(ys, dtype=float).reshape(-1, d),
        _grid([-gw] * a.group.rank, [gw] * a.group.rank),
        np.array(a.matrix, dtype=float),
        *_ends(e.bounded_set, d),
    ).tolist()


def _permuted_orbit_member(e: OrbitPair, x, y) -> bool:
    rule = e.action.rule
    return x == y or any(
        {x, y} <= {rule.mapping(i)[p] for p in e.bounded_set.points}
        for i in range(len(e.action.group.elements))
    )


def _grid(lower, upper) -> np.ndarray:
    """Integer points of the box ∏ [lower, upper], one float row each, in lexicographic order.
    The grid is one allocation: each sparse axis is broadcast into its own column."""
    axes = np.meshgrid(*(np.arange(lo, hi + 1, dtype=float) for lo, hi in zip(lower, upper)),
                       indexing="ij", sparse=True)
    grid = np.empty([axis.size for axis in axes] + [len(axes)])
    for i, axis in enumerate(axes):
        grid[..., i] = axis
    return grid.reshape(-1, len(axes))


def _ends(s, d: int) -> tuple:
    """Lower and upper ends of the boxes of s, each a (pieces, d) float array."""
    pieces = set_boxes(s)
    return tuple(
        np.array([getattr(p, end) for p in pieces], dtype=float).reshape(-1, d)
        for end in ("lower", "upper")
    )


def oracle_neighborhood(e, a_set, gw: int, window: int) -> set:
    """E[A] within the window: every window point paired with some point of A."""
    space = e.space
    if space.is_lattice:
        ys, hit = oracle_neighborhood_mask(e, a_set, gw, window)
        return set(map(tuple, ys[hit].astype(np.int64).tolist()))
    ys = list(space.labels)
    srcs = [p for p in ys if set_membership(a_set, p)]
    pairs = [(x, y) for x in srcs for y in ys]
    return {y for (_, y), hit in zip(pairs, _oracle_members(e, pairs, gw)) if hit}


def oracle_neighborhood_mask(e, a_set, gw: int, window: int) -> tuple:
    """A lattice's window grid, lexicographic, and which of its points lie in
    E[A].  An orbit pair sweeps A's points against the grid in one batch."""
    d = e.space.dim
    ys = _grid([-window] * d, [window] * d)
    srcs = set_points_within(a_set, window)
    if isinstance(e, OrbitPair):
        srcs = np.array(srcs, dtype=float).reshape(-1, d)
        hits = oracle_orbit_members_batch(e, np.repeat(srcs, len(ys), axis=0),
                                          np.tile(ys, (len(srcs), 1)), gw)
    else:
        targets = list(map(tuple, ys.astype(np.int64).tolist()))
        hits = _oracle_members(e, [(x, y) for x in srcs for y in targets], gw)
    return ys, np.reshape(hits, (len(srcs), len(ys))).any(axis=0)


# --- naive finite closure -------------------------------------------------------


def naive_closure(space: GroundSpace, base) -> tuple:
    """Full-family closure over relation bitmasks.

    Generates by BFS over transpose/union/composition, applies the
    top-element shortcut, materializes every submask of the maximal generated
    masks, and verifies closure on the materialized family by exhaustive
    transpose and sampled pairs.  Returns (family as a sorted uint32 array of
    masks, maximal antichain as frozensets of pairs).
    """
    labels = list(space.labels)
    n = len(labels)
    if n > 4:
        raise GeometryError("naive closure is exhaustive only for n <= 4")
    full = (1 << (n * n)) - 1

    def bit(i, j):
        return 1 << (i * n + j)

    def to_mask(rel):
        m = 0
        for xx, yy in rel:
            m |= bit(labels.index(xx), labels.index(yy))
        return m

    transpose, compose = _relation_ops(n)

    diag = 0
    for i in range(n):
        diag |= bit(i, i)
    generated = {diag} | {to_mask(r) for r in base}
    queue = list(generated)
    while queue:
        m1 = queue.pop()
        new = {transpose(m1)}
        for m2 in list(generated):
            new.add(m1 | m2)
            new.add(compose(m1, m2))
            new.add(compose(m2, m1))
        for m in new:
            if m not in generated:
                generated.add(m)
                queue.append(m)
        if full in generated:
            generated = {full}
            break
        if len(generated) > 200_000:
            raise GeometryError("naive closure exceeded its family cap")
    maximal = [m for m in generated if not any(m != o and (m | o) == o for o in generated)]
    marked = _downward_closure(maximal, n * n)
    family = np.flatnonzero(marked).astype(np.uint32)
    _verify_family_closed(family, marked, transpose, compose, diag)
    antichain = [frozenset((labels[i], labels[j]) for i in range(n) for j in range(n)
                           if m & bit(i, j)) for m in maximal]
    return family, tuple(sorted(antichain, key=lambda r: (len(r), sorted(map(str, r)))))


def _downward_closure(maximal, bits: int) -> np.ndarray:
    """Which of the 2^bits masks lie below some mask of maximal, as a boolean
    array.  Each mask's submasks come by bit deposit: entry j of ``sub``
    spreads the bits of j over the set bits of m, one doubling per set bit,
    so the work is the size of the family, not 2^bits."""
    marked = np.zeros(1 << bits, dtype=bool)
    for m in maximal:
        sub = np.zeros(1, dtype=np.uint32)
        for t in range(bits):
            if m >> t & 1:
                sub = np.concatenate([sub, sub | np.uint32(1 << t)])
        marked[sub] = True
    return marked


def _relation_ops(n: int) -> tuple:
    """Transpose and composition of n×n relation bitmasks (bit i·n + j is (i, j)).

    ``spread[r] << i`` is row i holding the columns r, transposed; transpose
    takes one mask or a uint32 array of masks.  Column j of m1,
    ``m1 >> j & ones``, marks bit 0 of each row i with (i, j) ∈ m1, so
    multiplying it by row j of m2 copies that row into exactly those rows.
    """
    low = (1 << n) - 1
    spread = [sum(1 << (j * n) for j in range(n) if r >> j & 1) for r in range(1 << n)]
    spread_array = np.array(spread, dtype=np.uint32)
    ones = spread[low]

    def transpose(m):
        table = spread_array if isinstance(m, np.ndarray) else spread
        out = 0
        for i in range(n):
            out |= table[m >> (i * n) & low] << i
        return out

    def compose(m1, m2):
        out = 0
        for j in range(n):
            out |= (m2 >> (j * n) & low) * (m1 >> j & ones)
        return out

    return transpose, compose


def _verify_family_closed(family, marked, transpose, compose, diag):
    """family is the sorted member array and marked its boolean mask."""
    if not marked[diag]:
        raise GeometryError("naive closure lost the diagonal")
    if not marked[transpose(family)].all():
        raise GeometryError("naive closure not transpose-closed")
    rng = random.Random(0)
    for _ in range(min(400, len(family) ** 2)):
        m1 = int(rng.choice(family))
        m2 = int(rng.choice(family))
        if not (marked[m1 | m2] and marked[compose(m1, m2)]):
            raise GeometryError("naive closure not op-closed on a sampled pair")


# --- random instances ------------------------------------------------------------


PROFILES = ("finite", "lattice-k1", "lattice-k2")


def random_instance(seed: int, profile: str) -> ActionInstance:
    """Deterministic-from-seed instance; always passes the axiom checks."""
    if profile not in PROFILES:
        raise GeometryError(f"unknown profile {profile!r}")
    rng = random.Random((seed, profile).__repr__())
    if profile == "finite":
        inst = _random_finite_instance(rng, seed)
    else:
        k = 1 if profile == "lattice-k1" else 2
        inst = _random_lattice_instance(rng, seed, k)
    _validate_instance(inst)
    return inst


def _validate_instance(inst: ActionInstance):
    for spec in (inst.space_bornology, inst.group.bornology):
        report = bornology_axiom_check(spec)
        if not report.passed:
            raise GeometryError(f"generated bornology fails axioms: {report}")
    if not group_bornological_check(inst.group).passed:
        raise GeometryError("generated group is not bornological")
    if not action_bornological_check(inst).passed:
        raise GeometryError("generated action is not bornological")


def _random_lattice_instance(rng: random.Random, seed: int, k: int) -> ActionInstance:
    d = rng.randint(1, 3)
    m = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(d))
    space = GroundSpace.lattice(d)
    maximal_pair = rng.random() < 0.12
    if maximal_pair:
        sb = maximal_bornology(space)
        gb = maximal_bornology(GroundSpace.lattice(k))
    else:
        sb = chain_bornology(space, [_random_space_ends(rng) for _ in range(d)])
        gb = chain_bornology(
            GroundSpace.lattice(k), [_random_group_ends(rng) for _ in range(k)]
        )
    group = lattice_group(k, gb)
    return ActionInstance(
        f"random-{seed}-k{k}", group, space, TranslationRule(m), sb
    )


def _random_space_ends(rng: random.Random):
    if rng.random() < 0.3:
        lower = AFF_NEG_INF
    else:
        lower = affine(-rng.randint(1, 2), -rng.randint(0, 3))
    if rng.random() < 0.3:
        upper = AFF_POS_INF
    else:
        upper = affine(rng.randint(1, 2), rng.randint(0, 3))
    return (lower, upper)


def _random_group_ends(rng: random.Random):
    return (
        affine(-rng.randint(1, 2), -rng.randint(0, 2)),
        affine(rng.randint(1, 2), rng.randint(0, 2)),
    )


_FINITE_GROUPS = {
    "c1": 1, "c2": 2, "c3": 3, "c4": 4, "c5": 5, "c6": 6, "v4": 4,
}


def _cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _klein_table():
    # indices e, a, b, ab with xor composition
    return tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def _random_finite_instance(rng: random.Random, seed: int) -> ActionInstance:
    name = rng.choice(sorted(_FINITE_GROUPS))
    labels = tuple(range(rng.randint(2, 5)))
    space = GroundSpace.finite(labels)
    if name == "v4":
        mul = _klein_table()
        elements = tuple(range(4))
        sigma, tau = _commuting_involutions(rng, labels)
        perms = (
            _perm_tuple(labels, {x: x for x in labels}),
            _perm_tuple(labels, sigma),
            _perm_tuple(labels, tau),
            _perm_tuple(labels, {x: sigma[tau[x]] for x in labels}),
        )
    else:
        order = _FINITE_GROUPS[name]
        mul = _cyclic_table(order)
        elements = tuple(range(order))
        gen = _permutation_of_order_dividing(rng, labels, order)
        perms = []
        current = {x: x for x in labels}
        for _ in range(order):
            perms.append(_perm_tuple(labels, current))
            current = {x: gen[current[x]] for x in labels}
        perms = tuple(perms)
    gb = _random_finite_bornology(rng, elements)
    sb = _random_finite_bornology(rng, labels)
    group = finite_group(elements, mul, gb)
    return ActionInstance(
        f"random-{seed}-finite", group, space, PermutationRule(perms), sb
    )


def _perm_tuple(labels, mapping):
    return tuple((x, mapping[x]) for x in labels)


def _permutation_of_order_dividing(rng, labels, order: int) -> dict:
    """A permutation whose order divides the group order: cycles of fitting size."""
    pool = list(labels)
    rng.shuffle(pool)
    mapping = {}
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    while pool:
        size = rng.choice([d for d in divisors if d <= len(pool)])
        cyc = [pool.pop() for _ in range(size)]
        for i, x in enumerate(cyc):
            mapping[x] = cyc[(i + 1) % size]
    return mapping


def _commuting_involutions(rng, labels):
    """σ, τ commuting involutions: blocks of size 4 (regular V4), 2, or 1."""
    pool = list(labels)
    rng.shuffle(pool)
    sigma = {}
    tau = {}
    while pool:
        if len(pool) >= 4 and rng.random() < 0.5:
            a, b, c, d = (pool.pop() for _ in range(4))
            sigma.update({a: b, b: a, c: d, d: c})
            tau.update({a: c, c: a, b: d, d: b})
        elif len(pool) >= 2 and rng.random() < 0.7:
            a, b = pool.pop(), pool.pop()
            which = rng.random()
            if which < 0.5:
                sigma.update({a: b, b: a})
                tau.update({a: a, b: b})
            else:
                sigma.update({a: a, b: b})
                tau.update({a: b, b: a})
        else:
            a = pool.pop()
            sigma[a] = a
            tau[a] = a
    return sigma, tau


def _random_finite_bornology(rng: random.Random, labels) -> BornologySpec:
    space = GroundSpace.finite(labels)
    if rng.random() < 0.3:
        return maximal_bornology(space)
    # a nested chain of subsets ending at the full set satisfies the base axioms
    shuffled = list(labels)
    rng.shuffle(shuffled)
    cuts = sorted({rng.randint(1, len(labels)) for _ in range(2)} | {len(labels)})
    base = tuple(FinitePoints(frozenset(shuffled[:c])) for c in cuts)
    return finite_base_bornology(space, base)


# --- cross-check driver -----------------------------------------------------------


PRIMITIVES = ("transporter", "entourage", "neighborhood", "compose", "bounded", "closure")


def cross_check(instances, primitives=PRIMITIVES, window: int = 32,
                budget: Budget = DEFAULT_BUDGET) -> list:
    """Symbolic vs oracle agreement over every instance and selected primitive."""
    reports = []
    for inst in instances:
        for prim in primitives:
            fn = _CHECKS.get(prim)
            if fn is None:
                raise GeometryError(f"unknown primitive {prim!r}")
            reports.append(fn(inst, window, budget))
    return reports


def _sample_sets(inst: ActionInstance, count: int = 3):
    if not inst.space.is_lattice:
        return [FinitePoints(frozenset(inst.space.labels))]
    out = []
    for n in range(count):
        lvl = level_box(inst.space_bornology, n)
        if not lvl.empty:
            out.append(BoxSet(lvl))
    rng = random.Random(inst.name)
    d = inst.space.dim
    lo = tuple(rng.randint(-4, 0) for _ in range(d))
    hi = tuple(l + rng.randint(0, 3) for l in lo)
    out.append(BoxSet(Box(lo, hi)))
    return out


def _gw_for(inst: ActionInstance, window: int) -> int:
    if not inst.is_translation:
        return window
    if inst.group.rank >= 2:
        return min(window, 8)
    return min(window, 20 if inst.space.dim <= 2 else 10)


def _check_transporter(inst, window, budget) -> CrossCheckReport:
    rep = CrossCheckReport("transporter", inst.name, window)
    gw = _gw_for(inst, window)
    n_sets = 2 if (inst.space.is_lattice and inst.space.dim >= 3) else 3
    sets = [s for s in _sample_sets(inst, n_sets)[: n_sets + 1] if not set_is_empty(s)]
    pairs = list(itertools.product(sets, repeat=2))
    ts = [rep.timed("symbolic", transporter, inst, b, b2) for b, b2 in pairs]
    if not inst.is_translation:
        for (b, b2), t in zip(pairs, ts):
            oracle_set, _, _ = rep.timed("oracle", oracle_transporter, inst, b, b2, gw, window)
            sym = sorted((g for g in inst.group.elements if t.member(g)), key=str)
            if sym != sorted(oracle_set, key=str):
                rep.mismatches.append({"b": b, "b2": b2})
        return rep
    # one batch per distinct b; the certified radii stand uncapped
    batches = {b: rep.timed("oracle", oracle_transporters, inst, b, sets, gw, math.inf)
               for b in dict.fromkeys(sets)}
    found = [f for b in sets for f in batches[b]]
    for (b, b2), t, (oracle_set, notes, eff_gw) in zip(pairs, ts, found):
        rep.advisory.extend(notes)
        sym = rep.timed("symbolic", t.points_within, eff_gw)
        truncated = any("advisory" in n or "below" in n for n in notes)
        only_oracle = sorted(set(oracle_set) - set(sym))
        only_sym = sorted(set(sym) - set(oracle_set))
        if only_oracle or (only_sym and not truncated):
            rep.mismatches.append({"b": b, "b2": b2, "only_oracle": only_oracle[:3],
                                   "only_symbolic": only_sym[:3]})
    return rep


def _entourage_levels(inst: ActionInstance, budget):
    sets = _sample_sets(inst, 3)
    levels = [OrbitPair(inst, s) for s in sets[:3]]
    if inst.space.is_lattice:
        levels.append(DiffRel(inst.space, BoxSet(cube(2, inst.space.dim))))
        if inst.group.is_lattice and inst.group.bornology.kind == "chain":
            levels.append(DiffRel(GroundSpace.lattice(inst.group.rank),
                                  BoxSet(level_box(inst.group.bornology, 1))))
    return levels


def _pair_sample(space: GroundSpace, name, window: int, count: int = 80):
    if not space.is_lattice:
        return list(itertools.product(space.labels, repeat=2))
    rng = random.Random(f"{name}|pairs|{space.dim}")
    d = space.dim
    pts = [tuple(rng.randint(-window // 2, window // 2) for _ in range(d)) for _ in range(count)]
    pairs = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    pairs += [(p, p) for p in pts[:8]]
    return pairs


def _check_entourage(inst, window, budget) -> CrossCheckReport:
    rep = CrossCheckReport("entourage", inst.name, window)
    gw = _needed_gw(inst, window)
    levels = _entourage_levels(inst, budget)
    samples = {sp: _pair_sample(sp, inst.name, min(window, 12)) for sp in {e.space for e in levels}}
    for e in levels:
        pairs = samples[e.space]  # one seeded draw per ground space
        syms = rep.timed("symbolic", entourage_members, e, pairs, budget)
        for pair, sym, orc in zip(pairs, syms, rep.timed("oracle", _oracle_members, e, pairs, gw)):
            if sym is None:
                rep.advisory.append({"pair": pair, "note": "symbolic inconclusive"})
                continue
            if bool(sym) != orc:
                rep.mismatches.append({"entourage": type(e).__name__, "pair": pair,
                                       "symbolic": sym, "oracle": orc})
    return rep


def _needed_gw(inst: ActionInstance, window: int) -> int:
    # witnesses for window pairs lie within |M|-scaled reach of the window
    if not inst.is_translation:
        return window
    ends = [
        abs(int(v))
        for piece in set_boxes(_sample_sets(inst)[0])
        for v in piece.lower + piece.upper
        if is_finite_end(v)
    ]
    full = 3 * window + max(ends, default=0) + 4
    return full if inst.group.rank == 1 else min(full, window + 12)


def _check_neighborhood(inst, window, budget) -> CrossCheckReport:
    rep = CrossCheckReport("neighborhood", inst.name, window)
    gw = _needed_gw(inst, window)
    w = min(window, 16 if (inst.space.is_lattice and inst.space.dim <= 2) else 6)
    points = [(0,) * inst.space.dim] if inst.space.is_lattice else list(inst.space.labels[:2])
    for e in _entourage_levels(inst, budget)[:3]:
        for x in points:
            a_set = FinitePoints(frozenset({x}))
            sym_set, exact = rep.timed("symbolic", neighborhood, e, a_set, budget.shrunk(w))
            if not exact:
                rep.advisory.append({"x": x, "note": "symbolic neighborhood truncated"})
                continue
            if inst.space.is_lattice:
                # masks over the window grid; their lexicographic order names the least points
                ys, orc = rep.timed("oracle", oracle_neighborhood_mask, e, a_set, gw, w)
                sym = _window_mask(sym_set, w, inst.space.dim)
                only_sym, only_orc = (list(map(tuple, ys[m][:3].astype(np.int64).tolist()))
                                      for m in (sym & ~orc, orc & ~sym))
            else:
                oracle_set = rep.timed("oracle", oracle_neighborhood, e, a_set, gw, w)
                sym_pts = {p for p in inst.space.labels if set_membership(sym_set, p)}
                only_sym = sorted(sym_pts - oracle_set)[:3]
                only_orc = sorted(oracle_set - sym_pts)[:3]
            if only_sym or only_orc:
                rep.mismatches.append({"x": x, "entourage": type(e).__name__,
                                       "only_symbolic": only_sym, "only_oracle": only_orc})
    return rep


def _window_mask(s, window: int, d: int) -> np.ndarray:
    """Which points of the window grid, in _grid's order, lie in s: each box
    of s, clipped to the window, marked as one slice of a d-dimensional grid."""
    mask = np.zeros((2 * window + 1,) * d, dtype=bool)
    for p in set_boxes(s):
        lo = [max(v, -window) for v in p.lower]
        hi = [min(v, window) for v in p.upper]
        if all(l <= h for l, h in zip(lo, hi)):
            mask[tuple(slice(int(l) + window, int(h) + window + 1) for l, h in zip(lo, hi))] = True
    return mask.reshape(-1)


def _check_compose(inst, window, budget) -> CrossCheckReport:
    rep = CrossCheckReport("compose", inst.name, window)
    gw = _needed_gw(inst, min(window, 8))
    sets = _sample_sets(inst, 2)
    e1 = OrbitPair(inst, sets[0])
    e2 = OrbitPair(inst, sets[-1])
    pairs = _pair_sample(inst.space, inst.name, min(window, 8), count=40)
    syms = rep.timed("symbolic", entourage_members, Compose(e1, e2), pairs, budget)
    orcs = rep.timed("oracle", _oracle_compose_orbit, inst, e1, e2, pairs, gw)
    for pair, sym, orc in zip(pairs, syms, orcs):
        if sym is None:
            rep.advisory.append({"pair": pair})
            continue
        if bool(sym) != orc:
            rep.mismatches.append({"pair": pair, "symbolic": sym, "oracle": orc})
    return rep


def _oracle_compose_orbit(inst, e1, e2, pairs, gw) -> list:
    """Membership of each (x, z) in E(L,B1) ∘ E(L,B2): a middle point y by search."""
    if not inst.is_translation:
        labels = inst.space.labels
        return [
            any(oracle_entourage_member(e1, (x, y), gw)
                and oracle_entourage_member(e2, (y, z), gw) for y in labels)
            for x, z in pairs
        ]
    d = inst.space.dim
    xs = np.array([p[0] for p in pairs], dtype=float).reshape(-1, d)
    zs = np.array([p[1] for p in pairs], dtype=float).reshape(-1, d)
    lgrid = _grid([-gw] * inst.group.rank, [gw] * inst.group.rank)
    through_boxes = kern.orbit_compose_sweep(
        xs, zs, lgrid, lgrid, np.array(inst.matrix, dtype=float),
        *_ends(e1.bounded_set, d), *_ends(e2.bounded_set, d),
    )
    # the diagonal clauses: y = x needs (x, z) ∈ E2, and y = z needs (x, z) ∈ E1
    via_x = oracle_orbit_members_batch(e2, xs, zs, gw)
    via_z = oracle_orbit_members_batch(e1, xs, zs, gw)
    return [bool(t or a or b) for t, a, b in zip(through_boxes, via_x, via_z)]


def _check_bounded(inst, window, budget) -> CrossCheckReport:
    """Replay boundedness certificates: the set clipped to the window must sit
    inside a certified chain level, and an escape ray must stay in the set.
    The half-space x_0 >= 0 probes the escape side; where it is bounded (a
    maximal bornology) its window is not enumerated."""
    rep = CrossCheckReport("bounded", inst.name, window)
    if not inst.space.is_lattice:
        return rep
    full = (bx.NEG_INF, bx.POS_INF)
    half_space = BoxSet(bx.box((0, bx.POS_INF), *[full] * (inst.space.dim - 1)))
    for s in _sample_sets(inst) + [half_space]:
        v = rep.timed("symbolic", is_bounded, inst.space_bornology, s)
        if not v.bounded:
            if v.direction is None or v.base_point is None:
                rep.mismatches.append({"set": s, "escape": None})
                continue
            for t in (0, 1, 3):
                p = tuple(b + t * c for b, c in zip(v.base_point, v.direction))
                if not set_membership(s, p):
                    rep.mismatches.append({"set": s, "escape_point": p})
            continue
        if s is half_space:
            continue
        lvl = level_box(inst.space_bornology, v.index)
        # one grid per piece clipped to the window; a mismatch names the least point
        d, r = inst.space.dim, min(window, 10)
        pts = np.concatenate([np.empty((0, d))] + [
            _grid(np.maximum(lo, -r), np.minimum(hi, r)) for lo, hi in zip(*_ends(s, d))])
        outside = lvl.empty | ((pts < lvl.lower) | (pts > lvl.upper)).any(axis=1)
        if outside.any():
            rep.mismatches.append({"set": s, "index": v.index, "point": min(
                map(tuple, pts[outside].astype(np.int64).tolist()))})
    return rep


def _check_closure(inst, window, budget) -> CrossCheckReport:
    rep = CrossCheckReport("closure", inst.name, window)
    if inst.space.is_lattice or len(inst.space.labels) > 4:
        return rep
    rng = random.Random(f"{inst.name}|closure")
    labels = inst.space.labels
    pairs = list(itertools.product(labels, repeat=2))
    base = []
    for _ in range(rng.randint(1, 3)):
        base.append(frozenset(rng.sample(pairs, rng.randint(1, min(4, len(pairs))))))
    closure = rep.timed("symbolic", close_finite_base, inst.space, base)
    _, naive_antichain = rep.timed("oracle", naive_closure, inst.space, base)
    if tuple(closure.maximal) != naive_antichain:
        rep.mismatches.append(
            {"symbolic": closure.maximal, "naive": naive_antichain}
        )
    return rep


_CHECKS = {
    "transporter": _check_transporter,
    "entourage": _check_entourage,
    "neighborhood": _check_neighborhood,
    "compose": _check_compose,
    "bounded": _check_bounded,
    "closure": _check_closure,
}
