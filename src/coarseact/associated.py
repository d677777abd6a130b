"""The orbit-pair coarse structure and machine checks of its characterizations.

The verifiers treat proved equivalences as consistency oracles for the
implementation: a disagreement between independently computed sides signals a
bug in the engine, never new mathematics, and the reports say so.  Refutation
witnesses replay bit-for-bit through the membership and boundedness
primitives.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from . import boxes as bx
from .boxes import (
    Box,
    BoxSet,
    FinitePoints,
    GeometryError,
    box_hull,
    cube,
    is_finite_end,
    mat_vec,
    minkowski_sum,
    row_range,
    set_bounding_box,
    set_is_empty,
    set_membership,
    set_translate,
    union_set,
)
from .bornology import (
    CHAIN,
    BornologySpec,
    is_bounded,
    level_box,
    _point_inside,
)
from .actions import (
    ActionInstance,
    Classification,
    chains_mutually_cofinal,
    classify,
    coset_sample_points,
    orbit_bornologies,
    point_extents,
    transporter,
    _pair_extent,
)
from .coarse import (
    ChainStructure,
    Compose,
    OrbitPair,
    _int_array,
    _member_test,
    associated_orbit_structure,
    coarsely_transitive_check,
    entourage_members,
    equi_controlled_check,
    induced_bornology_chain,
    neighborhood,
    orbit_compose_bound,
    structure_leq,
)
from .verdicts import (
    Budget,
    CONFIRMED,
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    REFUTED,
    TheoremReport,
    Verdict,
    confirmed,
    merge_status,
    not_applicable,
    refuted,
    verdict_inconclusive,
)


class BasePropertyRefuted(GeometryError):
    """The orbit-pair family is not a coarse-structure base; carries a witness."""

    def __init__(self, witness):
        super().__init__(f"orbit-pair base refuted: {witness}")
        self.witness = witness


# --- lemma verifiers ---------------------------------------------------------


def _window_grid(d: int, radius: int) -> np.ndarray:
    import numpy as np

    axes = [np.arange(-radius, radius + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _set_member_grid(s, pts: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.zeros(len(pts), dtype=bool)
    first, last = pts.min(axis=0), pts.max(axis=0)
    for piece in bx.set_pieces(s):
        if isinstance(piece, FinitePoints):
            # integer keys over the grid's bounding box; a point outside it matches no row
            near = [p for p in piece.points if all(
                a <= c <= b for a, c, b in zip(first.tolist(), p, last.tolist()))]
            if near:
                dims = last - first + 1
                out |= np.isin(np.ravel_multi_index((pts - first).T, dims),
                               np.ravel_multi_index((np.array(near) - first).T, dims))
        else:
            lo = np.array(piece.box.lower, dtype=float)
            hi = np.array(piece.box.upper, dtype=float)
            out |= ((pts >= lo) & (pts <= hi)).all(axis=1)
    return out


def verify_lemma_neighborhood(a: ActionInstance, b, x, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Compare E(L,B)[x] computed two independent ways at the swept points.

    Left: the existential pair-membership sweep of the orbit-pair entourage.
    Right: membership in coarse.neighborhood's ((L_{x,B})^{-1}·B) ∪ {x}.
    A finite space sweeps its labels, a lattice the window grid.  A mismatch
    against an inexact right side is inconclusive: the hull past a cap
    over-approximates and the window under-approximates, so it blames neither.
    """
    e = OrbitPair(a, b)
    x = tuple(x) if a.space.is_lattice else x
    rhs, exact = neighborhood(e, FinitePoints(frozenset({x})), budget)
    if a.space.is_lattice:
        import numpy as np

        d = a.space.dim
        ys = _window_grid(d, min(budget.window, 32 if d <= 2 else 10))
        # (n, 2, d) pairs laid out coordinate-major, as the batch reads them
        pairs = np.stack(np.broadcast_arrays(_int_array(x)[:, None], ys.T)).transpose(2, 0, 1)
        right = _set_member_grid(rhs, ys).tolist()
        note = "window equality"
    else:
        ys = a.space.labels
        pairs = [(x, y) for y in ys]
        right = [set_membership(rhs, y) for y in ys]
        note = "finite sweep equality"
    left = entourage_members(e, pairs, budget)
    if left != right:
        left = [m is True for m in left]
    if left == right:
        return confirmed(note + ("" if exact else " (right side truncated)"))
    i = next(i for i, (l, r) in enumerate(zip(left, right)) if l != r)
    y = tuple(int(c) for c in ys[i]) if a.space.is_lattice else ys[i]
    witness = {"x": x, "y": y, "left": left[i], "right": right[i]}
    if not exact:
        return verdict_inconclusive(f"mismatch against a truncated right side: {witness}")
    return refuted(witness=witness, detail="neighborhood identity mismatch (implementation bug)")


def _sample_pairs(d: int, window: int, count: int, seed: int = 0) -> list:
    """Deterministic pair sample: rays, adjacency, and seeded draws."""
    rng = random.Random(seed)
    pairs = []
    z = (0,) * d
    for t in list(range(0, min(window, 12) + 1)) + [window // 2, window]:
        for i in range(d):
            for sign in (1, -1):
                p = tuple(sign * t if j == i else 0 for j in range(d))
                pairs.append((z, p))
                pairs.append((p, tuple(2 * c for c in p)))
    # seeded draws, d for p and then d for q, until the list holds count
    draws = [rng.randrange(-window, window + 1) for _ in range(2 * d * (count - len(pairs)))]
    pairs += [(tuple(draws[k:k + d]), tuple(draws[k + d:k + 2 * d]))
              for k in range(0, len(draws), 2 * d)]
    return list(dict.fromkeys(pairs))[:count]


def verify_lemma_algebra(a: ActionInstance, b1, b2, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """The five orbit-pair identities, membership-wise: over every label pair
    and group element of a finite space, over a window sample on a lattice."""
    e1, e2 = OrbitPair(a, b1), OrbitPair(a, b2)
    if a.space.is_lattice:
        d = a.space.dim
        eu = OrbitPair(a, union_set(b1, b2))
        pairs = _sample_pairs(d, min(budget.window, 32), 240)
        points = _sample_points(d, min(budget.window, 32), 40)
        sweep_ls = _sample_group_elements(a, budget)
        # the sample as an (n, 2, d) array; (x + M·l, y + M·l) in the order
        # of: for (x, y) in pairs, for l in sweep_ls
        sample = _int_array(pairs)
        shifts = _int_array([mat_vec(a.matrix, l) for l in sweep_ls])
        moved_pairs = (sample[:, None] + shifts[None, :, None]).reshape(-1, 2, d)
        note = "sampled window verification"
    else:
        eu = OrbitPair(a, FinitePoints(frozenset(b1.points | b2.points)))
        points = a.space.labels
        sample = pairs = list(itertools.product(points, repeat=2))
        sweep_ls = a.group.elements
        mappings = [a.rule.mapping(i) for i in range(len(sweep_ls))]
        moved_pairs = [(g[x], g[y]) for x, y in pairs for g in mappings]
        note = "exhaustive finite verification"
    # each descriptor answers its whole sample in one batch; the scans below
    # keep the order of the conditions, so the first witness is the same
    m1s = entourage_members(e1, sample, budget)
    transposed = sample[:, ::-1] if a.space.is_lattice else [(y, x) for x, y in pairs]
    m1ts = entourage_members(e1, transposed, budget)
    n = len(sweep_ls)
    moved = entourage_members(e1, moved_pairs, budget)
    m2s = entourage_members(e2, sample, budget)
    hits = [p for p, m1, m2 in zip(pairs, m1s, m2s) if m1 is True or m2 is True]
    in_union = dict(zip(hits, entourage_members(eu, hits, budget)))
    for i, (x, y) in enumerate(pairs):
        m1, m1t = m1s[i], m1ts[i]
        # (iii) symmetry
        if m1 is not None and m1t is not None and m1 != m1t:
            return refuted(witness={"condition": "transpose", "pair": (x, y)})
        # (i) invariance under the swept group elements
        row = moved[i * n:(i + 1) * n]
        if m1 is not None and row.count(m1) + row.count(None) < n:
            for l, ms in zip(sweep_ls, row):
                if ms is not None and ms != m1:
                    return refuted(
                        witness={"condition": "invariance", "pair": (x, y), "l": l}
                    )
        # (iv) union monotonicity
        if in_union.get((x, y)) is False:
            return refuted(witness={"condition": "union", "pair": (x, y)})
    # (ii) diagonal
    for p, m in zip(points, entourage_members(e1, [(p, p) for p in points], budget)):
        if m is False:
            return refuted(witness={"condition": "diagonal", "point": p})
    # (v) composition bound
    bound = orbit_compose_bound(e1, e2)
    bound_truncated = bound is None
    if bound is None:
        bound = _windowed_sweep_bound(a, b1, b2, budget)
    eb = OrbitPair(a, bound)
    composed = entourage_members(Compose(e1, e2), sample, budget)
    hits = [p for p, mc in zip(pairs, composed) if mc is True]
    for (x, z), mb in zip(hits, entourage_members(eb, hits, budget)):
        if mb is False:
            return refuted(
                witness={"condition": "composition", "pair": (x, z)},
                detail="composition escapes the transporter bound",
            )
    if bound_truncated:
        note += " (composition bound window-truncated)"
    return confirmed(note)


def _sample_group_elements(a: ActionInstance, budget: Budget) -> list:
    k = a.group.rank
    out = []
    for t in (1, 2, budget.max_index + 1, 2 * budget.max_index + 5):
        for i in range(k):
            for sign in (1, -1):
                out.append(tuple(sign * t if j == i else 0 for j in range(k)))
    return out


def _sample_points(d: int, window: int, count: int) -> list:
    rng = random.Random(1)
    pts = [tuple(0 for _ in range(d))]
    while len(pts) < count:
        pts.append(tuple(rng.randint(-window, window) for _ in range(d)))
    return pts


def _windowed_sweep_bound(a: ActionInstance, b1, b2, budget: Budget):
    """(T∩window)·B1 ∪ B1 ∪ B2 when the transporter is unbounded."""
    t = transporter(a, b1, b2)
    parts = [b1, b2]
    hull = None
    for l in bx.box_points(cube(budget.window, a.group.rank)):
        if t.member(l):
            moved = set_bounding_box(set_translate(b1, mat_vec(a.matrix, l)))
            hull = moved if hull is None else box_hull(hull, moved)
    if hull is not None:
        parts.append(BoxSet(hull))
    return union_set(*parts)


# --- base property and the associated structure ------------------------------


def base_property_check(a: ActionInstance, budget: Budget = DEFAULT_BUDGET,
                        classification: Classification | None = None) -> Verdict:
    """Is {E(L,B)} a coarse-structure base?  The crux is composition closure.

    B-proper instances confirm symbolically: each level-pair composition lands
    in the level bounding (L_{B_i,B_j}·B_i) ∪ B_i ∪ B_j, its transporter read
    from the difference box B_j − B_i.  Otherwise a witness triple (x, y, z)
    exhibits a composition escaping every level up to budget.
    """
    cls = classification or classify(a, budget)
    if cls.b_proper.confirmed:
        top, sb = min(3, budget.max_index) + 1, a.space_bornology
        # power-set degeneracy: a finite space's maximal bornology holds every bound at 0
        levels = [level_box(sb, n) for n in range(top)] if a.space.is_lattice else []
        table = [] if levels else [((i, j), 0) for i in range(top) for j in range(top)]
        for (i, bi), (j, bj) in itertools.product(enumerate(levels), repeat=2):
            v, hull = _pair_extent(a, bi, bj)
            if not v.bounded:
                return verdict_inconclusive("bounded transporter expected")
            parts = [bi, bj] if hull is None else [
                minkowski_sum(bx.image_hull(a.matrix, hull), bi), bi, bj]
            v = is_bounded(sb, union_set(*map(BoxSet, parts)))
            if not v.bounded:
                return refuted(
                    witness={"levels": (i, j)},
                    detail="composition bound escaped the bornology "
                           "(contradicts B-properness: implementation bug)",
                )
            table.append(((i, j), v.index))
        return confirmed(
            "composition bounds land at the recorded levels", witness=tuple(table)
        )
    witness_family = _refutation_family(a, cls, budget)
    if witness_family:
        return refuted(
            witness={"family": tuple(witness_family)},
            detail="composition of level-0 entourages escapes every level",
        )
    return verdict_inconclusive("no replayable witness family found within budget")


def _refutation_family(a: ActionInstance, cls: Classification, budget: Budget):
    """Witness triples (x, y, z) per level m, validated by replay.

    x = M(t r) + c, y = x - t w, z = c with t = 2m+1 (then larger fallbacks):
    r the transporter recession ray, c the finite corner of B_0, w the chain
    growth vector.
    """
    if not a.is_translation or not isinstance(cls.b_proper.witness, dict):
        return None
    ray = cls.b_proper.witness.get("direction")
    if ray is None or a.space_bornology.kind != CHAIN:
        return None
    base_level = cls.b_proper.witness.get("levels", (0, 0))[0]
    b0 = BoxSet(level_box(a.space_bornology, base_level))
    if set_is_empty(b0):
        return None
    c = _finite_corner(a.space_bornology, base_level)
    w = _growth_vector(a.space_bornology)
    in0 = _member_test(OrbitPair(a, b0), DEFAULT_BUDGET)
    family = []
    for m in range(budget.max_index + 1):
        in_m = _member_test(OrbitPair(a, BoxSet(level_box(a.space_bornology, m))), DEFAULT_BUDGET)
        found = None
        for t in range(2 * m + 1, 2 * m + 40):
            cand = _family_candidate(a, in0, in_m, m, c, w, ray, t)
            if cand is not None:
                found = cand
                break
        if found is None:
            return None
        family.append(found)
    return family


def _family_candidate(a, in0, in_m, m, c, w, ray, t):
    """The triple for t when (x, y), (y, z) ∈ E(L,B_0) and (x, z) ∉ E(L,B_m),
    with in0 and in_m the member tests of those two entourages."""
    shift = mat_vec(a.matrix, tuple(t * r for r in ray))
    x = tuple(ci + s for ci, s in zip(c, shift))
    y = tuple(xi - t * wi for xi, wi in zip(x, w))
    z = c
    if in0(x, y) is not True or in0(y, z) is not True or in_m(x, z) is not False:
        return None
    return {"m": m, "x": x, "y": y, "z": z, "t": t}


def _finite_corner(b: BornologySpec, n: int):
    lvl = level_box(b, n)
    out = []
    for lo, hi in zip(lvl.lower, lvl.upper):
        if is_finite_end(hi):
            out.append(int(hi))
        elif is_finite_end(lo):
            out.append(int(lo))
        else:
            out.append(0)
    return tuple(out)


def _growth_vector(b: BornologySpec):
    out = []
    for lo, hi in b.shape:
        if not hi.is_symbolic:
            out.append(max(hi.coeff, 1))
        elif not lo.is_symbolic:
            out.append(max(-lo.coeff, 1))
        else:
            out.append(1)
    return tuple(out)


def associated_structure(a: ActionInstance, budget: Budget = DEFAULT_BUDGET,
                         base_verdict: Verdict | None = None) -> ChainStructure:
    """E(L, B_X) as a chain of orbit-pair levels; requires the base property."""
    v = base_verdict or base_property_check(a, budget)
    if not v.confirmed:
        raise BasePropertyRefuted(v.witness)
    return associated_orbit_structure(a)


# --- theorem verifiers -------------------------------------------------------


def induced_recovery_check(a: ActionInstance, budget: Budget = DEFAULT_BUDGET,
                           classification: Classification | None = None) -> Verdict:
    """B_{E(L,B_X)} = B_X as mutual chain cofinality.

    Direction one: B_n ⊆ E(L,B_n)[{x}] for x ∈ B_n via the identity element.
    Direction two: every E_n[{a}] over the sample grid is B_X-bounded, which
    for translation rules reduces to point-transporter boundedness.  The
    sample grid is the coset sample points, a given classification's if any.
    Each level reads every sample's transporter in one point_extents call.
    """
    if not a.space.is_lattice:
        return confirmed("finite degeneracy: both sides are the power set")
    certs = []
    samples = (classification.sample_points if classification
               else coset_sample_points(a))[:6]
    sb = a.space_bornology
    for n in range(budget.max_index + 1):
        lvl = level_box(sb, n)
        if lvl.empty:
            continue
        x = _point_inside(lvl)
        certs.append(("contains_level", n, x))
        # the point transporter L_{pt,B_n} is {l : pt + M·l ∈ B_n}, and
        # E_n[pt] = ∪_{l ∈ bb} (B_n − M·l): each row of B_n less its range over bb
        for pt, (v, bb) in zip(samples, point_extents(a, lvl, samples)):
            if bb is not None:
                ranges = [row_range(row, bb) for row in a.matrix]
                v = is_bounded(sb, Box(
                    tuple(lo - r[1] for lo, r in zip(lvl.lower, ranges)),
                    tuple(hi - r[0] for hi, r in zip(lvl.upper, ranges))))
            cell = {"level": n, "point": pt, "verdict": v}
            if v.unbounded:
                return refuted(witness=cell, detail="a point neighborhood escapes the bornology")
            if not v.bounded:
                return Verdict(INCONCLUSIVE, witness=cell,
                               detail="a point neighborhood is undecided")
            if bb is not None:
                certs.append(("nbhd_bounded", n, pt, v.index))
    return confirmed("mutual cofinality", witness=tuple(certs))


def verify_theorem_weak(a: ActionInstance, budget: Budget = DEFAULT_BUDGET,
                        classification: Classification | None = None) -> TheoremReport:
    """weakly B-proper ⟺ (orbit bornologies agree at every point) ∧ (BI)."""
    cls = classification or classify(a, budget)
    left = cls.weakly_b_proper
    if not cls.bi.confirmed:
        right = refuted(witness={"bi": cls.bi}, detail="unbounded isotropy")
    else:
        chain_verdicts = []
        error = None
        for x in cls.sample_points[:4]:
            try:
                pull, push = orbit_bornologies(a, x)
            except GeometryError as exc:
                error = str(exc)
                break
            chain_verdicts.append((x, chains_mutually_cofinal(pull, push)))
        if error is not None:
            right = verdict_inconclusive(error)
        elif all(v.confirmed for _, v in chain_verdicts):
            right = confirmed("BI and orbit chains equal", witness=tuple(chain_verdicts))
        else:
            right = refuted(
                witness={"chains": tuple(chain_verdicts)},
                detail="some orbit chain pair is not cofinal",
            )
    if right.status == "inconclusive":
        status = "inconclusive"
        detail = right.detail
    else:
        agreement = left.confirmed == right.confirmed
        status = CONFIRMED if agreement else REFUTED
        detail = (
            "sides agree (theorem-consistent)"
            if agreement
            else "sides disagree: implementation bug"
        )
    return TheoremReport(
        "weak_properness_characterization",
        status,
        conditions={"weakly_b_proper": left, "bi_and_orbit_chains": right},
        budget=budget,
        detail=detail,
    )


def verify_theorem_main(a: ActionInstance, candidates=(), budget: Budget = DEFAULT_BUDGET,
                        classification: Classification | None = None) -> TheoremReport:
    """Pairwise consistency of the three B-properness characterizations."""
    cls = classification or classify(a, budget)
    cond1 = cls.b_proper
    base_v = base_property_check(a, budget, classification=cls)
    if cls.weakly_b_proper.confirmed and base_v.confirmed:
        cond2 = confirmed("weakly B-proper and the orbit-pair family is a base")
    else:
        cond2 = refuted(
            witness={"weakly": cls.weakly_b_proper, "base": base_v},
            detail="weak properness or the base property fails",
        )
    if cond2.confirmed:
        recovery = induced_recovery_check(a, budget, classification=cls)
        assoc = associated_orbit_structure(a)
        equi = equi_controlled_check(a, assoc, budget)
        if recovery.confirmed and equi.confirmed:
            cond3 = confirmed(
                "associated structure recovers the bornology and is equi controlled",
                witness={"recovery": recovery, "equi": equi},
            )
        else:
            # refuted by a refuting check, else undecided by an undecided one
            cond3 = Verdict(merge_status((recovery, equi)),
                            witness={"recovery": recovery, "equi": equi})
    else:
        cond3 = refuted(
            witness={"stage": "base", "weakly": cls.weakly_b_proper, "base": base_v},
            detail="no witnessing structure: weak properness or the base fails",
        )
    flags = [cond1.confirmed, cond2.confirmed, cond3.confirmed]
    consistent = len(set(flags)) == 1
    conditions = {
        "b_proper": cond1,
        "weakly_plus_base": cond2,
        "weakly_plus_witness_structure": cond3,
    }
    minimality = None
    if consistent and flags[0] and candidates:
        # all three conditions hold, so cond2 did and assoc is built
        items = []
        for name, cand in candidates:
            equi_c = equi_controlled_check(a, cand, budget)
            induced = induced_bornology_chain(cand)
            matches = chains_mutually_cofinal(induced, a.space_bornology)
            if not (equi_c.confirmed and matches.confirmed):
                items.append((name, not_applicable("candidate filtered",
                                                   witness={"equi": equi_c,
                                                            "bornology": matches})))
                continue
            items.append((name, structure_leq(assoc, cand, budget)))
        bad = [it for it in items if it[1].status == REFUTED]
        minimality = (
            refuted(witness=tuple(bad), detail="associated structure not minimal")
            if bad
            else confirmed("associated structure below every candidate",
                           witness=tuple(items))
        )
        conditions["minimality"] = minimality
    status = CONFIRMED if consistent and (minimality is None or not minimality.refuted) else REFUTED
    detail = (
        "conditions pairwise consistent"
        if consistent
        else f"conditions disagree: {flags} (implementation bug)"
    )
    if cond3.status == INCONCLUSIVE and cond1.confirmed:  # 1 and 2 agree, 3 is undecided
        status, detail = INCONCLUSIVE, "witness structure condition inconclusive"
    return TheoremReport("b_proper_characterization", status,
                         conditions=conditions, budget=budget, detail=detail)


def verify_theorem_transitive(a: ActionInstance, cs,
                              budget: Budget = DEFAULT_BUDGET) -> TheoremReport:
    """E(L, B_E) ⊆ E always; equality under coarse transitivity + equi control."""
    induced = induced_bornology_chain(cs)
    a_ind = dataclasses.replace(a, space_bornology=induced)
    cls = classify(a_ind, budget)
    if not cls.b_proper.confirmed:
        return TheoremReport(
            "coarsely_transitive_recovery",
            "not_applicable",
            conditions={"b_proper_wrt_induced": cls.b_proper},
            budget=budget,
            detail="precondition failed: not B-proper w.r.t. the induced bornology",
        )
    assoc = associated_structure(a_ind, budget)
    part1 = structure_leq(assoc, cs, budget)
    ct = coarsely_transitive_check(a_ind, cs, budget)
    equi = equi_controlled_check(a_ind, cs, budget)
    if ct.confirmed and equi.confirmed:
        part2 = structure_leq(cs, assoc, budget)
    else:
        part2 = not_applicable(
            "not coarsely transitive and equi controlled",
            witness={"coarsely_transitive": ct, "equi_controlled": equi},
        )
    conditions = {
        "inclusion": part1,
        "reverse_inclusion": part2,
        "coarsely_transitive": ct,
        "equi_controlled": equi,
    }
    status = merge_status([part1] + ([part2] if part2.status != "not_applicable" else []))
    return TheoremReport("coarsely_transitive_recovery", status,
                         conditions=conditions, budget=budget)
