"""The decide path's level tables against cell-by-cell references.

classify, base_property_check and induced_recovery_check read their
level-indexed transporters through actions.point_extents: at k = 1 one row
read per level box and one integer interval per point.  The references below
build every cell the long way instead, as those functions did before: a
transporter descriptor per cell read by transporter_extent, the composition
bound from coarse.orbit_compose_bound, and every level from is_bounded.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact import boxes as bx
from coarseact.boxes import BoxSet, FinitePoints, GroundSpace, points_set
from coarseact.bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    MAXIMAL,
    _point_inside,
    affine,
    chain_bornology,
    is_bounded,
    level_box,
    maximal_bornology,
)
from coarseact.actions import (
    ActionInstance,
    LatticeTransporter,
    TranslationRule,
    _coset_firsts,
    _echelon,
    _pair_extent,
    _residue,
    _shell,
    classify,
    coset_sample_points,
    covering_residues,
    lattice_group,
    point_extents,
    transporter,
    transporter_extent,
)
from coarseact.coarse import OrbitPair, orbit_compose_bound
from coarseact.associated import (
    base_property_check,
    induced_recovery_check,
    verify_theorem_main,
    verify_theorem_weak,
)
from coarseact.oracle import random_instance
from coarseact.verdicts import (
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    Budget,
    Verdict,
    confirmed,
    refuted,
    verdict_inconclusive,
)

from conftest import budget_slice_instance, random_chain


# --- cell-by-cell references ---------------------------------------------------


def _level_set(a, n):
    """Level n of the space bornology; the whole set on a finite space."""
    if a.space.is_lattice or a.space_bornology.kind != MAXIMAL:
        return BoxSet(level_box(a.space_bornology, n))
    return FinitePoints(frozenset(a.space.labels))


def reference_classify_tables(a, budget):
    """classify's point table and level-pair table, one transporter per cell."""
    levels = range(min(3, budget.max_index + 1))
    points = []
    for x in coset_sample_points(a)[:4]:
        for j in levels:
            v = transporter_extent(a, transporter(a, points_set(x), _level_set(a, j)))[0]
            points.append(((x, j), v.outcome, v.index))
    pairs = []
    for i in levels:
        for j in levels:
            v = transporter_extent(a, transporter(a, _level_set(a, i), _level_set(a, j)))[0]
            pairs.append(((i, j), v.outcome, v.index))
    return tuple(points), tuple(pairs)


def reference_base_check(a, budget):
    """base_property_check of a B-proper instance, one composition bound per cell."""
    table = []
    for i in range(min(3, budget.max_index) + 1):
        for j in range(min(3, budget.max_index) + 1):
            bound = orbit_compose_bound(OrbitPair(a, _level_set(a, i)),
                                        OrbitPair(a, _level_set(a, j)))
            if bound is None:
                return verdict_inconclusive("bounded transporter expected")
            v = is_bounded(a.space_bornology, bound)
            if not v.bounded:
                return refuted(witness={"levels": (i, j)},
                               detail="composition bound escaped the bornology "
                                      "(contradicts B-properness: implementation bug)")
            table.append(((i, j), v.index))
    return confirmed("composition bounds land at the recorded levels", witness=tuple(table))


def reference_recovery(a, budget, samples):
    """induced_recovery_check on a lattice, one point transporter per cell."""
    certs = []
    sb = a.space_bornology
    for n in range(budget.max_index + 1):
        lvl = level_box(sb, n)
        if lvl.empty:
            continue
        certs.append(("contains_level", n, _point_inside(lvl)))
        for pt in samples[:6]:
            case = bx.translate_box(lvl, tuple(-p for p in pt))
            v, bb = transporter_extent(a, LatticeTransporter(a.matrix, (case,)))
            if bb is not None:
                ranges = [bx.row_range(row, bb) for row in a.matrix]
                v = is_bounded(sb, BoxSet(bx.Box(
                    tuple(lo - r[1] for lo, r in zip(lvl.lower, ranges)),
                    tuple(hi - r[0] for hi, r in zip(lvl.upper, ranges)))))
            cell = {"level": n, "point": pt, "verdict": v}
            if v.unbounded:
                return refuted(witness=cell, detail="a point neighborhood escapes the bornology")
            if not v.bounded:
                return Verdict(INCONCLUSIVE, witness=cell,
                               detail="a point neighborhood is undecided")
            if bb is not None:
                certs.append(("nbhd_bounded", n, pt, v.index))
    return confirmed("mutual cofinality", witness=tuple(certs))


def cube_walk_firsts(basis, d, max_radius):
    """The coset walk over every point of each cube, dropping the interior."""
    seen = {_residue(basis, (0,) * d)}
    yield (0,) * d
    for radius in range(1, max_radius + 1):
        for p in bx.box_points(bx.cube(radius, d)):
            if max(map(abs, p)) < radius:
                continue
            r = _residue(basis, p)
            if r not in seen:
                seen.add(r)
                yield p


# --- the reader against one transporter per cell --------------------------------


def _end(rng, sign):
    """A chain end: infinite, widening, or fixed (which fails the covering axiom)."""
    roll = rng.random()
    if roll < 0.25:
        return AFF_POS_INF if sign > 0 else AFF_NEG_INF
    if roll < 0.4:
        return affine(0, rng.randint(-3, 3))
    return affine(sign * rng.randint(1, 2), rng.randint(-6, 6))


def _group_bornology(rng, k):
    """The maximal bornology, a plain chain, or a chain through a matrix."""
    space = GroundSpace.lattice(k)
    roll = rng.random()
    if roll < 0.2:
        return maximal_bornology(space)
    if roll < 0.4:
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(1, 2)))
        return chain_bornology(space, [(_end(rng, -1), _end(rng, 1)) for _ in rows], matrix=rows)
    if roll < 0.6:
        return random_chain(rng, space, 3)
    return chain_bornology(space, [(_end(rng, -1), _end(rng, 1)) for _ in range(k)])


def _reader_instance(rng):
    k, d = rng.randint(1, 2), rng.randint(1, 3)
    space = GroundSpace.lattice(d)
    m = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(d))
    return ActionInstance("reader", lattice_group(k, _group_bornology(rng, k)), space,
                          TranslationRule(m), random_chain(rng, space, 25))


class TestPointExtents:
    """point_extents and _pair_extent give transporter_extent's answer for
    the transporter that transporter() builds, cell by cell: ranks 1 and 2,
    ±inf ends, levels that stay empty until offsets up to 25, and group
    bornologies that are maximal, plain chains (some failing the covering
    axiom) or chains through a matrix."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_points_match_one_transporter_each(self, rng):
        a = _reader_instance(rng)
        d = a.space.dim
        points = list(coset_sample_points(a)[:6])
        points += [tuple(rng.randint(-30, 30) for _ in range(d)) for _ in range(3)]
        for n in (0, 1, 2, rng.randint(3, 40)):
            c = level_box(a.space_bornology, n)
            want = [transporter_extent(a, transporter(a, points_set(x), BoxSet(c)))
                    for x in points]
            assert point_extents(a, c, points) == want, (n, c)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_level_pairs_match_one_transporter_each(self, rng):
        a = _reader_instance(rng)
        levels = [level_box(a.space_bornology, n) for n in (0, 1, 3, rng.randint(4, 40))]
        for bi, bj in itertools.product(levels, repeat=2):
            want = transporter_extent(a, transporter(a, BoxSet(bi), BoxSet(bj)))
            assert _pair_extent(a, bi, bj) == want, (bi, bj)


# --- the tables against the references ------------------------------------------


class TestTablesMatchReference:
    def test_budget_slice_tables(self):
        # the budget slice's generator at seeds 0-199, plus the random
        # profiles' instances with a maximal group bornology: classify's two
        # tables, the base table and the recovery certificates, cell for cell
        budget = DEFAULT_BUDGET
        seen = {"points": 0, "pairs": 0, "base": 0, "recovery": 0, "maximal": 0}
        instances = [budget_slice_instance(seed) for seed in range(200)]
        instances += [random_instance(1, "lattice-k1"), random_instance(23, "lattice-k1"),
                      random_instance(2, "lattice-k2"), random_instance(14, "lattice-k2")]
        for seed, a in enumerate(instances):
            if a is None:
                continue
            cls = classify(a, budget)
            points, pairs = reference_classify_tables(a, budget)
            if a.group.bornology.kind == MAXIMAL:
                seen["maximal"] += 1
            else:
                if cls.weakly_b_proper.confirmed:
                    assert cls.weakly_b_proper.witness == points, seed
                    seen["points"] += 1
                if cls.b_proper.confirmed:
                    assert cls.b_proper.witness == pairs, seed
                    seen["pairs"] += 1
            if cls.b_proper.confirmed:
                assert base_property_check(a, budget, cls) == reference_base_check(a, budget), seed
                seen["base"] += 1
            got = induced_recovery_check(a, budget, cls)
            assert got == reference_recovery(a, budget, cls.sample_points), seed
            seen["recovery"] += got.confirmed
        assert min(seen.values()) >= 5, seen

    def test_finite_base_table_is_read_from_the_power_set(self):
        # every finite level is the whole label set: the 16 cells the
        # reference computes all land at level 0
        for seed in range(1, 9):
            a = random_instance(seed, "finite")
            got = base_property_check(a)
            assert got == reference_base_check(a, DEFAULT_BUDGET), seed
            assert got.witness == tuple(((i, j), 0) for i in range(4) for j in range(4))

    def test_verifiers_take_the_classification(self, monkeypatch):
        # a passed classification is read, not recomputed, and gives the
        # reports that classifying inside the verifiers gives
        import coarseact.associated as associated

        budget = Budget(max_index=4)
        for inst in (random_instance(3, "lattice-k1"), random_instance(2, "lattice-k2"),
                     random_instance(4, "finite")):
            cls = classify(inst, budget)
            want = (verify_theorem_weak(inst, budget), verify_theorem_main(inst, (), budget))
            with monkeypatch.context() as mp:
                mp.setattr(associated, "classify", None)
                got = (verify_theorem_weak(inst, budget, classification=cls),
                       verify_theorem_main(inst, (), budget, classification=cls))
            assert got == want, inst.name


# --- coset samples from the cube's shell --------------------------------------------


class TestCosetShell:
    def test_shell_is_the_cube_walk_without_its_interior(self):
        for radius in range(1, 6):
            for d in range(1, 4):
                walk = [p for p in bx.box_points(bx.cube(radius, d)) if max(map(abs, p)) == radius]
                assert _shell(radius, d) == walk, (radius, d)

    def test_coset_firsts_match_the_cube_walk(self):
        rng = random.Random(5)
        for _ in range(310):
            d, k = rng.randint(1, 3), rng.randint(1, 2)
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(d))
            basis = _echelon(m)
            got = tuple(itertools.islice(_coset_firsts(basis, d, 6), 32))
            assert got == tuple(itertools.islice(cube_walk_firsts(basis, d, 6), 32)), m
            reps = covering_residues(_translation(m))
            if reps is not None:
                assert reps == tuple(itertools.islice(
                    cube_walk_firsts(basis, d, 4 * len(reps) + 4), len(reps))), m


def _translation(m):
    space, params = GroundSpace.lattice(len(m)), GroundSpace.lattice(len(m[0]))
    return ActionInstance("t", lattice_group(len(m[0]), maximal_bornology(params)), space,
                          TranslationRule(m), maximal_bornology(space))
