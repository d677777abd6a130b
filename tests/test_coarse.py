import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    BoxSet,
    FinitePoints,
    GeometryError,
    GroundSpace,
    box_intersect,
    box_set,
    difference_box,
    empty_set,
    point_box,
    points_set,
    set_boxes,
    set_membership,
    set_points_within,
    union_set,
)
from coarseact.bornology import (
    AFF_NEG_INF,
    affine,
    chain_bornology,
    cubes_chain,
    maximal_bornology,
)
from coarseact.actions import (
    ActionInstance,
    TranslationRule,
    lattice_box_feasible,
    lattice_group,
)
from coarseact.coarse import (
    ChainStructure,
    Compose,
    ConnectedPairs,
    DiffRel,
    OrbitPair,
    associated_connected_structure,
    associated_orbit_structure,
    close_finite_base,
    coarsely_bounded,
    coarsely_transitive_check,
    entourage_members,
    entourage_membership,
    entourage_rewrite,
    equi_controlled_check,
    group_right_structure,
    metric_ball_structure,
    neighborhood,
    structure_leq,
    structures_equivalent,
)
from coarseact.verdicts import Budget

from conftest import Z, Z2, lower_quadrant_chain


def closure_family(closure):
    """All relations below some maximal element (explicit, small grounds)."""
    family = set()
    for m in closure.maximal:
        elems = sorted(m, key=str)
        for r in range(len(elems) + 1):
            if len(elems) > 12:
                break
            family.update(frozenset(c) for c in itertools.combinations(elems, r))
    return family


def check_coarse_axioms(closure):
    labels = closure.space.labels
    diag = frozenset((x, x) for x in labels)
    assert closure.contains_relation(diag)
    fam = closure_family(closure)
    for rel in fam:
        assert closure.contains_relation(frozenset((y, x) for x, y in rel))
    rng = random.Random(0)
    sample = rng.sample(sorted(fam, key=str), min(len(fam), 25))
    for r1 in sample:
        for r2 in sample:
            assert closure.contains_relation(r1 | r2)
            comp = frozenset(
                (x, z) for x, y in r1 for y2, z in r2 if y == y2
            )
            assert closure.contains_relation(comp)


class TestCloseFiniteBase:
    def test_empty_base_is_diagonal(self):
        space = GroundSpace.finite(("a", "b"))
        closure = close_finite_base(space, [])
        assert closure.maximal == (frozenset({("a", "a"), ("b", "b")}),)

    def test_full_relation_absorbs(self):
        space = GroundSpace.finite(("a", "b"))
        full = frozenset(itertools.product(space.labels, repeat=2))
        closure = close_finite_base(space, [full])
        assert closure.maximal == (full,)

    def test_single_pair_closure(self):
        space = GroundSpace.finite(("a", "b", "c"))
        closure = close_finite_base(space, [frozenset({("a", "b")})])
        # brute-force: iterate the four operations to stability
        rels = {frozenset((x, x) for x in space.labels), frozenset({("a", "b")})}
        changed = True
        while changed:
            changed = False
            for r1, r2 in list(itertools.product(rels, repeat=2)):
                comp = frozenset((x, z) for x, y in r1 for y2, z in r2 if y == y2)
                for new in (
                    frozenset((y, x) for x, y in r1),
                    r1 | r2,
                    comp,
                ):
                    if not any(new <= m for m in rels):
                        rels = {m for m in rels | {new} if not any(m < o for o in rels | {new})}
                        changed = True
        expected = {m for m in rels if not any(m < o for o in rels)}
        assert set(closure.maximal) == expected

    def test_idempotent(self):
        space = GroundSpace.finite(("a", "b", "c"))
        closure = close_finite_base(space, [frozenset({("a", "b"), ("b", "c")})])
        again = close_finite_base(space, list(closure.maximal))
        assert again.maximal == closure.maximal

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_axioms_on_random_bases(self, size):
        labels = tuple(range(size))
        space = GroundSpace.finite(labels)
        rng = random.Random(size)
        pairs = list(itertools.product(labels, repeat=2))
        for _ in range(6):
            base = [
                frozenset(rng.sample(pairs, rng.randint(1, min(4, len(pairs)))))
                for _ in range(rng.randint(1, 3))
            ]
            check_coarse_axioms(close_finite_base(space, base))

    def test_size_cap(self):
        space = GroundSpace.finite(tuple(range(13)))
        with pytest.raises(Exception):
            close_finite_base(space, [])


class TestMembership:
    def test_metric_ball_boundary(self):
        ball = DiffRel(Z, box_set((-3, 3)))
        assert entourage_membership(ball, ((0,), (3,))) is True
        assert entourage_membership(ball, ((0,), (4,))) is False

    def test_orbit_pair_with_witness(self, hyperbola):
        e = OrbitPair(hyperbola, box_set((NEG_INF, 0), (NEG_INF, 0)))
        pair = ((5, -5), (0, -10))
        assert entourage_membership(e, pair) is True
        # window cross-check over l in [-20, 20]: both points lie in l·B
        hits = [
            n
            for n in range(-20, 21)
            if all(
                p[0] - n <= 0 and p[1] + n <= 0 for p in pair
            )
        ]
        assert 5 in hits

    def test_group_right_difference(self, shift):
        e = DiffRel(GroundSpace.lattice(shift.group.rank), box_set((-2, 2)))
        assert group_right_structure(shift.group).level(2) == e
        assert entourage_membership(e, ((10,), (13,))) is False
        assert entourage_membership(e, ((10,), (12,))) is True

    def test_metric_ball_zero_is_diagonal(self):
        ball = DiffRel(Z2, box_set((0, 0), (0, 0)))
        assert metric_ball_structure(Z2).level(0) == ball
        for p in itertools.product(range(-4, 5), repeat=2):
            for q in itertools.product(range(-4, 5), repeat=2):
                assert entourage_membership(ball, (p, q)) == (p == q)

    def test_connected_pairs_by_definition(self):
        # diag ∪ B×B, with B a box plus a stray point, on the window [-5, 5]^2
        b = union_set(box_set((-1, 2), (0, 1)), points_set((4, -3)))
        e = ConnectedPairs(Z2, b)
        pts = list(itertools.product(range(-5, 6), repeat=2))
        rng = random.Random(3)
        pairs = [(p, p) for p in pts[:20]]
        pairs += [(rng.choice(pts), rng.choice(pts)) for _ in range(400)]
        inside = [p for p in pts if set_membership(b, p)]
        pairs += [(p, q) for p in inside for q in inside]
        for p, q in pairs:
            want = p == q or (set_membership(b, p) and set_membership(b, q))
            assert entourage_membership(e, (p, q)) is want, (p, q)

    def test_orbit_pair_symmetric_and_reflexive(self, hyperbola):
        e = OrbitPair(hyperbola, box_set((NEG_INF, 2), (NEG_INF, 1)))
        pts = list(itertools.product(range(-4, 5), repeat=2))
        rng = random.Random(2)
        for _ in range(80):
            p, q = rng.choice(pts), rng.choice(pts)
            assert entourage_membership(e, (p, q)) == entourage_membership(e, (q, p))
            assert entourage_membership(e, (p, p)) is True


def _translation(m):
    space, k = GroundSpace.lattice(len(m)), len(m[0])
    return ActionInstance("m", lattice_group(k, cubes_chain(GroundSpace.lattice(k))), space,
                          TranslationRule(m), cubes_chain(space))


@st.composite
def _rank1_orbit_case(draw):
    """A rank-1 M with entries in ±3 (zero rows too), B a box or a union of
    2-3 boxes and points with some infinite ends, and window pairs."""
    d = draw(st.integers(1, 3))
    m = tuple((draw(st.integers(-3, 3)),) for _ in range(d))
    ends = st.integers(-6, 6)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pieces.append(points_set(*draw(st.lists(st.tuples(*[ends] * d), min_size=1,
                                                    max_size=2))))
            continue
        sides = []
        for _ in range(d):
            lo, hi = sorted((draw(ends), draw(ends)))
            sides.append((draw(st.sampled_from((lo, lo, NEG_INF))),
                          draw(st.sampled_from((hi, hi, POS_INF)))))
        pieces.append(box_set(*sides))
    point = st.tuples(*[st.integers(-9, 9)] * d)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=25))
    return m, union_set(*pieces), pairs


class TestRankOneMembership:
    @settings(max_examples=300, deadline=None)
    @given(_rank1_orbit_case())
    def test_interval_overlap_matches_box_feasibility(self, case):
        # the rank-1 interval test against the box formula it replaces
        m, b, pairs = case
        pieces = set_boxes(b)

        def by_boxes(x, y):
            return x == y or any(
                lattice_box_feasible(m, box_intersect(difference_box(point_box(x), p),
                                                      difference_box(point_box(y), q)))
                for p in pieces for q in pieces)

        got = entourage_members(OrbitPair(_translation(m), b), pairs)
        assert got == [by_boxes(x, y) for x, y in pairs]

    def test_no_box_built_per_pair(self, hyperbola, monkeypatch):
        import coarseact.coarse as coarse_mod

        calls = []
        for name in ("difference_box", "box_intersect"):
            real = getattr(coarse_mod, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(coarse_mod, name, counted)
        b = union_set(box_set((0, 2), (NEG_INF, 0)), box_set((-6, -4), (3, 5)))
        assert len(set_boxes(b)) == 2
        pts = list(itertools.product(range(-5, 6), repeat=2))
        pairs = [(p, q) for p in pts[::7] for q in pts[::5]]
        got = entourage_members(OrbitPair(hyperbola, b), pairs)
        assert True in got and False in got
        assert calls == []

    def test_compose_builds_each_factor_difference_once(self, monkeypatch):
        import coarseact.coarse as coarse_mod

        real = coarse_mod._piecewise_difference
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(coarse_mod, "_piecewise_difference", counted)
        a = _translation(((2, 0), (0, 2)))
        e = Compose(OrbitPair(a, box_set((0, 1), (0, 1))), OrbitPair(a, box_set((-1, 0), (0, 2))))
        pairs = [((0, 0), (0, 0)), ((0, 0), (1, 2)), ((0, 0), (9, 9)), ((1, 1), (-2, 3))]
        entourage_members(e, pairs)
        assert len(calls) == 2


class TestRewrite:
    def test_compose_metric_balls(self):
        got = entourage_rewrite(Compose(DiffRel(Z, box_set((-2, 2))),
                                        DiffRel(Z, box_set((-3, 3)))))
        assert got.exact
        # membership equality on the window [-16, 16]^2
        for x in range(-16, 17):
            for y in range(-16, 17):
                want = any(abs(x - m) <= 2 and abs(m - y) <= 3 for m in range(-25, 26))
                assert entourage_membership(got.descriptor, ((x,), (y,))) == want

    def test_transpose_orbit_pair_exact(self, hyperbola):
        # the orbit pair is its own transpose, with every membership decided
        e = OrbitPair(hyperbola, box_set((NEG_INF, 0), (NEG_INF, 0)))
        pts = list(itertools.product(range(-6, 7), repeat=2))
        for p in pts[::7]:
            for q in pts:
                m = entourage_membership(e, (p, q))
                assert m is not None
                assert entourage_membership(e, (q, p)) is m

    def test_zero_matrix_orbit_pair_is_connected_pairs(self, trivial):
        b = box_set((-1, 2))
        got = entourage_rewrite(OrbitPair(trivial, b))
        assert got.exact and got.descriptor == ConnectedPairs(Z, b)
        # the fixed action sweeps nothing: E(L,B) = diag ∪ B×B pointwise
        for x in range(-5, 6):
            for y in range(-5, 6):
                want = x == y or (-1 <= x <= 2 and -1 <= y <= 2)
                assert entourage_membership(OrbitPair(trivial, b), ((x,), (y,))) is want

    def test_orbit_compose_bound_on_shift(self, shift):
        # the transporter [0,1] -> [5,6] is [4,6]; sweeping [0,1] gives [4,7],
        # and the bound hull with both operands is the box [0,7]
        from coarseact.coarse import orbit_compose_bound

        e1 = OrbitPair(shift, box_set((0, 1)))
        e2 = OrbitPair(shift, box_set((5, 6)))
        bound = orbit_compose_bound(e1, e2)
        pts = set_points_within(bound, 20)
        assert pts == [(0,), (1,), (4,), (5,), (6,), (7,)]
        from coarseact.boxes import box, set_bounding_box

        assert set_bounding_box(bound) == box((0, 7))
        # the composition is contained in E(L, bound) pointwise on the window
        comp = Compose(e1, e2)
        eb = OrbitPair(shift, bound)
        for x in range(-10, 11):
            for z in range(-10, 11):
                if entourage_membership(comp, ((x,), (z,))) is True:
                    assert entourage_membership(eb, ((x,), (z,))) is True

    def test_surjective_orbit_pair_is_difference_relation(self, shift):
        got = entourage_rewrite(OrbitPair(shift, box_set((0, 1))))
        assert got.exact
        assert isinstance(got.descriptor, DiffRel)
        # E(Z, [0,1]) membership is |x-y| <= 1
        for x in range(-8, 9):
            for y in range(-8, 9):
                assert entourage_membership(got.descriptor, ((x,), (y,))) == (
                    abs(x - y) <= 1
                )


class TestNeighborhood:
    def test_ball_around_point(self):
        got, exact = neighborhood(DiffRel(Z, box_set((-2, 2))), points_set((0,)))
        assert exact and got == box_set((-2, 2))

    def test_diag_identity(self, hyperbola):
        # E(L, ∅) is the diagonal, so its neighborhoods are the identity
        s = points_set((1, 1))
        got, exact = neighborhood(OrbitPair(hyperbola, empty_set(2)), s)
        assert exact and got == s

    @pytest.mark.parametrize("a_set", [
        points_set((0, 0)),
        points_set((5, 5)),
        points_set((0, 1), (4, 4), (-5, 2)),
        box_set((1, 3), (-1, 0)),
        box_set((3, 5), (3, 5)),
        # more pieces than the union cap: A ∩ B must not be built as a union
        FinitePoints(frozenset((i, 0) for i in range(-3, 67))),
    ])
    def test_connected_pairs_neighborhood_by_definition(self, a_set):
        # E[A] = A, plus all of B once A meets B, on the window [-6, 6]^2
        b = box_set((-1, 2), (0, 1))
        got, exact = neighborhood(ConnectedPairs(Z2, b), a_set)
        assert exact
        srcs = set_points_within(a_set, 6)
        for y in itertools.product(range(-6, 7), repeat=2):
            want = any(x == y or (set_membership(b, x) and set_membership(b, y))
                       for x in srcs)
            assert set_membership(got, y) == want, y

    def test_union_cap_hull_is_not_exact(self):
        # 70 unit squares exceed the union cap; their hull also covers the
        # gaps between them, such as (5, 0), so the answer is not exact
        a_set = FinitePoints(frozenset((10 * i, 0) for i in range(70)))
        ball = DiffRel(Z2, box_set((-1, 1), (-1, 1)))
        got, exact = neighborhood(ball, a_set)
        assert set_membership(got, (5, 0))
        assert exact is False
        # below the cap the pieces stay apart and the answer is exact
        few = FinitePoints(frozenset((10 * i, 0) for i in range(8)))
        got, exact = neighborhood(ball, few)
        assert exact is True
        assert set_membership(got, (1, 1)) and not set_membership(got, (5, 0))

    def test_union_cap_hull_reaches_orbit_pair_rewrite(self, shift):
        # B with 70 scattered points has a difference set past the cap, so
        # the DiffRel rewrite of E(Z, B) is a hull and must say so
        b = FinitePoints(frozenset((10 * i,) for i in range(70)))
        got = entourage_rewrite(OrbitPair(shift, b))
        assert isinstance(got.descriptor, DiffRel)
        assert got.exact is False

    def test_orbit_point_neighborhood_matches_pair_sweep(self, hyperbola):
        # independent check: {y : (x,y) ∈ E} by raw membership enumeration
        b = box_set((NEG_INF, 0), (NEG_INF, 0))
        e = OrbitPair(hyperbola, b)
        x = (0, 0)
        got, exact = neighborhood(e, points_set(x), Budget(window=16))
        assert exact
        for y in itertools.product(range(-8, 9), repeat=2):
            want = entourage_membership(e, (x, y)) is True
            assert set_membership(got, y) == want, y

    def test_quadrant_neighborhood_deep_point(self, hyperbola):
        # at (-3, -3) the feasible shifts form the interval [-3, 3], so the
        # neighborhood unions seven translated quadrants
        b = box_set((NEG_INF, 0), (NEG_INF, 0))
        e = OrbitPair(hyperbola, b)
        got, exact = neighborhood(e, points_set((-3, -3)), Budget(window=16))
        assert exact
        for y in itertools.product(range(-8, 9), repeat=2):
            want = any(
                y[0] - n <= 0 and y[1] + n <= 0 for n in range(-3, 4)
            )
            assert set_membership(got, y) == want, y


class TestCoarselyBounded:
    def test_interval_in_metric_chain(self):
        cs = metric_ball_structure(Z)
        v = coarsely_bounded(cs, box_set((4, 6)))
        assert v.bounded and v.index == 1
        # a looser certificate at index 2 also holds
        assert all(abs(x - 5) <= 2 for x in (4, 5, 6))

    def test_infinite_set_unbounded(self):
        cs = metric_ball_structure(Z)
        v = coarsely_bounded(cs, box_set((NEG_INF, 0)))
        assert v.unbounded and v.direction == (-1,)

    def test_connected_pairs_recover_bornology(self):
        cs = associated_connected_structure(cubes_chain(Z))
        assert coarsely_bounded(cs, box_set((4, 6))).bounded
        assert coarsely_bounded(cs, box_set((NEG_INF, 0))).unbounded

    def test_neighborhood_of_bounded_stays_bounded(self):
        # E[B] belongs to the induced bornology again
        cs = metric_ball_structure(Z)
        s = box_set((2, 5))
        n, exact = neighborhood(cs.level(3), s)
        assert exact
        assert coarsely_bounded(cs, n).bounded

    def test_orbit_chain_without_exact_rewrite(self):
        # x -> x + 2l reaches every other point only, so E(L, B) has no exact
        # DiffRel or connected-pairs rewrite and the space chain decides
        double = TranslationRule(((2,),))
        a = ActionInstance("double", lattice_group(1, cubes_chain(Z)), Z,
                           double, cubes_chain(Z))
        cs = associated_orbit_structure(a)
        v = coarsely_bounded(cs, box_set((0, 5)))
        assert v.bounded and v.index == 5
        v = coarsely_bounded(cs, box_set((0, POS_INF)))
        assert v.unbounded and v.direction == (1,)
        # the chain (-inf, m] has a recession ray along M, so no answer
        half_lines = chain_bornology(Z, [(AFF_NEG_INF, affine(1, 0))])
        a = ActionInstance("double", lattice_group(1, cubes_chain(Z)), Z,
                           double, half_lines)
        v = coarsely_bounded(associated_orbit_structure(a), box_set((0, POS_INF)))
        assert v.outcome == "inconclusive"
        assert v.note == "orbit chain without exact rewrite"


class TestAssociatedConnected:
    def test_cubes_levels(self):
        cs = associated_connected_structure(cubes_chain(Z))
        lvl = cs.level(2)
        assert entourage_membership(lvl, ((1,), (-2,))) is True
        assert entourage_membership(lvl, ((3,), (3,))) is True  # diagonal
        assert entourage_membership(lvl, ((3,), (2,))) is False

    def test_maximal_on_finite_space(self):
        space = GroundSpace.finite(("a", "b"))
        cs = associated_connected_structure(maximal_bornology(space))
        full = frozenset(itertools.product(space.labels, repeat=2))
        assert cs.maximal == (full,)

    def test_quadrant_chain_membership(self):
        cs = associated_connected_structure(lower_quadrant_chain())
        pair = ((5, -5), (0, 0))
        assert entourage_membership(cs.level(5), pair) is True
        assert entourage_membership(cs.level(4), pair) is False

    def test_connectivity_properties(self):
        # every coarsely bounded set is some E[x] and its square is controlled
        cs = associated_connected_structure(cubes_chain(Z))
        s = box_set((-3, 3))
        v = coarsely_bounded(cs, s)
        assert v.bounded
        lvl = cs.level(v.index)
        n, _ = neighborhood(lvl, points_set((0,)))
        for p in set_points_within(s, 10):
            assert set_membership(n, p)
        for p in set_points_within(s, 10):
            for q in set_points_within(s, 10):
                assert entourage_membership(cs.level(3), (p, q)) is True


class TestStructureLeq:
    def test_reflexive(self):
        cs = metric_ball_structure(Z)
        assert structure_leq(cs, cs).confirmed

    def test_connected_below_metric(self):
        v = structure_leq(
            associated_connected_structure(cubes_chain(Z)), metric_ball_structure(Z)
        )
        assert v.confirmed
        # diag ∪ [-n,n]^2 sits inside the ball of radius 2n
        assert all(m <= 2 * n or n == 0 for n, m in v.witness)

    def test_metric_not_below_connected(self):
        v = structure_leq(metric_ball_structure(Z), associated_connected_structure(cubes_chain(Z)))
        assert v.refuted
        n, pair = v.witness["level"], v.witness["pair"]
        # replay: the pair is in the metric level but outside every candidate
        assert entourage_membership(metric_ball_structure(Z).level(n), pair) is True
        eb = associated_connected_structure(cubes_chain(Z))
        for m in range(9):
            assert entourage_membership(eb.level(m), pair) is False

    def test_transitive_on_suite(self):
        a = associated_connected_structure(cubes_chain(Z))
        b = metric_ball_structure(Z)
        c = ChainStructure(Z, "metric_ball")
        assert structure_leq(a, b).confirmed
        assert structure_leq(b, c).confirmed
        assert structure_leq(a, c).confirmed

    def test_finite_closures(self):
        space = GroundSpace.finite((0, 1, 2))
        small = close_finite_base(space, [{(0, 1)}])
        assert structure_leq(small, close_finite_base(space, [{(0, 1), (1, 2)}])).confirmed
        v = structure_leq(small, close_finite_base(space, [{(1, 2)}]))
        assert v.refuted
        assert v.witness == {"relation": [(0, 0), (0, 1), (1, 0), (1, 1)], "pair": (0, 1)}
        with pytest.raises(GeometryError, match="mixed"):
            structure_leq(small, metric_ball_structure(Z))


class TestContainmentSoundness:
    def test_exact_verdicts_agree_with_membership(self):
        # meta-test: every decided containment must replay on window pairs
        from coarseact.boxes import box_points, cube
        from coarseact.coarse import entourage_leq_exact
        from coarseact.oracle import random_instance

        rng = random.Random(0)
        for seed in range(1, 13):
            inst = random_instance(seed, "lattice-k1")
            d = inst.space.dim
            ents = [DiffRel(inst.space, BoxSet(cube(rng.randint(0, 4), d)))]
            for _ in range(2):
                lo = tuple(rng.randint(-3, 1) for _ in range(d))
                b = box_set(*((l, l + rng.randint(0, 3)) for l in lo))
                ents.append(OrbitPair(inst, b))
            for e1 in ents:
                for e2 in ents:
                    verdict, witness = entourage_leq_exact(e1, e2)
                    if verdict is False:
                        assert entourage_membership(e1, witness) is True
                        assert entourage_membership(e2, witness) is False
                    elif verdict is True:
                        pts = list(box_points(cube(4 if d <= 2 else 2, d)))
                        pairs = [(rng.choice(pts), rng.choice(pts))
                                 for _ in range(120)]
                        for pair in pairs:
                            if entourage_membership(e1, pair) is True:
                                assert entourage_membership(e2, pair) is not False


class TestGroupRightStructure:
    def test_cubes_levels_match_metric_balls(self, shift):
        cs = group_right_structure(shift.group)
        for k in (0, 1, 3):
            lvl = cs.level(k)
            for x in range(-16, 17):
                for y in range(-16, 17):
                    assert entourage_membership(lvl, ((x,), (y,))) == (abs(y - x) <= k)

    def test_maximal_level_is_full(self):
        g = lattice_group(1, maximal_bornology(Z))
        cs = group_right_structure(g)
        assert entourage_membership(cs.level(0), ((-9,), (9,))) is True

    def test_finite_cyclic_full_closure(self):
        from coarseact.actions import finite_group

        mul = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
        space = GroundSpace.finite((0, 1, 2))
        g = finite_group((0, 1, 2), mul, maximal_bornology(space))
        cs = group_right_structure(g)
        full = frozenset(itertools.product((0, 1, 2), repeat=2))
        assert cs.maximal == (full,)


class TestEquiControlled:
    def test_shift_metric(self, shift):
        v = equi_controlled_check(shift, metric_ball_structure(Z))
        assert v.confirmed

    def test_hyperbola_metric_is_isometric(self, hyperbola):
        assert equi_controlled_check(hyperbola, metric_ball_structure(Z2)).confirmed

    def test_hyperbola_escapes_cube_pairs(self, hyperbola):
        cs = associated_connected_structure(cubes_chain(Z2))
        v = equi_controlled_check(hyperbola, cs)
        assert v.refuted
        pair = v.witness["pair"]
        lvl = v.witness["level"]
        # replay: the witness pair is a swept level pair escaping all levels
        l = v.witness["l"]
        shift_vec = (l[0], -l[0])
        orig = tuple(tuple(c - s for c, s in zip(p, shift_vec)) for p in pair)
        assert entourage_membership(cs.level(lvl), orig) is True
        for m in range(9):
            assert entourage_membership(cs.level(m), pair) is False

    def test_late_chain_refuted_at_first_two_point_level(self, shift):
        # levels 0..20 hold at most one point, so every connected-pairs level
        # up to the budget is the diagonal; a sweep still escapes at level 21
        b = chain_bornology(Z, [(affine(-1, 20), affine(1, -20))])
        cs = associated_connected_structure(b)
        v = equi_controlled_check(shift, cs)
        assert v.refuted and v.witness["level"] == 21
        (x, y), l = v.witness["pair"], v.witness["l"]
        orig = ((x[0] - l[0],), (y[0] - l[0],))
        assert orig[0] != orig[1]
        assert entourage_membership(cs.level(21), orig) is True
        for m in range(9):
            assert entourage_membership(cs.level(m), (x, y)) is False


class TestCoarselyTransitive:
    def test_shift_is_transitive(self, shift):
        v = coarsely_transitive_check(shift, metric_ball_structure(Z))
        assert v.confirmed and v.witness["B"] == ((0,),)

    def test_hyperbola_not_transitive(self, hyperbola):
        v = coarsely_transitive_check(hyperbola, metric_ball_structure(Z2))
        assert v.refuted
        w = v.witness["direction"]
        # the direction is transverse to the anti-diagonal column lattice
        assert w is not None and w[0] * (-1) - w[1] * 1 != 0

    def test_first_coordinate_shift_not_transitive(self, first_coordinate_shift):
        v = coarsely_transitive_check(first_coordinate_shift, metric_ball_structure(Z2))
        assert v.refuted
        assert v.witness["direction"] == (0, 1)
