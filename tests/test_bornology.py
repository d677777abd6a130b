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
    UnionSet,
    box,
    box_set,
    box_size,
    points_set,
    union_set,
)
from coarseact.bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    AffineEnd,
    _chain_escape,
    affine,
    bornology_axiom_check,
    chain_bornology,
    constraint_ranges,
    cubes_chain,
    finite_base_bornology,
    finite_bornology_closure,
    first_level,
    is_bounded,
    least_index_cover_lower,
    least_index_cover_upper,
    level_box,
    maximal_bornology,
    orbit_pullback,
)
from coarseact.verdicts import bounded_at

from conftest import random_chain

Z = GroundSpace.lattice(1)
Z2 = GroundSpace.lattice(2)


def all_subsets(labels):
    out = set()
    for r in range(len(labels) + 1):
        out.update(frozenset(c) for c in itertools.combinations(labels, r))
    return out


class TestAxiomCheck:
    def test_cubes_pass(self):
        assert bornology_axiom_check(cubes_chain(Z)).passed

    def test_one_sided_chain_fails_covering(self):
        spec = chain_bornology(Z, [(affine(0, 0), affine(1, 0))])
        report = bornology_axiom_check(spec)
        assert not report.passed
        assert report.item("covering").witness == (-1,)

    def test_finite_base_covering_witness(self):
        space = GroundSpace.finite(("a", "b", "c"))
        spec = finite_base_bornology(
            space, (points_set("a"), points_set("b"))
        )
        report = bornology_axiom_check(spec)
        assert not report.item("covering").passed
        assert report.item("covering").witness == "c"

    def test_maximal_vacuous(self):
        assert bornology_axiom_check(maximal_bornology(Z)).passed


class TestGenerateFromBase:
    def test_full_set_downward_closure(self):
        # a base holding the whole set reads as the maximal bornology
        space = GroundSpace.finite(("a", "b"))
        spec = finite_base_bornology(space, (points_set("a", "b"),))
        assert spec.kind == "maximal"
        for s in all_subsets(("a", "b")):
            assert is_bounded(spec, points_set(*s)) == bounded_at(0, note="maximal bornology")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_covering_base_closure_is_power_set(self, n):
        # finite degeneracy: union-closing any covering base fills the power set
        labels = tuple(range(n))
        space = GroundSpace.finite(labels)
        base = tuple(points_set(x) for x in labels)
        fam = finite_bornology_closure(space, base)
        assert fam == all_subsets(labels)

    def test_generated_families_satisfy_axioms(self):
        # a base that is not pair-dominated fails the axiom check and keeps
        # its kind; closing it under union and subset still fills the power set
        labels = ("a", "b", "c", "d")
        space = GroundSpace.finite(labels)
        base = (points_set("a", "b"), points_set("c"), points_set("d"))
        spec = finite_base_bornology(space, base)
        assert spec.kind == "finite_base"
        assert bornology_axiom_check(spec).item("pair_dominated").witness == (["a", "b"], ["c"])
        assert finite_bornology_closure(space, base) == all_subsets(labels)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_valid_base_generates_a_bornology(self, n):
        # nested-chain bases satisfy the base conditions, so they read as the
        # maximal bornology; the family they generate must pass all three
        # axioms, checked exhaustively
        import random as _random

        rng = _random.Random(n)
        labels = tuple(range(n))
        space = GroundSpace.finite(labels)
        for _ in range(5):
            order = list(labels)
            rng.shuffle(order)
            cuts = sorted({rng.randint(1, n) for _ in range(2)} | {n})
            base = tuple(points_set(*order[:c]) for c in cuts)
            spec = finite_base_bornology(space, base)
            assert bornology_axiom_check(spec).passed
            assert spec.kind == "maximal" and spec.base == base
            fam = finite_bornology_closure(space, base)
            assert set().union(*fam) == set(labels)  # covering
            for s1 in fam:
                for s2 in fam:
                    assert (s1 | s2) in fam  # union closed
                for x in s1:
                    assert (s1 - {x}) in fam  # downward closed


class TestIsBounded:
    def test_least_enclosing_cube(self):
        v = is_bounded(cubes_chain(Z), box_set((4, 6)))
        assert v.bounded and v.index == 6

    def test_infinite_end_escapes(self):
        v = is_bounded(cubes_chain(Z), box_set((NEG_INF, 0)))
        assert v.unbounded
        assert v.direction == (-1,)
        # the escape ray stays in the set and outside every level it names
        for t in (0, 1, 4):
            p = tuple(b + t * d for b, d in zip(v.base_point, v.direction))
            assert p[0] <= 0

    def test_quadrant_chain_least_index(self):
        spec = chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0))] * 2)
        v = is_bounded(spec, box_set((NEG_INF, 3), (NEG_INF, -1)))
        assert v.bounded and v.index == 3
        # cross-check: containment fails at k = 2 on the window
        lvl2 = level_box(spec, 2)
        escapes = [
            p
            for p in itertools.product(range(-6, 7), repeat=2)
            if p[0] <= 3 and p[1] <= -1 and not lvl2.contains(p)
        ]
        assert escapes  # (3, -1) among them
        assert (3, -1) in escapes

    def test_maximal_always(self):
        assert is_bounded(maximal_bornology(Z), box_set((NEG_INF, POS_INF))).index == 0

    def test_union_descriptor_exact(self):
        s = union_set(box_set((0, 2)), points_set((9,)))
        v = is_bounded(cubes_chain(Z), s)
        assert v.bounded and v.index == 9

    def test_point_past_float_precision(self):
        # the least index is integer arithmetic: a float quotient rounds
        # 10**17 + 1 down to 10**17, a level without the point
        v = is_bounded(cubes_chain(Z), points_set((-(10**17 + 1),)))
        assert v.bounded and v.index == 10**17 + 1

    def test_failing_finite_base_is_not_answered(self):
        # a base failing the covering axiom is never read as the power set
        space = GroundSpace.finite(("a", "b", "c"))
        spec = finite_base_bornology(space, (points_set("a"), points_set("b")))
        with pytest.raises(GeometryError, match="fails the bornology axioms"):
            is_bounded(spec, points_set("a"))

    def test_finite_base_containment(self):
        space = GroundSpace.finite(("a", "b", "c"))
        spec = finite_base_bornology(space, (points_set("a", "b"), points_set("a", "b", "c")))
        assert is_bounded(spec, points_set("a")).bounded
        assert is_bounded(spec, points_set("a", "c")).bounded

    @given(st.integers(-6, 6), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, lo, w, shrink):
        big = box_set((lo, lo + w))
        small = box_set((lo, max(lo, lo + w - shrink)))
        vb, vs = is_bounded(cubes_chain(Z), big), is_bounded(cubes_chain(Z), small)
        if vb.bounded:
            assert vs.bounded and vs.index <= vb.index


@st.composite
def _unbounded_boxes(draw, d):
    """Non-empty boxes whose ends are finite or infinite."""
    pairs = []
    for _ in range(d):
        lo = NEG_INF if draw(st.integers(0, 3)) == 0 else draw(st.integers(-30, 30))
        if draw(st.integers(0, 3)) == 0:
            hi = POS_INF
        else:
            hi = draw(st.integers(-30, 30)) if lo == NEG_INF else lo + draw(st.integers(0, 30))
        pairs.append((lo, hi))
    return box(*pairs)


def _ranges_route(spec, s):
    """is_bounded's chain loop over the ranges of s as a union with one point
    of s, the per-piece route that points and unions take."""
    worst = 0
    inside = tuple(lo if lo != NEG_INF else hi if hi != POS_INF else 0
                   for lo, hi in zip(s.box.lower, s.box.upper))
    ranges = constraint_ranges(spec, UnionSet((s, FinitePoints(frozenset({inside})))))
    for r, ((lo_end, hi_end), (lo, hi)) in enumerate(zip(spec.shape, ranges)):
        k_lo = least_index_cover_lower(lo_end, lo)
        k_hi = least_index_cover_upper(hi_end, hi)
        if k_lo is None or k_hi is None:
            return _chain_escape(spec, s, r, lo if k_lo is None else hi)
        worst = max(worst, k_lo, k_hi)
    return bounded_at(worst)


class TestIsBoundedBoxRead:
    """A single box, bare or as a BoxSet, is read from its own ends (plain
    chain) or one row_range per matrix row (pull-back chain); the verdict,
    escape direction, base point and witness equal the per-piece route's."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.data())
    def test_plain_chain(self, rng, d, data):
        spec = random_chain(rng, GroundSpace.lattice(d))
        s = BoxSet(data.draw(_unbounded_boxes(d)))
        assert is_bounded(spec, s.box) == is_bounded(spec, s) == _ranges_route(spec, s)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 2), st.data())
    def test_pullback_chain(self, rng, d, k, data):
        m = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(d))
        x = tuple(data.draw(st.integers(-10, 10)) for _ in range(d))
        spec = orbit_pullback(m, x, random_chain(rng, GroundSpace.lattice(d)))
        s = BoxSet(data.draw(_unbounded_boxes(k)))
        assert is_bounded(spec, s.box) == is_bounded(spec, s) == _ranges_route(spec, s)


class TestFirstLevel:
    def test_matches_uncapped_scan(self):
        rng = random.Random(3)
        for _ in range(400):
            spec = random_chain(rng, GroundSpace.lattice(rng.randint(1, 3)), 30)
            assert bornology_axiom_check(spec).passed
            for points in (1, 2):
                scan = next(m for m in itertools.count()
                            if box_size(level_box(spec, m)) >= points)
                assert first_level(spec, points) == scan, (spec, points)

    def test_late_chain(self):
        spec = chain_bornology(Z, [(affine(-1, 20), affine(1, -20))])
        assert (first_level(spec), first_level(spec, 2)) == (20, 21)

    def test_maximal_starts_at_zero(self):
        assert first_level(maximal_bornology(Z2), 2) == 0


class TestInduction:
    def test_orbit_inclusion_preimage(self):
        # orbit {(n, -n)} inside the plane against the lower-quadrant chain
        spec = chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0))] * 2)
        pull = orbit_pullback(((1,), (-1,)), (0, 0), spec)
        # window enumeration: {n : (n, -n) both coords <= m} = [-m, m]
        for m in (0, 1, 3):
            want = {n for n in range(-10, 11) if n <= m and -n <= m}
            got = {
                n
                for n in range(-10, 11)
                if is_bounded(pull, points_set((n,))).bounded
                and is_bounded(pull, points_set((n,))).index <= m
            }
            assert got == want

    def test_orbit_projection_is_group_chain(self, hyperbola):
        from coarseact.actions import orbit_bornologies

        assert orbit_bornologies(hyperbola, (0, 0))[1] == hyperbola.group.bornology


_VALUES = st.one_of(st.integers(-60, 60), st.sampled_from([NEG_INF, POS_INF]))
_ENDS = st.one_of(st.builds(affine, st.integers(-3, 3), st.integers(-60, 60)),
                  st.sampled_from([AFF_NEG_INF, AFF_POS_INF]))


class TestChainEndArithmetic:
    """The least-index and level-box arithmetic read from coeff, offset and
    inf directly, against a scan of end(m) and against box() of the ends."""

    @settings(max_examples=500, deadline=None)
    @given(_ENDS, _VALUES)
    def test_least_index_cover_upper_is_the_least_scanned_index(self, end, v):
        # an end at -inf leaves every level empty, so it covers no value,
        # not even -inf; any other end is compared on the extended line
        hits = [m for m in range(201) if end.inf != -1 and end(m) >= v]
        assert least_index_cover_upper(end, v) == (hits[0] if hits else None)
        # the mirror through least_index_cover_lower gives the same index
        mirror = AffineEnd(-end.coeff, -end.offset, -end.inf)
        assert least_index_cover_upper(end, v) == least_index_cover_lower(mirror, -v)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 40))
    def test_level_box_is_the_box_of_the_ends(self, rng, d, m):
        # offsets up to 30 make many levels empty
        spec = random_chain(rng, GroundSpace.lattice(d), max_offset=30)
        assert level_box(spec, m) == box(*((lo(m), hi(m)) for lo, hi in spec.shape))

    def test_level_box_empty_and_inverted_infinite_ends(self):
        late = chain_bornology(Z, [(affine(-1, 20), affine(1, -20))])
        assert [level_box(late, m).empty for m in (0, 19, 20)] == [True, True, False]
        assert level_box(late, 20) == box((0, 0))
        # a lower end at +inf or an upper end at -inf empties every level
        for shape in ([(AFF_POS_INF, affine(1, 0))], [(affine(-1, 0), AFF_NEG_INF)]):
            spec = chain_bornology(Z, shape)
            assert level_box(spec, 3) == box(*((lo(3), hi(3)) for lo, hi in shape))
            assert level_box(spec, 3).empty
        both = chain_bornology(Z2, [(AFF_NEG_INF, AFF_POS_INF), (affine(-2, 1), affine(1, 4))])
        assert level_box(both, 2) == box((NEG_INF, POS_INF), (-3, 6))
