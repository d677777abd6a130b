import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    GroundSpace,
    box_set,
    points_set,
    union_set,
)
from coarseact.bornology import (
    AFF_NEG_INF,
    OrbitInclusion,
    OrbitProjection,
    affine,
    bornology_axiom_check,
    chain_bornology,
    cubes_chain,
    finite_base_bornology,
    finite_bornology_closure,
    generate_from_base,
    image_bornology,
    inverse_image_bornology,
    is_bounded,
    level_box,
    maximal_bornology,
)

Z = GroundSpace.lattice(1)
Z2 = GroundSpace.lattice(2)


def all_subsets(labels):
    out = set()
    for r in range(len(labels) + 1):
        out.update(frozenset(c) for c in itertools.combinations(labels, r))
    return out


def generated_family(base):
    """All subsets of some maximal base element."""
    return set().union(*(all_subsets(tuple(m)) for m in generate_from_base(base)))


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
        space = GroundSpace.finite(("a", "b"))
        fam = generated_family((points_set("a", "b"),))
        assert fam == all_subsets(("a", "b"))

    def test_two_element_base(self):
        # enumerate all subsets and test containment in a base element
        base = (points_set("a"), points_set("b", "c"))
        fam = generated_family(base)
        expected = {
            s
            for s in all_subsets(("a", "b", "c"))
            if s <= {"a"} or s <= {"b", "c"}
        }
        assert fam == expected
        assert frozenset({"a", "b"}) not in fam

    def test_antichain_is_maximal_elements(self):
        base = (points_set("a"), points_set("a", "b"), points_set("c"))
        anti = generate_from_base(base)
        assert set(anti) == {frozenset({"a", "b"}), frozenset({"c"})}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_covering_base_closure_is_power_set(self, n):
        # finite degeneracy: union-closing any covering base fills the power set
        labels = tuple(range(n))
        space = GroundSpace.finite(labels)
        base = tuple(points_set(x) for x in labels)
        fam = finite_bornology_closure(space, base)
        assert fam == all_subsets(labels)

    def test_generated_families_satisfy_axioms(self):
        labels = ("a", "b", "c", "d")
        base = (points_set("a", "b"), points_set("c"), points_set("d"))
        fam = generated_family(base)
        # downward closed and union-closed within each base element
        for s in fam:
            for x in s:
                assert s - {x} in fam

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_valid_base_generates_a_bornology(self, n):
        # nested-chain bases satisfy the base conditions; their generated
        # family must pass all three axioms, checked exhaustively
        import random as _random

        rng = _random.Random(n)
        labels = tuple(range(n))
        for _ in range(5):
            order = list(labels)
            rng.shuffle(order)
            cuts = sorted({rng.randint(1, n) for _ in range(2)} | {n})
            base = tuple(points_set(*order[:c]) for c in cuts)
            fam = generated_family(base)
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


class TestInduction:
    def test_orbit_inclusion_preimage(self):
        # orbit {(n, -n)} inside the plane against the lower-quadrant chain
        spec = chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0))] * 2)
        pull = inverse_image_bornology(OrbitInclusion(((1,), (-1,)), (0, 0)), spec)
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

    def test_orbit_projection_is_group_chain(self):
        gb = cubes_chain(Z)
        got = image_bornology(OrbitProjection(((1,), (-1,)), (0, 0)), gb)
        assert got.shape == gb.shape
