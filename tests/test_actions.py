import itertools
import random
import time
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    Box,
    BoxSet,
    GroundSpace,
    box,
    box_contains_box,
    box_hull,
    box_set,
    empty_set,
    image_hull,
    minkowski_sum,
    negate_box,
    point_box,
    points_set,
    union_set,
)
from coarseact.bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    MAXIMAL,
    affine,
    chain_bornology,
    cubes_chain,
    is_bounded,
    level_box,
    maximal_bornology,
)
from coarseact.actions import (
    _case_extent,
    _echelon,
    _interval_k1,
    _recession_rays,
    _residue,
    ActionInstance,
    LatticeTransporter,
    TranslationRule,
    PermutationRule,
    action_bornological_check,
    action_homomorphism_check,
    chains_mutually_cofinal,
    classify,
    column_lattice_index,
    coset_sample_points,
    covering_residues,
    finite_group,
    group_bornological_check,
    group_table_check,
    kernel_vector,
    lattice_box_feasible,
    lattice_group,
    orbit_bornologies,
    rational_bbox,
    transporter,
    transporter_bounded,
    uncovered_direction,
)
from coarseact.verdicts import bounded_at, unbounded
from conftest import Z, Z2, random_chain


def brute_transporter(inst, b, b2, gw=20, xw=24):
    """Independent enumeration of {l : l·B ∩ B' ≠ ∅} on windows."""
    from coarseact.boxes import box_points, cube, mat_vec, set_membership

    hits = []
    for l in box_points(cube(gw, inst.group.rank)):
        shift = mat_vec(inst.matrix, l)
        found = False
        for x in box_points(cube(xw, inst.space.dim)):
            if set_membership(b, x) and set_membership(
                b2, tuple(a + s for a, s in zip(x, shift))
            ):
                found = True
                break
        if found:
            hits.append(l)
    return hits


class TestGroupChecks:
    def test_cubes_group_bornological(self):
        assert group_bornological_check(lattice_group(1, cubes_chain(Z))).passed

    def test_maximal_group_vacuous(self):
        assert group_bornological_check(lattice_group(1, maximal_bornology(Z))).passed

    def test_asymmetric_chain_fails_inversion(self):
        spec = chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0)),
                                    (affine(-1, 0), affine(1, 0))])
        g = lattice_group(2, spec)
        report = group_bornological_check(g)
        assert not report.item("inversion").passed
        # the negated level escapes along +e0
        assert report.item("inversion").witness[3] == (1, 0)

    def test_finite_group_tables(self):
        mul = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
        g = finite_group((0, 1, 2, 3), mul, maximal_bornology(GroundSpace.finite((0, 1, 2, 3))))
        assert group_table_check(g).passed

    def test_bad_table_rejected(self):
        bad = ((0, 1), (0, 1))  # second row has no inverse structure
        with pytest.raises(Exception):
            finite_group((0, 1), bad, maximal_bornology(GroundSpace.finite((0, 1))))


class TestActionChecks:
    def test_shift_cubes(self, shift):
        assert action_bornological_check(shift).passed

    def test_hyperbola_quadrants(self, hyperbola):
        # (-inf, j] + [-i, i] = (-inf, i+j] stays inside the chain
        assert action_bornological_check(hyperbola).passed

    def test_trivial_action(self, trivial):
        assert action_bornological_check(trivial).passed

    def test_shift_fails_against_constant_chain(self):
        spec = chain_bornology(Z, [(affine(-1, 0), affine(0, 5))])
        inst = ActionInstance("bad", lattice_group(1, cubes_chain(Z)), Z,
                              TranslationRule(((1,),)), spec)
        assert not action_bornological_check(inst).passed

    def test_permutation_homomorphism(self):
        mul = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
        space = GroundSpace.finite((0, 1, 2))
        g = finite_group((0, 1, 2), mul, maximal_bornology(space))
        perms = tuple(
            tuple((x, (x + i) % 3) for x in (0, 1, 2)) for i in range(3)
        )
        inst = ActionInstance("rot", g, space, PermutationRule(perms),
                              maximal_bornology(space))
        assert action_homomorphism_check(inst).passed


class TestBornologicalMapSemantics:
    """The end rules against is_bounded on the sets they speak about, over
    seeded chains that pass the axioms (some start past index 8).  At index
    24 every level is nonempty, so a failure shows at some listed pair."""

    INDEXES = (0, 6, 12, 18, 24)

    def test_group_checks_match_boundedness(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, 2)
            gb = random_chain(rng, GroundSpace.lattice(k))
            report = group_bornological_check(lattice_group(k, gb))
            levels = [level_box(gb, i) for i in self.INDEXES]
            inversion = all(is_bounded(gb, BoxSet(negate_box(d))).bounded for d in levels)
            multiplication = all(is_bounded(gb, BoxSet(minkowski_sum(d, e))).bounded
                                 for d in levels for e in levels)
            assert report.item("inversion").passed == inversion, gb
            assert report.item("multiplication").passed == multiplication, gb

    def test_action_check_matches_boundedness(self):
        rng = random.Random(8)
        for _ in range(300):
            k, d = rng.randint(1, 2), rng.randint(1, 2)
            params, space = GroundSpace.lattice(k), GroundSpace.lattice(d)
            gb = maximal_bornology(params) if rng.random() < 0.2 else random_chain(rng, params)
            sb = random_chain(rng, space)
            m = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(d))
            a = ActionInstance("a", lattice_group(k, gb), space, TranslationRule(m), sb)
            expected = all(
                is_bounded(sb, BoxSet(minkowski_sum(level_box(sb, j),
                                                    image_hull(m, level_box(gb, i))))).bounded
                for i in self.INDEXES for j in self.INDEXES
            )
            assert action_bornological_check(a).passed == expected, (gb, sb, m)

    def test_failed_axiom_fails_every_item(self):
        spec = chain_bornology(Z, [(affine(-1, 0), affine(0, 5))])
        report = group_bornological_check(lattice_group(1, spec))
        assert [it.passed for it in report.items] == [False, False]
        assert report.item("inversion").witness[0] == "covering"


class TestTransporter:
    def test_empty_translation_transporter(self, shift):
        from coarseact.actions import LatticeTransporter
        from coarseact.boxes import empty_set
        from coarseact.verdicts import bounded_at

        for b, b2 in ((empty_set(1), box_set((0, 1))), (box_set((0, 1)), empty_set(1))):
            t = transporter(shift, b, b2)
            assert isinstance(t, LatticeTransporter) and t.cases == ()
            assert not any(t.member((l,)) for l in range(-20, 21))
            assert transporter_bounded(shift, t) == bounded_at(0, "empty transporter")

    def test_shift_interval(self, shift):
        t = transporter(shift, box_set((0, 1)), box_set((5, 6)))
        assert t.cases == (box((4, 6)),)
        assert sorted(brute_transporter(shift, box_set((0, 1)), box_set((5, 6)))) == [
            (4,), (5,), (6,)
        ]

    def test_hyperbola_full_line(self, hyperbola):
        q = box_set((NEG_INF, 0), (NEG_INF, 0))
        t = transporter(hyperbola, q, q)
        for n in range(-20, 21):
            assert t.member((n,))
        assert sorted(brute_transporter(hyperbola, q, q, gw=20, xw=40)) == [
            (n,) for n in range(-20, 21)
        ]

    def test_trivial_action_fixes(self, trivial):
        t = transporter(trivial, points_set((0,)), points_set((0,)))
        for n in range(-10, 11):
            assert t.member((n,))

    def test_identity_element_iff_sets_meet(self, shift):
        rng = random.Random(7)
        for _ in range(60):
            lo1 = rng.randint(-8, 8)
            lo2 = rng.randint(-8, 8)
            b1 = box_set((lo1, lo1 + rng.randint(0, 4)))
            b2 = box_set((lo2, lo2 + rng.randint(0, 4)))
            t = transporter(shift, b1, b2)
            from coarseact.boxes import box_intersect

            meets = not box_intersect(b1.box, b2.box).empty
            assert t.member((0,)) == meets

    def test_symmetry_inverse(self, hyperbola):
        rng = random.Random(9)
        for _ in range(40):
            lo = [rng.randint(-5, 5) for _ in range(4)]
            b1 = box_set((lo[0], lo[0] + 2), (lo[1], lo[1] + 2))
            b2 = box_set((lo[2], lo[2] + 2), (lo[3], lo[3] + 2))
            t12 = transporter(hyperbola, b1, b2)
            t21 = transporter(hyperbola, b2, b1)
            for n in range(-12, 13):
                assert t12.member((n,)) == t21.member((-n,))


class TestTransporterBounded:
    def test_interval_in_cubes(self, shift):
        t = transporter(shift, box_set((0, 1)), box_set((5, 6)))
        v = transporter_bounded(shift, t)
        assert v.bounded and v.index == 6

    def test_full_line_escapes(self, hyperbola):
        q = box_set((NEG_INF, 0), (NEG_INF, 0))
        v = transporter_bounded(hyperbola, transporter(hyperbola, q, q))
        assert v.unbounded and v.direction in ((1,), (-1,))

    def test_first_coordinate_cube(self, first_coordinate_shift):
        t = transporter(first_coordinate_shift, box_set((-1, 1), (-1, 1)),
                        box_set((-1, 1), (-1, 1)))
        v = transporter_bounded(first_coordinate_shift, t)
        assert v.bounded and v.index == 2
        assert sorted(
            brute_transporter(first_coordinate_shift, box_set((-1, 1), (-1, 1)),
                              box_set((-1, 1), (-1, 1)), gw=8, xw=8)
        ) == [(n,) for n in range(-2, 3)]

    def test_maximal_group_always_bounded(self, trivial_maximal_group):
        q = box_set((NEG_INF, POS_INF))
        v = transporter_bounded(
            trivial_maximal_group, transporter(trivial_maximal_group, q, q)
        )
        assert v.bounded and v.index == 0


class TestFeasibility:
    def test_k2_point_in_lattice(self):
        m = ((2, 0), (0, 3))
        assert lattice_box_feasible(m, box((2, 2), (3, 3))) is True
        assert lattice_box_feasible(m, box((1, 1), (3, 3))) is False

    def test_k1_parity_strip(self):
        assert lattice_box_feasible(((2,),), box((1, 1))) is False
        assert lattice_box_feasible(((2,),), box((1, 2))) is True

    def test_k2_halfplane(self):
        m = ((1, 1),)
        assert lattice_box_feasible(m, box((5, POS_INF))) is True

    def test_k2_infeasible_diagonal_strip(self):
        # 2l1 + 2l2 is always even
        m = ((2, 2),)
        assert lattice_box_feasible(m, box((3, 3))) is False
        assert lattice_box_feasible(m, box((3, 4))) is True

    def test_agrees_with_enumeration(self):
        rng = random.Random(3)
        for _ in range(60):
            m = tuple(
                tuple(rng.randint(-2, 2) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            )
            lo = [rng.randint(-6, 6) for _ in m]
            c = box(*((l, l + rng.randint(0, 5)) for l in lo))
            got = lattice_box_feasible(m, c)
            brute = any(
                all(
                    cl <= sum(r * x for r, x in zip(row, (l1, l2))) <= ch
                    for row, cl, ch in zip(m, c.lower, c.upper)
                )
                for l1 in range(-30, 31)
                for l2 in range(-30, 31)
            )
            if got is not None and brute:
                # enumeration is sound for positives; bounded regions match both ways
                assert got == brute or got is True
            if got is True and not brute:
                # witness must lie outside the enumeration window; widen once
                assert any(
                    all(
                        cl <= sum(r * x for r, x in zip(row, (l1, l2))) <= ch
                        for row, cl, ch in zip(m, c.lower, c.upper)
                    )
                    for l1 in range(-90, 91)
                    for l2 in range(-90, 91)
                )

    def test_rational_bbox_contains_integer_points(self):
        rng = random.Random(5)
        for _ in range(40):
            m = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
            lo = [rng.randint(-5, 5) for _ in m]
            c = box(*((l, l + rng.randint(0, 4)) for l in lo))
            from coarseact.actions import _recession_rays
            from coarseact.boxes import Box

            rec = Box(
                tuple(0 for _ in c.lower), tuple(0 for _ in c.upper)
            )
            if _recession_rays(m, rec):
                continue
            bb = rational_bbox(m, c)
            pts = [
                (l1, l2)
                for l1 in range(-40, 41)
                for l2 in range(-40, 41)
                if all(
                    cl <= sum(r * x for r, x in zip(row, (l1, l2))) <= ch
                    for row, cl, ch in zip(m, c.lower, c.upper)
                )
            ]
            for p in pts:
                assert bb is not None and bb.contains(p)


class TestClassify:
    def test_shift(self, shift):
        assert classify(shift).flags() == {
            "b_proper": True, "weakly_b_proper": True, "bi": True,
        }

    def test_hyperbola(self, hyperbola):
        cls = classify(hyperbola)
        assert cls.flags() == {
            "b_proper": False, "weakly_b_proper": True, "bi": True,
        }
        assert cls.b_proper.witness["levels"] == (0, 0)
        assert cls.b_proper.witness["direction"] == (1,)

    def test_trivial(self, trivial):
        cls = classify(trivial)
        assert cls.flags() == {
            "b_proper": False, "weakly_b_proper": False, "bi": False,
        }
        assert cls.bi.witness["direction"] == (1,)

    def test_shift_maximal_space(self, shift_maximal_space):
        cls = classify(shift_maximal_space)
        assert cls.flags()["weakly_b_proper"] is False
        assert cls.flags()["b_proper"] is False
        assert cls.flags()["bi"] is True

    def test_maximal_group_always_proper(self, trivial_maximal_group):
        assert classify(trivial_maximal_group).flags() == {
            "b_proper": True, "weakly_b_proper": True, "bi": True,
        }

    def test_kernel_vector(self):
        assert kernel_vector(((1,), (-1,))) is None
        assert kernel_vector(((0,),)) == (1,)
        assert kernel_vector(((1, 1),)) in ((-1, 1), (1, -1))
        assert kernel_vector(((1, 0), (0, 1))) is None

    def test_late_chain_witnesses_replay(self):
        # the space levels are empty before index 20
        sb = chain_bornology(Z2, [(affine(-1, 20), affine(1, -20)),
                                  (AFF_NEG_INF, AFF_POS_INF)])
        a = ActionInstance("late", lattice_group(1, cubes_chain(Z)), Z2,
                           TranslationRule(((0,), (1,))), sb)
        cls = classify(a)
        assert cls.b_proper.refuted and cls.b_proper.witness["levels"] == (20, 20)
        w = cls.weakly_b_proper.witness
        assert cls.weakly_b_proper.refuted and w["level"] == 20
        assert level_box(sb, 20).contains(w["point"])
        assert not level_box(sb, 19).contains(w["point"])

    def test_finite_instances_degenerate(self):
        mul = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
        space = GroundSpace.finite((0, 1, 2))
        g = finite_group((0, 1, 2), mul, maximal_bornology(space))
        perms = tuple(tuple((x, (x + i) % 3) for x in (0, 1, 2)) for i in range(3))
        inst = ActionInstance("rot", g, space, PermutationRule(perms),
                              maximal_bornology(space))
        assert classify(inst).flags() == {
            "b_proper": True, "weakly_b_proper": True, "bi": True,
        }


class TestOrbitBornologies:
    def test_hyperbola_chains_equal(self, hyperbola):
        pull, push = orbit_bornologies(hyperbola, (0, 0))
        # pullback level m is [-m, m]; window cross-check of the equivalence
        for m in (0, 2, 5):
            from coarseact.bornology import is_bounded

            v = is_bounded(pull, box_set((-m, m)))
            assert v.bounded and v.index == m
        assert chains_mutually_cofinal(pull, push).confirmed

    def test_maximal_space_not_cofinal(self, shift_maximal_space):
        pull, push = orbit_bornologies(shift_maximal_space, (0,))
        v = chains_mutually_cofinal(pull, push)
        assert v.refuted

    def test_trivial_one_point_orbit(self, trivial):
        pull, push = orbit_bornologies(trivial, (0,))
        assert chains_mutually_cofinal(pull, push).confirmed


class TestCoarseTransitivitySupport:
    def test_shift_residues(self, shift):
        assert covering_residues(shift) == ((0,),)

    def test_doubling_residues(self):
        inst = ActionInstance("double", lattice_group(1, cubes_chain(Z)), Z,
                              TranslationRule(((2,),)), cubes_chain(Z))
        reps = covering_residues(inst)
        assert reps is not None and len(reps) == 2
        # every window point is some rep plus an even shift
        covered = {(r[0] + 2 * l) for r in reps for l in range(-20, 21)}
        assert set(range(-10, 11)) <= covered

    def test_hyperbola_rank_deficient(self, hyperbola):
        assert covering_residues(hyperbola) is None
        assert uncovered_direction(hyperbola) is not None

    def test_column_lattice_index(self):
        assert column_lattice_index(((1,),)) == 1
        assert column_lattice_index(((2,),)) == 2
        assert column_lattice_index(((1,), (-1,))) is None
        assert column_lattice_index(((2, 0), (0, 3))) == 6

    def test_coset_samples_distinct(self):
        inst = ActionInstance("double", lattice_group(1, cubes_chain(Z)), Z,
                              TranslationRule(((2,),)), cubes_chain(Z))
        reps = coset_sample_points(inst)
        assert len(reps) == 2
        assert (reps[0][0] - reps[1][0]) % 2 == 1

    def test_column_lattice_index_matches_det_and_gcd(self):
        for m in (((1,),), ((2,),), ((1,), (-1,)), ((2, 0), (0, 3))):
            assert column_lattice_index(m) == _det_gcd_index(m)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_column_lattice_index_random(self, data):
        m = data.draw(_matrices(max_d=2))
        assert column_lattice_index(m) == _det_gcd_index(m)

    def test_index_400_residues(self):
        inst = _translation_instance(((20, 0), (0, 20)))
        t0 = time.perf_counter()
        reps = covering_residues(inst)
        elapsed = time.perf_counter() - t0
        assert len(reps) == 400
        assert _pairwise_distinct_cosets(((20, 0), (0, 20)), reps)
        assert elapsed < 0.5


def _translation_instance(m):
    d, k = len(m), len(m[0])
    space = GroundSpace.lattice(d)
    return ActionInstance("lattice", lattice_group(k, cubes_chain(GroundSpace.lattice(k))),
                          space, TranslationRule(m), cubes_chain(space))


def _det_gcd_index(m):
    """The column lattice index by gcd (d = 1) or determinant (d = k = 2)."""
    if len(m) == 1:
        g = 0
        for x in m[0]:
            g = gcd(g, abs(x))
        return g or None
    if len(m[0]) < len(m):
        return None
    return abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) or None


def _pairwise_distinct_cosets(m, reps):
    """No difference of two representatives lies in M·ℤ^k (exact feasibility)."""
    return not any(lattice_box_feasible(m, point_box(tuple(x - y for x, y in zip(p, q))))
                   for p, q in itertools.combinations(reps, 2))


@st.composite
def _matrices(draw, max_d=3):
    d = draw(st.integers(1, max_d))
    k = draw(st.integers(1, 2))
    entry = st.integers(-5, 5)
    return tuple(tuple(draw(entry) for _ in range(k)) for _ in range(d))


class TestLatticeCore:
    """The echelon residues against the independent feasibility decision."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_residue_zero_iff_feasible(self, data):
        m = data.draw(_matrices())
        v = tuple(data.draw(st.integers(-12, 12)) for _ in m)
        in_lattice = not any(_residue(_echelon(m), v))
        assert in_lattice == lattice_box_feasible(m, point_box(v))

    @pytest.mark.parametrize("m", [((1, 0), (0, 0), (0, 1)), ((2, 1), (0, 0), (0, 3)),
                                   ((0, 2), (3, 0), (1, 1)), ((4, 6), (2, 3)), ((0,), (5,))])
    def test_residue_zero_iff_feasible_on_grid(self, m):
        basis = _echelon(m)
        for v in itertools.product(range(-3, 4), repeat=len(m)):
            assert (not any(_residue(basis, v))) == lattice_box_feasible(m, point_box(v))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coset_samples_pairwise_distinct(self, data):
        m = data.draw(_matrices())
        reps = coset_sample_points(_translation_instance(m))
        assert reps[0] == (0,) * len(m)
        assert _pairwise_distinct_cosets(m, reps)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_interval_k1_matches_enumeration(self, data):
        m = tuple((data.draw(st.integers(-5, 5)),) for _ in range(data.draw(st.integers(1, 3))))
        ends = st.integers(-12, 12)
        c = box(*((data.draw(ends), data.draw(ends)) for _ in m))
        if c.empty:
            return
        if all(row[0] == 0 for row in m):
            full = c.contains((0,) * len(m))
            assert _interval_k1(m, c) == ((NEG_INF, POS_INF) if full else None)
            return
        hits = [l for l in range(-13, 14) if c.contains(tuple(row[0] * l for row in m))]
        assert _interval_k1(m, c) == ((min(hits), max(hits)) if hits else None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rational_bbox_matches_fraction_vertices(self, data):
        m = tuple((data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5)))
                  for _ in range(data.draw(st.integers(1, 3))))
        ends = st.integers(-12, 12)
        c = box(*((data.draw(ends), data.draw(ends)) for _ in m))
        if c.empty:
            return
        rows = [(row, hi) for row, hi in zip(m, c.upper)]
        rows += [(tuple(-x for x in row), -lo) for row, lo in zip(m, c.lower)]
        verts = []
        for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det:
                x = Fraction(b1 * a2[1] - b2 * a1[1], det)
                y = Fraction(a1[0] * b2 - a2[0] * b1, det)
                if all(a[0] * x + a[1] * y <= b for a, b in rows):
                    verts.append((x, y))
        if not verts:
            assert rational_bbox(m, c) is None
            return
        assert rational_bbox(m, c) == box(
            *((ceil(min(v[i] for v in verts)), floor(max(v[i] for v in verts)))
              for i in range(2)))

    def test_coset_samples_pinned(self, hyperbola):
        assert coset_sample_points(hyperbola) == (
            (0, 0), (-1, -1), (-1, 0), (0, 1), (1, 1), (-2, -2), (-2, -1), (1, 2),
            (2, 2), (-3, -3), (-3, -2), (2, 3), (3, 3), (-4, -4), (-4, -3), (3, 4),
            (4, 4), (-5, -5), (-5, -4), (4, 5), (5, 5), (-6, -6), (-6, -5), (5, 6),
            (6, 6))
        assert coset_sample_points(_translation_instance(((2,),))) == ((0,), (-1,))
        assert coset_sample_points(_translation_instance(((2, 0), (0, 3)))) == (
            (0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1))


class TestImplicationChain:
    def test_classify_implications_hold_on_randoms(self):
        from coarseact.oracle import random_instance

        for seed in range(1, 30):
            inst = random_instance(seed, "lattice-k1")
            cls = classify(inst)  # raises ConsistencyError on violation
            if cls.b_proper.confirmed:
                assert cls.weakly_b_proper.confirmed
            if cls.weakly_b_proper.confirmed:
                assert cls.bi.confirmed


# --- rank 1: the interval read against the recession-box route ---------------


@st.composite
def _k1_boxes(draw, d, inf_odds=5):
    """Boxes with finite or infinite ends (each end infinite once in
    inf_odds draws); a negative width makes one empty."""
    pairs = []
    for _ in range(d):
        lo = NEG_INF if draw(st.integers(1, inf_odds)) == 1 else draw(st.integers(-8, 8))
        if draw(st.integers(1, inf_odds)) == 1:
            hi = POS_INF
        elif lo == NEG_INF:
            hi = draw(st.integers(-8, 8))
        else:
            hi = lo + draw(st.integers(-2, 10))
        pairs.append((lo, hi))
    return box(*pairs)


@st.composite
def _k1_sets(draw, d):
    """Unions of up to two boxes and a few points, or the empty set."""
    members = [BoxSet(draw(_k1_boxes(d))) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        pt = st.tuples(*[st.integers(-8, 8)] * d)
        members.append(points_set(*draw(st.lists(pt, min_size=1, max_size=3))))
    return union_set(*members) if members else empty_set(d)


@st.composite
def _k1_group_bornologies(draw):
    """The maximal bornology, or a chain on ℤ (some failing the covering axiom)."""
    if draw(st.integers(0, 3)) == 0:
        return maximal_bornology(Z)
    lo = draw(st.one_of(st.just(AFF_NEG_INF),
                        st.builds(affine, st.integers(-2, 0), st.integers(-6, 6))))
    hi = draw(st.one_of(st.just(AFF_POS_INF),
                        st.builds(affine, st.integers(0, 2), st.integers(-6, 6))))
    return chain_bornology(Z, [(lo, hi)])


@st.composite
def _k1_instances(draw):
    """(action, transporter): a rank-1 translation rule on ℤ^d, d ≤ 3, and a
    transporter between unions, or one built from raw (maybe empty) cases."""
    d = draw(st.integers(1, 3))
    # a zero row asks 0 ∈ case; one matrix in eight is all zero
    m = tuple((0 if zero else draw(st.integers(-3, 3)),)
              for zero in [draw(st.integers(0, 7)) == 0] * d)
    space = GroundSpace.lattice(d)
    a = ActionInstance("k1", lattice_group(1, draw(_k1_group_bornologies())), space,
                       TranslationRule(m), maximal_bornology(space))
    if draw(st.booleans()):
        return a, transporter(a, draw(_k1_sets(d)), draw(_k1_sets(d)))
    # half-lines are common among raw cases, so that an earlier case can be
    # unbounded on the other side from a later one
    cases = draw(st.lists(_k1_boxes(d, inf_odds=3), max_size=4))
    return a, LatticeTransporter(m, tuple(cases))


def _recession_box_ray(m, case):
    """The ray search every rank takes without the interval read: a ray of the
    recession box {r : M·r ∈ rec(case)}, kept when the case is feasible."""
    if case.empty:
        return None, False
    rec = Box(tuple(NEG_INF if lo == NEG_INF else 0 for lo in case.lower),
              tuple(POS_INF if hi == POS_INF else 0 for hi in case.upper))
    rays = _recession_rays(m, rec)
    if not rays:
        return None, False
    feasible = lattice_box_feasible(m, case)
    if feasible is None:
        return None, None
    return (rays[0], True) if feasible else (None, False)


def _general_transporter_bounded(a, t):
    """The recession-box route: a recession ray per case, else is_bounded on
    the hull of the cases' rational bounding boxes."""
    if a.group.bornology.kind == MAXIMAL:
        return bounded_at(0, note="maximal group bornology")
    hull = None
    for case in t.cases:
        ray, _ = _recession_box_ray(t.matrix, case)
        if ray is not None:
            return unbounded(direction=ray, base_point=None,
                             note="recession ray of the transporter polyhedron")
        bb = rational_bbox(t.matrix, case)
        if bb is not None:
            hull = bb if hull is None else box_hull(hull, bb)
    if hull is None:
        return bounded_at(0, note="empty transporter")
    return is_bounded(a.group.bornology, BoxSet(hull))


class TestRank1IntervalRoute:
    """Rank-1 rays read from one integer interval per case give the rays,
    feasibility statuses and verdicts of the recession-box route."""

    @settings(max_examples=400, deadline=None)
    @given(_k1_instances())
    def test_case_ray_matches_recession_box_route(self, inst):
        # the extent reader's ray and status are the recession-box route's,
        # and its box is rational_bbox's whenever it reports no ray
        _, t = inst
        for case in t.cases:
            ray, status, bb = _case_extent(t.matrix, case)
            assert (ray, status) == _recession_box_ray(t.matrix, case)
            assert bb == (rational_bbox(t.matrix, case) if ray is None else None)

    @settings(max_examples=400, deadline=None)
    @given(_k1_instances())
    def test_transporter_bounded_matches_general_route(self, inst):
        a, t = inst
        assert transporter_bounded(a, t) == _general_transporter_bounded(a, t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_half_line_cases_match_general_route(self, data):
        # many half-line cases: the first unbounded case fixes the direction
        d = data.draw(st.integers(1, 2))
        m = tuple((data.draw(st.integers(-3, 3)),) for _ in range(d))
        a = _translation_instance(m)
        cases = data.draw(st.lists(_k1_boxes(d, inf_odds=2), min_size=2, max_size=4))
        t = LatticeTransporter(m, tuple(cases))
        assert transporter_bounded(a, t) == _general_transporter_bounded(a, t)

    def test_direction_is_the_first_unbounded_case(self, shift):
        # the first case is unbounded below only, the second above only
        t = LatticeTransporter(((1,),), (box((NEG_INF, 0)), box((5, POS_INF))))
        v = transporter_bounded(shift, t)
        assert v.unbounded and v.direction == (-1,)
        assert v == _general_transporter_bounded(shift, t)

    def test_bounded_case_reads_its_interval_once(self, shift, monkeypatch):
        # one _interval_k1 read per case gives its ray, status and box
        import coarseact.actions as actions

        calls = []
        read = actions._interval_k1
        monkeypatch.setattr(actions, "_interval_k1",
                            lambda m, c: calls.append(c) or read(m, c))
        t = transporter(shift, box_set((0, 2)), union_set(box_set((5, 9)), points_set((-4,))))
        # cases [5, 9] − [0, 2] = [3, 9] and {-4} − [0, 2] = [-6, -4]
        assert t.cases == (box((3, 9)), box((-6, -4)))
        assert transporter_bounded(shift, t) == bounded_at(9)
        assert calls == list(t.cases)


# --- the extent reader against plain window enumeration -----------------------


def _window_solutions(m, case, radius):
    """{l : M·l ∈ case} over the integer points of [-radius, radius]^k."""
    k = len(m[0])
    out = []
    for l in itertools.product(range(-radius, radius + 1), repeat=k):
        v = [sum(a * x for a, x in zip(row, l)) for row in m]
        if all(lo <= x <= hi for lo, x, hi in zip(case.lower, v, case.upper)):
            out.append(l)
    return out


def _seeded_case(rng, k):
    """A rank-k matrix with entries in -2..2 and a non-empty case box on d ≤ 3
    rows whose ends lie in -4..4 or are infinite, so every vertex of the
    polyhedron lies within radius 16."""
    d = rng.randint(1, 3)
    m = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(d))
    pairs = []
    for _ in range(d):
        lo = NEG_INF if rng.random() < 0.2 else rng.randint(-4, 4)
        hi = POS_INF if rng.random() < 0.2 else rng.randint(-4, 4)
        pairs.append((min(lo, hi), max(lo, hi)))
    return m, box(*pairs)


class TestCaseExtentWindow:
    """_case_extent against enumeration on two windows, 20 and 40: the set
    keeps growing with the window exactly when a ray is reported; with no
    ray, the rank-1 box is the enumerated hull and the rank-2 box holds it."""

    @pytest.mark.parametrize("k, count", [(1, 400), (2, 80)])
    def test_against_window_enumeration(self, k, count):
        rng = random.Random(k)
        for _ in range(count):
            m, case = _seeded_case(rng, k)
            ray, status, bb = _case_extent(m, case)
            near, far = _window_solutions(m, case, 20), set(_window_solutions(m, case, 40))
            assert (ray is not None) == (len(far) > len(near)), (m, case)
            if ray is not None:
                # the ray stays in the set from every enumerated point
                assert status is True and bb is None
                assert all(tuple(p + 5 * r for p, r in zip(l, ray)) in far for l in near)
                continue
            assert status is False
            if not near:
                continue
            hull = box(*((min(l[i] for l in near), max(l[i] for l in near)) for i in range(k)))
            if k == 1:
                assert bb == hull, (m, case)
            else:
                assert box_contains_box(bb, hull), (m, case)

    def test_empty_case(self):
        assert _case_extent(((1,),), box((1, 0))) == (None, False, None)
        assert _case_extent(((1, 0),), box((1, 0))) == (None, False, None)
