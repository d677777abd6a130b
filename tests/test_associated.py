import dataclasses
import random

import pytest

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    BoxSet,
    GroundSpace,
    box_contains_box,
    box_set,
    empty_set,
    image_hull,
    minkowski_sum,
    negate_box,
    points_set,
    set_bounding_box,
    set_membership,
    set_points_within,
    union_set,
)
from coarseact.bornology import (
    AFF_POS_INF,
    affine,
    chain_bornology,
    cubes_chain,
    finite_base_bornology,
    is_bounded,
    level_box,
    maximal_bornology,
)
from coarseact.actions import (
    _case_extent,
    ActionInstance,
    PermutationRule,
    TranslationRule,
    classify,
    finite_group,
    lattice_group,
)
from coarseact.coarse import (
    Compose,
    OrbitPair,
    associated_connected_structure,
    associated_orbit_structure,
    entourage_members,
    entourage_membership,
    group_right_structure,
    metric_ball_structure,
    neighborhood,
    structure_leq,
    structures_equivalent,
)
from coarseact.associated import (
    BasePropertyRefuted,
    associated_structure,
    base_property_check,
    induced_recovery_check,
    verify_lemma_algebra,
    verify_lemma_neighborhood,
    verify_theorem_main,
    verify_theorem_transitive,
    verify_theorem_weak,
)
from coarseact.verdicts import Budget, BoundVerdict, confirmed, refuted

from conftest import Z, Z2


@pytest.fixture
def cyclic_rotation():
    """ℤ/3 rotating the labels 0, 1, 2 and fixing 3."""
    labels = (0, 1, 2, 3)
    rotations = [{x: (x + i) % 3 if x < 3 else x for x in labels} for i in range(3)]
    group = finite_group((0, 1, 2), [[(i + j) % 3 for j in range(3)] for i in range(3)],
                         maximal_bornology(GroundSpace.finite((0, 1, 2))))
    space = GroundSpace.finite(labels)
    return ActionInstance("cyclic_rotation", group, space,
                          PermutationRule(tuple(tuple(r.items()) for r in rotations)),
                          maximal_bornology(space))


def fault_pair_01(monkeypatch):
    """Every entourage answers False on the label pairs (0, 1) and (1, 0)."""
    import coarseact.coarse as coarse_mod

    real = coarse_mod._member_test

    def faulty(e, budget):
        member = real(e, budget)
        return lambda x, y: False if {x, y} == {0, 1} else member(x, y)

    monkeypatch.setattr(coarse_mod, "_member_test", faulty)


class TestOrbitPairEntourage:
    def test_shift_member_with_witness(self, shift):
        e = OrbitPair(shift, box_set((0, 1)))
        assert entourage_membership(e, ((3,), (4,))) is True
        # window oracle over l: both 3 and 4 lie in 3 + [0,1]
        hits = [
            l for l in range(-20, 21)
            if 0 <= 3 - l <= 1 and 0 <= 4 - l <= 1
        ]
        assert hits == [3]

    def test_diagonal_clause(self, hyperbola):
        e = OrbitPair(hyperbola, empty_set(2))
        assert entourage_membership(e, ((7, -3), (7, -3))) is True

    def test_gap_not_member(self, shift):
        e = OrbitPair(shift, box_set((0, 1)))
        assert entourage_membership(e, ((0,), (2,))) is False
        # difference 2 outside the self-difference [-1, 1]
        assert not any(0 - l in (0, 1) and 2 - l in (0, 1) for l in range(-20, 21))


class TestLemmaNeighborhood:
    def test_shift_example(self, shift):
        v = verify_lemma_neighborhood(shift, box_set((0, 2)), (0,))
        assert v.confirmed
        # both sides equal [-2, 2]: L_{0,[0,2]} = [0,2], inverted sweep gives it
        got, exact = neighborhood(OrbitPair(shift, box_set((0, 2))), points_set((0,)))
        assert exact
        assert set_points_within(got, 10) == [(v,) for v in range(-2, 3)]

    def test_hyperbola_quadrant(self, hyperbola):
        b = box_set((NEG_INF, 0), (NEG_INF, 0))
        assert verify_lemma_neighborhood(hyperbola, b, (0, 0), Budget(window=16)).confirmed
        assert verify_lemma_neighborhood(hyperbola, b, (-3, -2), Budget(window=16)).confirmed

    def test_empty_bounded_set(self, shift):
        assert verify_lemma_neighborhood(shift, empty_set(1), (3,)).confirmed

    def test_randomized_triples(self):
        from coarseact.oracle import random_instance

        rng = random.Random(0)
        for seed in range(1, 9):
            inst = random_instance(seed, "lattice-k1")
            d = inst.space.dim
            lo = tuple(rng.randint(-3, 1) for _ in range(d))
            b = box_set(*((l, l + rng.randint(0, 3)) for l in lo))
            x = tuple(rng.randint(-4, 4) for _ in range(d))
            assert verify_lemma_neighborhood(inst, b, x, Budget(window=10)).confirmed

    def test_far_bounded_set_is_exact(self, shift):
        # B = {10**17}: no y ≠ x of the window shares a translate of B with
        # x, so E(L,B)[x] = {x}; rounding 10**17 - y in floats once put -8 in
        assert entourage_membership(OrbitPair(shift, box_set((10**17, 10**17))),
                                    ((0,), (-8,))) is False
        v = verify_lemma_neighborhood(shift, box_set((10**17, 10**17)), (0,))
        assert v.confirmed and v.detail == "window equality"

    def test_union_past_the_cap_is_inconclusive(self, first_coordinate_shift):
        # 41 feasible shifts of a two-piece B pass the enumeration cap, so the
        # right side is a hull that over-approximates E(L,B)[x]
        b = union_set(box_set((0, 40), (0, 0)), points_set((0, 5)))
        v = verify_lemma_neighborhood(first_coordinate_shift, b, (0, 0))
        assert v.status == "inconclusive"

    def test_union_under_the_cap_confirms_exactly(self, first_coordinate_shift):
        b = union_set(box_set((0, 10), (0, 0)), points_set((0, 5)))
        v = verify_lemma_neighborhood(first_coordinate_shift, b, (0, 0))
        assert v.confirmed and v.detail == "window equality"


class TestFiniteLemmas:
    def test_both_verifiers_confirm(self, cyclic_rotation):
        b = points_set(0, 1)
        v = verify_lemma_neighborhood(cyclic_rotation, b, 0)
        assert v.confirmed and v.detail == "finite sweep equality"
        v = verify_lemma_algebra(cyclic_rotation, b, points_set(1, 2))
        assert v.confirmed and v.detail == "exhaustive finite verification"

    def test_algebra_without_a_bounded_transporter(self, cyclic_rotation):
        # a group bornology failing the covering axiom leaves L_{B1,B2}
        # unbounded; on a finite space the moved set still bounds compositions
        gb = finite_base_bornology(GroundSpace.finite((0, 1, 2)), (points_set(0),))
        group = dataclasses.replace(cyclic_rotation.group, bornology=gb)
        inst = dataclasses.replace(cyclic_rotation, group=group)
        v = verify_lemma_algebra(inst, points_set(0, 1), points_set(1, 2))
        assert v.confirmed and v.detail == "exhaustive finite verification"

    def test_neighborhood_fault_refutes_with_pinned_witness(self, cyclic_rotation,
                                                           monkeypatch):
        # E(L,{0,1})[0] = {0, 1, 2}; the faulty sweep drops 1 from the left side
        fault_pair_01(monkeypatch)
        v = verify_lemma_neighborhood(cyclic_rotation, points_set(0, 1), 0)
        assert v.refuted
        assert v.witness == {"x": 0, "y": 1, "left": False, "right": True}

    def test_algebra_fault_refutes_with_pinned_witness(self, cyclic_rotation, monkeypatch):
        # the fault is symmetric, so the first broken identity is invariance:
        # rotating (0, 1) by one step gives (1, 2), which stays a member
        fault_pair_01(monkeypatch)
        v = verify_lemma_algebra(cyclic_rotation, points_set(0, 1), points_set(1, 2))
        assert v.refuted
        assert v.witness == {"condition": "invariance", "pair": (0, 1), "l": 1}


class TestLemmaAlgebra:
    def test_shift_disjoint_intervals(self, shift):
        assert verify_lemma_algebra(shift, box_set((0, 1)), box_set((5, 6))).confirmed

    def test_empty_sets_degenerate(self, shift):
        assert verify_lemma_algebra(shift, empty_set(1), empty_set(1)).confirmed

    def test_hyperbola_quadrants_unbounded_transporter(self, hyperbola):
        q = box_set((NEG_INF, 0), (NEG_INF, 0))
        v = verify_lemma_algebra(hyperbola, q, q, Budget(window=12))
        assert v.confirmed
        assert "truncated" in v.detail

    def test_membership_fault_refutes_with_pinned_witness(self, shift, monkeypatch):
        # the entourage fault of acceptance criterion 6: x ⊖ piece reaches two
        # past its upper end, both where it is a box and where rank-1
        # membership reads it as rows; the first witness of the scan is pinned
        import coarseact.coarse as coarse_mod
        from coarseact.actions import _k1_rows as real_rows
        from coarseact.boxes import Box
        from coarseact.boxes import difference_box as real_diff

        def fault_membership_end(target, source):
            out = real_diff(target, source)
            if out.empty or out.upper[-1] == float("inf"):
                return out
            return Box(out.lower, out.upper[:-1] + (out.upper[-1] + 2,))

        def fault_membership_rows(m, lower, upper):
            # the upper end of x ⊖ piece is x - piece.lower
            if lower[-1] != -float("inf"):
                lower = lower[:-1] + (lower[-1] - 2,)
            return real_rows(m, lower, upper)

        monkeypatch.setattr(coarse_mod, "difference_box", fault_membership_end)
        monkeypatch.setattr(coarse_mod, "_k1_rows", fault_membership_rows)
        v = verify_lemma_algebra(shift, box_set((0, 0)), box_set((0, 3)))
        assert v.refuted
        assert v.witness == {"condition": "composition", "pair": ((0,), (6,))}

    def test_composition_rewritten_once_per_call(self, hyperbola, monkeypatch):
        import coarseact.coarse as coarse_mod

        real = coarse_mod._rewrite_compose
        calls = []

        def counted(e, *factor_rewrites):
            calls.append(e)
            return real(e, *factor_rewrites)

        monkeypatch.setattr(coarse_mod, "_rewrite_compose", counted)
        q = box_set((-2, 1), (0, 2))
        assert verify_lemma_algebra(hyperbola, q, box_set((0, 0), (-1, 1))).confirmed
        assert 1 <= len(calls) <= 2


class TestBaseProperty:
    def test_shift_confirmed_with_indexes(self, shift):
        v = base_property_check(shift)
        assert v.confirmed
        table = dict(v.witness)
        # the bound at (1,1): transporter [-2,2] sweeps [-1,1] to [-3,3]
        assert table[(1, 1)] == 3
        assert table[(1, 1)] <= 2 * 1 + 2 * 1
        # window verification at (1,1): composed pairs land in level 3
        e1 = OrbitPair(shift, box_set((-1, 1)))
        comp = Compose(e1, e1)
        e_bound = OrbitPair(shift, box_set((-3, 3)))
        for x in range(-8, 9):
            for z in range(-8, 9):
                if entourage_membership(comp, ((x,), (z,))) is True:
                    assert entourage_membership(e_bound, ((x,), (z,))) is True

    def test_hyperbola_refuted_with_pinned_family(self, hyperbola):
        v = base_property_check(hyperbola)
        assert v.refuted
        family = v.witness["family"]
        for m in range(9):
            w = family[m]
            t = 2 * m + 1
            assert w["x"] == (t, -t)
            assert w["y"] == (0, -2 * t)
            assert w["z"] == (0, 0)
            # replay through entourage membership
            e0 = OrbitPair(hyperbola, box_set((NEG_INF, 0), (NEG_INF, 0)))
            em = OrbitPair(hyperbola, box_set((NEG_INF, m), (NEG_INF, m)))
            assert entourage_membership(e0, (w["x"], w["y"])) is True
            assert entourage_membership(e0, (w["y"], w["z"])) is True
            assert entourage_membership(em, (w["x"], w["z"])) is False

    def test_trivial_maximal_group_confirmed(self, trivial_maximal_group):
        assert base_property_check(trivial_maximal_group).confirmed


class TestAssociatedStructure:
    def test_shift_equals_metric_chain(self, shift):
        assert structures_equivalent(
            associated_structure(shift), metric_ball_structure(Z)
        ).confirmed

    def test_trivial_maximal_group_equals_connected(self, trivial_maximal_group):
        assert structures_equivalent(
            associated_structure(trivial_maximal_group),
            associated_connected_structure(cubes_chain(Z)),
        ).confirmed

    def test_refuted_instance_raises_with_witness(self, hyperbola):
        with pytest.raises(BasePropertyRefuted) as exc:
            associated_structure(hyperbola)
        assert "family" in exc.value.witness


class TestRecovery:
    def test_shift(self, shift):
        assert induced_recovery_check(shift).confirmed

    def test_trivial_maximal_group(self, trivial_maximal_group):
        assert induced_recovery_check(trivial_maximal_group).confirmed

    def test_trivial_maximal_group_witnesses(self, trivial_maximal_group):
        # M = 0 under the maximal group bornology: the transporter of a point
        # of B_n is all of ℤ, and the zero entry must add 0 to the hull, not
        # 0·inf, so that E_n[pt] = B_n lands at level n
        certs = induced_recovery_check(trivial_maximal_group).witness
        got = [c for c in certs if c[0] == "nbhd_bounded" and c[1] <= 2]
        assert got == [("nbhd_bounded", n, pt, n)
                       for n, pts in ((0, [0]), (1, [0, -1, 1]), (2, [0, -1, 1, -2, 2]))
                       for pt in [(p,) for p in pts]]

    @pytest.mark.parametrize("name", ["shift", "hyperbola", "first_coordinate_shift",
                                      "trivial", "trivial_maximal_group"])
    def test_given_classification_keeps_the_witness(self, name, request):
        inst = request.getfixturevalue(name)
        cls = classify(inst)
        assert (induced_recovery_check(inst, classification=cls)
                == induced_recovery_check(inst))

    def test_neighborhood_hull_holds_the_point_neighborhood(self):
        # level n is [-n, n+3]; E_n[0] = ∪_{l ∈ L_{0,B_n}} (B_n - l) = [-2n-3, 2n+3]
        spec = chain_bornology(Z, [(affine(-1, 0), affine(1, 3))])
        inst = ActionInstance("shift", lattice_group(1, cubes_chain(Z)), Z,
                              TranslationRule(((1,),)), spec)
        certs = induced_recovery_check(inst).witness
        for n in range(3):
            lvl = level_box(spec, n)
            nbhd, exact = neighborhood(OrbitPair(inst, BoxSet(lvl)), points_set((0,)))
            nbb = set_bounding_box(nbhd)
            assert exact and nbb == box_set((-2 * n - 3, 2 * n + 3)).box
            # the cell's one read of the case B_n − 0, swept over B_n
            ray, status, bb = _case_extent(inst.matrix, lvl)
            assert ray is None and status is False
            hull = minkowski_sum(negate_box(image_hull(inst.matrix, bb)), lvl)
            assert box_contains_box(hull, nbb), n
            # the level the certificate names holds E_n[0], and is the least one
            idx = next(c[3] for c in certs if c[:3] == ("nbhd_bounded", n, (0,)))
            assert box_contains_box(level_box(spec, idx), nbb), n
            assert idx == is_bounded(spec, nbhd).index == 2 * n + 3


class TestRecoveryCells:
    """Verdicts and witnesses of induced_recovery_check pinned on both group
    bornology branches: a maximal one, where no ray is sought but the hull is
    still taken, and a chain, where a point transporter's ray refutes."""

    def test_maximal_group_takes_the_hull_past_a_ray(self, trivial_maximal_group):
        # M = 0: every point transporter is all of ℤ, and E_n[pt] = B_n
        v = induced_recovery_check(trivial_maximal_group, Budget(max_index=3))
        pts = [0, -1, 1, -2, 2, -3, 3]
        assert v == confirmed("mutual cofinality", witness=tuple(
            c for n in range(4)
            for c in [("contains_level", n, (-n,))]
            + [("nbhd_bounded", n, (p,), n) for p in pts[:min(2 * n + 1, 6)]]))

    def test_maximal_group_rank_one_late_chain(self):
        # levels [-m+3, m-4] are empty until m = 4; samples 0 and -1
        spec = chain_bornology(Z, [(affine(-1, 3), affine(1, -4))])
        inst = ActionInstance("late", lattice_group(1, maximal_bornology(Z)), Z,
                              TranslationRule(((2,),)), spec)
        assert induced_recovery_check(inst, Budget(max_index=4)) == confirmed(
            "mutual cofinality",
            witness=(("contains_level", 4, (-1,)), ("nbhd_bounded", 4, (0,), 4),
                     ("nbhd_bounded", 4, (-1,), 4)))

    def test_maximal_group_rank_two_strip_has_no_vertex_hull(self):
        # {l : l0 + l1 ∈ B_n − pt} is a strip with no vertex: no hull is read
        inst = ActionInstance("strip", lattice_group(2, maximal_bornology(Z2)), Z,
                              TranslationRule(((1, 1),)), cubes_chain(Z))
        assert induced_recovery_check(inst, Budget(max_index=4)) == confirmed(
            "mutual cofinality",
            witness=tuple(("contains_level", n, (-n,)) for n in range(5)))

    @pytest.mark.parametrize("rank, matrix, direction", [
        (1, ((0,),), (1,)),
        (2, ((1, -1),), (-1, -1)),
    ])
    def test_chain_group_point_transporter_ray_refutes(self, rank, matrix, direction):
        space = GroundSpace.lattice(rank)
        inst = ActionInstance("ray", lattice_group(rank, cubes_chain(space)), Z,
                              TranslationRule(matrix), cubes_chain(Z))
        assert induced_recovery_check(inst, Budget(max_index=4)) == refuted(
            witness={"level": 0, "point": (0,), "verdict": BoundVerdict(
                "unbounded", direction=direction,
                note="recession ray of the transporter polyhedron")},
            detail="a point neighborhood escapes the bornology")

    def test_group_chain_refutes_a_bounded_point_transporter(self):
        # the group chain [0, inf) fails the covering axiom: the point
        # transporter [-1, 1] at level 1 is bounded but escapes every level
        gb = chain_bornology(Z, [(affine(0, 0), AFF_POS_INF)])
        inst = ActionInstance("half", lattice_group(1, gb), Z,
                              TranslationRule(((1,),)), cubes_chain(Z))
        assert induced_recovery_check(inst, Budget(max_index=4)) == refuted(
            witness={"level": 1, "point": (0,), "verdict": BoundVerdict(
                "unbounded", note="constraint row 0 escapes every level")},
            detail="a point neighborhood escapes the bornology")


class TestTheoremWeak:
    def test_hyperbola_both_sides_true(self, hyperbola):
        r = verify_theorem_weak(hyperbola)
        assert r.confirmed
        assert r.condition("weakly_b_proper").confirmed
        assert r.condition("bi_and_orbit_chains").confirmed

    def test_maximal_space_both_sides_false(self, shift_maximal_space):
        r = verify_theorem_weak(shift_maximal_space)
        assert r.confirmed
        assert not r.condition("weakly_b_proper").confirmed
        assert not r.condition("bi_and_orbit_chains").confirmed

    def test_trivial_both_sides_false(self, trivial):
        r = verify_theorem_weak(trivial)
        assert r.confirmed
        assert not r.condition("weakly_b_proper").confirmed
        assert not r.condition("bi_and_orbit_chains").confirmed


class TestTheoremMain:
    def test_shift_with_metric_candidate(self, shift):
        r = verify_theorem_main(shift, candidates=[("metric", metric_ball_structure(Z))])
        assert r.confirmed
        assert r.condition("minimality").confirmed

    def test_hyperbola_consistent_all_false(self, hyperbola):
        r = verify_theorem_main(hyperbola)
        assert r.confirmed
        assert not r.condition("b_proper").confirmed
        assert not r.condition("weakly_plus_base").confirmed
        assert not r.condition("weakly_plus_witness_structure").confirmed

    def test_trivial_maximal_group_all_true(self, trivial_maximal_group):
        r = verify_theorem_main(trivial_maximal_group)
        assert r.confirmed
        assert r.condition("b_proper").confirmed


class TestTheoremTransitive:
    def test_shift_metric_equality(self, shift):
        r = verify_theorem_transitive(shift, metric_ball_structure(Z))
        assert r.confirmed
        assert r.condition("inclusion").confirmed
        assert r.condition("reverse_inclusion").confirmed

    def test_left_action_group_right(self, shift):
        r = verify_theorem_transitive(shift, group_right_structure(shift.group))
        assert r.confirmed
        assert r.condition("reverse_inclusion").confirmed

    def test_first_coordinate_shift_one_sided(self, first_coordinate_shift):
        r = verify_theorem_transitive(
            first_coordinate_shift, metric_ball_structure(Z2)
        )
        assert r.condition("inclusion").confirmed
        assert r.condition("reverse_inclusion").status == "not_applicable"
        cov = r.condition("coarsely_transitive")
        assert cov.refuted and cov.witness["direction"] == (0, 1)
        # the metric chain really does escape the associated structure
        v = structure_leq(
            metric_ball_structure(Z2),
            associated_orbit_structure(first_coordinate_shift),
        )
        assert v.refuted
        pair = v.witness["pair"]
        assert pair[0][1] != pair[1][1] or abs(pair[0][1]) > 8


class TestMemberGridParity:
    def test_vectorized_membership_matches_scalar(self, hyperbola, shift):
        # the batch answers a grid of pairs (x, y) as an (n, 2, d) array
        import numpy as np

        from coarseact.associated import _window_grid

        cases = [
            (hyperbola, box_set((NEG_INF, 0), (NEG_INF, 1)), (1, -2)),
            (hyperbola, box_set((-2, 2), (-3, 0)), (0, 0)),
            (shift, box_set((0, 3)), (5,)),
        ]
        for inst, b, x in cases:
            e = OrbitPair(inst, b)
            grid = _window_grid(inst.space.dim, 6)
            got = entourage_members(e, np.stack(np.broadcast_arrays(np.array(x), grid), axis=1))
            for i, row in enumerate(grid):
                y = tuple(int(c) for c in row)
                assert got[i] is entourage_membership(e, (x, y)), y

    @pytest.mark.parametrize("d", [2, 3])
    def test_set_membership_grid_matches_scalar(self, d):
        from coarseact.associated import _set_member_grid, _window_grid

        pts = points_set((0,) * d, (2,) + (-1,) * (d - 1), (-3,) * d)
        half = box_set((NEG_INF, 1), *([(-2, POS_INF)] * (d - 1)))
        slab = box_set((-1, 2), *([(NEG_INF, POS_INF)] * (d - 1)))
        small = box_set(*([(0, 1)] * d))
        # points past the window, one past the int64 range, and one on its edge
        far = points_set((5,) * d, (10**20,) + (0,) * (d - 1), (1,) + (-5,) * (d - 1),
                         (-4,) * d)
        grid = _window_grid(d, 4)
        for s in (pts, half, slab, union_set(pts, half, small), union_set(slab, pts), far,
                  union_set(far, small)):
            got = _set_member_grid(s, grid)
            for i, row in enumerate(grid):
                y = tuple(int(c) for c in row)
                assert bool(got[i]) == set_membership(s, y), (s, y)


class TestScaledShifts:
    def test_non_surjective_line_actions_recover_exactly(self):
        # x ↦ x + 2l and x ↦ x + 3l: proper, coarsely transitive, and the
        # residue-class containment rule settles both inclusion directions
        from coarseact.boxes import GroundSpace
        from coarseact.actions import ActionInstance, TranslationRule, lattice_group

        Z1 = GroundSpace.lattice(1)
        cubes = cubes_chain(Z1)
        for scale in (2, 3):
            inst = ActionInstance(f"scale{scale}", lattice_group(1, cubes), Z1,
                                  TranslationRule(((scale,),)), cubes)
            r = verify_theorem_transitive(inst, metric_ball_structure(Z1))
            assert r.confirmed
            assert r.condition("reverse_inclusion").confirmed


class TestInclusionDirection:
    def test_pushforward_always_inside_pullback(self, shift, hyperbola,
                                                shift_maximal_space):
        # the one-sided orbit-bornology inclusion holds on every instance
        from coarseact.actions import orbit_bornologies
        from coarseact.bornology import is_bounded, level_box
        from coarseact.boxes import BoxSet

        for inst in (shift, hyperbola, shift_maximal_space):
            pull, push = orbit_bornologies(inst, (0,) * inst.space.dim)
            for i in range(6):
                if push.kind != "chain":
                    break
                v = is_bounded(pull, BoxSet(level_box(push, i)))
                assert v.bounded, (inst.name, i, v)


class TestCompositionBoundSoundness:
    def test_window_compositions_land_in_recorded_level(self, shift):
        from coarseact.coarse import Compose, orbit_compose_bound
        from coarseact.bornology import is_bounded

        v = base_property_check(shift)
        table = dict(v.witness)
        for (i, j) in ((1, 1), (2, 3), (3, 2)):
            k = table[(i, j)]
            e1 = OrbitPair(shift, box_set((-i, i)))
            e2 = OrbitPair(shift, box_set((-j, j)))
            ek = OrbitPair(shift, box_set((-k, k)))
            comp = Compose(e1, e2)
            for x in range(-9, 10):
                for z in range(-9, 10):
                    if entourage_membership(comp, ((x,), (z,))) is True:
                        assert entourage_membership(ek, ((x,), (z,))) is True


class TestOtherProfiles:
    def test_theorems_never_refute_on_k2_and_finite(self):
        # the characterizations are proved; any refutation is an engine bug
        from coarseact.oracle import random_instance

        for seed in range(1, 16):
            for profile in ("lattice-k2", "finite"):
                inst = random_instance(seed, profile)
                assert verify_theorem_weak(inst).status != "refuted"
                assert verify_theorem_main(inst).status != "refuted"


class TestEquivariance:
    def test_sweeping_preserves_membership(self, hyperbola):
        e = OrbitPair(hyperbola, box_set((NEG_INF, 1), (NEG_INF, 0)))
        rng = random.Random(4)
        for _ in range(50):
            x = tuple(rng.randint(-6, 6) for _ in range(2))
            y = tuple(rng.randint(-6, 6) for _ in range(2))
            base = entourage_membership(e, (x, y))
            for l in (-7, -1, 1, 9):
                shift_vec = (l, -l)
                xs = tuple(a + s for a, s in zip(x, shift_vec))
                ys = tuple(a + s for a, s in zip(y, shift_vec))
                assert entourage_membership(e, (xs, ys)) == base
