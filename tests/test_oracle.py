import itertools
import random
from dataclasses import replace

import pytest

from coarseact.boxes import (
    NEG_INF,
    POS_INF,
    GroundSpace,
    box_set,
    points_set,
    union_set,
)
from coarseact.bornology import bornology_axiom_check, maximal_bornology
from coarseact.actions import (
    ActionInstance,
    TranslationRule,
    action_bornological_check,
    action_homomorphism_check,
    group_bornological_check,
    group_table_check,
    lattice_group,
)
from coarseact.coarse import (
    Compose,
    DiffRel,
    OrbitPair,
    close_finite_base,
    entourage_members,
    entourage_membership,
)
from coarseact.oracle import (
    _oracle_compose_orbit,
    _relation_ops,
    cross_check,
    existence_truncation_bound,
    naive_closure,
    oracle_entourage_member,
    oracle_neighborhood,
    oracle_orbit_members_batch,
    oracle_transporter,
    random_instance,
)

from conftest import Z


class TestOracleTransporter:
    def test_shift_enumeration(self, shift):
        got, notes, _ = oracle_transporter(shift, box_set((0, 1)), box_set((5, 6)), 20, 30)
        assert got == [(4,), (5,), (6,)]
        assert notes == []

    def test_trivial_action_full_window(self, trivial):
        got, _, _ = oracle_transporter(trivial, points_set((0,)), points_set((0,)), 6, 6)
        assert got == [(n,) for n in range(-6, 7)]

    def test_hyperbola_quadrants_with_bound(self, hyperbola):
        q = box_set((NEG_INF, 0), (NEG_INF, 0))
        bound = existence_truncation_bound(hyperbola, q, q, 20)
        got, notes, _ = oracle_transporter(hyperbola, q, q, 20, max(64, bound))
        assert got == [(n,) for n in range(-20, 21)]
        assert notes == []

    def test_window_monotone(self, shift):
        small, _, _ = oracle_transporter(shift, box_set((0, 3)), box_set((2, 9)), 6, 20)
        large, _, _ = oracle_transporter(shift, box_set((0, 3)), box_set((2, 9)), 12, 20)
        assert set(small) <= set(large)
        assert set(small) == {l for l in large if abs(l[0]) <= 6}

    def test_advisory_when_uncertifiable(self, shift):
        got, notes, _ = oracle_transporter(
            shift, box_set((NEG_INF, 0)), box_set((5, 6)), 4, 2
        )
        assert notes  # window below the certified bound


class TestOracleMembership:
    def test_orbit_pair_explicit_search(self, hyperbola):
        e = OrbitPair(hyperbola, box_set((NEG_INF, 0), (NEG_INF, 0)))
        assert oracle_entourage_member(e, ((5, -5), (0, -10)), 20) is True
        assert oracle_entourage_member(e, ((0, 0), (-3, 2)), 20) is False

    def test_neighborhood_sweep(self, shift):
        e = DiffRel(Z, box_set((-2, 2)))
        got = oracle_neighborhood(e, points_set((0,)), 8, 8)
        assert got == {(v,) for v in range(-2, 3)}


class TestUnionBoundedSets:
    """Bounded sets of several boxes: x and y may sit in different pieces."""

    def test_membership_paths_agree(self, shift):
        e = OrbitPair(shift, points_set((0,), (5,)))
        pair = ((0,), (5,))
        assert entourage_membership(e, pair) is True
        assert oracle_entourage_member(e, pair, 20) is True
        assert oracle_orbit_members_batch(e, [pair[0]], [pair[1]], 20) == [True]

    def test_neighborhood_crosses_pieces(self, shift):
        e = OrbitPair(shift, points_set((0,), (5,)))
        assert oracle_neighborhood(e, points_set((0,)), 20, 8) == {(-5,), (0,), (5,)}

    @pytest.mark.parametrize("case", ["shift", "hyperbola", "union A"])
    def test_neighborhood_grid_matches_pair_listing(self, case, shift, hyperbola):
        # the one-batch window grid against every (x, y) asked pair by pair
        from coarseact.boxes import box_points, cube, set_points_within

        if case == "hyperbola":
            e = OrbitPair(hyperbola, box_set((NEG_INF, 0), (NEG_INF, 0)))
            a_set = points_set((0, 0))
        else:
            e = OrbitPair(shift, points_set((0,), (5,)))
            a_set = points_set((0,)) if case == "shift" else \
                union_set(points_set((-6,)), box_set((1, 2)), points_set((30,)))
        d, w = e.space.dim, 8
        listed = {y for y in box_points(cube(w, d))
                  if any(oracle_entourage_member(e, (x, y), 20)
                         for x in set_points_within(a_set, w))}
        assert listed and oracle_neighborhood(e, a_set, 20, w) == listed

    def test_compose_matches_engine(self, shift):
        e1 = OrbitPair(shift, points_set((0,), (5,)))
        e2 = OrbitPair(shift, union_set(box_set((0, 1)), points_set((10,))))
        pairs = [((x,), (z,)) for x in range(-12, 13) for z in range(-12, 13)]
        oracle = _oracle_compose_orbit(shift, e1, e2, pairs, 40)
        engine = [entourage_membership(Compose(e1, e2), p) for p in pairs]
        assert oracle == engine

    def test_transporter_matches_engine(self, shift):
        from coarseact.actions import transporter

        b = union_set(points_set((0,)), box_set((7, 8)))
        b2 = points_set((3,), (20,))
        got, notes, _ = oracle_transporter(shift, b, b2, 20, 50)
        assert got == [(-5,), (-4,), (3,), (12,), (13,), (20,)]
        assert notes == []
        t = transporter(shift, b, b2)
        assert got == [(l,) for l in range(-20, 21) if t.member((l,))]


def _union_case(seed: int):
    """A seeded translation action (d, k <= 2, entries in ±2), two bounded sets
    of 1-3 pieces each (point sets and boxes, some ends ±inf), and 30 pairs
    from the window [-4, 4]^d."""
    rng = random.Random(f"union-case|{seed}")
    d, k = rng.randint(1, 2), rng.randint(1, 2)
    m = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(d))
    space = GroundSpace.lattice(d)
    group = lattice_group(k, maximal_bornology(GroundSpace.lattice(k)))
    a = ActionInstance(f"union-{seed}", group, space, TranslationRule(m),
                       maximal_bornology(space))

    def piece():
        if rng.random() < 0.35:
            return points_set(*(tuple(rng.randint(-3, 3) for _ in range(d))
                                for _ in range(rng.randint(1, 2))))
        ends = []
        for _ in range(d):
            lo = rng.randint(-3, 2)
            hi = lo + rng.randint(0, 2)
            ends.append((NEG_INF if rng.random() < 0.2 else lo,
                         POS_INF if rng.random() < 0.2 else hi))
        return box_set(*ends)

    b1, b2 = (union_set(*(piece() for _ in range(rng.randint(1, 3)))) for _ in "12")
    window = list(itertools.product(range(-4, 5), repeat=d))
    pairs = [(rng.choice(window), rng.choice(window)) for _ in range(30)]
    return a, b1, b2, pairs


class TestUnionDifferential:
    """entourage_members against the oracle on union bounded sets.  The
    crosscheck samples single boxes only, so these are its union cases."""

    SEEDS = range(48)
    GW = 24  # group window: no witness for a window pair lies beyond it here

    def test_orbit_pairs_match_oracle(self):
        for seed in self.SEEDS:
            a, b1, b2, pairs = _union_case(seed)
            for b in (b1, b2):
                e = OrbitPair(a, b)
                assert entourage_members(e, pairs) == \
                    oracle_orbit_members_batch(e, *zip(*pairs), self.GW), (seed, b)

    def test_compositions_match_oracle(self):
        for seed in self.SEEDS:
            a, b1, b2, pairs = _union_case(seed)
            e1, e2 = OrbitPair(a, b1), OrbitPair(a, b2)
            got = entourage_members(Compose(e1, e2), pairs)
            if a.group.rank == 1:
                assert got == _oracle_compose_orbit(a, e1, e2, pairs, self.GW), seed
                continue
            # k = 2 composes over l and h: a window of 4 keeps the oracle
            # fast but finds only some witnesses, so only a found witness
            # binds (the engine may still answer None there)
            oracle = _oracle_compose_orbit(a, e1, e2, pairs, 4)
            assert not any(o and g is False for g, o in zip(got, oracle)), seed

    def test_compose_midpoints_past_union_cap(self):
        # three pieces on each side: the midpoint region would need more than
        # UNION_CAP pieces, and the membership used to raise GeometryError
        plane = GroundSpace.lattice(2)
        a = ActionInstance("plane", lattice_group(2, maximal_bornology(plane)), plane,
                           TranslationRule(((1, -2), (0, 0))), maximal_bornology(plane))
        b1 = union_set(points_set((2, -3)), box_set((2, POS_INF), (1, POS_INF)),
                       points_set((-2, 0)))
        b2 = union_set(box_set((2, POS_INF), (NEG_INF, 3)),
                       box_set((1, POS_INF), (NEG_INF, 3)),
                       box_set((NEG_INF, 0), (1, 2)))
        e1, e2 = OrbitPair(a, b1), OrbitPair(a, b2)
        pairs = [((-4, 4), (-2, 0)), ((-4, 4), (1, 0)), ((-4, 4), (2, -4))]
        assert entourage_members(Compose(e1, e2), pairs) == [True] * 3
        assert _oracle_compose_orbit(a, e1, e2, pairs, 12) == [True] * 3

    def test_compose_reach_past_union_cap(self):
        # B ⊖ B of eight points is 64 pieces, and with {0} the reach used to
        # pass the union cap of 64 and raise GeometryError
        plane = GroundSpace.lattice(2)
        a = ActionInstance("double", lattice_group(2, maximal_bornology(plane)), plane,
                           TranslationRule(((2, 0), (0, 2))), maximal_bornology(plane))
        e = OrbitPair(a, points_set(*((10 * i, 0) for i in range(8))))
        pairs = [((0, 0), (10, 0)), ((1, 0), (11, 0)), ((0, 0), (2, 0)),
                 ((0, 0), (70, 0)), ((0, 0), (20, 2))]
        expected = [True, False, False, True, False]
        assert entourage_members(Compose(e, e), pairs) == expected
        assert _oracle_compose_orbit(a, e, e, pairs, 4) == expected

    def test_permuted_batch_gives_permuted_answers(self):
        rng = random.Random(5)
        for seed in range(0, 48, 3):
            a, b1, b2, pairs = _union_case(seed)
            for e in (OrbitPair(a, b1), Compose(OrbitPair(a, b1), OrbitPair(a, b2))):
                answers = entourage_members(e, pairs)
                order = rng.sample(range(len(pairs)), len(pairs))
                assert entourage_members(e, [pairs[i] for i in order]) == \
                    [answers[i] for i in order]
                assert [entourage_membership(e, p) for p in pairs] == answers


class TestFiniteCompose:
    def test_compositions_match_oracle(self):
        # pairs in neither factor search every label as the midpoint; the
        # search used to build lattice tuples from labels and raise TypeError
        rng = random.Random(3)
        for seed in range(1, 21):
            inst = random_instance(seed, "finite")
            labels = inst.space.labels
            pairs = list(itertools.product(labels, repeat=2))
            for _ in range(2):
                e1, e2 = (OrbitPair(inst, points_set(*rng.sample(labels, rng.randint(1, 2))))
                          for _ in "12")
                assert entourage_members(Compose(e1, e2), pairs) == \
                    _oracle_compose_orbit(inst, e1, e2, pairs, 8), seed


class TestNaiveClosure:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_symbolic_closure(self, size):
        labels = tuple(range(size))
        space = GroundSpace.finite(labels)
        rng = random.Random(size * 11)
        pairs = list(itertools.product(labels, repeat=2))
        for _ in range(8):
            base = [
                frozenset(rng.sample(pairs, rng.randint(1, min(5, len(pairs)))))
                for _ in range(rng.randint(1, 3))
            ]
            _, naive_anti = naive_closure(space, base)
            symbolic = close_finite_base(space, base)
            assert tuple(symbolic.maximal) == naive_anti

    def test_family_materialized_small(self):
        space = GroundSpace.finite((0, 1))
        family, anti = naive_closure(space, [frozenset({(0, 1)})])
        # closure of a single off-diagonal pair over two points absorbs to full
        assert anti == (frozenset(itertools.product((0, 1), repeat=2)),)
        assert len(family) == 16


    @staticmethod
    def bit_loops(n):
        """Transpose and composition of n×n bitmasks by their definitions."""
        def bit(i, j):
            return 1 << (i * n + j)

        def transpose(m):
            return sum(bit(j, i) for i in range(n) for j in range(n) if m & bit(i, j))

        def compose(m1, m2):
            return sum(bit(i, k) for i in range(n) for k in range(n)
                       if any(m1 & bit(i, j) and m2 & bit(j, k) for j in range(n)))

        return transpose, compose

    def test_row_tables_match_bit_loops(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 4):
            transpose, compose = _relation_ops(n)
            want_t, want_c = self.bit_loops(n)
            if n <= 3:
                masks = list(range(1 << (n * n)))
                pairs = [(m1, m2) for m1 in masks for m2 in rng.sample(masks, min(len(masks), 24))]
            else:
                masks = [rng.getrandbits(n * n) for _ in range(2000)]
                pairs = [(rng.getrandbits(n * n), rng.getrandbits(n * n)) for _ in range(4000)]
            assert [transpose(m) for m in masks] == [want_t(m) for m in masks], n
            assert [compose(*p) for p in pairs] == [want_c(*p) for p in pairs], n


class TestRandomInstances:
    def test_deterministic(self):
        assert random_instance(0, "lattice-k1") == random_instance(0, "lattice-k1")
        assert random_instance(0, "finite") == random_instance(0, "finite")

    def test_seeds_pass_axiom_checks(self):
        for seed in range(1, 101):
            inst = random_instance(seed, "lattice-k1")
            assert bornology_axiom_check(inst.space_bornology).passed
            assert bornology_axiom_check(inst.group.bornology).passed

    def test_lattice_k2_valid(self):
        for seed in range(1, 21):
            inst = random_instance(seed, "lattice-k2")
            assert inst.group.rank == 2
            assert group_bornological_check(inst.group).passed
            assert action_bornological_check(inst).passed

    def test_finite_group_tables_verified(self):
        for seed in range(0, 20):
            inst = random_instance(seed, "finite")
            assert group_table_check(inst.group).passed
            assert action_homomorphism_check(inst).passed

    def test_unknown_profile(self):
        with pytest.raises(Exception):
            random_instance(0, "lattice-k9")


class TestCrossCheck:
    def test_flagships_pass(self, shift, hyperbola, trivial):
        reports = cross_check([shift, hyperbola, trivial], window=16)
        assert all(r.passed for r in reports)

    def test_deterministic_reports(self, shift):
        r1 = cross_check([shift], window=12)
        r2 = cross_check([shift], window=12)
        assert [(r.primitive, r.mismatches) for r in r1] == [
            (r.primitive, r.mismatches) for r in r2
        ]

    def test_fault_injection_difference_box(self, shift, monkeypatch):
        # off-by-one in the transporter difference set must be caught
        import coarseact.actions as actions_mod
        from coarseact.boxes import Box, difference_box as real

        def faulty(target, source):
            out = real(target, source)
            if out.empty or out.upper[0] == float("inf"):
                return out
            return Box(out.lower, tuple(u + 1 for u in out.upper))

        monkeypatch.setattr(actions_mod, "difference_box", faulty)
        reports = cross_check([shift], primitives=("transporter",), window=16)
        assert any(not r.passed for r in reports)

    def test_fault_injection_interval_listing(self, shift, monkeypatch):
        # the symbolic transporter is listed by interval reads: an upper end
        # one too far must show at both ranks (seed 5 has M = ((-2, -1),);
        # seed 4 has M = 0, whose intervals have no finite end to widen)
        import coarseact.actions as actions_mod

        real = actions_mod._interval_k1

        def faulty(m, c):
            iv = real(m, c)
            if iv is None or iv[1] == POS_INF:
                return iv
            return iv[0], iv[1] + 1

        monkeypatch.setattr(actions_mod, "_interval_k1", faulty)
        for inst in (shift, random_instance(5, "lattice-k2")):
            reports = cross_check([inst], primitives=("transporter",), window=16)
            assert any(not r.passed for r in reports), inst.name

    def test_fault_injection_box_intersect(self, monkeypatch):
        # rank-2 orbit-pair membership still meets x ⊖ p and y ⊖ q as boxes
        # (seed 11 keeps rank 2 on the rows its sets bound; seed 4 has M = 0)
        import coarseact.coarse as coarse_mod
        from coarseact.boxes import box_intersect as real, Box

        def faulty(b1, b2):
            out = real(b1, b2)
            if out.empty:
                return out
            return Box(tuple(l - 1 for l in out.lower), out.upper)

        monkeypatch.setattr(coarse_mod, "box_intersect", faulty)
        reports = cross_check([random_instance(11, "lattice-k2")], primitives=("entourage",),
                              window=16)
        assert any(not r.passed for r in reports)

    def test_reduced_orbit_pairs_ask_no_rank_two_feasibility(self, monkeypatch):
        # seed 1 (M of rank 2, sets bounded in the third row only, where the
        # shifts are 2·l₀) and seed 4 (M = 0) answer every orbit-pair question
        # by the interval kernel.  Seed 1's compose check is left out: its
        # second set bounds all three rows, where the shifts have rank 2.
        import coarseact.actions as actions_mod
        import coarseact.coarse as coarse_mod

        calls = []
        real = actions_mod.lattice_box_feasible

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(actions_mod, "lattice_box_feasible", counted)
        monkeypatch.setattr(coarse_mod, "lattice_box_feasible", counted)
        checks = [(1, ("entourage", "neighborhood")), (4, ("entourage", "compose", "neighborhood"))]
        for seed, prims in checks:
            reports = cross_check([random_instance(seed, "lattice-k2")], primitives=prims)
            assert all(r.passed and not r.advisory for r in reports), seed
        assert calls == []

    def test_fault_injection_interval_lower_end(self, hyperbola, monkeypatch):
        # rank-1 orbit-pair membership meets the intervals I_p(x) and I_q(y),
        # computed for the whole batch at once
        import numpy as np

        import coarseact.coarse as coarse_mod
        from coarseact.coarse import _k1_bounds as real

        def faulty(rows, pts, inf):
            lo, hi = real(rows, pts, inf)
            return np.where((lo > -inf) & (lo <= hi), lo - 1, lo), hi

        monkeypatch.setattr(coarse_mod, "_k1_bounds", faulty)
        reports = cross_check([hyperbola], primitives=("entourage",), window=16)
        assert any(not r.passed for r in reports)

    def test_fault_injection_self_difference(self, shift, monkeypatch):
        import coarseact.coarse as coarse_mod
        from coarseact.boxes import difference_box as real, Box

        def faulty(target, source):
            out = real(target, source)
            if out.empty or not out.is_bounded():
                return out
            return Box(out.lower, tuple(u + 2 for u in out.upper))

        monkeypatch.setattr(coarse_mod, "difference_box", faulty)
        reports = cross_check([shift], primitives=("entourage", "neighborhood"),
                              window=16)
        assert any(not r.passed for r in reports)

    def test_fault_injection_escape_direction(self, shift, monkeypatch):
        # an escape ray turned around leaves the half-space probe
        import coarseact.bornology as bornology_mod

        real = bornology_mod._chain_escape

        def faulty(spec, s, row, bad_value):
            v = real(spec, s, row, bad_value)
            if v.direction is None:
                return v
            return replace(v, direction=tuple(-c for c in v.direction))

        monkeypatch.setattr(bornology_mod, "_chain_escape", faulty)
        reports = cross_check([shift], primitives=("bounded",))
        assert any(not r.passed for r in reports)


class TestOracleIndependence:
    """The oracle path names no function of the symbolic calculus."""

    CALCULUS = ("coarse", "actions", "bornology", "associated")
    HELPERS = ("_oracle_members", "_oracle_compose_orbit", "_permuted_orbit_member",
               "_affine_oracle_transporter", "existence_truncation_bound",
               "_per_coordinate_bounds", "_grid", "_ends",
               "naive_closure", "_relation_ops", "_verify_family_closed")

    def test_oracle_path_names_no_calculus_function(self):
        import ast
        import importlib
        import inspect

        import coarseact.oracle as oracle_mod

        tree = ast.parse(inspect.getsource(oracle_mod))
        calculus = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module in self.CALCULUS:
                mod = importlib.import_module(f"coarseact.{node.module}")
                calculus.update(a.asname or a.name for a in node.names
                                if inspect.isfunction(getattr(mod, a.name)))
        assert {"transporter", "entourage_members", "neighborhood"} <= calculus
        funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        checked = [name for name in funcs if name.startswith("oracle_")]
        checked += self.HELPERS
        assert len(checked) > len(self.HELPERS)
        for name in checked:
            named = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
            named |= {a.asname or a.name for n in ast.walk(funcs[name])
                      if isinstance(n, ast.ImportFrom) for a in n.names}
            assert not named & calculus, (name, sorted(named & calculus))
