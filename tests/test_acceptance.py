"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Budgets are pinned here: window 64 and chain index 8 for classification and
structure identities, window 32 for oracle agreement and the lemma suite, and
the stated wall-clock limits.
"""

import itertools
import random
import time

import pytest

from coarseact.boxes import (
    NEG_INF,
    GroundSpace,
    box_set,
)
from coarseact.bornology import (
    cubes_chain,
    finite_bornology_closure,
    level_box,
)
from coarseact.boxes import FinitePoints
from coarseact.actions import classify, transporter, transporter_extent
from coarseact.coarse import (
    OrbitPair,
    associated_connected_structure,
    close_finite_base,
    coarsely_bounded,
    entourage_membership,
    group_right_structure,
    metric_ball_structure,
    structures_equivalent,
)
from coarseact.associated import (
    base_property_check,
    induced_recovery_check,
    verify_theorem_main,
    verify_theorem_transitive,
    verify_theorem_weak,
)
from coarseact.oracle import (
    cross_check,
    naive_closure,
    oracle_entourage_member,
    random_instance,
)
from coarseact.verdicts import Budget

from conftest import Z, Z2

BUDGET = Budget(window=64, max_index=8)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    assert ok, line


@pytest.fixture
def flagships(shift, hyperbola, trivial, shift_maximal_space, trivial_maximal_group):
    return [shift, hyperbola, trivial, shift_maximal_space, trivial_maximal_group]


def test_criterion_1_flagship_classification(flagships):
    shift, hyperbola, trivial, shift_max, trivial_maxgrp = flagships
    expectations = {
        "shift": {"b_proper": True, "weakly_b_proper": True, "bi": True},
        "hyperbola": {"b_proper": False, "weakly_b_proper": True, "bi": True},
        "trivial": {"bi": False},
        "shift_maximal_space": {"weakly_b_proper": False},
        "trivial_maximal_group": {"b_proper": True},
    }
    for inst in flagships:
        start = time.monotonic()
        cls = classify(inst, BUDGET)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{inst.name} classification took {elapsed:.1f}s"
        flags = cls.flags()
        for key, want in expectations[inst.name].items():
            assert flags[key] == want, (inst.name, key, flags)
    # the hyperbola refutation witness replays through the transporter
    cls = classify(flagships[1], BUDGET)
    i, j = cls.b_proper.witness["levels"]
    t = transporter(flagships[1],
                    box_set(*[(NEG_INF, i)] * 2), box_set(*[(NEG_INF, j)] * 2))
    assert transporter_extent(flagships[1], t)[0].unbounded
    # the maximal-space instance has unequal orbit chains
    from coarseact.actions import chains_mutually_cofinal, orbit_bornologies

    pull, push = orbit_bornologies(flagships[3], (0,))
    assert chains_mutually_cofinal(pull, push).refuted
    report(1, True, "flagship classification matrix")


def test_criterion_2_theorem_consistency(flagships):
    start = time.monotonic()
    instances = list(flagships) + [
        random_instance(seed, "lattice-k1") for seed in range(1, 101)
    ]
    inconsistent = []
    for inst in instances:
        weak = verify_theorem_weak(inst, BUDGET)
        main = verify_theorem_main(inst, budget=BUDGET)
        if weak.status == "refuted" or main.status == "refuted":
            inconsistent.append((inst.name, weak.status, main.status))
        # the weak report's two sides must agree with classify's flag
        if weak.status == "confirmed":
            sides = weak.conditions
            assert (
                sides["weakly_b_proper"].confirmed
                == sides["bi_and_orbit_chains"].confirmed
            )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"theorem suite took {elapsed:.1f}s"
    report(2, not inconsistent,
           f"105 instances, 0 inconsistencies, {elapsed:.1f}s")


def test_criterion_3_base_property_refutation(hyperbola):
    v = base_property_check(hyperbola, BUDGET)
    assert v.refuted
    family = {w["m"]: w for w in v.witness["family"]}
    quadrant = box_set((NEG_INF, 0), (NEG_INF, 0))
    for m in range(9):
        w = family[m]
        want = {
            "x": (2 * m + 1, -2 * m - 1),
            "y": (0, -4 * m - 2),
            "z": (0, 0),
        }
        assert (w["x"], w["y"], w["z"]) == (want["x"], want["y"], want["z"])
        e0 = OrbitPair(hyperbola, quadrant)
        em = OrbitPair(hyperbola, box_set((NEG_INF, m), (NEG_INF, m)))
        # symbolic replay
        sym = (
            entourage_membership(e0, (w["x"], w["y"])),
            entourage_membership(e0, (w["y"], w["z"])),
            entourage_membership(em, (w["x"], w["z"])),
        )
        assert sym == (True, True, False)
        # oracle replay, identically
        gw = 4 * m + 8
        orc = (
            oracle_entourage_member(e0, (w["x"], w["y"]), gw),
            oracle_entourage_member(e0, (w["y"], w["z"]), gw),
            oracle_entourage_member(em, (w["x"], w["z"]), gw),
        )
        assert orc == sym
    report(3, True, "witness family replays for m in 0..8")


def test_criterion_4_structure_identities(shift, trivial_maximal_group,
                                          first_coordinate_shift):
    from coarseact.associated import associated_structure

    assoc = associated_structure(shift, BUDGET)
    v1 = structures_equivalent(assoc, metric_ball_structure(Z), BUDGET)
    assert v1.confirmed, v1
    v2 = structures_equivalent(assoc, group_right_structure(shift.group), BUDGET)
    assert v2.confirmed, v2
    assoc_t = associated_structure(trivial_maximal_group, BUDGET)
    v3 = structures_equivalent(
        assoc_t, associated_connected_structure(cubes_chain(Z)), BUDGET
    )
    assert v3.confirmed, v3
    r = verify_theorem_transitive(shift, metric_ball_structure(Z), BUDGET)
    assert r.condition("inclusion").confirmed
    assert r.condition("reverse_inclusion").confirmed
    r2 = verify_theorem_transitive(
        first_coordinate_shift, metric_ball_structure(Z2), BUDGET
    )
    assert r2.condition("inclusion").confirmed
    assert r2.condition("reverse_inclusion").status == "not_applicable"
    cov = r2.condition("coarsely_transitive")
    assert cov.refuted and cov.witness["direction"] is not None
    report(4, True, "E_d, E^R, E_B identities and the transitive recovery")


def test_criterion_5_induced_bornology_recovery(shift, trivial_maximal_group):
    for inst in (shift, trivial_maximal_group):
        assert classify(inst, BUDGET).b_proper.confirmed
        v = induced_recovery_check(inst, BUDGET)
        assert v.confirmed, (inst.name, v)
        # direct coarsely_bounded probes of the associated chain
        from coarseact.associated import associated_structure

        assoc = associated_structure(inst, BUDGET)
        for n in (0, 2, 5):
            lvl = box_set(*zip(level_box(inst.space_bornology, n).lower,
                               level_box(inst.space_bornology, n).upper))
            cb = coarsely_bounded(assoc, lvl, BUDGET)
            assert cb.bounded, (inst.name, n, cb)
        assert coarsely_bounded(assoc, box_set((NEG_INF, 0)), BUDGET).unbounded
    report(5, True, "B-proper flagships recover their bornology")


def test_criterion_6_oracle_agreement(flagships):
    start = time.monotonic()
    instances = list(flagships) + [
        random_instance(seed, "lattice-k1") for seed in range(1, 68)
    ] + [
        random_instance(seed, "lattice-k2") for seed in range(1, 18)
    ] + [
        random_instance(seed, "finite") for seed in range(1, 17)
    ]
    assert len(instances) == 105
    reports = cross_check(instances, window=32)
    mismatched = [r for r in reports if not r.passed]
    elapsed = time.monotonic() - start
    assert not mismatched, mismatched[:3]
    # fault injection: five seeded faults each produce a mismatch
    import coarseact.actions as actions_mod
    import coarseact.coarse as coarse_mod
    from coarseact.coarse import _k1_bounds as real_bounds
    from coarseact.coarse import _shift_generator as real_generator
    from coarseact.boxes import Box
    from coarseact.boxes import box_intersect as real_intersect
    from coarseact.boxes import difference_box as real_diff

    faults = []

    def fault_transporter_end(target, source):
        out = real_diff(target, source)
        if out.empty or out.upper[0] == float("inf"):
            return out
        return Box(out.lower, (out.upper[0] + 1,) + out.upper[1:])

    def fault_interval_end(rows, pts, inf):
        # rank-1 membership meets per-point interval arrays, not boxes
        import numpy as np

        lo, hi = real_bounds(rows, pts, inf)
        return np.where((lo > -inf) & (lo <= hi), lo - 1, lo), hi

    def fault_intersect_end(b1, b2):
        out = real_intersect(b1, b2)
        if out.empty or out.lower[0] == -float("inf"):
            return out
        return Box((out.lower[0] - 1,) + out.lower[1:], out.upper)

    def fault_membership_end(target, source):
        out = real_diff(target, source)
        if out.empty or out.upper[-1] == float("inf"):
            return out
        return Box(out.lower, out.upper[:-1] + (out.upper[-1] + 2,))

    def fault_generator(m, *sets):
        # a reduced shift lattice of index 2: every other shift t·v is lost
        gen = real_generator(m, *sets)
        return gen and tuple((2 * c,) for (c,) in gen)

    shift = flagships[0]
    hyperbola = flagships[1]
    injections = [
        (actions_mod, "difference_box", fault_transporter_end, shift, ("transporter",)),
        (coarse_mod, "_k1_bounds", fault_interval_end, hyperbola, ("entourage",)),
        (coarse_mod, "box_intersect", fault_intersect_end, random_instance(11, "lattice-k2"),
         ("entourage",)),
        (coarse_mod, "difference_box", fault_membership_end, shift,
         ("entourage", "neighborhood")),
        (coarse_mod, "_shift_generator", fault_generator, random_instance(1, "lattice-k2"),
         ("entourage", "compose")),
    ]
    for mod, attr, fault, inst, prims in injections:
        original = getattr(mod, attr)
        setattr(mod, attr, fault)
        try:
            broken = cross_check([inst], primitives=prims, window=16)
        finally:
            setattr(mod, attr, original)
        faults.append(any(not r.passed for r in broken))
    assert all(faults), faults
    # a neighbourhood one point too wide: the window masks name the points
    # that the set comparison named, least first
    import coarseact.oracle as oracle_mod
    from coarseact.boxes import BoxSet, set_boxes, union_set

    real_neighborhood = oracle_mod.neighborhood

    def fault_neighborhood_end(e, a_set, budget):
        s, exact = real_neighborhood(e, a_set, budget)
        first, *rest = set_boxes(s)
        widened = Box(first.lower, (first.upper[0] + 1,) + first.upper[1:])
        return union_set(*(BoxSet(b) for b in [widened, *rest])), exact

    oracle_mod.neighborhood = fault_neighborhood_end
    try:
        broken = cross_check([shift, hyperbola], primitives=("neighborhood",), window=16)
    finally:
        oracle_mod.neighborhood = real_neighborhood
    assert [r.mismatches for r in broken] == [
        [{"x": (0,), "entourage": "OrbitPair", "only_symbolic": [(v,)], "only_oracle": []}
         for v in (1, 3, 5)],
        [{"x": (0, 0), "entourage": "OrbitPair", "only_symbolic": [(1, 0)], "only_oracle": []}],
    ]
    report(6, True, f"105 instances agree at W=32 in {elapsed:.1f}s; "
                    f"5/5 faults detected")


def test_criterion_7_finite_algebra():
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        size = rng.randint(2, 4)
        labels = tuple(range(size))
        space = GroundSpace.finite(labels)
        pairs = list(itertools.product(labels, repeat=2))
        base = [
            frozenset(rng.sample(pairs, rng.randint(1, min(5, len(pairs)))))
            for _ in range(rng.randint(1, 3))
        ]
        family, naive_anti = naive_closure(space, base)
        symbolic = close_finite_base(space, base)
        assert tuple(symbolic.maximal) == naive_anti, base
        checked += 1
    # covering bases on small finite sets generate the full power set
    for size in range(1, 7):
        labels = tuple(range(size))
        space = GroundSpace.finite(labels)
        singletons = tuple(FinitePoints(frozenset({x})) for x in labels)
        fam = finite_bornology_closure(space, singletons)
        assert len(fam) == 2 ** size
        ragged = tuple(
            FinitePoints(frozenset(labels[: i + 1])) for i in range(size)
        )
        fam = finite_bornology_closure(space, ragged)
        assert len(fam) == 2 ** size
    report(7, True, "50 closures match the naive oracle; power-set degeneracy")


def test_criterion_8_lemma_suite():
    from coarseact.associated import verify_lemma_algebra, verify_lemma_neighborhood

    budget = Budget(window=32, max_index=8)
    rng = random.Random(8)
    start = time.monotonic()
    failures = []
    for case in range(50):
        if case % 5 == 4:
            inst = random_instance(case, "finite")
            labels = inst.space.labels
            b = FinitePoints(frozenset(rng.sample(labels, rng.randint(1, len(labels)))))
            b2 = FinitePoints(frozenset(rng.sample(labels, rng.randint(1, len(labels)))))
            x = rng.choice(labels)
        else:
            inst = random_instance(case, "lattice-k1")
            d = inst.space.dim
            lo = tuple(rng.randint(-4, 2) for _ in range(d))
            b = box_set(*((l, l + rng.randint(0, 3)) for l in lo))
            lo2 = tuple(rng.randint(-4, 2) for _ in range(d))
            b2 = box_set(*((l, l + rng.randint(0, 3)) for l in lo2))
            x = tuple(rng.randint(-5, 5) for _ in range(d))
        vn = verify_lemma_neighborhood(inst, b, x, budget)
        va = verify_lemma_algebra(inst, b, b2, budget)
        if not (vn.confirmed and va.confirmed):
            failures.append((inst.name, vn.status, va.status))
    elapsed = time.monotonic() - start
    assert not failures, failures[:3]
    assert elapsed < 60.0, f"lemma suite took {elapsed:.1f}s"
    report(8, True, f"50 triples confirmed in {elapsed:.1f}s")
