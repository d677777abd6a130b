import random

import pytest

from coarseact.boxes import GroundSpace
from coarseact.bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    affine,
    chain_bornology,
    cubes_chain,
    maximal_bornology,
)
from coarseact.actions import (
    ActionInstance,
    TranslationRule,
    action_bornological_check,
    group_bornological_check,
    lattice_group,
)

Z = GroundSpace.lattice(1)
Z2 = GroundSpace.lattice(2)


def random_chain(rng, space, max_offset=20):
    """A seeded chain that passes the axioms: each end infinite or widening,
    with offsets up to max_offset so that some chains start late."""
    shape = []
    for _ in range(space.dim):
        lo = AFF_NEG_INF if rng.random() < 0.25 else affine(
            -rng.randint(1, 2), rng.randint(-max_offset, max_offset))
        hi = AFF_POS_INF if rng.random() < 0.25 else affine(
            rng.randint(1, 2), rng.randint(-max_offset, max_offset))
        shape.append((lo, hi))
    return chain_bornology(space, shape)


def budget_slice_instance(seed):
    """The seeded lattice instance of the budget slice: d, k ≤ 2, a space
    chain that may start as late as level 25, and a maximal or chain group
    bornology; None when it fails the bornological checks."""
    rng = random.Random(seed)
    d, k = rng.randint(1, 2), rng.randint(1, 2)
    m = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(d))
    sb = random_chain(rng, GroundSpace.lattice(d), 25)
    gb = (maximal_bornology(GroundSpace.lattice(k)) if rng.random() < 0.1
          else random_chain(rng, GroundSpace.lattice(k), 3))
    a = ActionInstance(f"probe-{seed}", lattice_group(k, gb), GroundSpace.lattice(d),
                       TranslationRule(m), sb)
    if group_bornological_check(a.group).passed and action_bornological_check(a).passed:
        return a
    return None


def lower_quadrant_chain():
    """shape(m) = (-inf, m] x (-inf, m] on the plane."""
    return chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0))] * 2)


@pytest.fixture
def shift():
    cubes = cubes_chain(Z)
    return ActionInstance("shift", lattice_group(1, cubes), Z,
                          TranslationRule(((1,),)), cubes)


@pytest.fixture
def hyperbola():
    return ActionInstance(
        "hyperbola",
        lattice_group(1, cubes_chain(Z)),
        Z2,
        TranslationRule(((1,), (-1,))),
        lower_quadrant_chain(),
    )


@pytest.fixture
def trivial():
    cubes = cubes_chain(Z)
    return ActionInstance("trivial", lattice_group(1, cubes), Z,
                          TranslationRule(((0,),)), cubes)


@pytest.fixture
def trivial_maximal_group():
    return ActionInstance(
        "trivial_maximal_group",
        lattice_group(1, maximal_bornology(Z)),
        Z,
        TranslationRule(((0,),)),
        cubes_chain(Z),
    )


@pytest.fixture
def shift_maximal_space():
    return ActionInstance(
        "shift_maximal_space",
        lattice_group(1, cubes_chain(Z)),
        Z,
        TranslationRule(((1,),)),
        maximal_bornology(Z),
    )


@pytest.fixture
def first_coordinate_shift():
    return ActionInstance(
        "first_coordinate_shift",
        lattice_group(1, cubes_chain(Z)),
        Z2,
        TranslationRule(((1,), (0,))),
        cubes_chain(Z2),
    )
