"""coarseact: bornologies, coarse structures, and proper group actions,
verified exactly over finite sets and integer lattices."""

from .boxes import (
    Box,
    BoxSet,
    FinitePoints,
    GroundSpace,
    UnionSet,
    box,
    box_set,
    points_set,
    union_set,
)
from .bornology import (
    AffineEnd,
    BornologySpec,
    bornology_axiom_check,
    chain_bornology,
    cubes_chain,
    finite_base_bornology,
    is_bounded,
    maximal_bornology,
)
from .actions import (
    ActionInstance,
    AffineRule,
    GroupSpec,
    PermutationRule,
    TranslationRule,
    classify,
    finite_group,
    lattice_group,
    orbit_bornologies,
    transporter,
    transporter_extent,
)
from .coarse import (
    ChainStructure,
    FiniteClosure,
    OrbitPair,
    associated_connected_structure,
    close_finite_base,
    coarsely_bounded,
    coarsely_transitive_check,
    entourage_members,
    entourage_membership,
    equi_controlled_check,
    group_right_structure,
    metric_ball_structure,
    neighborhood,
    structure_leq,
    structures_equivalent,
)
from .associated import (
    associated_structure,
    base_property_check,
    verify_lemma_algebra,
    verify_lemma_neighborhood,
    verify_theorem_main,
    verify_theorem_transitive,
    verify_theorem_weak,
)
from .verdicts import Budget, BoundVerdict, TheoremReport, Verdict

__version__ = "0.1.0"
