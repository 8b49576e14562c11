"""Exact depth computations for monomial ideals and Stanley-Reisner rings.

The toolkit decides when the depth of S/I equals the depth of S/sqrt(I) for
unmixed monomial ideals, characterizes pure simplicial complexes with rigid
depth, and emits the rational-cone inequality systems on irreducible
exponents governing depth equality.  Everything is exact: integer and
prime-field linear algebra only.  Each question has one production route;
the independent routes are kept as oracles for the tests and `srdepth audit`.
"""

from .simplicial import Complex, IRRELEVANT, ORDINARY, VOID
from .homology import (
    CMResult,
    FieldSpec,
    RATIONALS,
    boundary_matrix,
    depth_stanley_reisner,
    is_cohen_macaulay,
    prime_field,
    reduced_betti,
)
from .ideals import (
    Decomposition,
    MonomialIdeal,
    intersect_all,
    irreducible_ideal,
    prime_ideal,
    prime_power_ideal,
    radical_complex,
    stanley_reisner_ideal,
)
from .criteria import (
    DepthEqualsRadicalVerdict,
    LocalCohomologyCell,
    degree_complex,
    degree_complex_facet_form,
    degree_complex_unmixed,
    degree_selecting_witness,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
    local_cohomology_table,
)
from .rigid import (
    RigidVerdict,
    char_independence_audit,
    is_rigid_by_intersections,
    is_rigid_by_skeleton_cm,
    is_rigid_by_subcomplex_depths,
    sample_depth_stability,
    skeleton_propagation_audit,
    two_facet_depth,
)
from .cones import (
    ConeUnion,
    convexity_probe,
    fourcycle_assignment,
    fourcycle_complex,
    fourcycle_reference_system,
    generate_cone_union,
    grid_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "VOID",
    "IRRELEVANT",
    "ORDINARY",
    "FieldSpec",
    "RATIONALS",
    "prime_field",
    "CMResult",
    "boundary_matrix",
    "reduced_betti",
    "is_cohen_macaulay",
    "depth_stanley_reisner",
    "MonomialIdeal",
    "Decomposition",
    "intersect_all",
    "prime_ideal",
    "irreducible_ideal",
    "prime_power_ideal",
    "stanley_reisner_ideal",
    "radical_complex",
    "degree_complex",
    "degree_complex_facet_form",
    "degree_complex_unmixed",
    "degree_selecting_witness",
    "LocalCohomologyCell",
    "local_cohomology_table",
    "depth_via_local_cohomology",
    "depth_via_koszul",
    "DepthEqualsRadicalVerdict",
    "depth_equals_radical",
    "RigidVerdict",
    "is_rigid_by_intersections",
    "is_rigid_by_subcomplex_depths",
    "is_rigid_by_skeleton_cm",
    "two_facet_depth",
    "sample_depth_stability",
    "char_independence_audit",
    "skeleton_propagation_audit",
    "ConeUnion",
    "generate_cone_union",
    "grid_equivalence",
    "convexity_probe",
    "fourcycle_complex",
    "fourcycle_reference_system",
    "fourcycle_assignment",
]
