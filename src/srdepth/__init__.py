"""Exact depth computations for monomial ideals and Stanley-Reisner rings.

The toolkit decides when the depth of S/I equals the depth of S/sqrt(I) for
unmixed monomial ideals, characterizes pure simplicial complexes with rigid
depth, and emits the rational-cone inequality systems on irreducible
exponents governing depth equality.  Everything is exact: integer and
prime-field linear algebra only.  The package re-exports the one production
route per question; the routes `srdepth audit` checks it against stay in
their modules, and the other cross-checks live in the tests.
"""

from .simplicial import Complex, IRRELEVANT, ORDINARY, VOID
from .homology import (
    CMResult,
    FieldSpec,
    RATIONALS,
    depth_stanley_reisner,
    is_cohen_macaulay,
    prime_field,
    reduced_betti,
)
from .ideals import (
    Decomposition,
    MonomialIdeal,
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
    depth_equals_radical,
    depth_via_local_cohomology,
    local_cohomology_table,
)
from .rigid import RigidVerdict, is_rigid_by_intersections
from .cones import ConeUnion, generate_cone_union

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
    "reduced_betti",
    "is_cohen_macaulay",
    "depth_stanley_reisner",
    "MonomialIdeal",
    "Decomposition",
    "prime_ideal",
    "irreducible_ideal",
    "prime_power_ideal",
    "stanley_reisner_ideal",
    "radical_complex",
    "degree_complex",
    "LocalCohomologyCell",
    "local_cohomology_table",
    "depth_via_local_cohomology",
    "DepthEqualsRadicalVerdict",
    "depth_equals_radical",
    "RigidVerdict",
    "is_rigid_by_intersections",
    "ConeUnion",
    "generate_cone_union",
]
