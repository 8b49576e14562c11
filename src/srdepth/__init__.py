"""Exact depth computations for monomial ideals and Stanley-Reisner rings.

The toolkit decides when the depth of S/I equals the depth of S/sqrt(I) for
monomial ideals with one P_F-primary component per facet of their radical's
complex (the unmixed ones, for a pure complex), characterizes the complexes
with rigid depth, and emits the rational-cone inequality systems on
irreducible exponents governing depth equality.  Everything is exact:
integer and prime-field linear algebra only.  The package re-exports the one
production route per question; Cohen-Macaulayness is read off the depth.
The routes `srdepth audit` checks it against stay in their modules, Reisner's
homology.is_cohen_macaulay with its CMResult and homology.reduced_betti among
them, as does criteria.degree_complex for the tests and the benchmark
tracer; the other cross-checks live in the tests.
"""

from .simplicial import Complex, IRRELEVANT, ORDINARY, VOID
from .homology import FieldSpec, RATIONALS, depth_stanley_reisner, prime_field
from .ideals import (
    Decomposition,
    MonomialIdeal,
    irreducible_ideal,
    prime_power_ideal,
    radical_complex,
    stanley_reisner_ideal,
)
from .criteria import DepthEqualsRadicalVerdict, depth_equals_radical, depth_via_local_cohomology
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
    "depth_stanley_reisner",
    "MonomialIdeal",
    "Decomposition",
    "irreducible_ideal",
    "prime_power_ideal",
    "stanley_reisner_ideal",
    "radical_complex",
    "depth_via_local_cohomology",
    "DepthEqualsRadicalVerdict",
    "depth_equals_radical",
    "RigidVerdict",
    "is_rigid_by_intersections",
    "ConeUnion",
    "generate_cone_union",
]
