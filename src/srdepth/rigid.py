"""Rigid depth of simplicial complexes.

A complex Δ, other than the void one, has rigid depth when every monomial
ideal I with sqrt I = I_Δ and one P_F-primary component per facet F has the
depth of I_Δ itself.  For a pure Δ these are the unmixed ideals, the paper's
definition; no step below uses purity (see homology._thin_intersection and
homology._Selections).  The decidable route is combinatorial: every k of the
facets must intersect in at least t - k + 1 vertices, for k up to min(r, t),
where t is the depth of the Stanley-Reisner ring.  It is the one route the
verdicts use.  Two homological routes (all proper facet selections keep
depth >= t; all their (t-1)-skeletons are Cohen-Macaulay) are kept as
oracles, with a randomized stability sampler over concrete ideal classes;
`srdepth audit` runs the second and the sampler and reads the first off the
selections it builds.  Both routes build each selection from the facet masks
at the indices of simplicial._selection_indices, which refuses complexes
beyond simplicial.DEFAULT_FACET_CAP facets before any depth.  Every route
refuses the void complex, whose depth is undefined; the irrelevant complex
has depth 0 and is rigid.  The tests assert that rigidity persists over
prime fields and up the skeletons.
"""
from __future__ import annotations

import random
from collections.abc import Callable

from .criteria import depth_via_local_cohomology
from .homology import (
    FieldSpec, RATIONALS, _thin_intersection, depth_stanley_reisner, is_cohen_macaulay,
)
from .ideals import Decomposition, irreducible_ideal, prime_power_ideal
from .simplicial import VOID, Complex, Record, _selection_indices, as_int


class RigidVerdict(Record):
    """Verdict plus certificate, the indices of the certifying facets: a
    facet tuple whose intersection is too small (combinatorial route, with
    that size) or a facet selection of depth below t (homological routes)."""

    __slots__ = ("rigid", "t", "facet_indices", "intersection_size")

    def __init__(
        self, rigid: bool, t: int, facet_indices: tuple[int, ...] | None = None,
        intersection_size: int | None = None,
    ):
        object.__setattr__(self, "rigid", rigid)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "facet_indices", facet_indices)
        object.__setattr__(self, "intersection_size", intersection_size)

    def __bool__(self) -> bool:
        return self.rigid


def is_rigid_by_intersections(cx: Complex, t: int) -> RigidVerdict:
    """Combinatorial test: |F_{i_1} n ... n F_{i_k}| >= t - k + 1 for all
    1 <= k <= min(r, t), by homology._thin_intersection.  First violating
    tuple is the certificate.  t is 1..dim+1, or 0 for the irrelevant
    complex."""
    if cx.kind == VOID:
        raise ValueError("depth is undefined for the void complex")
    t = as_int(t, "depth")
    low = min(1, cx.dim + 1)
    if not low <= t <= cx.dim + 1:
        raise ValueError(f"depth {t} out of range {low}..{cx.dim + 1}")
    thin = _thin_intersection(cx.facet_masks, t)
    if thin is None:
        return RigidVerdict(True, t)
    return RigidVerdict(False, t, facet_indices=thin[0], intersection_size=thin[1])


def _walk(cx: Complex, field: FieldSpec, fails: Callable[[Complex, int], bool]) -> RigidVerdict:
    """The indices of the first proper facet selection gamma with fails(gamma,
    t) as the certificate, t = depth K[cx]; the cap is checked before any depth."""
    masks = cx.facet_masks
    selections = _selection_indices(len(masks))
    t = depth_stanley_reisner(cx, field)
    for idx in selections:
        if fails(Complex._from_masks(cx.n, [masks[i] for i in idx]), t):
            return RigidVerdict(False, t, idx)
    return RigidVerdict(True, t)


def is_rigid_by_subcomplex_depths(cx: Complex, field: FieldSpec = RATIONALS) -> RigidVerdict:
    """Homological test: every proper nonempty facet selection has depth >= t."""
    return _walk(cx, field, lambda gamma, t: depth_stanley_reisner(gamma, field) < t)


def is_rigid_by_skeleton_cm(cx: Complex, field: FieldSpec = RATIONALS) -> RigidVerdict:
    """Homological test: the (t-1)-skeleton of every proper facet selection is
    Cohen-Macaulay."""
    return _walk(cx, field, lambda gamma, t: not is_cohen_macaulay(gamma.skeleton(t - 1), field))


# -- randomized stability sampling ---------------------------------------------

def sample_depth_stability(
    cx: Complex,
    field: FieldSpec = RATIONALS,
    exponent_bound: int = 2,
    trials: int = 20,
    seed: int = 0,
) -> list[tuple[str, tuple, int]]:
    """Draw `trials` irreducible ("irreducible", exponents per facet) and
    then `trials` prime-power ("prime-power", one power per facet)
    decompositions over cx, and list the (kind, exponents, depth) of those
    whose depth differs from depth K[cx], in draw order.

    For a complex that passes the combinatorial rigidity test the list must
    come back empty; for a non-rigid complex this is a search, not a
    decision.
    """
    if exponent_bound < 1:
        raise ValueError("exponent bound must be >= 1")
    t = depth_stanley_reisner(cx, field)
    rng = random.Random(seed)
    n, facets = cx.n, cx.facets

    def draw(k: int) -> tuple[int, ...]:
        return tuple(rng.randint(1, exponent_bound) for _ in range(k))

    def depth(component, exps: tuple) -> int:
        dec = Decomposition(cx, {f: component(n, f, e) for f, e in zip(facets, exps)})
        return depth_via_local_cohomology(dec.intersection(), field)

    draws = [("irreducible", irreducible_ideal, tuple(draw(n - len(f)) for f in facets))
             for _ in range(trials)]
    draws += [("prime-power", prime_power_ideal, draw(len(facets))) for _ in range(trials)]
    samples = [(kind, exps, depth(component, exps)) for kind, component, exps in draws]
    return [s for s in samples if s[2] != t]
