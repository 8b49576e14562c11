"""Rigid depth of pure simplicial complexes.

A pure complex has rigid depth when every unmixed monomial ideal with that
complex as radical has the same depth as the squarefree ideal itself.  The
decidable route is combinatorial: every k of the facets must intersect in at
least t - k + 1 vertices, for k up to min(r, t), where t is the depth of the
Stanley-Reisner ring.  It is the one route the verdicts use.  Two
homological routes (all proper facet selections keep depth >= t; all their
(t-1)-skeletons are Cohen-Macaulay) are kept as oracles for the tests and
`srdepth audit`, along with a randomized stability sampler over concrete
ideal classes.  Both routes walk the (indices, subcomplex) pairs of
Complex.proper_facet_selections, which refuses complexes beyond
simplicial.DEFAULT_FACET_CAP facets before any depth.  All take what
simplicial.require_pure admits: the irrelevant complex has depth 0 and is rigid.
The tests assert that rigidity persists over prime fields and up the skeletons.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .criteria import depth_via_local_cohomology
from .homology import FieldSpec, RATIONALS, _apex, depth_stanley_reisner, is_cohen_macaulay
from .ideals import Decomposition, irreducible_ideal, prime_power_ideal
from .simplicial import Complex, as_int, require_pure


@dataclass(frozen=True)
class RigidVerdict:
    """Verdict plus certificate: a facet tuple whose intersection is too small
    (combinatorial route) or a facet selection of depth below t (homological
    routes)."""

    rigid: bool
    t: int
    facet_indices: Optional[tuple[int, ...]] = None
    intersection_size: Optional[int] = None
    subcomplex: Optional[Complex] = None
    subcomplex_depth: Optional[int] = None

    def __bool__(self) -> bool:
        return self.rigid


def is_rigid_by_intersections(cx: Complex, t: int) -> RigidVerdict:
    """Combinatorial test: |F_{i_1} n ... n F_{i_k}| >= t - k + 1 for all
    1 <= k <= min(r, t).  First violating tuple is the certificate.  t is
    1..dim+1, or 0 for the irrelevant complex.  Every intersection holds the
    apex C of all facets, so only k <= t - |C| can violate and are listed."""
    require_pure(cx)
    t = as_int(t, "depth")
    low = min(1, cx.dim + 1)
    if not low <= t <= cx.dim + 1:
        raise ValueError(f"depth {t} out of range {low}..{cx.dim + 1}")
    masks = cx.facet_masks
    r = len(masks)
    for k in range(1, min(r, t - _apex(cx).bit_count()) + 1):
        for idx in combinations(range(r), k):
            inter = masks[idx[0]]
            for i in idx[1:]:
                inter &= masks[i]
            size = inter.bit_count()
            if size < t - k + 1:
                return RigidVerdict(
                    False, t, facet_indices=idx, intersection_size=size
                )
    return RigidVerdict(True, t)


def _walk(cx: Complex, field: FieldSpec, fails: Callable[[Complex, int], bool]) -> RigidVerdict:
    """The first proper facet selection gamma with fails(gamma, t) as the
    certificate, t = depth K[cx]; the cap is checked before any depth."""
    require_pure(cx)
    selections = cx.proper_facet_selections()
    t = depth_stanley_reisner(cx, field)
    for _, gamma in selections:
        if fails(gamma, t):
            d = depth_stanley_reisner(gamma, field)
            return RigidVerdict(False, t, subcomplex=gamma, subcomplex_depth=d)
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
    require_pure(cx)
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
