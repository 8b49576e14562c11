"""Rigid depth of pure simplicial complexes.

A pure complex has rigid depth when every unmixed monomial ideal with that
complex as radical has the same depth as the squarefree ideal itself.  The
decidable route is combinatorial: every k of the facets must intersect in at
least t - k + 1 vertices, for k up to min(r, t), where t is the depth of the
Stanley-Reisner ring.  It is the one route the verdicts use.  Two
homological routes (all proper facet selections keep depth >= t; all their
(t-1)-skeletons are Cohen-Macaulay) are kept as oracles for the tests and
`srdepth audit`, along with a randomized stability sampler over concrete
ideal classes.  Both routes walk Complex.proper_facet_selections, which
refuses complexes beyond simplicial.DEFAULT_FACET_CAP facets.  The tests
assert that rigidity persists over prime fields and up the skeletons.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Optional

from .criteria import depth_via_local_cohomology
from .homology import FieldSpec, RATIONALS, depth_stanley_reisner, is_cohen_macaulay
from .ideals import Decomposition, irreducible_ideal, prime_power_ideal
from .simplicial import Complex, ORDINARY


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


def _require_pure(cx: Complex) -> None:
    if cx.kind != ORDINARY:
        raise ValueError("rigidity is defined for ordinary complexes")
    if not cx.is_pure:
        raise ValueError("rigidity is defined for pure complexes")


def is_rigid_by_intersections(cx: Complex, t: int) -> RigidVerdict:
    """Combinatorial test: |F_{i_1} n ... n F_{i_k}| >= t - k + 1 for all
    1 <= k <= min(r, t).  First violating tuple is the certificate."""
    _require_pure(cx)
    if not 1 <= t <= cx.dim + 1:
        raise ValueError(f"depth {t} out of range 1..{cx.dim + 1}")
    masks = cx.facet_masks
    r = len(masks)
    for k in range(1, min(r, t) + 1):
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


def is_rigid_by_subcomplex_depths(cx: Complex, field: FieldSpec = RATIONALS) -> RigidVerdict:
    """Homological test: every proper nonempty facet selection has depth >= t."""
    _require_pure(cx)
    selections = cx.proper_facet_selections()
    t = depth_stanley_reisner(cx, field)
    for idx in selections:
        gamma = cx.facet_subcomplex(idx)
        d = depth_stanley_reisner(gamma, field)
        if d < t:
            return RigidVerdict(False, t, subcomplex=gamma, subcomplex_depth=d)
    return RigidVerdict(True, t)


def is_rigid_by_skeleton_cm(cx: Complex, field: FieldSpec = RATIONALS) -> RigidVerdict:
    """Homological test: the (t-1)-skeleton of every proper facet selection is
    Cohen-Macaulay."""
    _require_pure(cx)
    selections = cx.proper_facet_selections()
    t = depth_stanley_reisner(cx, field)
    for idx in selections:
        gamma = cx.facet_subcomplex(idx)
        if not is_cohen_macaulay(gamma.skeleton(t - 1), field):
            return RigidVerdict(
                False,
                t,
                subcomplex=gamma,
                subcomplex_depth=depth_stanley_reisner(gamma, field),
            )
    return RigidVerdict(True, t)


# -- randomized stability sampling ---------------------------------------------

@dataclass(frozen=True)
class StabilitySample:
    kind: str  # "irreducible" or "prime-power"
    parameters: tuple
    depth: int


@dataclass
class StabilityReport:
    """Depths of randomly drawn unmixed ideals with the given radical complex."""

    t: int
    trials: int
    exponent_bound: int
    seed: int
    mismatches: list[StabilitySample] = dataclass_field(default_factory=list)
    samples: int = 0

    @property
    def all_equal(self) -> bool:
        return not self.mismatches


def sample_depth_stability(
    cx: Complex,
    field: FieldSpec = RATIONALS,
    exponent_bound: int = 2,
    trials: int = 20,
    seed: int = 0,
) -> StabilityReport:
    """Draw random irreducible and prime-power decompositions over cx and
    record every sample whose depth differs from depth K[cx].

    For a complex that passes the combinatorial rigidity test all samples
    must come back equal; for a non-rigid complex this is a search, not a
    decision.
    """
    _require_pure(cx)
    if exponent_bound < 1:
        raise ValueError("exponent bound must be >= 1")
    t = depth_stanley_reisner(cx, field)
    rng = random.Random(seed)
    report = StabilityReport(t=t, trials=trials, exponent_bound=exponent_bound, seed=seed)
    n = cx.n
    facets = cx.facets
    for _ in range(trials):
        exps = tuple(
            tuple(rng.randint(1, exponent_bound) for _ in range(n - len(f)))
            for f in facets
        )
        dec = Decomposition(
            cx, [irreducible_ideal(n, f, e) for f, e in zip(facets, exps)]
        )
        d = depth_via_local_cohomology(dec.intersection(), field)
        report.samples += 1
        if d != t:
            report.mismatches.append(StabilitySample("irreducible", exps, d))
    for _ in range(trials):
        powers = tuple(rng.randint(1, exponent_bound) for _ in facets)
        dec = Decomposition(
            cx, [prime_power_ideal(n, f, m) for f, m in zip(facets, powers)]
        )
        d = depth_via_local_cohomology(dec.intersection(), field)
        report.samples += 1
        if d != t:
            report.mismatches.append(StabilitySample("prime-power", powers, d))
    return report

