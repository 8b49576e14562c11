import random

import pytest

from srdepth.homology import RATIONALS, depth_stanley_reisner, prime_field
from srdepth.rigid import (
    is_rigid_by_intersections,
    is_rigid_by_skeleton_cm,
    is_rigid_by_subcomplex_depths,
    sample_depth_stability,
)
from srdepth import simplicial
from srdepth.simplicial import Complex
from tests.conftest import all_intersections_verdict, random_pure_complex, two_facet_depth

F2 = prime_field(2)
F3 = prime_field(3)


# -- combinatorial route ---------------------------------------------------------

def test_depth_one_always_rigid():
    cx = Complex(4, [(1, 2), (3, 4)])  # disconnected, depth 1
    assert depth_stanley_reisner(cx, RATIONALS) == 1
    assert is_rigid_by_intersections(cx, 1)


def test_two_big_facets_rigid(two_big_facets):
    assert is_rigid_by_intersections(two_big_facets, 3)


def test_projective_plane_not_rigid_over_rationals(rp2):
    verdict = is_rigid_by_intersections(rp2, 3)
    assert not verdict
    assert len(verdict.facet_indices) == 2
    assert verdict.intersection_size == 1
    # certificate re-validates: the named facets really do intersect that small
    f, g = (set(rp2.facets[i]) for i in verdict.facet_indices)
    assert len(f & g) == verdict.intersection_size


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("field", [RATIONALS, F2], ids=str)
def test_irrelevant_complex_has_rigid_depth(n, field):
    # K[{()}] is the field: depth 0, and every m-primary ideal has depth 0
    cx = Complex(n, [()])
    assert depth_stanley_reisner(cx, field) == 0
    verdicts = (
        is_rigid_by_intersections(cx, 0),
        is_rigid_by_subcomplex_depths(cx, field),
        is_rigid_by_skeleton_cm(cx, field),
    )
    assert [(v.rigid, v.t) for v in verdicts] == [(True, 0)] * 3
    assert sample_depth_stability(cx, field, exponent_bound=3, trials=4, seed=n) == []
    with pytest.raises(ValueError, match="depth 1 out of range 0..0"):
        is_rigid_by_intersections(cx, 1)


@pytest.mark.parametrize(
    "route",
    [
        lambda cx: is_rigid_by_intersections(cx, 1),
        is_rigid_by_subcomplex_depths,
        is_rigid_by_skeleton_cm,
        sample_depth_stability,
    ],
)
def test_every_rigidity_route_refuses_void_and_impure(route):
    for cx in (Complex(3, []), Complex(3, [(1, 2), (3,)])):
        with pytest.raises(ValueError, match="^expected a pure complex, got "):
            route(cx)


def test_rigidity_input_validation(rp2):
    with pytest.raises(ValueError):
        is_rigid_by_intersections(rp2, 0)
    with pytest.raises(ValueError):
        is_rigid_by_intersections(Complex(5, [(1, 2, 3), (4, 5)]), 1)


@pytest.mark.parametrize("t", [True, 1.0, "1"], ids=repr)
def test_intersection_test_refuses_a_depth_that_is_not_an_integer(t):
    # a bool is not read as 1, and a float is refused before any range
    with pytest.raises(ValueError, match="^depth must be an integer, got "):
        is_rigid_by_intersections(Complex(2, [(1,), (2,)]), t)


def test_apex_peel_matches_every_intersection():
    rng = random.Random(20)
    cones = 0
    for _ in range(300):
        cx = random_pure_complex(rng, n_max=7, r_max=6)
        if rng.random() < 0.5:  # a cone over it with 1..3 apex vertices
            c = rng.randint(1, 3)
            apex = tuple(range(cx.n + 1, cx.n + c + 1))
            cx = Complex(cx.n + c, [f + apex for f in cx.facets])
            cones += 1
        for field in (RATIONALS, F2):
            t = depth_stanley_reisner(cx, field)
            v = is_rigid_by_intersections(cx, t)
            assert (v.rigid, v.facet_indices, v.intersection_size) == all_intersections_verdict(cx, t), (cx, t)
    assert 100 < cones < 200


# -- homological routes ------------------------------------------------------------

def test_two_facet_complexes_rigid_by_depths():
    for facets in ([(1, 2, 3), (1, 4, 5)], [(1, 2, 3), (1, 3, 4)]):
        cx = Complex(max(max(f) for f in facets), facets)
        assert is_rigid_by_subcomplex_depths(cx, RATIONALS)
        assert is_rigid_by_skeleton_cm(cx, RATIONALS)


def test_skeleton_of_two_big_facets_not_rigid(two_big_facets):
    skel = two_big_facets.skeleton(3)
    assert depth_stanley_reisner(skel, RATIONALS) == 3
    vd = is_rigid_by_subcomplex_depths(skel, RATIONALS)
    assert not vd
    assert vd.subcomplex_depth == 2
    assert depth_stanley_reisner(vd.subcomplex, RATIONALS) == 2
    ve = is_rigid_by_skeleton_cm(skel, RATIONALS)
    assert not ve
    vf = is_rigid_by_intersections(skel, 3)
    assert not vf


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(simplicial, "DEFAULT_FACET_CAP", 2)
    cx = Complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError):
        is_rigid_by_subcomplex_depths(cx, RATIONALS)


def test_route_equivalence_random():
    rng = random.Random(7)
    for _ in range(30):
        cx = random_pure_complex(rng, n_max=6, r_max=4)
        for field in (RATIONALS, F2):
            t = depth_stanley_reisner(cx, field)
            f = bool(is_rigid_by_intersections(cx, t))
            d = bool(is_rigid_by_subcomplex_depths(cx, field))
            e = bool(is_rigid_by_skeleton_cm(cx, field))
            assert f == d == e, (cx, str(field), f, d, e)


# -- two-facet formula -----------------------------------------------------------------

def test_two_facet_depth_values():
    assert two_facet_depth((1, 2, 3), (1, 4, 5)) == 2
    assert two_facet_depth((1, 2, 3), (1, 3, 4)) == 3
    assert two_facet_depth((1, 2, 3, 4, 5), (1, 2, 6, 7, 8)) == 3


def test_two_facet_depth_matches_skeleton_formula():
    rng = random.Random(8)
    from itertools import combinations

    for _ in range(20):
        n = rng.randint(2, 7)
        d = rng.randint(1, n - 1)
        f, g = rng.sample(list(combinations(range(1, n + 1), d)), 2)
        cx = Complex(n, [f, g])
        for field in (RATIONALS, F2, F3):
            assert two_facet_depth(f, g) == depth_stanley_reisner(cx, field)


# -- sampling ------------------------------------------------------------------------------

def test_samples_conform_on_rigid_complex(two_big_facets):
    t = depth_stanley_reisner(two_big_facets, RATIONALS)
    assert is_rigid_by_intersections(two_big_facets, t)
    assert sample_depth_stability(
        two_big_facets, RATIONALS, exponent_bound=3, trials=8, seed=5
    ) == []


def test_fourcycle_not_rigid_and_sampler_can_tell(fourcycle):
    # disjoint edges meet in 0 < 1 vertices, so depth is exponent-sensitive
    verdict = is_rigid_by_intersections(fourcycle, 2)
    assert not verdict
    assert verdict.intersection_size == 0
    mismatches = sample_depth_stability(fourcycle, RATIONALS, exponent_bound=3, trials=8, seed=5)
    assert mismatches
    assert all(depth < 2 for _, _, depth in mismatches)


def test_sampler_finds_projective_plane_counterexample(rp2):
    # doubling the exponents across a facet pair meeting in one vertex drops
    # the depth below 3
    mismatches = sample_depth_stability(rp2, RATIONALS, exponent_bound=2, trials=6, seed=1)
    assert mismatches
    assert all(depth < 3 for _, _, depth in mismatches)


def test_sampler_is_deterministic(fourcycle):
    r1 = sample_depth_stability(fourcycle, RATIONALS, exponent_bound=3, trials=5, seed=9)
    r2 = sample_depth_stability(fourcycle, RATIONALS, exponent_bound=3, trials=5, seed=9)
    assert r1 == r2


# -- field independence ---------------------------------------------------------------------

def field_independence(cx, primes):
    """Rigidity over Q and (depth, rigid) over each F_p, after asserting that
    depth only drops over F_p and rigidity over Q persists over every F_p."""
    t_q = depth_stanley_reisner(cx, RATIONALS)
    rigid_q = bool(is_rigid_by_subcomplex_depths(cx, RATIONALS))
    by_p = {}
    for p in primes:
        t_p = depth_stanley_reisner(cx, prime_field(p))
        by_p[p] = (t_p, bool(is_rigid_by_intersections(cx, t_p)))
        assert t_p <= t_q, (cx, p)
        assert by_p[p][1] or not rigid_q, (cx, p)
    return rigid_q, by_p


def test_char_audit_two_facets(two_big_facets):
    rigid_q, by_p = field_independence(two_big_facets, (2, 3, 5))
    assert rigid_q
    assert all(rigid for _, rigid in by_p.values())


def test_char_audit_projective_plane(rp2):
    rigid_q, by_p = field_independence(rp2, (2, 3))
    assert not rigid_q  # not rigid over Q, so nothing to propagate
    assert by_p == {2: (2, True), 3: (3, False)}


def test_char_audit_random():
    rng = random.Random(10)
    for _ in range(20):
        field_independence(random_pure_complex(rng, n_max=7, r_max=4), (2, 3))


# -- skeleton propagation ----------------------------------------------------------------------

def skeleton_levels(cx, field=RATIONALS):
    """Depth t of a rigid complex and {i: rigid} for its i-skeletons,
    t - 1 <= i <= dim, after asserting that each keeps depth t and that
    rigidity, once reached, persists at every higher level."""
    t = depth_stanley_reisner(cx, field)
    if not is_rigid_by_intersections(cx, t):
        raise ValueError("skeleton propagation needs a rigid complex")
    levels = {}
    for i in range(t - 1, cx.dim + 1):
        assert depth_stanley_reisner(cx.skeleton(i), field) == t, (cx, i)
        levels[i] = bool(is_rigid_by_intersections(cx.skeleton(i), t))
    assert sorted(levels.values()) == list(levels.values()), (cx, levels)
    return t, levels


def test_skeleton_propagation_two_big_facets(two_big_facets):
    t, levels = skeleton_levels(two_big_facets)
    assert t == 3
    # the 3-skeleton is witnessed non-rigid by a depth-2 subcomplex
    assert levels == {2: False, 3: False, 4: True}


def test_skeleton_propagation_simplex():
    # the tetrahedron is its own 3-skeleton, the only level from t - 1 = 3 up
    t, levels = skeleton_levels(Complex(4, [range(1, 5)]))
    assert t == 4 and levels == {3: True}


def test_skeleton_propagation_requires_rigid(rp2):
    with pytest.raises(ValueError):
        skeleton_levels(rp2)


def test_skeleton_propagation_random():
    rng = random.Random(11)
    count = 0
    while count < 10:
        cx = random_pure_complex(rng, n_max=6, r_max=4)
        t = depth_stanley_reisner(cx, RATIONALS)
        if not is_rigid_by_intersections(cx, t):
            continue
        count += 1
        skeleton_levels(cx)
