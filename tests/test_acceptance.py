"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single `criterion N: PASS` line on success (visible with
`pytest -v -s` or in captured output on failure).  Randomized corpora are
seeded and shared across criteria so the monotonicity and kernel checks run
over exactly the instances the oracle checks saw.
"""
import random
from itertools import product

import pytest

from srdepth.cones import generate_cone_union
from srdepth.criteria import (
    degree_complex_facet_form,
    degree_selecting_witness,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
)
from srdepth.homology import (
    RATIONALS,
    boundary_matrix,
    depth_stanley_reisner,
    is_cohen_macaulay,
    prime_field,
    reduced_betti,
)
from srdepth.ideals import radical_complex
from srdepth.rigid import (
    is_rigid_by_intersections,
    is_rigid_by_skeleton_cm,
    is_rigid_by_subcomplex_depths,
    sample_depth_stability,
)
from srdepth.simplicial import Complex, ORDINARY, VOID
from tests.conftest import (
    FOURCYCLE,
    RP2_FACETS,
    VEC_EQUAL_1,
    VEC_EQUAL_2,
    VEC_MIDPOINT,
    fourcycle_decomposition,
    fourcycle_reference_system,
    grid_equivalence,
    random_decomposition,
    random_ideal,
    random_pure_complex,
    two_facet_depth,
)

F2 = prime_field(2)
F3 = prime_field(3)


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS - {message}")


# -- shared seeded corpora ---------------------------------------------------------

@pytest.fixture(scope="module")
def ideal_corpus():
    rng = random.Random(2024)
    out = []
    while len(out) < 200:
        ideal = random_ideal(rng, n_max=4, gens_max=6, exp_max=3)
        if ideal.is_proper_nonzero:
            out.append(ideal)
    return out


@pytest.fixture(scope="module")
def decomposition_corpus():
    rng = random.Random(888)
    return [random_decomposition(rng, n_max=5, r_max=4, exp_max=3) for _ in range(100)]


@pytest.fixture(scope="module")
def complex_corpus():
    rng = random.Random(777)
    return [random_pure_complex(rng, n_max=7, r_max=5) for _ in range(100)]


# -- criteria -----------------------------------------------------------------------

def test_criterion_1_fourcycle_depth():
    cx = FOURCYCLE
    for field in (RATIONALS, F2, F3):
        assert depth_stanley_reisner(cx, field) == 2, str(field)
        assert is_cohen_macaulay(cx, field), str(field)
    report(1, "4-cycle has depth 2 and is Cohen-Macaulay over Q, F_2, F_3")


def test_criterion_2_reference_exponent_vectors():
    for vec in (VEC_EQUAL_1, VEC_EQUAL_2):
        dec = fourcycle_decomposition(vec)
        verdict = depth_equals_radical(dec, RATIONALS)
        assert verdict.equal and verdict.t == 2, vec
        assert depth_via_local_cohomology(dec.intersection(), RATIONALS) == 2, vec
    dec = fourcycle_decomposition(VEC_MIDPOINT)
    verdict = depth_equals_radical(dec, RATIONALS)
    assert not verdict.equal
    assert depth_via_local_cohomology(dec.intersection(), RATIONALS) < 2
    report(2, "both reference vectors give depth 2, their midpoint drops below 2")


def test_criterion_3_cone_union_matches_reference():
    generated = generate_cone_union(FOURCYCLE, RATIONALS)
    reference = fourcycle_reference_system()
    counterexample = grid_equivalence(generated, reference, 3)
    assert counterexample is None, counterexample
    report(3, "generated 4-cycle cone union matches the reference on all 6561 points")


def test_criterion_4_rigid_fixtures():
    big = Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)])
    assert depth_stanley_reisner(big, RATIONALS) == 3
    assert is_rigid_by_intersections(big, 3)

    skel = big.skeleton(3)
    assert depth_stanley_reisner(skel, RATIONALS) == 3
    assert not is_rigid_by_intersections(skel, 3)
    vd = is_rigid_by_subcomplex_depths(skel, RATIONALS)
    assert not vd
    assert vd.subcomplex_depth == 2
    assert depth_stanley_reisner(vd.subcomplex, RATIONALS) == 2

    assert two_facet_depth((1, 2, 3), (1, 4, 5)) == 2
    assert two_facet_depth((1, 2, 3), (1, 3, 4)) == 3
    assert depth_stanley_reisner(Complex(5, [(1, 2, 3), (1, 4, 5)]), RATIONALS) == 2
    assert depth_stanley_reisner(Complex(4, [(1, 2, 3), (1, 3, 4)]), RATIONALS) == 3
    report(4, "{12345,12678} rigid at t=3, its 3-skeleton fails with a depth-2 "
              "subcomplex, two-facet depths are 2 and 3")


def test_criterion_5_projective_plane():
    rp2 = Complex(6, RP2_FACETS)
    assert is_cohen_macaulay(rp2, RATIONALS)
    assert depth_stanley_reisner(rp2, RATIONALS) == 3
    assert not is_cohen_macaulay(rp2, F2)
    vq = is_rigid_by_intersections(rp2, 3)
    assert not vq
    assert len(vq.facet_indices) == 2 and vq.intersection_size == 1

    # characteristic 2: the skeleton formula yields 2 (the 1-skeleton is the
    # complete graph, hence Cohen-Macaulay); the acceptance requirement is the
    # internal agreement of the three rigidity routes at that depth
    t2 = depth_stanley_reisner(rp2, F2)
    assert t2 == 2
    f = bool(is_rigid_by_intersections(rp2, t2))
    d = bool(is_rigid_by_subcomplex_depths(rp2, F2))
    e = bool(is_rigid_by_skeleton_cm(rp2, F2))
    assert f == d == e
    report(5, f"RP2_6: depth 3/CM over Q, not CM over F_2, non-rigid pair meets in "
              f"1 vertex; F_2 depth {t2} with agreeing rigidity routes (rigid={f})")


def test_criterion_6_oracle_agreement(ideal_corpus):
    assert len(ideal_corpus) >= 200
    for ideal in ideal_corpus:
        for field in (RATIONALS, F2):
            a = depth_via_local_cohomology(ideal, field)
            b = depth_via_koszul(ideal, field)
            assert a == b, (ideal, str(field), a, b)
    report(6, f"local-cohomology and Koszul depths agree on {len(ideal_corpus)} "
              "random ideals over Q and F_2")


def _depth_reaches_t(dec, field, t):
    return depth_via_local_cohomology(dec.intersection(), field) == t


def _all_degree_complexes_deep(dec, field, t):
    for a in product(*[range(c + 1) for c in dec.max_exponents()]):
        cx = degree_complex_facet_form(dec, a)
        if cx.kind != VOID and depth_stanley_reisner(cx, field) < t:
            return False
    return True


def _no_shallow_selection_realized(dec, field, t):
    for sel, gamma in dec.delta.proper_facet_selections():
        if depth_stanley_reisner(gamma, field) >= t:
            continue
        if degree_selecting_witness(dec, sel) is not None:
            return False
    return True


@pytest.mark.slow
def test_criterion_7_depth_equality_equivalence(decomposition_corpus):
    assert len(decomposition_corpus) >= 100
    for dec in decomposition_corpus:
        t = depth_stanley_reisner(dec.delta, RATIONALS)
        direct = _depth_reaches_t(dec, RATIONALS, t)
        degree_scan = _all_degree_complexes_deep(dec, RATIONALS, t)
        selection_scan = _no_shallow_selection_realized(dec, RATIONALS, t)
        assert direct == degree_scan == selection_scan, (
            dec, direct, degree_scan, selection_scan,
        )
    report(7, "direct depth, degree-scan and selection-scan characterizations "
              f"agree pairwise on {len(decomposition_corpus)} random unmixed "
              "decompositions")


@pytest.mark.slow
def test_criterion_8_rigidity_equivalence_and_sampling(complex_corpus):
    assert len(complex_corpus) >= 100
    rigid_over_q = 0
    for cx in complex_corpus:
        for field in (RATIONALS, F2):
            t = depth_stanley_reisner(cx, field)
            f = bool(is_rigid_by_intersections(cx, t))
            d = bool(is_rigid_by_subcomplex_depths(cx, field))
            e = bool(is_rigid_by_skeleton_cm(cx, field))
            assert f == d == e, (cx, str(field), f, d, e)
    for cx in complex_corpus:
        t = depth_stanley_reisner(cx, RATIONALS)
        if not is_rigid_by_intersections(cx, t):
            continue
        rigid_over_q += 1
        mismatches = sample_depth_stability(
            cx, RATIONALS, exponent_bound=2, trials=20, seed=123
        )
        assert mismatches == [], (cx, mismatches[:3])
    assert rigid_over_q > 0
    report(8, f"all three rigidity routes agree on {len(complex_corpus)} complexes "
              f"over Q and F_2; all 40 samples kept depth t on each of "
              f"{rigid_over_q} rigid complexes")


@pytest.mark.slow
def test_criterion_9_monotonicity_and_field_behavior(
    ideal_corpus, decomposition_corpus, complex_corpus
):
    for ideal in ideal_corpus:
        rc = radical_complex(ideal)
        rad_depth = 0 if rc.kind != ORDINARY else depth_stanley_reisner(rc, RATIONALS)
        assert depth_via_local_cohomology(ideal, RATIONALS) <= rad_depth, ideal
    for dec in decomposition_corpus:
        t = depth_stanley_reisner(dec.delta, RATIONALS)
        assert depth_via_local_cohomology(dec.intersection(), RATIONALS) <= t, dec
    for cx in complex_corpus:
        dq = depth_stanley_reisner(cx, RATIONALS)
        for field in (F2, F3):
            assert dq >= depth_stanley_reisner(cx, field), (cx, str(field))
        if is_rigid_by_intersections(cx, dq):
            for field in (F2, F3):
                tp = depth_stanley_reisner(cx, field)
                assert is_rigid_by_intersections(cx, tp), (cx, str(field))
    report(9, "depth(S/I) <= depth(S/sqrt I) everywhere; depth and rigidity only "
              "drop or persist in positive characteristic")


@pytest.mark.slow
def test_criterion_10_homology_kernel_identities(
    decomposition_corpus, complex_corpus
):
    corpus = [
        FOURCYCLE,
        Complex(6, RP2_FACETS),
        Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)]),
        Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)]).skeleton(3),
        Complex(5, [(1, 2, 3), (1, 4, 5)]),
        Complex(4, [(1, 2, 3), (1, 3, 4)]),
    ]
    corpus += [dec.delta for dec in decomposition_corpus[:25]]
    corpus += complex_corpus[:25]
    # include derived complexes the fixtures touch: skeletons, links and
    # selected degree complexes
    derived = []
    for cx in corpus[:12]:
        for i in range(cx.dim + 1):
            derived.append(cx.skeleton(i))
        derived.append(cx.link(cx.facets[0]))
    for vec in (VEC_EQUAL_1, VEC_MIDPOINT):
        dec = fourcycle_decomposition(vec)
        for a in ((0, 0, 0, 0), (2, 4, 1, 2), (3, 5, 1, 3)):
            derived.append(degree_complex_facet_form(dec, a))
    checked = 0
    for cx in corpus + derived:
        if cx.kind != ORDINARY:
            continue
        checked += 1
        for i in range(1, cx.dim + 1):
            d_i = boundary_matrix(cx, i)
            d_prev = boundary_matrix(cx, i - 1)
            cols = len(d_i[0]) if d_i else 0
            for c in range(cols):
                for r in range(len(d_prev)):
                    assert (
                        sum(d_prev[r][k] * d_i[k][c] for k in range(len(d_i))) == 0
                    ), (cx, i)
        for field in (RATIONALS, F2, F3):
            lhs = sum((-1) ** i * len(cx.face_masks_of_dim(i)) for i in range(cx.dim + 1)) - 1
            rhs = sum(
                (-1) ** i * reduced_betti(cx, i, field) for i in range(-1, cx.dim + 1)
            )
            assert lhs == rhs, (cx, str(field))
    report(10, f"boundary-squared-zero and Euler-Poincare hold on {checked} complexes "
               "over Q, F_2, F_3")
