import json
import random
import sys
from itertools import combinations, cycle, islice, product

import pytest

from bench import corpus as bench_corpus
from srdepth import criteria, homology, ideals
from srdepth.cones import generate_cone_union
from srdepth.criteria import (
    _exceed_rows,
    degree_complex,
    degree_complex_facet_form,
    degree_complex_unmixed,
    degree_selecting_witness,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
)
from srdepth.homology import (
    RATIONALS, _generated_below, _thin_intersection, depth_stanley_reisner, min_nonzero_betti,
    prime_field,
)
from srdepth.ideals import (
    Decomposition,
    MonomialIdeal,
    irreducible_ideal,
    prime_power_ideal,
    radical_complex,
    stanley_reisner_ideal,
)
from srdepth.simplicial import VOID, Complex, mask_vertices, minimal_transversals
from tests.conftest import (
    FIXTURES,
    FOURCYCLE_SYSTEMS,
    RP2_FACETS,
    VEC_EQUAL_1,
    VEC_EQUAL_2,
    VEC_MIDPOINT,
    _class_grid,
    _depth_to_two,
    _excess_sets,
    _supports,
    depth_grid,
    excess_set_depth,
    fourcycle_assignment,
    fourcycle_decomposition,
    fourcycle_reference_system,
    is_face,
    is_pure,
    local_cohomology_dim,
    negative_support,
    polarization,
    random_decomposition,
    random_ideal,
    random_primary,
    random_pure_complex,
    raw_local_cohomology,
    swept_degree_complex,
    swept_radical_complex,
)

F2 = prime_field(2)
F3 = prime_field(3)


# -- degree complexes ----------------------------------------------------------------

def test_support_masks():
    assert negative_support((-1, 0, 3, -2)) == 0b1001
    assert negative_support((0, 0)) == 0


def test_facet_form_at_zero(fourcycle):
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    assert degree_complex_facet_form(dec, (0, 0, 0, 0)) == fourcycle


def test_facet_form_all_inside(fourcycle):
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    big = tuple(12 for _ in range(4))
    assert degree_complex_facet_form(dec, big).kind == VOID


def test_facet_form_by_membership_oracle():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    a = (3, 5, 1, 3)
    # oracle: pick facets whose component misses x^a, by direct divisibility
    expected = [
        f
        for f, comp in zip(dec.delta.facets, dec.components)
        if not any(all(g[j] <= a[j] for j in range(4)) for g in comp.gens)
    ]
    cx = degree_complex_facet_form(dec, a)
    assert list(cx.facets) == expected == [(1, 2)]


def test_facet_form_rejects_negative():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    with pytest.raises(ValueError):
        degree_complex_facet_form(dec, (-1, 0, 0, 0))


def test_localization_form_squarefree_at_zero(fourcycle):
    ideal = stanley_reisner_ideal(fourcycle)
    assert degree_complex(ideal, (0, 0, 0, 0)) == fourcycle


def test_localization_form_matches_facet_form_on_grid():
    rng = random.Random(11)
    for _ in range(25):
        dec = random_decomposition(rng, n_max=4, r_max=3, exp_max=2)
        ideal = dec.intersection()
        caps = dec.max_exponents()
        for a in product(*[range(c + 1) for c in caps]):
            assert degree_complex(ideal, a) == degree_complex_facet_form(dec, a)


def test_unmixed_form_matches_general_form():
    rng = random.Random(12)
    for _ in range(25):
        dec = random_decomposition(rng, n_max=4, r_max=3, exp_max=2)
        ideal = dec.intersection()
        caps = dec.max_exponents()
        for a in product(*[range(c) for c in caps]):
            assert degree_complex_unmixed(dec, a) == degree_complex(ideal, a)


def test_degree_complex_purity():
    # nonvoid degree complexes of unmixed ideals are pure of complementary dim
    rng = random.Random(13)
    for _ in range(25):
        dec = random_decomposition(rng, n_max=5, r_max=4, exp_max=2)
        caps = dec.max_exponents()
        for a in product(*[range(c) for c in caps]):
            cx = degree_complex_unmixed(dec, a)
            if cx.kind == VOID:
                continue
            assert is_pure(cx)
            assert cx.dim == dec.delta.dim


def small_ideals(rng, count):
    """count ideals on 2 to 7 variables with up to 5 generators of exponents <= 3."""
    for k in range(count):
        n = 2 + k % 6
        gens = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        yield MonomialIdeal(n, gens)


def test_degree_complex_matches_sweep_oracle():
    # every class-grid degree of 90 ideals
    for ideal in small_ideals(random.Random(14), 90):
        for a in product(*_class_grid(ideal.n, ideal.gens)):
            assert degree_complex(ideal, a) == swept_degree_complex(ideal, a), (ideal, a)


#: degree vectors, each cycled to the fixture's variable count
FIXTURE_DEGREES = ((0, 0, 0, 0), (1, 0, 2, 0), (1, 2, 0, 3), (2, 4, 1, 3), (3, 5, 2, 4))


@pytest.mark.parametrize("degree", FIXTURE_DEGREES, ids=lambda a: ",".join(map(str, a)))
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_degree_complex_matches_sweep_oracle_on_fixtures(path, degree):
    # each fixture as an ideal: the fixture ideal, a decomposition's
    # intersection (also by component membership) or a Stanley-Reisner ideal
    data = json.loads(path.read_text())
    dec = Decomposition.from_json_dict(data) if "components" in data else None
    if dec is not None:
        ideal = dec.intersection()
    elif "generators" in data:
        ideal = MonomialIdeal.from_json_dict(data)
    else:
        ideal = stanley_reisner_ideal(Complex.from_json_dict(data))
    a = tuple(islice(cycle(degree), ideal.n))
    expected = swept_degree_complex(ideal, a)
    assert degree_complex(ideal, a) == expected
    if dec is not None:
        assert degree_complex_unmixed(dec, a) == expected


def test_negative_degrees_give_links_of_their_nonnegative_part():
    # Delta_a = lk_{Delta_a+} G_a, where a+ = max(a, 0), why every depth scan
    # visits a >= 0 alone: the swept complex at each class-grid degree, -1
    # added, against the link in degree_complex at a+ (void off its faces)
    for ideal in small_ideals(random.Random(14), 90):
        for a in product(*[[-1] + reps for reps in _class_grid(ideal.n, ideal.gens)]):
            g = negative_support(a)
            plus = degree_complex(ideal, [max(x, 0) for x in a])
            link = plus.link(mask_vertices(g)) if is_face(plus, g) else Complex(ideal.n, [])
            assert swept_degree_complex(ideal, a) == link, (ideal, a)


def test_degree_complex_edge_cases():
    # the zero ideal gives the simplex; a degree whose monomial is in the
    # ideal gives the void complex
    assert degree_complex(MonomialIdeal(3, []), (1, 0, 5)).facets == ((1, 2, 3),)
    assert degree_complex(MonomialIdeal(2, [(2, 0)]), (2, 0)).kind == VOID
    assert degree_complex(MonomialIdeal(2, [(0, 0)]), (0, 0)).kind == VOID


def test_degree_complexes_refuse_a_negative_degree():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    for build, arg in ((degree_complex, dec.intersection()), (degree_complex_unmixed, dec),
                       (degree_complex_facet_form, dec)):
        with pytest.raises(ValueError) as err:
            build(arg, (-1, 2, 0, 1))
        assert str(err.value) == "a degree complex needs a nonnegative degree vector"
        with pytest.raises(ValueError) as err:
            build(arg, (0, 0, 0))
        assert str(err.value) == "degree length 3 != ambient 4"


# -- selection witnesses ------------------------------------------------------------------

def disjoint_edge_pairs(dec):
    facets = dec.delta.facets
    return (
        tuple(sorted((facets.index((1, 2)), facets.index((3, 4))))),
        tuple(sorted((facets.index((2, 3)), facets.index((1, 4))))),
    )


def test_witness_exists_for_midpoint_vector():
    dec = fourcycle_decomposition(VEC_MIDPOINT)
    pair_12_34, pair_23_14 = disjoint_edge_pairs(dec)
    # grid search: only the pair {2,3},{1,4} is selectable for this vector
    assert degree_selecting_witness(dec, pair_12_34) is None
    w = degree_selecting_witness(dec, pair_23_14)
    assert w is not None
    sel = set(pair_23_14)
    for i, comp in enumerate(dec.components):
        assert comp.contains(w) != (i in sel)


def test_no_witness_for_equal_vector():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    for pair in disjoint_edge_pairs(dec):
        assert degree_selecting_witness(dec, pair) is None


def test_witness_rejects_improper_selection():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    with pytest.raises(ValueError):
        degree_selecting_witness(dec, ())
    with pytest.raises(ValueError):
        degree_selecting_witness(dec, (0, 1, 2, 3))


def test_selection_relation_on_grid():
    # a degree selects exactly the facet set of its degree complex
    rng = random.Random(14)
    for _ in range(10):
        dec = random_decomposition(rng, n_max=4, r_max=3, exp_max=2)
        caps = dec.max_exponents()
        r = len(dec.components)
        realizable = set()
        for a in product(*[range(c + 1) for c in caps]):
            sig = frozenset(
                i for i, c in enumerate(dec.components) if not c.contains(a)
            )
            realizable.add(sig)
        for k in range(1, r):
            from itertools import combinations

            for sel in combinations(range(r), k):
                w = degree_selecting_witness(dec, sel)
                assert (w is not None) == (frozenset(sel) in realizable)


# -- graded local cohomology -----------------------------------------------------------------

def test_local_cohomology_negative_index():
    ideal = MonomialIdeal(2, [(1, 1)])
    assert local_cohomology_dim(ideal, -1, (0, 0)) == 0


def test_local_cohomology_vanishes_beyond_caps():
    # from a_j = rho_j on, the degree complex is a cone with apex j (or void)
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    ideal = dec.intersection()
    rho = ideal.max_exponents()
    rng = random.Random(3)
    for _ in range(30):
        a = tuple(rng.randint(-2, rho[j] + 2) for j in range(4))
        if any(a[j] >= rho[j] for j in range(4)):
            cx = swept_degree_complex(ideal, a)
            assert min_nonzero_betti(cx, RATIONALS, cx.dim + 1) is None, a


def test_local_cohomology_vanishes_below_depth_for_cm():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    ideal = dec.intersection()
    raw = raw_local_cohomology(ideal)
    assert raw and all(i >= 2 for i, _, _ in raw)


def test_two_points_pieces():
    # every degree of {-1, 0}^2 but (-1, -1), whose G_a is no face, has H^1
    assert raw_local_cohomology(MonomialIdeal(2, [(1, 1)])) == [
        (1, (-1, 0), 1), (1, (0, -1), 1), (1, (0, 0), 1),
    ]


def fixture_ideals():
    """The fixture ideal, the intersections of the fixture decompositions and
    the Stanley-Reisner ideals of the fixture complexes."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "generators" in data:
            out.append(MonomialIdeal.from_json_dict(data))
        elif "components" in data:
            out.append(Decomposition.from_json_dict(data).intersection())
        else:
            out.append(stanley_reisner_ideal(Complex.from_json_dict(data)))
    return out


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_raw_box_least_index_is_depth_on_fixtures(field):
    ideals = fixture_ideals()
    assert len(ideals) == 15
    for ideal in ideals:
        assert raw_local_cohomology(ideal, field)[0][0] == depth_via_local_cohomology(ideal, field)


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_raw_box_least_index_is_depth_on_random_ideals(field):
    rng = random.Random(47)
    checked = 0
    while checked < 120:
        ideal = random_ideal(rng, n_max=4, exp_max=4)
        if ideal.is_proper_nonzero:
            raw = raw_local_cohomology(ideal, field)
            assert raw[0][0] == depth_via_local_cohomology(ideal, field), ideal
            checked += 1


def test_depth_at_huge_exponent():
    # one class covers 10**17 degrees; the raw grid would not fit in memory
    assert depth_via_local_cohomology(MonomialIdeal(3, [(10**17, 0, 1)])) == 2


# -- depth engines ---------------------------------------------------------------------------

def test_depth_of_reference_vectors():
    for vec, expected in ((VEC_EQUAL_1, 2), (VEC_EQUAL_2, 2), (VEC_MIDPOINT, 1)):
        dec = fourcycle_decomposition(vec)
        ideal = dec.intersection()
        assert depth_via_local_cohomology(ideal) == expected
        assert depth_via_koszul(ideal) == expected


def test_depth_squarefree_agrees_with_skeleton_formula():
    rng = random.Random(21)
    from tests.conftest import random_pure_complex

    for _ in range(20):
        cx = random_pure_complex(rng, n_max=5, r_max=4)
        ideal = stanley_reisner_ideal(cx)
        if not ideal.is_proper_nonzero:
            continue
        for field in (RATIONALS, F2):
            assert depth_via_local_cohomology(ideal, field) == depth_stanley_reisner(
                cx, field
            )
            assert depth_via_koszul(ideal, field) == depth_stanley_reisner(cx, field)


def test_depth_principal_single_variable():
    ideal = MonomialIdeal(1, [(1,)])
    assert depth_via_koszul(ideal) == 0
    assert depth_via_local_cohomology(ideal) == 0


def test_depth_rejects_degenerate():
    with pytest.raises(ValueError):
        depth_via_local_cohomology(MonomialIdeal(2, []))
    with pytest.raises(ValueError):
        depth_via_koszul(MonomialIdeal(2, [(0, 0)]))


@pytest.mark.parametrize("field, depth", [(RATIONALS, 3), (F3, 3), (F2, 2)], ids=["Q", "F3", "F2"])
def test_koszul_depth_of_the_projective_plane_depends_on_the_field(field, depth):
    # H~_1(RP^2) is Z/2: over F_2 it survives, so the Koszul homology of the
    # Stanley-Reisner ring reaches one index higher than over Q or F_3
    cx = Complex(6, RP2_FACETS)
    assert depth_via_koszul(stanley_reisner_ideal(cx), field) == depth
    assert depth_stanley_reisner(cx, field) == depth


def test_oracle_agreement_random():
    rng = random.Random(31)
    for _ in range(40):
        ideal = random_ideal(rng, n_max=3, gens_max=5, exp_max=3)
        if not ideal.is_proper_nonzero:
            continue
        for field in (RATIONALS, F2, F3):
            assert depth_via_local_cohomology(ideal, field) == depth_via_koszul(
                ideal, field
            )


@pytest.mark.slow
def test_oracle_agreement_five_variables():
    rng = random.Random(35)
    checked = 0
    while checked < 20:
        ideal = random_ideal(rng, n_max=5, gens_max=5, exp_max=3)
        if not ideal.is_proper_nonzero or ideal.n < 5:
            continue
        checked += 1
        for field in (RATIONALS, F2):
            assert depth_via_local_cohomology(ideal, field) == depth_via_koszul(
                ideal, field
            )


def raw_depth(ideal, field):
    """The least index of raw_local_cohomology, found index by index."""
    rho = ideal.max_exponents()
    return next(
        i for i in range(ideal.n + 1)
        if any(local_cohomology_dim(ideal, i, a, field) for a in depth_grid(rho))
    )


def test_the_depth_scan_leaves_its_radical_complex_to_the_caller(monkeypatch):
    # five variables: the scan starts at a minimum of 5 and builds a = 0
    ideal = MonomialIdeal(5, [(2, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 3, 1), (1, 0, 0, 0, 2)])
    scanned = []

    def recording(cx, field=RATIONALS):
        scanned.append(cx)
        return depth_stanley_reisner(cx, field)

    monkeypatch.setattr(criteria, "depth_stanley_reisner", recording)
    depth = depth_via_local_cohomology(ideal, RATIONALS)
    transversals = []

    def counting(masks):
        transversals.append(masks)
        return minimal_transversals(masks)

    monkeypatch.setattr(ideals, "minimal_transversals", counting)
    rc = radical_complex(ideal)
    assert rc is scanned[0] and transversals == []
    hits = depth_stanley_reisner.cache_info().hits
    assert depth_stanley_reisner(rc, RATIONALS) >= depth
    assert depth_stanley_reisner.cache_info().hits == hits + 1
    assert rc == swept_radical_complex(ideal)


def record_scan(monkeypatch, read):
    """Make depth_via_local_cohomology append to `read`, for each degree it
    reads, the tuple of its row masks and the scan's running least depth."""
    def reading(*rows):
        for masks in product(*rows):
            read.append((masks, sys._getframe(1).f_locals["best"]))  # the scan's frame
            yield masks

    monkeypatch.setattr(criteria, "product", reading)


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_depth_at_a_minimum_of_one_matches_raw_box(field, monkeypatch):
    # at a minimum of 1 only depth 0, a sole exceeder at every coordinate,
    # can lower it
    read = []
    record_scan(monkeypatch, read)
    rng = random.Random(67)
    ends = set()
    for _ in range(300):
        ideal = random_ideal(rng, n_max=5, exp_max=4)
        read.clear()
        depth = depth_via_local_cohomology(ideal, field)
        assert depth == raw_depth(ideal, field), ideal
        if any(best == 1 for _, best in read):
            ends.add(depth)
    # the branch both finds depth 0 and leaves the minimum at 1
    assert ends == {0, 1}


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_depth_in_two_variables_builds_no_complex(field, monkeypatch):
    # n <= 2: the scan starts at a minimum of n and reads every degree off
    # its row masks, so it builds neither the radical's complex nor another
    def refuse(*args):
        raise AssertionError("the scan built a complex")

    rng = random.Random(68)
    depths = set()
    for _ in range(100):
        ideal = random_ideal(rng, n_max=2, exp_max=4)
        with monkeypatch.context() as patch:
            for name in ("radical_complex", "degree_complex", "depth_stanley_reisner"):
                patch.setattr(criteria, name, refuse)
            patch.setattr(Complex, "_from_nonfaces", refuse)
            patch.setattr(Complex, "_set_facets", refuse)
            depth = depth_via_local_cohomology(ideal, field)
        assert ideal._radical is None
        assert depth == raw_depth(ideal, field), ideal
        depths.add((ideal.n, depth))
    assert depths == {(1, 0), (2, 0), (2, 1)}


@pytest.mark.parametrize("field", [RATIONALS, F2, F3], ids=str)
def test_polarization_shifts_depth_by_added_variables(field):
    rng = random.Random(33)
    checked = 0
    while checked < 8:
        ideal = random_ideal(rng, n_max=3, gens_max=3, exp_max=2)
        if not ideal.is_proper_nonzero:
            continue
        pol = polarization(ideal)
        if pol.n > 6:
            continue
        checked += 1
        d = depth_via_local_cohomology(ideal, field)
        dp = depth_via_local_cohomology(pol, field)
        assert dp == d + (pol.n - ideal.n)


# -- the depth-vs-radical decision -------------------------------------------------------------

def test_decision_on_reference_vectors():
    assert depth_equals_radical(fourcycle_decomposition(VEC_EQUAL_1)).equal
    assert depth_equals_radical(fourcycle_decomposition(VEC_EQUAL_2)).equal
    verdict = depth_equals_radical(fourcycle_decomposition(VEC_MIDPOINT))
    assert not verdict.equal
    assert verdict.t == 2
    facets = set(verdict.witness_subcomplex.facets)
    assert facets in ({(1, 2), (3, 4)}, {(2, 3), (1, 4)})
    # the witness degree must select exactly the witness subcomplex
    dec = fourcycle_decomposition(VEC_MIDPOINT)
    assert (
        degree_complex_facet_form(dec, verdict.witness_degree)
        == verdict.witness_subcomplex
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_decomposition_over_the_irrelevant_complex_has_equal_depth(n):
    # its one component is m-primary, so both depths are 0
    rng = random.Random(n)
    cx = Complex(n, [()])
    for _ in range(4):
        exps = [rng.randint(1, 4) for _ in range(n)]
        for comp in (irreducible_ideal(n, (), exps), prime_power_ideal(n, (), exps[0])):
            dec = Decomposition(cx, {(): comp})
            verdict = depth_equals_radical(dec, RATIONALS)
            assert (verdict.equal, verdict.t) == (True, 0)
            assert depth_via_local_cohomology(dec.intersection(), RATIONALS) == 0


def test_decision_trivial_for_squarefree():
    rng = random.Random(41)
    from tests.conftest import random_pure_complex
    from srdepth.ideals import Decomposition, prime_power_ideal

    for _ in range(10):
        cx = random_pure_complex(rng, n_max=5, r_max=4)
        if len(cx.facets[0]) == cx.n:
            continue
        dec = Decomposition(cx, {f: prime_power_ideal(cx.n, f, 1) for f in cx.facets})
        assert depth_equals_radical(dec).equal


def test_three_route_equivalence_random():
    # conditions (least local-cohomology index) vs degree scan vs selection scan
    rng = random.Random(42)
    for _ in range(25):
        dec = random_decomposition(rng, n_max=4, r_max=3, exp_max=2)
        for field in (RATIONALS, F2):
            verdict = depth_equals_radical(dec, field)
            direct = depth_via_local_cohomology(dec.intersection(), field)
            assert verdict.equal == (direct == verdict.t)


def test_depth_monotone_under_radical():
    rng = random.Random(43)
    for _ in range(30):
        ideal = random_ideal(rng, n_max=4, gens_max=5, exp_max=3)
        if not ideal.is_proper_nonzero:
            continue
        rad_depth = depth_stanley_reisner(radical_complex(ideal), RATIONALS)
        assert depth_via_local_cohomology(ideal, RATIONALS) <= rad_depth


# -- the breakpoint-class grid against the raw box ------------------------------------------------

def box_scan_decision(dec, field=RATIONALS):
    """The decision as a scan of every degree of the capped nonnegative box."""
    t = depth_stanley_reisner(dec.delta, field)
    for a in product(*[range(cap + 1) for cap in dec.max_exponents()]):
        cx = degree_complex_facet_form(dec, a)
        if cx.kind != VOID and depth_stanley_reisner(cx, field) < t:
            return False, t, a, cx.facets
    return True, t, None, None


def verdict_summary(verdict):
    w = verdict.witness_subcomplex
    return verdict.equal, verdict.t, verdict.witness_degree, w.facets if w else None


def box_depth(ideal, field, complex_at):
    """depth(S/I) from every degree of the raw local-cohomology grid: the
    complexes at a >= 0 from complex_at, those at the others swept."""
    rc = radical_complex(ideal)
    lows = []
    for a in depth_grid(ideal.max_exponents()):
        g = negative_support(a)
        cx = swept_degree_complex(ideal, a) if g else complex_at(a)
        if is_face(rc, g) and cx.kind != VOID:
            low = min_nonzero_betti(cx, field, cx.dim + 1)
            if low is not None:
                lows.append(g.bit_count() + 1 + low)
    return min(lows)


def fourcycle_vector(rng, top, on_system):
    reference = fourcycle_reference_system()
    while True:
        e = [rng.randint(1, top) for _ in range(8)]
        if on_system:
            (s1, b1), (k, l), (s2, b2) = rng.choice(FOURCYCLE_SYSTEMS)
            e[l - 1] = e[k - 1]
            e[s1 - 1] = min(e[s1 - 1], e[b1 - 1])
            e[s2 - 1] = min(e[s2 - 1], e[b2 - 1])
        if reference.evaluate(fourcycle_assignment(e)) == on_system:
            return tuple(e)


def test_decision_matches_box_scan_on_fourcycle():
    rng = random.Random(61)
    for on_system in (True, False) * 8:
        dec = fourcycle_decomposition(fourcycle_vector(rng, 12, on_system))
        verdict = depth_equals_radical(dec)
        assert verdict.equal == on_system
        assert verdict_summary(verdict) == box_scan_decision(dec)


def test_decision_leaves_of_radical_depth_two_build_no_subcomplex():
    # the 4-cycle has t = 2: every leaf is answered from its facets, by the
    # pair rule or by connectivity, so only the 4-cycle's own depth is taken
    rng = random.Random(64)
    for on_system in (True, False) * 4:
        dec = fourcycle_decomposition(fourcycle_vector(rng, 12, on_system))
        depth_stanley_reisner.cache_clear()
        homology._selections.cache_clear()
        verdict = depth_equals_radical(dec)
        assert depth_stanley_reisner.cache_info().currsize == 1
        assert verdict.equal == on_system
        assert verdict_summary(verdict) == box_scan_decision(dec)


@pytest.mark.slow
@pytest.mark.parametrize("field", [RATIONALS, F2], ids=str)
def test_decision_matches_box_scan_on_the_benchmark_round(field):
    # the seed-1 round of the decision workload: 12 groups of four 4-cycle
    # decompositions and one decomposition of each pool complex
    unequal = 0
    for item in bench_corpus.decision_corpus(1, 12):
        dec = Decomposition.from_json_dict(item.data)
        verdict = depth_equals_radical(dec, field)
        assert verdict_summary(verdict) == box_scan_decision(dec, field), item.family
        unequal += not verdict.equal
    assert 0 < unequal < 12 * (4 + len(bench_corpus.DECISION_POOL))


@pytest.mark.slow
@pytest.mark.parametrize("field", [RATIONALS, F2], ids=str)
def test_ideal_depth_matches_raw_box_on_the_benchmark_round(field):
    # the seed-1 round of the ideal-depth workload: 8 groups of 16 random
    # ideals in 5 and 6 variables and one m-primary ideal
    for item in bench_corpus.ideal_depth_corpus(1, 8):
        ideal = MonomialIdeal.from_json_dict(item.data)
        assert depth_via_local_cohomology(ideal, field) == raw_depth(ideal, field), item.family
        rc = radical_complex(ideal)
        assert rc == swept_radical_complex(ideal), item.family
        assert depth_stanley_reisner(rc, field) == raw_depth(ideal.radical(), field), item.family


@pytest.mark.slow
def test_the_depth_scan_reads_each_degree_once_on_the_benchmark_round(monkeypatch):
    # the seed-1 round of the ideal-depth workload over Q: the scan reads
    # each degree's row masks once, in the grid's order, builds nothing at
    # a degree with x^a in I, and never goes through degree_complex
    read, voids = [], []

    def refuse(*args):
        raise AssertionError("the scan checked or built a degree complex by its degree")

    set_facets = Complex._set_facets

    def building(cx, n, fmasks):
        if not fmasks:
            voids.append(n)
        set_facets(cx, n, fmasks)

    visited = 0
    for item in bench_corpus.ideal_depth_corpus(1, 8):
        ideal = MonomialIdeal.from_json_dict(item.data)
        read.clear()
        with monkeypatch.context() as patch:
            record_scan(patch, read)
            patch.setattr(criteria, "_check_degree", refuse)
            patch.setattr(criteria, "degree_complex", refuse)
            patch.setattr(Complex, "_set_facets", building)
            depth = depth_via_local_cohomology(ideal, RATIONALS)
        grid = list(product(*_class_grid(ideal.n, ideal.gens)))
        assert [masks for masks, _ in read] == [
            exceeding(ideal, a) for a in grid[:len(read)]], item.family
        assert len(read) == len(grid) or depth == 0, item.family
        assert depth == raw_depth(ideal, RATIONALS), item.family
        visited += len(read)
    assert visited == 1665
    assert voids == []


def decomposition_in_form(rng, form, n_max, exp_max):
    """A random unmixed decomposition whose components all have one JSON form."""
    cx = random_pure_complex(rng, n_max=n_max, r_max=5)
    while len(cx.facets) < 2:
        cx = random_pure_complex(rng, n_max=n_max, r_max=5)
    return decomposition_over(rng, cx, form, exp_max)


def decomposition_over(rng, cx, form, exp_max):
    """A random unmixed decomposition over cx whose components all have one JSON form."""
    comps = {}
    for f in cx.facets:
        if form == "irreducible":
            exps = [rng.randint(1, exp_max) for _ in range(cx.n - len(f))]
            comps[f] = irreducible_ideal(cx.n, f, exps)
        elif form == "power":
            comps[f] = prime_power_ideal(cx.n, f, rng.randint(1, exp_max))
        else:
            comps[f] = random_primary(rng, cx.n, f, exp_max)
    return Decomposition(cx, comps)


@pytest.mark.parametrize("form", ["irreducible", "power", "generators"])
def test_decision_matches_box_scan_random(form):
    rng = random.Random(62)
    unequal = 0
    for k in range(60):
        dec = decomposition_in_form(rng, form, n_max=6, exp_max=3)
        field = F2 if k % 4 == 0 else RATIONALS
        verdict = depth_equals_radical(dec, field)
        assert verdict_summary(verdict) == box_scan_decision(dec, field)
        unequal += not verdict.equal
    assert unequal >= 3


def exceeding(ideal, a):
    """Per coordinate j, the generators (bits in the order of ideal.gens)
    whose x_j exponent exceeds a_j."""
    return tuple(
        sum(1 << b for b, g in enumerate(ideal.gens) if g[j] > x) for j, x in enumerate(a))


def assert_exceed_rows(n, gens):
    grid, rows = _exceed_rows(n, gens)
    assert grid == _class_grid(n, gens)
    assert len(rows) == n
    for j in range(n):
        assert rows[j] == [
            sum(1 << b for b, g in enumerate(gens) if g[j] > v) for v in grid[j]
        ], (gens, j)


def test_exceed_rows_are_the_exceeding_generators():
    # x_2 is used by no generator and x_1, x_4 by every one
    gens = [(2, 0, 1, 3), (1, 0, 0, 3), (3, 0, 2, 5), (1, 0, 4, 1)]
    assert _exceed_rows(4, gens) == (
        [[0, 1, 2], [0], [0, 1, 2], [0, 1, 3]],
        [[0b1111, 0b0101, 0b0100], [0], [0b1101, 0b1100, 0b1000], [0b1111, 0b0111, 0b0100]],
    )
    assert_exceed_rows(4, gens)
    # one component on a cone: x_1, x_2 unused, x_3 in the one generator
    dec = Decomposition(Complex(3, [(1, 2)]), {(1, 2): prime_power_ideal(3, (1, 2), 4)})
    assert _exceed_rows(3, dec.components[0].gens) == ([[0], [0], [0]], [[0], [0], [1]])
    rng = random.Random(66)
    unused = 0
    for k in range(150):
        dec = decomposition_in_form(rng, ("irreducible", "power", "generators")[k % 3], 7, 5)
        gens = [g for comp in dec.components for g in comp.gens]
        assert_exceed_rows(dec.n, gens)
        unused += sum(not any(column) for column in zip(*gens))
    assert unused > 0


@pytest.mark.parametrize("facets", [[(1, 2), (3, 4)], [(1,), (2,), (3,)], [(1,), (2,)]])
def test_decision_below_radical_depth_two_walks_no_grid(monkeypatch, facets):
    # a disconnected complex has t = 1, and no selection has depth below 1
    cx = Complex(max(map(max, facets)), facets)
    calls = []

    def counting(*args):
        calls.append(args)
        return _generated_below(*args)

    monkeypatch.setattr(homology, "_generated_below", counting)
    rng = random.Random(67)
    for k in range(6):
        comps = {
            f: irreducible_ideal(cx.n, f, [rng.randint(1, 3) for _ in range(cx.n - len(f))])
            if k % 2 else random_primary(rng, cx.n, f, 3)
            for f in cx.facets
        }
        dec = Decomposition(cx, comps)
        verdict = depth_equals_radical(dec, F2 if k % 3 == 0 else RATIONALS)
        assert verdict_summary(verdict) == box_scan_decision(dec) == (True, 1, None, None)
    assert not calls
    # at exponent 300 the grid has 300 classes on each coordinate; none is walked
    big = Decomposition(cx, {f: prime_power_ideal(cx.n, f, 300) for f in cx.facets})
    for field in (RATIONALS, F2):
        assert verdict_summary(depth_equals_radical(big, field)) == (True, 1, None, None)
    assert not calls


TETRAHEDRON_BOUNDARY = Complex(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
CONE_OVER_THREE_POINTS = Complex(4, [(1, 2), (1, 3), (1, 4)])
FORMS = ("irreducible", "power", "generators")


def count_decision_calls(monkeypatch, *names):
    """Replace each named helper of criteria, or else of homology, by one
    that records its arguments under its name and then calls it."""
    calls = {name: [] for name in names}
    for name in names:
        module = criteria if hasattr(criteria, name) else homology
        def counting(*args, name=name, original=getattr(module, name)):
            calls[name].append(args)
            return original(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("cx, field, t", [
    (TETRAHEDRON_BOUNDARY, RATIONALS, 3),
    (TETRAHEDRON_BOUNDARY, F2, 3),
    (CONE_OVER_THREE_POINTS, RATIONALS, 2),
    (CONE_OVER_THREE_POINTS, F2, 2),
    (Complex(6, RP2_FACETS), F2, 2),
], ids=["tetrahedron-boundary-Q", "tetrahedron-boundary-F2", "cone-Q", "cone-F2", "rp2-F2"])
def test_rigid_complexes_decide_with_no_table_and_no_leaf(monkeypatch, cx, field, t):
    # every k facets meet in at least t - k + 1 vertices: the complex has
    # rigid depth, so every decomposition over it has depth t
    assert depth_stanley_reisner(cx, field) == t
    assert _thin_intersection(cx.facet_masks, t) is None
    homology._selections.cache_clear()
    calls = count_decision_calls(monkeypatch, "_exceed_rows", "_generated_below")
    rng = random.Random(68)
    for k in range(9):
        dec = decomposition_over(rng, cx, FORMS[k % 3], exp_max=2)
        verdict = depth_equals_radical(dec, field)
        assert verdict_summary(verdict) == box_scan_decision(dec, field) == (True, t, None, None)
    assert calls == {"_exceed_rows": [], "_generated_below": []}


def test_rigid_complex_decides_a_power_300_at_once(monkeypatch):
    # at exponent 300 the grid has 300 classes on each coordinate; none is walked
    homology._selections.cache_clear()
    calls = count_decision_calls(monkeypatch, "_exceed_rows", "_generated_below")
    cx = TETRAHEDRON_BOUNDARY
    big = Decomposition(cx, {f: prime_power_ideal(cx.n, f, 300) for f in cx.facets})
    for field in (RATIONALS, F2):
        assert verdict_summary(depth_equals_radical(big, field)) == (True, 3, None, None)
    assert calls == {"_exceed_rows": [], "_generated_below": []}


def test_the_selection_memo_is_kept_per_field():
    # projective_plane_6 has t = 3 over Q, where it is not rigid, and t = 2
    # over F_2, where it is: a memo shared by the fields answers one of them
    # from the other's selections
    cx = Complex(6, RP2_FACETS)
    assert _thin_intersection(cx.facet_masks, depth_stanley_reisner(cx, RATIONALS)) is not None
    homology._selections.cache_clear()
    rng = random.Random(69)
    unequal = 0
    for k in range(12):
        dec = decomposition_over(rng, cx, FORMS[k % 3], exp_max=2)
        for field in (F2, RATIONALS) if k % 2 else (RATIONALS, F2):
            verdict = depth_equals_radical(dec, field)
            assert verdict_summary(verdict) == box_scan_decision(dec, field), (k, str(field))
            unequal += not verdict.equal
    assert unequal > 0


def test_the_selection_memo_fills_only_the_leaves_walked(monkeypatch):
    # 16 facets have 2^16 - 2 proper selections; the search meets a witness
    # early and asks only the selections of its leaves, each once, and an
    # equal complex parsed anew finds them all in the memo
    rng = random.Random(1)
    facets = [list(f) for f in rng.sample(list(combinations(range(1, 9), 4)), 16)]
    data = {"complex": {"n": 8, "facets": facets}, "components": [
        {"facet": f, "irreducible": [rng.randint(1, 3) for _ in range(4)]} for f in facets
    ]}
    homology._selections.cache_clear()
    calls = count_decision_calls(monkeypatch, "_generated_below")["_generated_below"]
    dec = Decomposition.from_json_dict(data)
    verdict = depth_equals_radical(dec)
    assert verdict_summary(verdict) == box_scan_decision(dec)
    assert not verdict.equal and verdict.t == 3
    # a selection is asked at s = t, the depth lemma's intersections at t - 1
    asked = [tuple(masks) for _, masks, s, _ in calls if s == verdict.t]
    assert len(asked) == len(set(asked)) < 100
    first = len(calls)
    again = Decomposition.from_json_dict(data)
    assert again.delta is not dec.delta
    assert verdict_summary(depth_equals_radical(again)) == verdict_summary(verdict)
    assert len(calls) == first


def test_decisions_after_a_cone_union_reask_none_of_its_answers(monkeypatch):
    # t = 3 and not rigid: 24 of the 62 proper selections fall below 3.
    # The cone union's walk asks each selection or stores it True as
    # covered by a smaller low one, so the decision's leaves over an equal
    # complex parsed anew read every answer and ask nothing
    cx = Complex(5, [(1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 3, 5), (1, 4, 5), (2, 4, 5)])
    homology._selections.cache_clear()
    assert depth_stanley_reisner(cx, RATIONALS) == 3
    assert _thin_intersection(cx.facet_masks, 3) is not None
    assert len(generate_cone_union(cx, RATIONALS).disjuncts) == 14
    sels = homology._selections(cx, RATIONALS)
    by_union = dict(sels.answers)
    asked = []
    below = homology._Selections.below

    def recording(self, bits, idx):
        asked.append(bits)
        return below(self, bits, idx)

    monkeypatch.setattr(homology._Selections, "below", recording)
    rng = random.Random(36)
    ends = set()  # the selections the unequal verdicts end at
    for k in range(12):
        again = Complex.from_json_dict(cx.to_json_dict())
        assert again is not cx and homology._selections(again, RATIONALS) is sels
        dec = decomposition_over(rng, again, FORMS[k % 3], exp_max=3)
        verdict = depth_equals_radical(dec, RATIONALS)
        assert verdict_summary(verdict) == box_scan_decision(dec, RATIONALS), k
        if not verdict.equal:
            ends.add(sum(1 << cx.facets.index(f) for f in verdict.witness_subcomplex.facets))
    assert len(by_union) == 64 and asked == []
    assert sels.answers == by_union
    assert ends & {bits for bits, found in by_union.items() if found}


def test_the_selection_memo_holds_only_booleans():
    # a cone union and then decisions over one complex, some of them taking
    # a witness, some twice: the memo keeps each answer as a bool, and the
    # witness subcomplexes are kept apart from it, by selection
    cx = Complex(5, [(1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 3, 5), (1, 4, 5), (2, 4, 5)])
    homology._selections.cache_clear()
    generate_cone_union(cx, RATIONALS)
    rng = random.Random(40)
    unequal = 0
    for k in range(12):
        dec = decomposition_over(rng, cx, FORMS[k % 3], exp_max=3)
        verdict = depth_equals_radical(dec, RATIONALS)
        assert verdict_summary(verdict) == box_scan_decision(dec, RATIONALS), k
        assert verdict_summary(depth_equals_radical(dec, RATIONALS)) == verdict_summary(verdict)
        unequal += not verdict.equal
    assert unequal > 0
    answers = homology._selections(cx, RATIONALS).answers
    assert {type(found) for found in answers.values()} == {bool}


def test_a_witness_is_built_once_per_complex_field_and_selection():
    # decompositions over equal complexes, each parsed anew, that end at one
    # selection return one witness object; F_2 keeps its own, and the
    # answers stay bools
    cx = Complex(5, [(1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 3, 5), (1, 4, 5), (2, 4, 5)])
    homology._selections.cache_clear()
    rng = random.Random(42)
    kept, repeats = {}, 0
    for k in range(24):
        again = Complex.from_json_dict(cx.to_json_dict())
        dec = decomposition_over(rng, again, FORMS[k % 3], exp_max=3)
        for field in (RATIONALS, F2):
            verdict = depth_equals_radical(dec, field)
            assert verdict_summary(verdict) == box_scan_decision(dec, field), (k, str(field))
            if not verdict.equal:
                w = verdict.witness_subcomplex
                key = (w.facets, field)
                repeats += key in kept
                assert kept.setdefault(key, w) is w, (k, str(field))
    assert repeats > 0
    both = {facets for facets, field in kept if field is F2} & {
        facets for facets, field in kept if field is RATIONALS}
    assert both
    for facets in both:
        assert kept[facets, RATIONALS] == kept[facets, F2]
        assert kept[facets, RATIONALS] is not kept[facets, F2]
    for field in (RATIONALS, F2):
        sels = homology._selections(cx, field)
        assert sorted(map(id, sels.witnesses.values())) == sorted(
            id(w) for (_, f), w in kept.items() if f is field)
        assert {type(found) for found in sels.answers.values()} == {bool}


def test_depth_scans_match_raw_box_on_random_ideals():
    rng = random.Random(63)
    checked = 0
    while checked < 40:
        ideal = random_ideal(rng, n_max=5, gens_max=4, exp_max=6)
        if not ideal.is_proper_nonzero:
            continue
        checked += 1
        for field in (RATIONALS, F2, F3):
            expected = box_depth(ideal, field, lambda a: degree_complex(ideal, a))
            assert depth_via_local_cohomology(ideal, field) == expected, (ideal, field)


def seeded_scan_ideal(rng, n):
    """Generators on 1 to 3 variables; small exponents keep the raw box small.
    One in four is cut by (x_1^2, ..., x_n^2), which tends to make depth 0
    appear at a degree the scan reaches after its minimum has fallen."""
    top = 3 if n <= 4 else 2
    gens = []
    for _ in range(rng.randint(1, 6)):
        g = [0] * n
        for j in rng.sample(range(n), rng.randint(1, min(n, 3))):
            g[j] = rng.randint(1, top)
        gens.append(g)
    ideal = MonomialIdeal(n, gens)
    if rng.random() < 0.25:
        ideal = ideal.intersect(MonomialIdeal(n, [[2 * (i == j) for i in range(n)] for j in range(n)]))
    return ideal


def test_depth_scan_matches_the_box_on_every_final_depth():
    # the scan reads depths <= 2 from nonfaces once its minimum is 2 or less;
    # the box asks every degree complex for its least Betti number
    rng = random.Random(65)
    seen = set()
    for k in range(280):
        ideal = seeded_scan_ideal(rng, 1 + k % 7)
        if not ideal.is_proper_nonzero:
            continue
        for field in (RATIONALS, F2, F3):
            expected = box_depth(ideal, field, lambda a: degree_complex(ideal, a))
            assert depth_via_local_cohomology(ideal, field) == expected, (ideal, field)
            seen.add(min(expected, 3))
    assert seen == {0, 1, 2, 3}


def seeded_row_ideal(rng, n):
    """Generators on 1 to 4 variables with exponents up to 12, leaving some
    variables unused; one in four is made m-primary by a pure power of
    every variable."""
    used = rng.sample(range(n), rng.randint(1, n))
    gens = []
    for _ in range(rng.randint(1, 5 if n <= 4 else 3)):
        g = [0] * n
        for j in rng.sample(used, rng.randint(1, min(len(used), 4))):
            g[j] = rng.randint(1, 12)
        gens.append(g)
    if rng.random() < 0.25:
        gens += [[rng.randint(1, 12) * (i == j) for i in range(n)] for j in range(n)]
    return MonomialIdeal(n, gens)


def test_row_scan_matches_the_excess_set_scan():
    # the scan reads each degree off its row masks; the oracle reads the
    # excess sets off every generator's support at the grid's degrees
    rng = random.Random(69)
    ideals = [seeded_row_ideal(rng, 1 + k % 7) for k in range(700)]
    ideals.append(MonomialIdeal(4, [(10**17, 1, 0, 0), (0, 2, 3, 0), (5, 0, 0, 1)]))
    kinds = {"unused": 0, "m-primary": 0, "n=1": 0}
    seen = set()
    for ideal in ideals:
        if not ideal.is_proper_nonzero:
            continue
        grid, rows = _exceed_rows(ideal.n, ideal.gens)
        assert grid == _class_grid(ideal.n, ideal.gens), ideal
        kinds["unused"] += any(row == [0] for row in rows)
        kinds["m-primary"] += ideal.n > 1 and all(
            any(g[j] and not any(g[:j] + g[j + 1:]) for g in ideal.gens) for j in range(ideal.n))
        kinds["n=1"] += ideal.n == 1
        for field in (RATIONALS, F2, F3):
            depth = depth_via_local_cohomology(ideal, field)
            assert depth == excess_set_depth(ideal, field), (ideal, str(field))
            seen.add(min(depth, 3))
    assert min(kinds.values()) > 0, kinds
    assert seen == {0, 1, 2, 3}


def test_depth_is_at_most_the_radical_depth():
    # Herzog-Takayama-Terai: depth S/I <= depth S/sqrt(I) = depth K[radical_complex(I)]
    rng = random.Random(70)
    for k in range(700):
        ideal = seeded_row_ideal(rng, 1 + k % 7)
        if not ideal.is_proper_nonzero:
            continue
        for field in (RATIONALS, F2, F3):
            radical_depth = depth_stanley_reisner(radical_complex(ideal), field)
            assert depth_via_local_cohomology(ideal, field) <= radical_depth, (ideal, str(field))


@pytest.mark.parametrize("gens, depth", [
    ([(1, 0)], 1),
    ([(2, 0)], 1),
    ([(2, 1)], 1),
    ([(1, 1)], 1),
    ([(2, 0), (1, 1)], 0),
    ([(3, 0), (1, 2)], 0),
    ([(2, 0), (0, 3)], 0),
])
def test_two_variables_need_no_complex_depth(monkeypatch, gens, depth):
    # with n = 2 the running minimum starts at 2, so every degree is read
    # from its nonfaces
    def refuse(*args):
        raise AssertionError("depth_stanley_reisner called")

    monkeypatch.setattr(criteria, "depth_stanley_reisner", refuse)
    assert depth_via_local_cohomology(MonomialIdeal(2, gens), RATIONALS) == depth


def complex_from_nonfaces(n, masks):
    """The complex whose minimal nonfaces are the minimal masks, via Berge."""
    full = (1 << n) - 1
    return Complex._from_masks(n, [full & ~t for t in minimal_transversals(masks)])


def nonempty_antichains(n):
    masks = range(1, 1 << n)
    for pick in range(1 << len(masks)):
        chosen = [m for b, m in enumerate(masks) if pick >> b & 1]
        if all(x & y not in (x, y) for x, y in combinations(chosen, 2)):
            yield chosen


def test_depth_to_two_reads_every_small_antichain():
    for n in range(1, 5):
        count = 0
        for masks in nonempty_antichains(n):
            cx = complex_from_nonfaces(n, masks)
            for field in (RATIONALS, F2):
                assert _depth_to_two(n, masks) == min(depth_stanley_reisner(cx, field), 2), masks
            count += 1
        # Dedekind numbers, less the antichain of the empty set
        assert count == {1: 2, 2: 5, 3: 19, 4: 167}[n]


def test_depth_to_two_on_seeded_nonface_families():
    # drawn as excess sets come: repeated and nested masks, and their antichain
    rng = random.Random(66)
    for _ in range(300):
        n = rng.randint(5, 7)
        masks = [
            sum(1 << j for j in rng.sample(range(n), rng.choice((1, 2, 2, 3, 4))))
            for _ in range(rng.randint(0, 10))
        ]
        cx = complex_from_nonfaces(n, masks)
        expected = min(depth_stanley_reisner(cx, RATIONALS), 2)
        assert min(depth_stanley_reisner(cx, F2), 2) == expected
        assert _depth_to_two(n, masks) == expected, masks
        minimal = [m for m in masks if not any(o & m == o != m for o in masks)]
        assert _depth_to_two(n, list(set(minimal))) == expected


@pytest.mark.parametrize("name, n, nonfaces, facets, depth", [
    ("irrelevant", 3, [0b001, 0b010, 0b100], [()], 0),
    ("one point", 3, [0b010, 0b100], [(1,)], 1),
    ("two points", 2, [0b11], [(1,), (2,)], 1),
    ("an edge", 3, [0b100], [(1, 2)], 2),
    ("a path", 3, [0b101], [(1, 2), (2, 3)], 2),
    ("a hollow triangle", 3, [0b111], [(1, 2), (1, 3), (2, 3)], 2),
    ("a triangle and an edge", 5,
     [0b01001, 0b01010, 0b01100, 0b10001, 0b10010, 0b10100], [(1, 2, 3), (4, 5)], 1),
])
def test_depth_to_two_named_cases(name, n, nonfaces, facets, depth):
    assert complex_from_nonfaces(n, nonfaces) == Complex(n, facets), name
    assert _depth_to_two(n, nonfaces) == depth, name


def test_depth_of_a_cone_ideal_in_many_variables():
    # (x1) in 20 variables: every degree complex is a simplex on x2..x20
    ideal = MonomialIdeal(20, [(1,) + (0,) * 19])
    assert depth_via_local_cohomology(ideal, RATIONALS) == 19
    assert depth_via_local_cohomology(ideal, F2) == 19


def test_unmixed_depth_scan_matches_raw_box():
    rng = random.Random(64)
    for form in ("irreducible", "power", "generators") * 6:
        dec = decomposition_in_form(rng, form, n_max=5, exp_max=3)
        expected = box_depth(
            dec.intersection(), RATIONALS, lambda a: degree_complex_unmixed(dec, a)
        )
        assert depth_via_local_cohomology(dec.intersection(), RATIONALS) == expected


def test_excess_sets_read_only_the_supports():
    # oracle: every coordinate of every generator
    rng = random.Random(25)
    for _ in range(400):
        ideal = random_ideal(rng, n_max=6)
        a = [rng.randint(0, 3) for _ in range(ideal.n)]
        sets = [sum(1 << j for j, (e, x) in enumerate(zip(g, a)) if e > x) for g in ideal.gens]
        expected = sets if all(sets) else None
        assert _excess_sets(_supports(ideal), a) == expected, (ideal, a)
