import json
import random
from itertools import combinations, product
from math import prod

import pytest

from bench import corpus as bench_corpus
from srdepth import criteria, ideals
from srdepth.criteria import (
    _class_grid,
    _depth_to_two,
    _excess_sets,
    _supports,
    degree_complex,
    degree_complex_facet_form,
    degree_complex_unmixed,
    degree_selecting_witness,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
    local_cohomology_table,
    negative_support,
)
from srdepth.homology import RATIONALS, depth_stanley_reisner, min_nonzero_betti, prime_field
from srdepth.ideals import (
    Decomposition,
    MonomialIdeal,
    irreducible_ideal,
    prime_power_ideal,
    radical_complex,
    stanley_reisner_ideal,
)
from srdepth.simplicial import VOID, Complex, minimal_transversals
from tests.conftest import (
    FIXTURES,
    FOURCYCLE_SYSTEMS,
    VEC_EQUAL_1,
    VEC_EQUAL_2,
    VEC_MIDPOINT,
    depth_grid,
    fourcycle_assignment,
    fourcycle_decomposition,
    fourcycle_reference_system,
    is_face,
    local_cohomology_dim,
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
        for a in product(*[[-1] + list(range(c)) for c in caps]):
            assert degree_complex_unmixed(dec, a) == degree_complex(ideal, a)


def test_degree_complex_purity():
    # nonvoid degree complexes of unmixed ideals are pure of complementary dim
    rng = random.Random(13)
    for _ in range(25):
        dec = random_decomposition(rng, n_max=5, r_max=4, exp_max=2)
        caps = dec.max_exponents()
        for a in product(*[[-1] + list(range(c)) for c in caps]):
            cx = degree_complex_unmixed(dec, a)
            if cx.kind == VOID:
                continue
            g = negative_support(a).bit_count()
            assert cx.is_pure
            assert cx.dim == dec.delta.dim - g


def test_degree_complex_matches_sweep_oracle():
    # every class-grid degree (negative coordinates included) of 90 ideals
    rng = random.Random(14)
    for k in range(90):
        n = 2 + k % 6
        gens = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        ideal = MonomialIdeal(n, gens)
        for a in product(*[[-1] + reps for reps in _class_grid(n, ideal.gens)]):
            assert degree_complex(ideal, a) == swept_degree_complex(ideal, a), (ideal, a)


def test_degree_complex_edge_cases():
    # the zero ideal gives the simplex on the free coordinates; a generator
    # whose excess lies in G_a gives the void complex
    assert degree_complex(MonomialIdeal(3, []), (-1, 0, 5)).facets == ((2, 3),)
    assert degree_complex(MonomialIdeal(2, [(2, 0)]), (-1, 0)).kind == VOID
    assert degree_complex(MonomialIdeal(2, [(0, 0)]), (0, 0)).kind == VOID


def test_negative_coordinates_only_matter_by_sign():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    ideal = dec.intersection()
    assert degree_complex(ideal, (-1, 2, 0, 1)) == degree_complex(ideal, (-9, 2, 0, 1))


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

def in_class(cell, a) -> bool:
    """Whether the degree a lies in the breakpoint class of the cell."""
    return all(
        x < 0 if lo < 0 else lo <= x < hi for lo, hi, x in zip(cell.degree, cell.upper, a)
    )


def test_local_cohomology_negative_index():
    ideal = MonomialIdeal(2, [(1, 1)])
    assert local_cohomology_dim(ideal, -1, (0, 0)) == 0
    assert all(c.index >= 0 for c in local_cohomology_table(ideal))


def test_local_cohomology_vanishing_beyond_caps():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    ideal = dec.intersection()
    rho = ideal.max_exponents()
    table = local_cohomology_table(ideal)
    assert all(u <= r for c in table for u, r in zip(c.upper, rho))
    rng = random.Random(3)
    for _ in range(30):
        a = tuple(rng.randint(-2, rho[j] + 2) for j in range(4))
        if any(a[j] >= rho[j] for j in range(4)):
            assert not any(in_class(c, a) for c in table)


def test_local_cohomology_vanishes_below_depth_for_cm():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    ideal = dec.intersection()
    table = local_cohomology_table(ideal)
    assert table and all(c.index >= 2 for c in table)


def test_two_points_table():
    ideal = MonomialIdeal(2, [(1, 1)])
    cells = local_cohomology_table(ideal)
    assert all(c.index == 1 for c in cells)
    degrees = {c.degree for c in cells}
    assert degrees == {(0, 0), (0, -1), (-1, 0)}
    # every class of the grid {-1, 0}^2 is a single degree
    assert all(c.degrees == 1 for c in cells)
    assert {c.upper for c in cells} == {(1, 1), (1, 0), (0, 1)}


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


def class_key(ideal, a):
    """The least point of the breakpoint class of the degree a."""
    return tuple(
        -1 if x < 0 else max(v for v in (0, *(g[j] for g in ideal.gens)) if v <= x)
        for j, x in enumerate(a)
    )


def check_class_table(ideal, field):
    table = local_cohomology_table(ideal, field)
    raw = raw_local_cohomology(ideal, field)
    # the same total dimension per index
    totals, raw_totals = {}, {}
    for c in table:
        totals[c.index] = totals.get(c.index, 0) + c.degrees * c.dimension
    for i, _, d in raw:
        raw_totals[i] = raw_totals.get(i, 0) + d
    assert totals == raw_totals
    # each raw piece has the dimension of its class
    by_class = {(c.index, c.degree): c for c in table}
    assert len(by_class) == len(table)
    for i, a, d in raw:
        cell = by_class[(i, class_key(ideal, a))]
        assert in_class(cell, a)
        assert cell.dimension == d
    # a class's degrees count its points, a negative coordinate once
    for c in table:
        assert c.degrees == prod(1 if lo < 0 else hi - lo for lo, hi in zip(c.degree, c.upper))
    assert table[0].index == raw[0][0] == depth_via_local_cohomology(ideal, field)


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_class_table_matches_raw_box_on_fixtures(field):
    ideals = fixture_ideals()
    assert len(ideals) == 10
    for ideal in ideals:
        check_class_table(ideal, field)


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_class_table_matches_raw_box_on_random_ideals(field):
    rng = random.Random(47)
    checked = 0
    while checked < 120:
        ideal = random_ideal(rng, n_max=4, exp_max=4)
        if ideal.is_proper_nonzero:
            check_class_table(ideal, field)
            checked += 1


def test_class_table_at_huge_exponent():
    # one class covers 10**17 degrees; the raw grid would not fit in memory
    big = 10**17
    table = local_cohomology_table(MonomialIdeal(3, [(big, 0, 1)]))
    assert table[0].index == 2
    assert {(c.degree, c.upper, c.degrees) for c in table} == {
        ((-1, -1, 0), (0, 0, 1), 1),
        ((0, -1, -1), (big, 0, 0), big),
        ((0, -1, 0), (big, 0, 1), big),
    }


def test_table_least_index_is_depth():
    # `srdepth local-cohomology` reports the table's least index as the depth
    rng = random.Random(31)
    for _ in range(40):
        ideal = random_ideal(rng, n_max=5, exp_max=4)
        table = local_cohomology_table(ideal)
        assert table[0].index == depth_via_local_cohomology(ideal)


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


def test_oracle_agreement_random():
    rng = random.Random(31)
    for _ in range(40):
        ideal = random_ideal(rng, n_max=3, gens_max=5, exp_max=3)
        if not ideal.is_proper_nonzero:
            continue
        for field in (RATIONALS, F2):
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


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_depth_at_a_minimum_of_one_matches_raw_box(field, monkeypatch):
    # at a minimum of 1 the scan reads only the 1-element excess sets
    bests = []

    def recording(n, excess, best=2):
        bests.append(best)
        return _depth_to_two(n, excess, best)

    monkeypatch.setattr(criteria, "_depth_to_two", recording)
    rng = random.Random(67)
    ends = set()
    for _ in range(300):
        ideal = random_ideal(rng, n_max=5, exp_max=4)
        bests.clear()
        depth = depth_via_local_cohomology(ideal, field)
        assert depth == raw_depth(ideal, field), ideal
        if 1 in bests:
            ends.add(depth)
    # the branch both finds depth 0 and leaves the minimum at 1
    assert ends == {0, 1}


@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_depth_in_two_variables_builds_no_complex(field, monkeypatch):
    # n <= 2: the scan starts at a minimum of n and reads every degree off
    # its excess sets, so it builds neither the radical's complex nor another
    def refuse(*args):
        raise AssertionError("the scan built a complex")

    monkeypatch.setattr(criteria, "radical_complex", refuse)
    monkeypatch.setattr(criteria, "degree_complex", refuse)
    rng = random.Random(68)
    depths = set()
    for _ in range(100):
        ideal = random_ideal(rng, n_max=2, exp_max=4)
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
    from srdepth.ideals import Decomposition, prime_ideal

    for _ in range(10):
        cx = random_pure_complex(rng, n_max=5, r_max=4)
        if len(cx.facets[0]) == cx.n:
            continue
        dec = Decomposition(cx, {f: prime_ideal(cx.n, f) for f in cx.facets})
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
    """depth(S/I) from every degree of the raw local-cohomology grid."""
    rc = radical_complex(ideal)
    lows = []
    for a in depth_grid(ideal.max_exponents()):
        g = negative_support(a)
        cx = complex_at(a)
        if is_face(rc, g) and cx.kind != VOID:
            low = min_nonzero_betti(cx, field)
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


def decomposition_in_form(rng, form, n_max, exp_max):
    """A random unmixed decomposition whose components all have one JSON form."""
    cx = random_pure_complex(rng, n_max=n_max, r_max=5)
    while len(cx.facets) < 2:
        cx = random_pure_complex(rng, n_max=n_max, r_max=5)
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
    assert [c.index for c in local_cohomology_table(ideal, F2)] == [19]


def test_unmixed_depth_scan_matches_raw_box():
    rng = random.Random(64)
    for form in ("irreducible", "power", "generators") * 6:
        dec = decomposition_in_form(rng, form, n_max=5, exp_max=3)
        expected = box_depth(
            dec.intersection(), RATIONALS, lambda a: degree_complex_unmixed(dec, a)
        )
        assert depth_via_local_cohomology(dec.intersection(), RATIONALS) == expected


def test_excess_sets_read_only_the_supports():
    # oracle: every coordinate of every generator, masked by free afterwards;
    # degree_complex passes the coordinates outside G_a, the depth scan all
    rng = random.Random(25)
    for _ in range(400):
        ideal = random_ideal(rng, n_max=6)
        full = (1 << ideal.n) - 1
        a = [rng.randint(-1, 3) for _ in range(ideal.n)]
        for b, free in ((a, full & ~negative_support(a)), ([max(x, 0) for x in a], full)):
            sets = [sum(1 << j for j, (e, x) in enumerate(zip(g, b)) if e > x) & free
                    for g in ideal.gens]
            expected = sets if all(sets) else None
            assert _excess_sets(_supports(ideal), b, free) == expected, (ideal, b)
