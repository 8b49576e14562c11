import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from srdepth import ideals as ideals_mod
from srdepth.ideals import (
    Decomposition,
    MonomialIdeal,
    _minimalize,
    divides,
    irreducible_ideal,
    prime_ideal,
    prime_power_ideal,
    radical_complex,
    stanley_reisner_ideal,
)
from srdepth.simplicial import Complex
from tests.conftest import (
    VEC_EQUAL_1,
    fourcycle_decomposition,
    is_face,
    polarization,
    random_decomposition,
    random_ideal,
    swept_radical_complex,
)


@st.composite
def ideals(draw, n_max=4, exp_max=3):
    n = draw(st.integers(min_value=1, max_value=n_max))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=exp_max)] * n).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    return MonomialIdeal(n, gens)


def grid(ideal, pad=1):
    caps = [r + pad for r in ideal.max_exponents()]
    return product(*[range(c + 1) for c in caps])


# -- construction -----------------------------------------------------------------

def test_minimalization_and_order():
    ideal = MonomialIdeal(2, [(0, 2), (2, 0), (2, 1), (3, 0)])
    assert ideal.gens == ((0, 2), (2, 0))
    assert MonomialIdeal(2, [(2, 1), (1, 0), (3, 0)]).gens == ((1, 0),)


def test_minimalize_matches_all_pairs_reference():
    # the degree-ordered scan against every pair of distinct generators
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(0, 12))
        ]
        distinct = set(gens)
        naive = sorted(
            g for g in distinct if not any(h != g and divides(h, g) for h in distinct)
        )
        assert _minimalize(gens) == tuple(naive)


def test_equal_ideals_hash_equal():
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    reordered = MonomialIdeal(3, [(0, 1, 1), (2, 0, 0)])
    redundant = MonomialIdeal(3, [(0, 1, 1), (2, 0, 0), (3, 1, 0)])
    assert ideal == reordered == redundant
    assert hash(ideal) == hash(reordered) == hash(redundant)
    assert {ideal, reordered, redundant} == {ideal}
    assert len({ideal, MonomialIdeal(3, [(2, 0, 0)])}) == 2


def test_generator_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(-1, 0)])


def test_predicates():
    assert MonomialIdeal(2, []).is_zero
    assert MonomialIdeal(2, [(0, 0)]).is_unit
    assert MonomialIdeal(2, [(1, 0)]).is_proper_nonzero


# -- membership -------------------------------------------------------------------

def test_contains_basics():
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 0)])
    assert ideal.contains((1, 1, 3))
    assert not ideal.contains((1, 0, 0))
    with pytest.raises(ValueError):
        ideal.contains((1, 0))


def test_contains_irreducible_component():
    comp = irreducible_ideal(4, (3, 4), (3, 5))  # (x1^3, x2^5)
    for a in product(range(5), range(7), range(2), range(2)):
        assert comp.contains(a) == (a[0] >= 3 or a[1] >= 5)


# -- intersection -----------------------------------------------------------------

def test_intersection_simple():
    x1 = MonomialIdeal(2, [(1, 0)])
    x2 = MonomialIdeal(2, [(0, 1)])
    assert x1.intersect(x2).gens == ((1, 1),)


@given(ideals(), ideals())
@settings(max_examples=60)
def test_intersection_is_membership_and(i1, i2):
    if i1.n != i2.n:
        return
    inter = i1.intersect(i2)
    for m in grid(inter):
        assert inter.contains(m) == (i1.contains(m) and i2.contains(m))


@given(ideals())
@settings(max_examples=40)
def test_intersection_idempotent(ideal):
    assert ideal.intersect(ideal) == ideal


def test_fourcycle_prime_intersection(fourcycle):
    ideal = stanley_reisner_ideal(fourcycle)
    assert ideal.gens == ((0, 1, 0, 1), (1, 0, 1, 0))
    assert radical_complex(ideal) == fourcycle


# -- radical ----------------------------------------------------------------------

def test_radical_basics():
    assert MonomialIdeal(2, [(2, 1)]).radical().gens == ((1, 1),)


@given(ideals())
@settings(max_examples=40)
def test_radical_laws(ideal):
    rad = ideal.radical()
    assert rad.radical() == rad
    assert all(e <= 1 for g in rad.gens for e in g)


@given(ideals(), ideals())
@settings(max_examples=40)
def test_radical_commutes_with_intersection(i1, i2):
    if i1.n != i2.n:
        return
    lhs = i1.intersect(i2).radical()
    rhs = i1.radical().intersect(i2.radical())
    assert lhs == rhs


def test_radical_of_fourcycle_decomposition():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    assert dec.intersection().radical() == stanley_reisner_ideal(dec.delta)


# -- max exponents ------------------------------------------------------------------

def test_max_exponents():
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 0)])
    assert ideal.max_exponents() == (2, 1, 0)


def test_squarefree_max_exponents():
    cx = Complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert all(r in (0, 1) for r in stanley_reisner_ideal(cx).max_exponents())


def test_component_exponents_bound_intersection():
    # generator exponents of a valid decomposition's components are bounded by
    # the intersection's maxima (localize and contract recovers the component)
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    rho = dec.intersection().max_exponents()
    assert dec.max_exponents() == rho
    for comp in dec.components:
        assert all(a <= b for a, b in zip(comp.max_exponents(), rho))


def test_decomposition_max_exponents_on_random_decompositions():
    rng = random.Random(23)
    for _ in range(60):
        dec = random_decomposition(rng)
        assert dec.max_exponents() == dec.intersection().max_exponents()


def test_decomposition_reads_each_component_maxima_once(monkeypatch):
    calls = []
    component_maxima = MonomialIdeal.max_exponents

    def counted(ideal):
        calls.append(ideal)
        return component_maxima(ideal)

    dec = fourcycle_decomposition(VEC_EQUAL_1)
    rho = dec.intersection().max_exponents()
    monkeypatch.setattr(MonomialIdeal, "max_exponents", counted)
    assert dec.max_exponents() == rho
    assert calls == list(dec.components)


# -- the polarization oracle of the tests -------------------------------------------------

def test_polarization_of_a_pure_power():
    pol = polarization(MonomialIdeal(1, [(2,)]))
    assert (pol.n, pol.gens) == (2, ((1, 1),))


def test_polarization_of_a_squarefree_ideal_is_itself():
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    assert polarization(ideal) == ideal


def test_polarization_of_two_generators():
    # x_1 gets two variables and x_2 one: x_1^2 -> y_1 y_2, x_1 x_2 -> y_1 y_3
    pol = polarization(MonomialIdeal(2, [(2, 0), (1, 1)]))
    assert (pol.n, pol.gens) == (3, ((1, 0, 1), (1, 1, 0)))


@given(ideals())
@settings(max_examples=40)
def test_polarization_keeps_the_minimal_generators(ideal):
    pol = polarization(ideal)
    assert pol.n == sum(ideal.max_exponents())
    assert len(pol.gens) == len(ideal.gens)
    assert all(e <= 1 for g in pol.gens for e in g)


# -- components and decompositions ----------------------------------------------------------

def test_prime_ideal():
    assert prime_ideal(4, (1, 2)).gens == ((0, 0, 0, 1), (0, 0, 1, 0))


def test_prime_power_ideal():
    ideal = prime_power_ideal(3, (1,), 2)
    assert ideal.gens == ((0, 0, 2), (0, 1, 1), (0, 2, 0))


def test_prime_power_ideal_large():
    # power 12 on 7 complement variables: one generator per degree-12 monomial
    ideal = prime_power_ideal(9, (1, 2), 12)
    assert len(ideal.gens) == comb(18, 12)
    assert all(g[0] == g[1] == 0 and sum(g) == 12 for g in ideal.gens)


def test_prime_power_generator_cap(monkeypatch):
    # P_F^m on c variables has comb(m + c - 1, m) generators
    monkeypatch.setattr(ideals_mod, "MAX_PRIME_POWER_GENERATORS", 10)
    assert len(prime_power_ideal(3, (1,), 9).gens) == 10
    with pytest.raises(ValueError, match="has 11 generators"):
        prime_power_ideal(3, (1,), 10)


def test_prime_power_cap_refuses_before_listing():
    with pytest.raises(ValueError, match="5000150001 generators"):
        prime_power_ideal(5, (1, 2), 100000)


def test_component_constructors_match_the_validated_path():
    # irreducible and prime-power components skip re-minimalisation: their
    # generators already form a sorted antichain
    rng = random.Random(69)
    for _ in range(200):
        n = rng.randint(1, 6)
        facet = rng.sample(range(1, n + 1), rng.randint(0, n))
        exps = [rng.randint(1, 4) for _ in range(n - len(facet))]
        for ideal in (irreducible_ideal(n, facet, exps),
                      prime_power_ideal(n, facet, rng.randint(1, 4))):
            validated = MonomialIdeal(n, ideal.gens)
            assert ideal.gens == validated.gens and ideal == validated
            assert radical_complex(ideal) == swept_radical_complex(validated)
    with pytest.raises(ValueError, match="ambient variable count must be >= 1"):
        irreducible_ideal(0, (), ())


def test_irreducible_ideal_validation():
    with pytest.raises(ValueError):
        irreducible_ideal(4, (3, 4), (3,))
    with pytest.raises(ValueError):
        irreducible_ideal(4, (3, 4), (0, 5))


def test_fourcycle_decomposition_valid():
    dec = fourcycle_decomposition(VEC_EQUAL_1)
    assert len(dec.components) == 4


def test_prime_power_decomposition_valid(fourcycle):
    comps = {f: prime_power_ideal(4, f, m) for f, m in zip(fourcycle.facets, (1, 2, 1, 2))}
    Decomposition(fourcycle, comps)


def test_component_supported_inside_facet_rejected(fourcycle):
    bad = {f: prime_ideal(4, f) for f in fourcycle.facets}
    bad[(1, 2)] = MonomialIdeal(4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError, match="facet"):
        Decomposition(fourcycle, bad)


def test_component_missing_pure_power_rejected(fourcycle):
    bad = {f: prime_ideal(4, f) for f in fourcycle.facets}
    bad[(1, 2)] = MonomialIdeal(4, [(0, 0, 1, 1)])
    with pytest.raises(ValueError, match="pure power"):
        Decomposition(fourcycle, bad)


def test_non_pure_complex_rejected():
    cx = Complex(5, [(1, 2, 3), (4, 5)])
    with pytest.raises(ValueError, match="pure"):
        Decomposition(cx, {f: prime_ideal(5, f) for f in cx.facets})


def test_decomposition_json_round_trip():
    # decompositions are only read: a literal dict of fourcycle_decomposition(VEC_EQUAL_1)
    data = {
        "complex": {"n": 4, "facets": [[1, 2], [1, 4], [2, 3], [3, 4]]},
        "components": [
            {"facet": [3, 4], "generators": [[3, 0, 0, 0], [0, 5, 0, 0]]},
            {"facet": [2, 3], "generators": [[1, 0, 0, 0], [0, 0, 0, 3]]},
            {"facet": [1, 4], "generators": [[0, 5, 0, 0], [0, 0, 9, 0]]},
            {"facet": [1, 2], "generators": [[0, 0, 7, 0], [0, 0, 0, 9]]},
        ],
    }
    assert Decomposition.from_json_dict(data) == fourcycle_decomposition(VEC_EQUAL_1)


def test_decomposition_json_sugars(fourcycle):
    data = {
        "complex": fourcycle.to_json_dict(),
        "components": [
            {"facet": [1, 2], "power": 2},
            {"facet": [2, 3], "irreducible": [2, 3]},
            {"facet": [3, 4], "generators": [[1, 0, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0]]},
            {"facet": [1, 4], "power": 1},
        ],
    }
    dec = Decomposition.from_json_dict(data)
    assert dec.components[dec.delta.facets.index((1, 2))] == prime_power_ideal(4, (1, 2), 2)
    assert dec.components[dec.delta.facets.index((2, 3))] == irreducible_ideal(
        4, (2, 3), (2, 3)
    )


@pytest.mark.parametrize("second", [[1, 2], [2, 1]], ids=["same order", "swapped order"])
def test_decomposition_json_refuses_two_components_for_one_facet(fourcycle, second):
    components = [{"facet": [1, 2], "power": 2}, {"facet": second, "power": 5}]
    components += [{"facet": list(f), "power": 1} for f in fourcycle.facets[1:]]
    with pytest.raises(ValueError, match=r"facet \[1, 2\] has more than one component"):
        Decomposition.from_json_dict({"complex": fourcycle.to_json_dict(), "components": components})


@pytest.mark.parametrize("forms", [
    {"power": 1, "irreducible": [2]},
    {"generators": [[0, 1]], "power": 1},
    {"generators": [[0, 1]], "power": 1, "irreducible": [1]},
], ids=["power and irreducible", "generators and power", "all three"])
def test_decomposition_json_refuses_two_forms_for_one_component(forms):
    # reading the first form found would drop the others silently
    data = {
        "complex": {"n": 2, "facets": [[1], [2]]},
        "components": [{"facet": [1], **forms}, {"facet": [2], "power": 1}],
    }
    keys = " and ".join(repr(k) for k in ("generators", "power", "irreducible") if k in forms)
    with pytest.raises(ValueError, match=rf"facet \[1\] needs exactly one of .*, got {keys}$"):
        Decomposition.from_json_dict(data)


def test_decomposition_refuses_two_keys_for_one_facet(fourcycle):
    comps = {f: prime_ideal(4, f) for f in fourcycle.facets}
    comps[(2, 1)] = prime_power_ideal(4, (1, 2), 5)
    with pytest.raises(ValueError, match=r"facet \[1, 2\] has more than one component"):
        Decomposition(fourcycle, comps)


# -- radical complex --------------------------------------------------------------------------

def test_radical_complex_on_random_ideals():
    rng = random.Random(5)
    for _ in range(30):
        ideal = random_ideal(rng, n_max=4)
        if not ideal.is_proper_nonzero:
            continue
        cx = radical_complex(ideal)
        rad = ideal.radical()
        # oracle: a set is a face iff its squarefree monomial avoids the radical
        for mask in range(1 << ideal.n):
            vec = tuple(mask >> j & 1 for j in range(ideal.n))
            assert is_face(cx, mask) == (not rad.contains(vec))


def test_radical_complex_matches_sweep_oracle():
    rng = random.Random(6)
    for _ in range(250):
        ideal = random_ideal(rng, n_max=8, gens_max=7, exp_max=2)
        assert radical_complex(ideal) == swept_radical_complex(ideal), ideal
    for ideal in (MonomialIdeal(3, []), MonomialIdeal(3, [(0, 0, 0)])):
        assert radical_complex(ideal) == swept_radical_complex(ideal)


def test_radical_complex_in_many_variables():
    # minimal vertex covers of {1,2} and {3,4}: no 2^40 sweep
    n = 40
    gens = [[1, 1] + [0] * 38, [0, 0, 1, 1] + [0] * 36]
    cx = radical_complex(MonomialIdeal(n, gens))
    full = set(range(1, n + 1))
    assert set(cx.facets) == {tuple(sorted(full - {i, j})) for i in (1, 2) for j in (3, 4)}
    assert all(len(f) == 38 for f in cx.facets)


def test_json_round_trip_ideal():
    # ideals are only read from JSON, so the written side is spelled out here
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])
    data = {"n": 3, "generators": [list(g) for g in ideal.gens]}
    assert MonomialIdeal.from_json_dict(data) == ideal


def test_non_integer_exponents_rejected():
    # exponents are refused unless they are integers; 1.5 is not truncated to 1
    for bad in (1.5, 2.0, "1", True, None):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(bad, 0), (0, 2)])
    with pytest.raises(ValueError):
        irreducible_ideal(4, (3, 4), (1.5, 2))


@pytest.mark.parametrize(
    "data",
    [None, {"n": 2}, {"n": 2, "generators": 5}, {"n": 2, "generators": [1, 2]},
     {"n": 2.5, "generators": [[1, 0]]}, {"n": 2, "generators": [[1.5, 0]]}],
)
def test_ideal_json_rejects_wrong_types(data):
    with pytest.raises(ValueError):
        MonomialIdeal.from_json_dict(data)


@pytest.mark.parametrize(
    "components",
    [None, [5], [{"power": 2}], [{"facet": 3, "power": 2}], [{"facet": [1, 2], "power": 1.5}],
     [{"facet": [1, 2], "irreducible": 3}], [{"facet": [1, 2], "generators": [0, 1]}]],
)
def test_decomposition_json_rejects_wrong_types(fourcycle, components):
    with pytest.raises(ValueError):
        Decomposition.from_json_dict({"complex": fourcycle.to_json_dict(), "components": components})
