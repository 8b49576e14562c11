import json
import random
from itertools import combinations, product

import pytest

from bench import corpus as bench_corpus
from bench.corpus import CONE_CLASSES, random_pure_complex as random_shaped_facets
from srdepth import cones as cones_mod, homology, simplicial
from srdepth.cli import main
from srdepth.cones import ConeUnion, generate_cone_union
from srdepth.criteria import depth_equals_radical
from srdepth.homology import RATIONALS, _selections, depth_stanley_reisner, prime_field
from srdepth.ideals import Decomposition, irreducible_ideal
from srdepth.simplicial import Complex, _selection_indices
from tests.conftest import (
    FIXTURES,
    FOURCYCLE,
    VEC_EQUAL_1,
    VEC_EQUAL_2,
    VEC_MIDPOINT,
    _prune,
    cone_union_by_every_selection,
    distributed_cone_union,
    fourcycle_assignment,
    fourcycle_reference_system,
    fourcycle_symbol_order,
    grid_equivalence,
    midpoint,
    minimal_masks,
    quadratic_minimal_product,
    random_pure_complex,
    selection_depth,
    walked_below,
)

FIVECYCLE = Complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
SIXCYCLE = Complex(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])


@pytest.fixture(scope="module")
def reference():
    return fourcycle_reference_system()


@pytest.fixture(scope="module")
def generated():
    return generate_cone_union(FOURCYCLE, RATIONALS)


# -- reference system ---------------------------------------------------------------

def test_reference_on_named_vectors(reference):
    assert reference.evaluate(fourcycle_assignment(VEC_EQUAL_1))
    assert reference.evaluate(fourcycle_assignment(VEC_EQUAL_2))
    assert not reference.evaluate(fourcycle_assignment(VEC_MIDPOINT))


def test_reference_all_equal_exponents(reference):
    assert reference.evaluate(fourcycle_assignment((2,) * 8))


def test_symbol_order_is_componentwise():
    order = fourcycle_symbol_order()
    cx = FOURCYCLE
    # eight symbols, each variable outside its facet, components in
    # complement-lex order
    assert len(order) == 8
    for i, j in order:
        assert j not in cx.facets[i]
    comps = [tuple(j for k, j in order[p : p + 2]) for p in range(0, 8, 2)]
    assert comps == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_evaluate_requires_total_positive_assignment(reference):
    asg = fourcycle_assignment(VEC_EQUAL_1)
    missing = dict(list(asg.items())[:-1])
    with pytest.raises(ValueError):
        reference.evaluate(missing)
    bad = dict(asg)
    bad[next(iter(bad))] = 0
    with pytest.raises(ValueError):
        reference.evaluate(bad)


@pytest.mark.parametrize("value", [1.9, 2.0, "2", True])
def test_exponents_are_not_coerced(reference, value):
    with pytest.raises(ValueError, match="must be an integer"):
        fourcycle_assignment((value,) + VEC_EQUAL_1[1:])
    asg = fourcycle_assignment(VEC_EQUAL_1)
    asg[next(iter(asg))] = value
    with pytest.raises(ValueError, match="must be an integer"):
        reference.evaluate(asg)


# -- generation ----------------------------------------------------------------------

def test_generated_matches_reference_on_grid(generated, reference):
    assert grid_equivalence(generated, reference, 3) is None


def test_single_condition_differs_from_reference(reference):
    single = ConeUnion(
        reference.n, reference.facets, reference.symbols, (reference.disjuncts[0],)
    )
    assert grid_equivalence(single, reference, 3) is not None


def _assert_same_union(union, oracle):
    assert union.disjuncts == oracle.disjuncts
    assert union.to_json_dict() == oracle.to_json_dict()


@pytest.mark.parametrize("cx", [FOURCYCLE, FIVECYCLE], ids=["4-cycle", "5-cycle"])
def test_generated_matches_distribution_oracle_on_cycles(cx):
    union = generate_cone_union(cx, RATIONALS)
    _assert_same_union(union, distributed_cone_union(cx, RATIONALS))
    assert len(union.disjuncts) == {4: 4, 5: 464}[cx.n]


def test_generated_matches_distribution_oracle_on_random_complexes():
    # 25 complexes of every (n, facet size, facet count) shape of the cones
    # benchmark classes, then 100 of random shape with n <= 5
    rng = random.Random(11)
    complexes = [
        Complex(n, random_shaped_facets(rng, n, k, r))
        for n, k, r in sorted(set(CONE_CLASSES))
        for _ in range(25)
    ]
    complexes += [random_pure_complex(rng, n_max=5, r_max=6) for _ in range(100)]
    trivial = set()
    for cx in complexes:
        for field in (RATIONALS, prime_field(2)):
            union = generate_cone_union(cx, field)
            _assert_same_union(union, distributed_cone_union(cx, field))
            trivial.add(union.is_trivially_true)
    assert trivial == {True, False}


def test_union_is_canonical_without_a_final_prune():
    rng = random.Random(14)
    complexes = [FOURCYCLE, FIVECYCLE] + [random_pure_complex(rng) for _ in range(60)]
    for cx in complexes:
        for field in (RATIONALS, prime_field(2)):
            union = generate_cone_union(cx, field)
            assert union.disjuncts == _prune(union.disjuncts), cx
    assert len(generate_cone_union(FIVECYCLE, RATIONALS).disjuncts) == 464


def brute_minimal_product(dnf, terms) -> set:
    products = {d | c for d in dnf for c in terms}
    return {p for p in products if not any(q != p and q & p == q for q in products)}


def test_cone_product_is_the_minimal_antichain():
    # seeded antichains times term lists that are empty, hold the zero
    # term, repeat a term or nest one term inside another
    rng = random.Random(30)
    kinds = ("empty", "zero", "repeated", "nested", "random")
    for _ in range(400):
        bits = rng.randint(1, 8)
        dnf = minimal_masks(rng.randrange(1 << bits) for _ in range(rng.randint(0, 10)))
        kind = rng.choice(kinds)
        terms = [rng.randrange(1 << bits) for _ in range(rng.randint(1, 6))]
        if kind == "empty":
            terms = []
        elif kind == "zero":
            terms.insert(rng.randrange(len(terms) + 1), 0)
        elif kind == "repeated":
            terms += rng.choices(terms, k=rng.randint(1, 3))
            rng.shuffle(terms)
        elif kind == "nested":
            c = rng.choice(terms)
            terms.insert(rng.randrange(len(terms) + 1), c | rng.randrange(1 << bits))
        out = cones_mod._minimal_product(dnf, terms)
        assert len(out) == len(set(out)), (dnf, terms)
        assert not any(a != b and a & b == a for a in out for b in out), (dnf, terms)
        assert set(out) == brute_minimal_product(dnf, terms), (dnf, terms)
    assert cones_mod._minimal_product([0b011, 0b100], []) == []
    assert sorted(cones_mod._minimal_product([0b011, 0b100], [0, 0b1000])) == [0b011, 0b100]


@pytest.mark.slow
@pytest.mark.parametrize("field", [RATIONALS, prime_field(2)], ids=str)
def test_cone_product_matches_the_quadratic_product_on_the_benchmark_round(field, monkeypatch):
    # the seed-1 round of the cones workload (the 4-cycle, a relabelled
    # 5-cycle and eight complexes of every CONE_CLASSES shape) and the 5-cycle
    complexes = [Complex.from_json_dict(item.data) for item in bench_corpus.cones_corpus(1, 1)]
    complexes.append(FIVECYCLE)
    unions = [generate_cone_union(cx, field) for cx in complexes]
    monkeypatch.setattr(cones_mod, "_minimal_product", quadratic_minimal_product)
    for cx, union in zip(complexes, unions):
        _assert_same_union(union, generate_cone_union(cx, field))
    assert [len(u.disjuncts) for u in unions[:2]] == [4, 464]


# -- selections covered by a smaller low one -----------------------------------------

def _union_or_refusal(build, cx, field):
    """The union's JSON, or the refusal message, from a cold selection cache."""
    homology._selections.cache_clear()
    try:
        return build(cx, field).to_json_dict()
    except ValueError as exc:
        return str(exc)


def _seeded_complexes(seed: int, count: int) -> list[Complex]:
    """Pure and non-pure complexes, in turn, on 3 to 7 vertices with at most
    7 facets; a non-pure draw keeps the maximal faces of its candidates."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(3, 7)
        if k % 2:
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, n - 1))
                for _ in range(rng.randint(1, 7))
            ]
        else:
            pool = list(combinations(range(1, n + 1), rng.randint(1, n - 1)))
            faces = rng.sample(pool, rng.randint(1, min(7, len(pool))))
        out.append(Complex(n, faces))
    return out


@pytest.mark.parametrize("field", [RATIONALS, prime_field(2), prime_field(3)], ids=str)
def test_generated_matches_the_every_selection_oracle(field):
    # the union, or the refusal message, equals the product over every
    # selection below t: on seeded complexes, the 4- and 5-cycles and the
    # seed-1 to seed-3 rounds of the cones benchmark
    complexes = [FOURCYCLE, FIVECYCLE] + _seeded_complexes(47, 300)
    complexes += [
        Complex.from_json_dict(item.data) for seed in (1, 2, 3)
        for item in bench_corpus.cones_corpus(seed, 1)
    ]
    outcomes = {"refused": 0, "trivial": 0, "cones": 0}
    for cx in complexes:
        union = _union_or_refusal(generate_cone_union, cx, field)
        assert union == _union_or_refusal(cone_union_by_every_selection, cx, field), cx
        if isinstance(union, str):
            outcomes["refused"] += 1
        else:
            outcomes["trivial" if union["disjuncts"] == [[]] else "cones"] += 1
    assert min(outcomes.values()) > 0 and outcomes["cones"] > 200, outcomes


def count_cone_work(monkeypatch) -> tuple[list, list]:
    """Record every product step of the cone union and every selection
    asked of _Selections.below."""
    steps, asks = [], []
    product_step, below = cones_mod._minimal_product, homology._Selections.below

    def counting_step(dnf, terms):
        steps.append(len(terms))
        return product_step(dnf, terms)

    def counting_below(self, bits, idx):
        asks.append(bits)
        return below(self, bits, idx)

    monkeypatch.setattr(cones_mod, "_minimal_product", counting_step)
    monkeypatch.setattr(homology._Selections, "below", counting_below)
    return steps, asks


def test_the_benchmark_round_skips_the_covered_selections(monkeypatch):
    # the seed-1 round of the cones workload over Q: multiplying every
    # selection below t takes 423 product steps and 1,978 asks; skipping the
    # covered ones, 224 and 1,779
    complexes = [Complex.from_json_dict(item.data) for item in bench_corpus.cones_corpus(1, 1)]
    steps, asks = count_cone_work(monkeypatch)
    for build, counts in (
        (generate_cone_union, (224, 1779)), (cone_union_by_every_selection, (423, 1978)),
    ):
        homology._selections.cache_clear()
        del steps[:], asks[:]
        for cx in complexes:
            build(cx, RATIONALS)
        assert (len(steps), len(asks)) == counts, build


def test_a_skipped_selection_below_t_is_a_factor_the_union_already_holds(monkeypatch):
    # t = 3.  Facets 0 and 2, 134 and 235, meet in vertex 3: depth 2.  Of
    # the facets holding vertex 3 (134, 234, 235), the selection of facets
    # 0, 2 and 3 holds just those two, so it is skipped, although it has
    # depth 2 as well: the skip drops a real factor, not only selections
    # of depth t
    cx = Complex(5, [(1, 3, 4), (2, 3, 4), (2, 3, 5), (2, 4, 5)])
    assert depth_stanley_reisner(cx, RATIONALS) == 3
    assert [selection_depth(cx, idx) for idx in ((0, 2), (0, 2, 3))] == [2, 2]
    steps, asks = count_cone_work(monkeypatch)
    homology._selections.cache_clear()
    union = generate_cone_union(cx, RATIONALS)
    skipping = len(steps)
    assert 0b1101 not in asks and 0b0101 in asks
    homology._selections.cache_clear()
    assert union == cone_union_by_every_selection(cx, RATIONALS)
    assert 0b1101 in asks and homology._selections(cx, RATIONALS).answers[0b1101] is True
    assert len(steps) > skipping


def test_every_skipped_selection_has_depth_below_t(monkeypatch):
    # a covered selection is below t by the link bound at the common face
    # of the selection covering it; the union's walk skips it without
    # asking and stores it as True, so a second walk stores nothing new
    steps, asks = count_cone_work(monkeypatch)
    skipped = 0
    for cx in _seeded_complexes(48, 400):
        for field in (RATIONALS, prime_field(2)):
            homology._selections.cache_clear()
            del asks[:]
            try:
                generate_cone_union(cx, field)
            except ValueError:
                continue
            if not asks:
                continue  # rigid: nothing is asked or skipped
            t = depth_stanley_reisner(cx, field)
            sels = _selections(cx, field)
            answered = dict(sels.answers)
            stored = walked_below(sels)
            assert sels.answers == answered, (cx, str(field))
            for idx in _selection_indices(len(cx.facet_masks)):
                if sum(1 << i for i in idx) not in asks:
                    assert idx in stored, (cx, str(field), idx)
                    assert selection_depth(cx, idx, field) < t, (cx, str(field), idx)
                    skipped += 1
    assert skipped > 100


def test_a_covered_step_counts_toward_no_refusal(monkeypatch):
    # over F_2 the every-selection product is refused at a step of 11,277
    # candidates whose selection is covered; the union never expands that
    # step and is refused at its first expanded one past the cap, 15,036.
    # Its largest step lists 16,068 candidates, the product's 36,126, and
    # from there both return the same union
    cx = Complex(6, [(1, 2, 3), (1, 2, 4), (2, 3, 4), (3, 4, 5), (2, 4, 6), (4, 5, 6)])
    f2 = prime_field(2)
    for build, needed in ((generate_cone_union, 15036), (cone_union_by_every_selection, 11277)):
        assert _union_or_refusal(build, cx, f2) == (
            f"cone union expansion needs {needed} candidate conjunctions in one step, "
            "more than 10000"
        ), build
    monkeypatch.setattr(cones_mod, "MAX_CONE_CANDIDATES", 16068)
    union = _union_or_refusal(generate_cone_union, cx, f2)
    assert len(union["disjuncts"]) == 1338
    assert _union_or_refusal(cone_union_by_every_selection, cx, f2) == (
        "cone union expansion needs 17542 candidate conjunctions in one step, more than 16068")
    monkeypatch.setattr(cones_mod, "MAX_CONE_CANDIDATES", 36126)
    assert _union_or_refusal(generate_cone_union, cx, f2) == union
    assert _union_or_refusal(cone_union_by_every_selection, cx, f2) == union


def test_sixcycle_refusal_text(tmp_path, capsys):
    path = tmp_path / "sixcycle.json"
    path.write_text(json.dumps(SIXCYCLE.to_json_dict()))
    assert main(["cones", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: cone union expansion needs 23589 candidate conjunctions in one step, "
        "more than 10000\n"
    )


@pytest.mark.parametrize(
    "name, needed", [("6-cycle", 23589), ("projective_plane_6", 20432)],
    ids=["6-cycle", "projective_plane_6"],
)
def test_oversized_union_is_refused(name, needed):
    # the plane has t = 3 over Q, so its selections are walked by the depth
    # lemma; the refusal comes at the same step as when each was built
    if name == "6-cycle":
        cx = SIXCYCLE
    else:
        cx = Complex.from_json_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    with pytest.raises(ValueError) as exc:
        generate_cone_union(cx, RATIONALS)
    assert str(exc.value) == (
        f"cone union expansion needs {needed} candidate conjunctions in one step, more than 10000"
    )


def test_cone_candidate_cap(monkeypatch):
    # the 5-cycle's largest expansion step lists 3608 candidate conjunctions
    monkeypatch.setattr(cones_mod, "MAX_CONE_CANDIDATES", 3608)
    assert len(generate_cone_union(FIVECYCLE, RATIONALS).disjuncts) == 464
    monkeypatch.setattr(cones_mod, "MAX_CONE_CANDIDATES", 3607)
    with pytest.raises(ValueError, match="needs 3608 candidate conjunctions"):
        generate_cone_union(FIVECYCLE, RATIONALS)


def star(r: int) -> Complex:
    """The r edges at vertex 1: depth 2, rigid."""
    return Complex(r + 1, [(1, j) for j in range(2, r + 2)])


@pytest.mark.parametrize("cap, cx", [
    (3, FOURCYCLE), (simplicial.DEFAULT_FACET_CAP, Complex(7, combinations(range(1, 8), 2))),
    (simplicial.DEFAULT_FACET_CAP, star(21)),
], ids=["4-cycle", "21 edges", "star of 21 edges"])
def test_facet_cap_refuses_before_any_depth(monkeypatch, cap, cx):
    def _refuse(*args):
        raise AssertionError("a depth or the criterion was asked for")

    monkeypatch.setattr(simplicial, "DEFAULT_FACET_CAP", cap)
    monkeypatch.setattr(homology, "depth_stanley_reisner", _refuse)
    monkeypatch.setattr(homology, "_thin_intersection", _refuse)
    homology._selections.cache_clear()
    with pytest.raises(ValueError) as exc:
        generate_cone_union(cx, RATIONALS)
    assert str(exc.value) == f"{len(cx.facet_masks)} facets exceed the enumeration cap {cap}"


def count_depth_below_asks(monkeypatch) -> list[tuple]:
    """Replace homology's depth-below predicate by one that records its
    arguments and then answers."""
    calls = []
    original = homology._generated_below

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "_generated_below", counting)
    return calls


def test_rigid_star_of_twenty_edges_walks_no_selection(monkeypatch):
    # every two edges meet in vertex 1, so no selection falls below t = 2
    # and none of the 2^20 - 2 is asked
    cx = star(20)
    calls = count_depth_below_asks(monkeypatch)
    union = generate_cone_union(cx, RATIONALS)
    assert union.disjuncts == (frozenset(),)
    assert calls == []


@pytest.mark.parametrize("cx", [FOURCYCLE, FIVECYCLE], ids=["4-cycle", "5-cycle"])
def test_selections_of_radical_depth_two_build_no_subcomplex(cx):
    # t = 2: every selection is answered from its facets, so only the
    # cycle's own depth is taken
    homology.depth_stanley_reisner.cache_clear()
    homology._selections.cache_clear()
    generate_cone_union(cx, RATIONALS)
    assert homology.depth_stanley_reisner.cache_info().currsize == 1


def test_union_is_never_empty():
    # a selection below t is never the full star of its common face, whose
    # depth is at least t, so an outside facet holds that face and every
    # local DNF, and so every product, is nonempty
    rng = random.Random(43)
    fixtures = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    complexes = [Complex.from_json_dict(data) for data in fixtures if "facets" in data]
    assert len(complexes) == 7
    complexes += [random_pure_complex(rng, n_max=7, r_max=7) for _ in range(200)]
    unions = nonrigid = refused = stars = 0
    for cx in complexes:
        masks = cx.facet_masks
        for field in (RATIONALS, prime_field(2)):
            sels = _selections(cx, field)
            for idx in _selection_indices(len(masks)):
                if not sels.below(sum(1 << i for i in idx), idx):
                    continue
                common = masks[idx[0]]
                for i in idx[1:]:
                    common &= masks[i]
                star = tuple(i for i, fm in enumerate(masks) if fm & common == common)
                assert star != idx, (cx, str(field), idx)
                stars += 1
            try:
                union = generate_cone_union(cx, field)
            except ValueError:
                refused += 1
                continue
            unions += 1
            nonrigid += not union.is_trivially_true
            assert union.disjuncts, (cx, str(field))
            assert union.evaluate(dict.fromkeys(union.symbols, 1)), (cx, str(field))
    assert unions > 350 and nonrigid > 40 and refused > 0 and stars > 1000


def test_rigid_complex_gives_trivially_true_union(two_big_facets):
    union = generate_cone_union(two_big_facets, RATIONALS)
    assert union.is_trivially_true


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("field", [RATIONALS, prime_field(2)], ids=str)
def test_irrelevant_complex_gives_trivially_true_union(n, field):
    union = generate_cone_union(Complex(n, [()]), field)
    assert union.is_trivially_true and union.disjuncts == (frozenset(),)
    assert union.symbols == tuple((0, j) for j in range(1, n + 1))


def test_depth_one_complex_gives_trivially_true_union():
    cx = Complex(4, [(1, 2), (3, 4)])
    union = generate_cone_union(cx, RATIONALS)
    assert union.is_trivially_true


def test_union_vs_union_self(generated):
    assert grid_equivalence(generated, generated, 2) is None


def test_symbol_mismatch_rejected(generated):
    other = generate_cone_union(Complex(4, [(1, 2), (3, 4)]), RATIONALS)
    with pytest.raises(ValueError):
        grid_equivalence(generated, other, 2)


# -- cone geometry --------------------------------------------------------------------

def test_disjuncts_are_closed_under_scaling_and_addition(generated):
    rng = random.Random(3)
    syms = generated.symbols
    for d in generated.disjuncts:
        sat = []
        while len(sat) < 2:
            v = {s: rng.randint(1, 6) for s in syms}
            if all(v[syms[l]] >= v[syms[r]] for l, r in d):
                sat.append(v)
        p, q = sat
        double = {s: 2 * p[s] for s in syms}
        total = {s: p[s] + q[s] for s in syms}
        assert all(double[syms[l]] >= double[syms[r]] for l, r in d)
        assert all(total[syms[l]] >= total[syms[r]] for l, r in d)


def test_convexity_probe_midpoint_fails(reference):
    mid = midpoint(
        reference,
        fourcycle_assignment(VEC_EQUAL_1),
        fourcycle_assignment(VEC_EQUAL_2),
    )
    assert mid == fourcycle_assignment(VEC_MIDPOINT)
    assert not reference.evaluate(mid)


def test_convexity_probe_same_point(reference):
    p = fourcycle_assignment(VEC_EQUAL_1)
    assert reference.evaluate(midpoint(reference, p, p))


def test_convexity_probe_within_one_cone(reference):
    p = fourcycle_assignment((2, 2, 2, 2, 2, 2, 2, 2))
    q = fourcycle_assignment((4, 4, 4, 4, 4, 4, 4, 4))
    assert reference.evaluate(midpoint(reference, p, q))


def test_convexity_probe_validates(reference):
    p = fourcycle_assignment(VEC_EQUAL_1)
    with pytest.raises(ValueError):
        midpoint(reference, p, fourcycle_assignment(VEC_MIDPOINT))
    q = fourcycle_assignment(VEC_EQUAL_2)
    odd = dict(q)
    key = next(iter(odd))
    odd[key] += 1  # break the parity at one symbol
    if (p[key] + odd[key]) % 2:
        with pytest.raises(ValueError):
            midpoint(reference, p, odd)


# -- soundness against the decision procedure --------------------------------------------

def _irreducible_decomposition(cx, union, values):
    per_facet = {i: {} for i in range(len(cx.facets))}
    for (i, j), v in values.items():
        per_facet[i][j] = v
    comps = {}
    for i, f in enumerate(cx.facets):
        comp = sorted(per_facet[i])
        comps[f] = irreducible_ideal(cx.n, f, [per_facet[i][j] for j in comp])
    return Decomposition(cx, comps)


@pytest.mark.slow
def test_soundness_against_decision_procedure():
    # every point of the {1..3} grid: cone-union satisfaction must coincide
    # with the depth-equality verdict of the induced irreducible decomposition
    cases = [
        (Complex(3, [(1, 2), (2, 3)]), 3),
        (Complex(4, [(1, 2), (3, 4)]), 3),
        (FOURCYCLE, 3),
    ]
    for cx, bound in cases:
        union = generate_cone_union(cx, RATIONALS)
        syms = union.symbols
        for values in product(range(1, bound + 1), repeat=len(syms)):
            asg = dict(zip(syms, values))
            dec = _irreducible_decomposition(cx, union, asg)
            assert union.evaluate(asg) == depth_equals_radical(dec, RATIONALS).equal
    # the 5-cycle's grid {1..3}^15 has 3**15 points: a seeded sample of them
    cx = Complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    union = generate_cone_union(cx, RATIONALS)
    rng = random.Random(5)
    verdicts = set()
    for _ in range(2000):
        asg = {s: rng.randint(1, 3) for s in union.symbols}
        dec = _irreducible_decomposition(cx, union, asg)
        equal = depth_equals_radical(dec, RATIONALS).equal
        assert union.evaluate(asg) == equal
        verdicts.add(equal)
    assert verdicts == {True, False}


def test_pruning_preserves_satisfiability(reference):
    # re-adding subsumed disjuncts must not change the satisfiability set
    base = list(reference.disjuncts)
    extra_atom = next(iter(base[1] - base[0]))
    bloated = ConeUnion(
        reference.n,
        reference.facets,
        reference.symbols,
        tuple(base) + (base[0] | {extra_atom}, base[1] | base[0]),
    )
    assert len(bloated.disjuncts) > len(reference.disjuncts)
    assert grid_equivalence(bloated, reference, 3) is None


# -- serialization --------------------------------------------------------------------------
# Cone unions are only written; the written JSON must satisfy the schema a reader
# would have to check: shapes and types, 1-based facets and variables in range,
# each variable outside its facet, symbol indices in range, canonical order.

_WRITTEN_UNIONS = {
    "4-cycle": lambda: generate_cone_union(FOURCYCLE, RATIONALS),
    "4-cycle over F_2": lambda: generate_cone_union(FOURCYCLE, prime_field(2)),
    "4-cycle paper systems": fourcycle_reference_system,
    "5-cycle": lambda: generate_cone_union(FIVECYCLE, RATIONALS),
    "two big facets": lambda: generate_cone_union(
        Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)]), RATIONALS
    ),
    "two disjoint edges": lambda: generate_cone_union(Complex(4, [(1, 2), (3, 4)]), RATIONALS),
}


def _is_int(value) -> bool:
    return type(value) is int


@pytest.mark.parametrize("name", sorted(_WRITTEN_UNIONS))
def test_json_output_follows_the_schema(name):
    union = _WRITTEN_UNIONS[name]()
    data = json.loads(json.dumps(union.to_json_dict()))
    assert data == union.to_json_dict()
    assert set(data) == {"n", "facets", "symbols", "disjuncts"}

    n, facets = data["n"], data["facets"]
    assert _is_int(n) and n == union.n
    assert facets == [list(f) for f in union.facets]
    assert len({len(f) for f in facets}) == 1
    for f in facets:
        assert all(_is_int(v) and 1 <= v <= n for v in f)
        assert f == sorted(set(f))
    assert not any(set(f) <= set(g) for f in facets for g in facets if f is not g)

    expected = [
        {"facet": i, "var": j}
        for i, f in enumerate(facets, 1)
        for j in range(1, n + 1)
        if j not in f
    ]
    assert data["symbols"] == expected
    for sym in data["symbols"]:
        assert _is_int(sym["facet"]) and _is_int(sym["var"])

    count = len(data["symbols"])
    atoms_of = []
    for disjunct in data["disjuncts"]:
        pairs = []
        for atom in disjunct:
            assert set(atom) == {"left", "rel", "right"} and atom["rel"] == ">="
            left, right = atom["left"], atom["right"]
            assert _is_int(left) and _is_int(right)
            assert 0 <= left < count and 0 <= right < count and left != right
            pairs.append((left, right))
        assert pairs == sorted(set(pairs))
        atoms_of.append(frozenset(pairs))
    assert tuple(atoms_of) == union.disjuncts == _prune(atoms_of)
    if union.is_trivially_true:
        assert data["disjuncts"] == [[]]
