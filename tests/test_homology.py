import gc
import importlib
import json
import pkgutil
import random
import weakref
from fractions import Fraction
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import srdepth
from srdepth import homology
from srdepth.cones import generate_cone_union
from srdepth.criteria import depth_equals_radical, depth_via_local_cohomology
from srdepth.homology import (
    FieldSpec,
    RATIONALS,
    _components,
    _echelon,
    _Selections,
    _generated_below,
    _hochster,
    _rank,
    _rank_f2,
    boundary_matrix,
    depth_stanley_reisner,
    is_cohen_macaulay,
    matrix_rank,
    min_nonzero_betti,
    prime_field,
    rank_fraction_free,
    rank_mod_p,
    reduced_betti,
)
from srdepth.ideals import Decomposition, MonomialIdeal, radical_complex
from srdepth.rigid import is_rigid_by_intersections
from srdepth.simplicial import VOID, Complex, _selection_indices
from bench import corpus as bench_corpus
from tests.conftest import (
    FIXTURES,
    RP2_FACETS,
    generic_min_nonzero_betti,
    is_face,
    is_pure,
    mixed_complex_corpus,
    random_decomposition,
    random_pure_complex,
    reisner_walk,
    tuple_boundary_matrix,
    walked_below,
)

F2 = prime_field(2)
F3 = prime_field(3)

RP2_CONE = [f + (7,) for f in RP2_FACETS]
RP2_SUSPENSION = RP2_CONE + [f + (8,) for f in RP2_FACETS]


# -- independent rank oracle --------------------------------------------------------

def rank_fractions(rows):
    """Plain Gaussian elimination over Fraction; independent of Bareiss."""
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        for r in range(rank + 1, m):
            f = a[r][col] / prow[col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], prow)]
        rank += 1
    return rank


def rank_gauss_mod_p(rows, p):
    """Gaussian elimination over F_p with a monic pivot row."""
    a = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        prow = [x * inv % p for x in a[rank]]
        for r in range(rank + 1, len(a)):
            a[r] = [(x - a[r][col] * y) % p for x, y in zip(a[r], prow)]
        rank += 1
    return rank


def test_dense_rank_matches_independent_eliminations():
    # sparse and low-rank integer matrices, so that rank drops and zero
    # factors below a pivot (which Bareiss's exact division needs updated) occur
    rng = random.Random(33)
    fields = [prime_field(p) for p in (2, 3, 5, 7)]
    for _ in range(1500):
        m, ncols = rng.randint(0, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                    for _ in range(m)]
        else:
            k = rng.randint(1, 3)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*right)] for r in left]
        assert matrix_rank(rows, RATIONALS) == rank_fractions(rows), rows
        for field in fields:
            assert matrix_rank(rows, field) == rank_gauss_mod_p(rows, field.p), (rows, field)


def test_rank_mod_p_refuses_a_composite_characteristic():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        rank_mod_p([[1, 0], [0, 1]], 4)


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=100)
def test_bareiss_matches_fraction_elimination(rows):
    assert rank_fraction_free(rows) == rank_fractions(rows)


def test_rank_mod_p_basics():
    assert rank_mod_p([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_p([[1, 1], [1, 1]], 2) == 1
    assert rank_mod_p([[1, 2], [2, 1]], 3) == 1


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    assert str(RATIONALS) == "Q"
    assert str(F2) == "F_2"


@pytest.mark.parametrize("make", [FieldSpec, prime_field])
@pytest.mark.parametrize("p", [2.9, 2.0, "2", True])
def test_field_characteristic_is_not_coerced(make, p):
    with pytest.raises(ValueError, match="must be an integer"):
        make(p)


def test_primality_is_miller_rabin_below_its_bound():
    # exact below the bound and refused from it on, so no characteristic hangs
    with pytest.raises(ValueError, match="is too large"):
        prime_field(homology.MILLER_RABIN_BOUND)
    assert prime_field(10**18 + 3).p == 10**18 + 3
    assert homology._is_prime(2**61 - 1)
    # Carmichael numbers, then strong pseudoprimes to the first 1, 4 and 11 prime bases
    for c in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not homology._is_prime(c), c
    sieve = [True] * 200_001
    sieve[0] = sieve[1] = False
    for p in range(2, 448):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, 200_001, p))
    assert [homology._is_prime(p) for p in range(200_001)] == sieve


# -- boundary matrices ----------------------------------------------------------------

def test_boundary_composition_is_zero(fourcycle, rp2):
    for cx in (fourcycle, rp2, Complex(4, [range(1, 5)])):
        for i in range(1, cx.dim + 1):
            d_i = boundary_matrix(cx, i)
            d_prev = boundary_matrix(cx, i - 1)
            cols = len(d_i[0]) if d_i else 0
            for c in range(cols):
                for r in range(len(d_prev)):
                    assert (
                        sum(d_prev[r][k] * d_i[k][c] for k in range(len(d_i))) == 0
                    )


def test_boundary_matrices_match_tuple_oracle():
    for cx in mixed_complex_corpus():
        if cx.kind == VOID:
            continue
        for i in range(cx.dim + 2):
            assert boundary_matrix(cx, i) == tuple_boundary_matrix(cx, i), (cx, i)


def test_augmentation_row(fourcycle):
    aug = boundary_matrix(fourcycle, 0)
    assert aug == [[1, 1, 1, 1]]


def test_edge_boundary_signs():
    cx = Complex(3, [(1, 3)])
    mat = boundary_matrix(cx, 1)
    # rows are the vertices (1,) and (3,); removing position 0 gives +1 on (3,)
    assert mat == [[-1], [1]]


# -- reduced homology -----------------------------------------------------------------

def test_circle(fourcycle):
    # oracle for the frozen value: the 4x4 edge boundary matrix has rank 3,
    # so H~_1 = 4 - 3 - 0 = 1
    assert matrix_rank(boundary_matrix(fourcycle, 1), RATIONALS) == 3
    assert reduced_betti(fourcycle, 1, RATIONALS) == 1
    assert reduced_betti(fourcycle, 0, RATIONALS) == 0
    assert reduced_betti(fourcycle, 1, F2) == 1


def test_simplex_acyclic():
    cx = Complex(4, [range(1, 5)])
    for i in range(-1, cx.dim + 1):
        assert reduced_betti(cx, i, RATIONALS) == 0
        assert reduced_betti(cx, i, F2) == 0


def test_degenerate_conventions():
    irr = Complex(3, [()])
    void = Complex(3, [])
    assert reduced_betti(irr, -1, RATIONALS) == 1
    assert reduced_betti(irr, 0, RATIONALS) == 0
    for i in (-1, 0, 1):
        assert reduced_betti(void, i, RATIONALS) == 0


def test_two_points():
    cx = Complex(2, [(1,), (2,)])
    assert reduced_betti(cx, 0, RATIONALS) == 1
    assert reduced_betti(cx, -1, RATIONALS) == 0


def test_projective_plane_homology(rp2):
    assert reduced_betti(rp2, 1, RATIONALS) == 0
    assert reduced_betti(rp2, 1, F2) == 1
    assert reduced_betti(rp2, 2, RATIONALS) == 0
    assert reduced_betti(rp2, 2, F2) == 1
    assert reduced_betti(rp2, 1, F3) == 0


def test_pivot_order_independence(fourcycle, rp2):
    # recompute ranks with rows/columns reversed; exact arithmetic must agree
    for cx in (fourcycle, rp2):
        for i in range(cx.dim + 1):
            mat = boundary_matrix(cx, i)
            rev = [list(reversed(r)) for r in reversed(mat)]
            for field in (RATIONALS, F2):
                assert matrix_rank(mat, field) == matrix_rank(rev, field)


def euler_check(cx, field):
    lhs = sum((-1) ** i * len(cx.face_masks_of_dim(i)) for i in range(cx.dim + 1)) - 1
    rhs = sum((-1) ** i * reduced_betti(cx, i, field) for i in range(-1, cx.dim + 1))
    return lhs == rhs


def test_euler_poincare(fourcycle, rp2, two_big_facets):
    for cx in (fourcycle, rp2, two_big_facets, Complex(5, [(1, 2, 3), (4, 5)])):
        for field in (RATIONALS, F2, F3):
            assert euler_check(cx, field)


def test_rank_f2_matches_dense_rank_mod_2():
    for cx in mixed_complex_corpus():
        if cx.kind != VOID:
            for i in range(cx.dim + 1):
                assert _rank_f2(cx, i) == rank_mod_p(boundary_matrix(cx, i), 2), (cx, i)


def test_exact_rank_matches_dense_oracles():
    cases = [cx for cx in mixed_complex_corpus() if cx.kind != VOID] + [
        Complex(6, RP2_FACETS), Complex(7, RP2_CONE), Complex(8, RP2_SUSPENSION),
    ]
    non_unit_leads = 0
    for cx in cases:
        for i in range(cx.dim + 1):
            mat = boundary_matrix(cx, i)
            rank = rank_fraction_free(mat)
            assert rank == rank_fractions(mat), (cx, i)
            pivots = _echelon(cx, i, None)
            assert len(pivots) == rank, (cx, i)
            non_unit_leads += any(abs(piv[lead]) != 1 for lead, piv in pivots.items())
            for p in (3, 5):
                assert len(_echelon(cx, i, p)) == rank_mod_p(mat, p), (cx, i, p)
    # the 2-torsion of RP^2 forces a pivot lead of 2, so the scaled
    # (fraction-free) elimination step runs
    assert non_unit_leads


def test_d1_rank_is_vertices_minus_components():
    corpus = [cx for cx in mixed_complex_corpus() if cx.dim >= 0]
    corpus += [cx._link_mask(v) for cx in corpus[:] for v in cx.face_masks_of_dim(0)]
    for cx in corpus:
        mat = tuple_boundary_matrix(cx, 1)
        for field in (RATIONALS, F2, F3):
            assert _rank(cx, 1, field) == matrix_rank(mat, field), (cx, field)


@pytest.mark.parametrize("facets, components", [
    ([(1, 2, 3), (4, 5, 6)], 2),  # two disjoint triangles
    ([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)], 2),  # two disjoint circles
    ([(1,), (2,), (3,)], 3),  # three points
    ([(1, 2, 3), (3, 4, 5)], 1),  # two triangles joined at one vertex
    ([(1, 2), (3, 4), (2, 5), (4, 5)], 1),  # a path met from both ends
])
def test_components(facets, components):
    cx = Complex(6, facets)
    assert _components(cx.facet_masks) == components
    assert reduced_betti(cx, 0, RATIONALS) == components - 1
    if cx.dim >= 1:
        assert _rank(cx, 1, F2) == len(cx.face_masks_of_dim(0)) - components


def test_components_match_union_find():
    # the facets come in random order, so a component is often joined only
    # through a facet met later in the list
    rng = random.Random(68)
    for _ in range(400):
        n = rng.randint(1, 12)
        masks = [rng.randint(1, (1 << n) - 1) & rng.randint(1, (1 << n) - 1) or 1
                 for _ in range(rng.randint(0, 8))]
        root = list(range(n))  # union-find on the vertices

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for fm in masks:
            vs = [v for v in range(n) if fm >> v & 1]
            for v in vs[1:]:
                root[find(v)] = find(vs[0])
        covered = [v for v in range(n) if any(fm >> v & 1 for fm in masks)]
        count = len({find(v) for v in covered})
        assert _components(masks) == count, masks


def test_d1_is_never_eliminated(monkeypatch):
    def refusing(kernel):
        def call(cx, i, *args):
            assert i != 1, (kernel.__name__, cx)
            return kernel(cx, i, *args)
        return call

    monkeypatch.setattr(homology, "_rank_f2", refusing(_rank_f2))
    monkeypatch.setattr(homology, "_echelon", refusing(_echelon))
    min_nonzero_betti.cache_clear()
    depth_stanley_reisner.cache_clear()
    for cx in mixed_complex_corpus():
        if cx.kind == VOID:
            continue
        for field in (RATIONALS, F2, F3):
            depth_stanley_reisner(cx, field)
            is_cohen_macaulay(cx, field)
            for i in range(-1, cx.dim + 1):
                reduced_betti(cx, i, field)


def test_counting_settles_a_betti_number_without_the_top_map(monkeypatch):
    # a triangle on a 4-cycle: f_1 - rank d_1 = 7 - 5 = 2 one-cycles, but one
    # triangle, so b_1 >= 1 before d_2 is ranked
    sparse = Complex(6, [(1, 2, 3), (3, 4), (4, 5), (5, 6), (3, 6)])
    # the hollow tetrahedron has as many triangles as one-cycles: d_2 is needed
    hollow = Complex(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])

    def refusing(cx, i, field):
        assert i != 2, cx
        return _rank(cx, i, field)

    monkeypatch.setattr(homology, "_rank", refusing)
    min_nonzero_betti.cache_clear()
    for field in (RATIONALS, F2, F3):
        assert min_nonzero_betti(sparse, field, sparse.dim + 1) == 1
        with pytest.raises(AssertionError):
            min_nonzero_betti(hollow, field, hollow.dim + 1)
    monkeypatch.undo()
    assert [reduced_betti(sparse, i) for i in range(3)] == [0, 1, 0]


def test_only_the_three_value_caches_remain():
    # a new cache is a deliberate choice: name it here
    found = set()
    for info in pkgutil.iter_modules(srdepth.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"srdepth.{info.name}")
        for obj in vars(module).values():
            for o in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                if hasattr(o, "cache_info"):
                    found.add(f"{o.__module__}.{o.__qualname__}")
    assert found == {
        "srdepth.homology.min_nonzero_betti", "srdepth.homology.depth_stanley_reisner",
        "srdepth.homology._selections",
    }


def test_the_value_caches_stay_within_their_bound():
    # more distinct complexes than the bound, two triangles each, asked for
    # their least Betti index and their depth: every entry past the bound
    # evicts one, and the answers stay right
    bound = homology.VALUE_CACHE_SIZE
    caches = (min_nonzero_betti, depth_stanley_reisner)
    for cache in caches:
        cache.cache_clear()
    triangles = list(combinations(range(1, 11), 3))
    for f, g in islice(combinations(triangles, 2), bound + 100):
        cx = Complex(10, [f, g])
        shared = len(set(f) & set(g))
        assert depth_stanley_reisner(cx, RATIONALS) == shared + 1
        assert min_nonzero_betti(cx, RATIONALS, cx.dim + 1) == (None if shared else 0)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == bound
        assert info.misses > bound >= info.currsize
        cache.cache_clear()


def test_each_question_has_one_cache_key():
    # every argument of the cached functions is positional, the field has no
    # default and the bound is an int, so no second spelling of a question
    # can add a second entry, and asking twice leaves one
    cx = Complex(5, [(1, 2, 3), (3, 4), (4, 5), (2, 5)])  # no cone, depth 2
    caches = (min_nonzero_betti, depth_stanley_reisner, homology._selections)
    for cache in caches:
        cache.cache_clear()
    refused = [
        lambda: depth_stanley_reisner(cx),
        lambda: depth_stanley_reisner(cx, field=RATIONALS),
        lambda: min_nonzero_betti(cx, F2, None),
        lambda: min_nonzero_betti(cx, F2, below=cx.dim + 1),
        lambda: homology._selections(cx),
        lambda: homology._selections(cx, field=RATIONALS),
    ]
    for call in refused:
        with pytest.raises(TypeError):
            call()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]
    for _ in range(2):
        assert depth_stanley_reisner(cx, RATIONALS) == 2
        assert min_nonzero_betti(cx, F2, cx.dim + 1) == 1
        assert homology._selections(cx, RATIONALS).t == 2
    assert [cache.cache_info().currsize for cache in caches] == [1, 1, 1]
    assert [cache.cache_info().hits for cache in caches] == [1, 2, 1]
    for cache in caches:
        cache.cache_clear()


def test_complex_slots_are_named():
    # a new per-complex memo is a deliberate choice: name it here
    assert Complex.__slots__ == (
        "n", "_fmasks", "kind", "dim", "_hash", "_levels", "_above", "_links",
    )


def test_monomial_ideal_slots_are_named():
    # a new per-ideal memo is a deliberate choice: name it here
    assert MonomialIdeal.__slots__ == ("n", "gens", "_radical")


def test_the_f2_depth_reuses_the_q_depths_links(monkeypatch):
    built = []
    original = Complex._from_masks.__func__

    def counting(cls, n, masks):
        built.append(n)
        return original(cls, n, masks)

    rng = random.Random(25)
    corpus = [Complex(6, RP2_FACETS), Complex(7, RP2_CONE), Complex(8, RP2_SUSPENSION)]
    corpus += [random_pure_complex(rng) for _ in range(100)]
    corpus += [cx for cx in mixed_complex_corpus(count=100, seed=25) if cx.kind != VOID]
    for cx in corpus:
        # cold caches, so the Q depth walks this very object
        min_nonzero_betti.cache_clear()
        depth_stanley_reisner.cache_clear()
        depth_stanley_reisner(cx, RATIONALS)
        monkeypatch.setattr(Complex, "_from_masks", classmethod(counting))
        depth_stanley_reisner(cx, F2)
        monkeypatch.undo()
        assert not built, cx


def test_the_q_cm_walk_reads_the_f2_walks_scans(monkeypatch):
    # the octahedral 2-sphere is Cohen-Macaulay over every field, so both
    # walks ask every link, and the Q scan's F_2 step must find each answer
    # under the key the F_2 walk stored it
    cx = Complex(6, [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
    min_nonzero_betti.cache_clear()
    assert is_cohen_macaulay(cx, F2)
    monkeypatch.setattr(homology, "_rank_f2", lambda cx, i: pytest.fail(f"d_{i} ranked again"))
    assert is_cohen_macaulay(cx, RATIONALS)


def test_a_complex_and_its_links_are_freed_without_the_cycle_collector():
    class Watched(Complex):  # Complex has no weakref slot; a subclass has one
        pass

    cx = Watched(8, RP2_SUSPENSION)
    for field in (RATIONALS, F2):
        depth_stanley_reisner(cx, field)
        is_cohen_macaulay(cx, field)
    assert cx._links and all(lk._above for lk in cx._links.values())
    ref = weakref.ref(cx)
    gc.disable()
    try:
        min_nonzero_betti.cache_clear()
        depth_stanley_reisner.cache_clear()
        del cx
        # no link refers to its parent, so reference counting frees them
        assert ref() is None
    finally:
        gc.enable()


def seeded_decomposition(seed: int, pure: bool) -> Decomposition:
    """A random decomposition over a random pure complex, or over the
    complex that four random faces of mixed sizes generate."""
    rng = random.Random(seed)
    if pure:
        return random_decomposition(rng, n_max=6, r_max=5)
    n = rng.randint(3, 6)
    cx = Complex(n, [rng.sample(range(1, n + 1), rng.randint(1, n - 1)) for _ in range(4)])
    return random_decomposition(rng, cx=cx)


#: (seed, pure, equal over Q) of seeded decompositions over non-rigid complexes
SEEDED_DECOMPOSITIONS = {
    "pure-equal": (27, True, True),
    "pure-unequal": (12, True, False),
    "nonpure-equal": (131, False, True),
    "nonpure-unequal": (50, False, False),
}


@pytest.mark.parametrize("seed, pure, equal", SEEDED_DECOMPOSITIONS.values(),
                         ids=SEEDED_DECOMPOSITIONS)
def test_the_seeded_decompositions_search_to_their_verdicts(seed, pure, equal):
    dec = seeded_decomposition(seed, pure)
    assert is_pure(dec.delta) == pure
    assert not homology._selections(dec.delta, RATIONALS).rigid
    assert depth_equals_radical(dec).equal == equal


GARBAGE_ROUTES = {
    "decision": depth_equals_radical,
    "ideal-depth": depth_via_local_cohomology,
    "radical": lambda ideal, field: radical_complex(ideal),
    "depth": depth_stanley_reisner,
    "rigid": lambda cx, field: is_rigid_by_intersections(cx, depth_stanley_reisner(cx, field)),
    "cones": generate_cone_union,
}


def garbage_cases() -> list:
    """(parse, route, field) for each verdict the cycle pin asks: parse
    builds the input anew, from its JSON or its seed."""
    inputs = []  # (route names, input name, parse)
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "components" in doc:
            inputs.append((["decision"], path.stem, lambda doc=doc: Decomposition.from_json_dict(doc)))
        elif "facets" in doc:
            inputs.append((["depth", "rigid", "cones"], path.stem,
                           lambda doc=doc: Complex.from_json_dict(doc)))
        else:
            inputs.append((["ideal-depth", "radical"], path.stem,
                           lambda doc=doc: MonomialIdeal.from_json_dict(doc)))
    for name, (seed, pure, _) in SEEDED_DECOMPOSITIONS.items():
        inputs.append((["decision"], name, lambda seed=seed, pure=pure: seeded_decomposition(seed, pure)))
    cases = []
    for routes, name, parse in inputs:
        for route in routes:
            for field in (RATIONALS, F2, F3):
                # the candidate cap refuses this union, and a traceback is a cycle
                if route == "cones" and name == "projective_plane_6" and field is not F2:
                    continue
                cases.append(pytest.param(parse, GARBAGE_ROUTES[route], field,
                                          id=f"{route}-{name}-{field}"))
    return cases


@pytest.mark.parametrize("parse, route, field", garbage_cases())
def test_no_verdict_leaves_cyclic_garbage(parse, route, field):
    # each verdict's state is freed by reference counting as it returns;
    # the first call fills the caches, so the second asks the same question
    # of a fresh input with the caches warm
    route(parse(), field)
    gc.collect()
    gc.disable()
    try:
        route(parse(), field)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- least nonvanishing index ----------------------------------------------------------

def test_min_nonzero_betti_matches_generic_oracle():
    for cx in mixed_complex_corpus():
        for field in (RATIONALS, F2, F3):
            expected = generic_min_nonzero_betti(cx, field)
            assert min_nonzero_betti(cx, field, cx.dim + 1) == expected, (cx, field)
            for below in range(cx.dim + 2):
                bounded = expected if expected is not None and expected < below else None
                assert min_nonzero_betti(cx, field, below) == bounded, (cx, field, below)


def test_cm_certificate_matches_generic_oracle():
    for cx in mixed_complex_corpus(count=60, seed=9):
        if cx.kind == VOID:
            continue
        for field in (RATIONALS, F2, F3):
            res = is_cohen_macaulay(cx, field)
            assert (res.cm, res.face, res.index) == reisner_walk(cx, field), (cx, field)


def test_cm_certificate_of_cones_matches_full_walk():
    # k apex vertices at random positions among the n + k: the peeled walk
    # must name the same first violating face as the walk over every face
    rng = random.Random(2013)
    corpus = [random_pure_complex(rng) for _ in range(40)]
    corpus += mixed_complex_corpus(count=40, n_max=6, seed=12)
    for cx in corpus:
        if cx.kind == VOID:
            continue
        k = rng.randint(0, 3)
        apex = set(rng.sample(range(1, cx.n + k + 1), k))
        rest = [v for v in range(1, cx.n + k + 1) if v not in apex]
        cone = Complex(cx.n + k, [[rest[v - 1] for v in f] + sorted(apex) for f in cx.facets])
        for field in (RATIONALS, F2, F3):
            res = is_cohen_macaulay(cone, field)
            expected = reisner_walk(cone, field, lambda lk, k: min_nonzero_betti(lk, k, lk.dim + 1))
            assert (res.cm, res.face, res.index) == expected, (cone, field)


def test_cm_certificate_of_a_wide_cone_walks_only_the_link(monkeypatch):
    # two disjoint edges coned by the 20 vertices 5..24: the walk over every
    # face meets the violating face only after millions of others
    calls = []
    real = homology.min_nonzero_betti

    def counted(cx, field, *below):
        calls.append(cx)
        return real(cx, field, *below)

    monkeypatch.setattr(homology, "min_nonzero_betti", counted)
    apex = tuple(range(5, 25))
    res = is_cohen_macaulay(Complex(24, [(1, 2, *apex), (3, 4, *apex)]), RATIONALS)
    assert (res.cm, res.face, res.index) == (False, apex, 0)
    assert len(calls) <= 2


def test_a_wide_cone_lists_none_of_its_faces():
    # RP^2 coned by the 30 vertices 7..36: its apex link, the projective
    # plane, lists its own 32 faces; filtering them from the cone's lists
    # would make the cone list its 52,437 faces of 30 to 33 vertices
    apex = tuple(range(7, 37))
    cone = Complex(36, [f + apex for f in RP2_FACETS])
    for field, depth in ((RATIONALS, 33), (F2, 32)):
        assert depth_stanley_reisner(cone, field) == depth
        assert bool(is_cohen_macaulay(cone, field)) == (field == RATIONALS)
    assert cone._levels is None


@pytest.mark.parametrize("n, facets, lows, depths", [
    (6, RP2_FACETS, (None, 1), (3, 2)),
    (7, RP2_CONE, (None, None), (4, 3)),
    # the Q scan resumes at the F_2 index 2 and finds nothing up to dim 3
    (8, RP2_SUSPENSION, (None, 2), (4, 3)),
])
def test_two_torsion_routes(n, facets, lows, depths):
    cx = Complex(n, facets)
    assert tuple(min_nonzero_betti(cx, f, cx.dim + 1) for f in (RATIONALS, F2)) == lows
    assert tuple(depth_stanley_reisner(cx, f) for f in (RATIONALS, F2)) == depths


@pytest.mark.parametrize("n, facets, most", [
    # the octahedral 2-sphere: every link's F_2 answer is 0 or its dim
    (6, [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)], 0),
    (8, RP2_SUSPENSION, 2),
])
def test_rational_depth_ranks_over_q_only_where_torsion_can_appear(monkeypatch, n, facets, most):
    calls = []

    def counted(cx, i, p):
        calls.append(i)
        return _echelon(cx, i, p)

    monkeypatch.setattr(homology, "_echelon", counted)
    for cache in (min_nonzero_betti, depth_stanley_reisner):
        cache.cache_clear()
    depth_stanley_reisner(Complex(n, facets), RATIONALS)
    assert len(calls) <= most


# -- Cohen-Macaulayness ------------------------------------------------------------------

def test_cm_fourcycle(fourcycle):
    for field in (RATIONALS, F2, F3):
        assert is_cohen_macaulay(fourcycle, field)


def test_cm_disconnected():
    cx = Complex(4, [(1, 2), (3, 4)])
    res = is_cohen_macaulay(cx, RATIONALS)
    assert not res
    assert res.face == ()
    assert res.index == 0


def test_cm_projective_plane(rp2):
    assert is_cohen_macaulay(rp2, RATIONALS)
    assert is_cohen_macaulay(rp2, F3)
    res = is_cohen_macaulay(rp2, F2)
    assert not res


def test_zero_dimensional_always_cm():
    assert is_cohen_macaulay(Complex(5, [(1,), (3,), (5,)]), RATIONALS)


# -- depth via the skeleton formula ---------------------------------------------------------

def test_depth_fourcycle(fourcycle):
    for field in (RATIONALS, F2, F3):
        assert depth_stanley_reisner(fourcycle, field) == 2


def test_depth_two_triangle_complexes():
    assert depth_stanley_reisner(Complex(5, [(1, 2, 3), (1, 4, 5)]), RATIONALS) == 2
    assert depth_stanley_reisner(Complex(4, [(1, 2, 3), (1, 3, 4)]), RATIONALS) == 3


def test_depth_two_big_facets(two_big_facets):
    assert depth_stanley_reisner(two_big_facets, RATIONALS) == 3


def test_depth_projective_plane(rp2):
    assert depth_stanley_reisner(rp2, RATIONALS) == 3
    # mechanically, the 1-skeleton (complete graph) is connected hence CM,
    # so the skeleton formula yields 2 in characteristic 2
    assert depth_stanley_reisner(rp2, F2) == 2


def test_depth_cm_iff_maximal(fourcycle, rp2):
    for cx in (fourcycle, rp2):
        for field in (RATIONALS, F2):
            cm = bool(is_cohen_macaulay(cx, field))
            assert (depth_stanley_reisner(cx, field) == cx.dim + 1) == cm


def test_depth_char_zero_dominates(fourcycle, rp2, two_big_facets):
    for cx in (fourcycle, rp2, two_big_facets):
        dq = depth_stanley_reisner(cx, RATIONALS)
        for field in (F2, F3):
            assert dq >= depth_stanley_reisner(cx, field)


def test_depth_of_degenerate_complexes():
    # K[irrelevant] is the field itself, of depth 0; the void complex has no ring
    for n in (1, 2, 5):
        assert depth_stanley_reisner(Complex(n, [()]), RATIONALS) == 0
        assert is_cohen_macaulay(Complex(n, [()]), F2)
        with pytest.raises(ValueError):
            depth_stanley_reisner(Complex(n, []), RATIONALS)


def _skeleton_depth(cx: Complex, field: FieldSpec) -> int:
    """Oracle: 1 + max{i : the i-skeleton is Cohen-Macaulay}."""
    return 1 + max(i for i in range(cx.dim + 1) if is_cohen_macaulay(cx.skeleton(i), field))


def _random_complex(rng: random.Random) -> Complex:
    """Usually non-pure: up to six faces of random sizes on 2..7 vertices."""
    n = rng.randint(2, 7)
    faces = [rng.sample(range(1, n + 1), rng.randint(2, n)) for _ in range(rng.randint(1, 6))]
    return Complex(n, faces)


#: Two k-simplices on a common (k-2)-face, k = 1..5: depth k, set by H~_0
#: at their meet.
TWO_SIMPLICES = [Complex(k + 3, [range(1, k + 2), [*range(1, k), k + 2, k + 3]]) for k in range(1, 6)]


def _last_level_complexes(rng: random.Random) -> list[Complex]:
    """Complexes whose depth is often set by H~_0 at a facet meet."""
    return TWO_SIMPLICES + [
        Complex(n, bench_corpus.random_pure_complex(rng, n, k, r))
        for n, k, r in bench_corpus.RIGIDITY_CLASSES for _ in range(2)
    ]


def test_hochster_depth_matches_skeleton_oracle(rp2, two_big_facets):
    rng = random.Random(20121)
    corpus = [rp2, two_big_facets, Complex(4, [(1, 2), (3, 4)])]
    corpus += [_random_complex(rng) for _ in range(40)]
    corpus += [random_pure_complex(rng) for _ in range(40)]
    corpus += _last_level_complexes(rng)
    assert [depth_stanley_reisner(cx, RATIONALS) for cx in TWO_SIMPLICES] == [1, 2, 3, 4, 5]
    assert any(not is_pure(cx) for cx in corpus)
    for cx in corpus:
        for field in (RATIONALS, F2, F3):
            assert depth_stanley_reisner(cx, field) == _skeleton_depth(cx, field), (cx, field)


def test_cone_depth_peels_the_apex(rp2, two_big_facets):
    # depth K[cx * simplex on k new vertices] = depth K[cx] + k, and the
    # peeled depth agrees with the skeleton oracle on the cone itself
    rng = random.Random(20122)
    corpus = [rp2, two_big_facets, Complex(4, [(1, 2), (3, 4)])]
    corpus += [_random_complex(rng) for _ in range(15)]
    corpus += _last_level_complexes(rng)
    for cx in corpus:
        k = rng.randint(1, 2)
        apex = range(cx.n + 1, cx.n + k + 1)
        cone = Complex(cx.n + k, [(*f, *apex) for f in cx.facets])
        for field in (RATIONALS, F2):
            d = depth_stanley_reisner(cx, field) + k
            assert depth_stanley_reisner(cone, field) == d == _skeleton_depth(cone, field)


def _certificate_corpus() -> list[Complex]:
    """Seeded complexes on 3 to 8 vertices, pure, not pure and cones over
    both, plus every complex fixture."""
    rng = random.Random(5201)
    pure = []
    while len(pure) < 120:
        cx = random_pure_complex(rng, n_max=8)
        if cx.n >= 3:
            pure.append(cx)
    mixed = []
    while len(mixed) < 60:
        n = rng.randint(3, 8)
        cx = Complex(n, [rng.sample(range(1, n + 1), rng.randint(1, n - 1))
                         for _ in range(rng.randint(2, 6))])
        if not is_pure(cx):
            mixed.append(cx)
    cones = []
    for cx in rng.sample([cx for cx in pure + mixed if cx.n <= 6], 40):
        apex = range(cx.n + 1, cx.n + rng.randint(1, 8 - cx.n) + 1)
        cones.append(Complex(apex[-1], [(*f, *apex) for f in cx.facets]))
    fixtures = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    return pure + mixed + cones + [Complex.from_json_dict(d) for d in fixtures if "facets" in d]


def test_hochsters_walk_keeps_a_face_that_attains_the_depth():
    # the walk's face G and index i: H~_i(lk G) != 0, by dense ranks, and
    # |G| + 1 + i is the depth; for a pure complex below dim + 1 the face
    # breaks Reisner's criterion too, i < dim lk G
    reisner = facet_faces = 0
    for cx in _certificate_corpus():
        for field in (RATIONALS, F2, F3):
            depth, face, index = _hochster(cx, field)
            assert is_face(cx, face), (cx, field)
            lk = cx._link_mask(face)
            assert generic_min_nonzero_betti(lk, field) == index, (cx, field)
            assert face.bit_count() + 1 + index == depth == depth_stanley_reisner(cx, field)
            if is_pure(cx) and depth <= cx.dim:
                assert index < lk.dim, (cx, field)
                reisner += 1
            facet_faces += index == -1 and depth <= cx.dim
    assert reisner > 50 and facet_faces > 50, (reisner, facet_faces)


def test_simplex_depth_needs_no_face_scan():
    # the 64-vertex simplex has 2^64 faces; peeling its apex leaves the
    # irrelevant complex, so the answer comes at once
    assert depth_stanley_reisner(Complex(64, [range(1, 65)]), RATIONALS) == 64
    assert depth_stanley_reisner(Complex(64, [range(1, 64), (1, 64)]), F2) == 2


def test_the_last_level_builds_no_link():
    # RP^2: every vertex link is a connected 5-cycle, so u = 3 and only the
    # empty face is ranked, below index 2: acyclic over Q, depth 2 over F_2
    min_nonzero_betti.cache_clear()
    depth_stanley_reisner.cache_clear()
    cx = Complex(6, RP2_FACETS)
    assert depth_stanley_reisner(cx, RATIONALS) == 3
    assert depth_stanley_reisner(cx, F2) == 2
    assert cx._links is None


def test_a_disconnected_link_sits_at_a_facet_meet():
    # the first pass's fact, over every face: a face that is no facet and
    # whose link is disconnected (H~_0 != 0 from dense ranks) is the meet of
    # two facets, and u, the least of the facet sizes and |G| + 1 over such
    # faces G, is never below the depth
    rng = random.Random(4501)
    corpus = _selection_complexes() + [_random_complex(rng) for _ in range(300)]
    assert sum(not is_pure(cx) for cx in corpus) > 25
    split = 0
    for cx in corpus:
        masks = cx.facet_masks
        meets = {f & g for f, g in combinations(masks, 2)}
        faces = [
            fm for i in range(-1, cx.dim) for fm in cx.face_masks_of_dim(i)
            if fm not in masks and generic_min_nonzero_betti(cx._link_mask(fm)) == 0
        ]
        assert set(faces) <= meets, cx
        split += bool(faces)
        u = min([fm.bit_count() for fm in masks] + [fm.bit_count() + 1 for fm in faces])
        for field in (RATIONALS, F2):
            assert depth_stanley_reisner(cx, field) <= u, (cx, field)
    assert split > 80


@pytest.mark.parametrize("n, facets, depth, top", [
    # the seed-1 random-8.5.6 complex of the rigidity round: the facets 13578
    # and 24567 meet in the edge 57, whose link falls apart, so u = 3 and the
    # walk asks the complex itself only for H~_0 and H~_1, although its
    # smallest facet size, 5, would leave d_3 and d_4 in reach
    (8, [[1, 2, 4, 7, 8], [1, 3, 4, 5, 8], [1, 3, 5, 7, 8],
         [1, 4, 6, 7, 8], [2, 4, 5, 6, 7], [2, 4, 5, 6, 8]], 3, 2),
    # tetrahedra 1234 and 1567 meet in the vertex 1, whose link falls apart,
    # and 5678 joins the second: u = 2 with no rank and no vertex link
    (8, [[1, 2, 3, 4], [1, 5, 6, 7], [5, 6, 7, 8]], 2, None),
])
def test_the_walk_ranks_only_below_the_connectivity_bound(monkeypatch, n, facets, depth, top):
    cx = Complex(n, facets)
    ranked = []
    rank = homology._rank

    def recorded(c, i, field):
        if c is cx:
            ranked.append(i)
        return rank(c, i, field)

    monkeypatch.setattr(homology, "_rank", recorded)
    min_nonzero_betti.cache_clear()
    depth_stanley_reisner.cache_clear()
    for field in (RATIONALS, F2, F3):
        assert depth_stanley_reisner(cx, field) == depth
    assert max(ranked, default=None) == top
    assert cx._links is None


def _selection_complexes() -> list[Complex]:
    """Seeded pure complexes of every cone and decision-pool shape, the 4-,
    5- and 6-cycles and the six-vertex projective plane."""
    rng = random.Random(20127)
    shapes = sorted(set(bench_corpus.CONE_CLASSES) | set(bench_corpus.DECISION_POOL))
    corpus = [
        Complex(n, bench_corpus.random_pure_complex(rng, n, k, r))
        for n, k, r in shapes for _ in range(3)
    ]
    corpus += [Complex(m, [(i, i % m + 1) for i in range(1, m + 1)]) for m in (4, 5, 6)]
    return corpus + [Complex(6, bench_corpus.PROJECTIVE_PLANE_6)]


def test_selection_below_matches_the_built_depth():
    # every facet subset, the empty one included, against the depth of the
    # subcomplex it generates; each branch must answer both ways
    answers = set()
    for cx in _selection_complexes():
        for field in (RATIONALS, F2, F3):
            t = depth_stanley_reisner(cx, field)
            for size in range(len(cx.facet_masks) + 1):
                for masks in combinations(cx.facet_masks, size):
                    below = bool(masks) and depth_stanley_reisner(
                        Complex._from_masks(cx.n, masks), field) < t
                    assert _generated_below(cx.n, list(masks), t, field) == below, (cx, masks, field)
                    branch = ("none or one" if size < 2 else "pair" if size == 2
                              else "connectivity" if t <= 2 else "built")
                    answers.add((branch, below))
    assert answers == {
        ("none or one", False), ("pair", False), ("pair", True),
        ("connectivity", False), ("connectivity", True), ("built", False), ("built", True),
    }


def _built_low_depth_selections(cx: Complex, t: int, field: FieldSpec) -> list[tuple[int, ...]]:
    """Oracle: the proper selections whose built subcomplex has depth below
    t, the rule of rigid._walk."""
    masks = cx.facet_masks
    return [
        idx for idx in _selection_indices(len(masks))
        if depth_stanley_reisner(Complex._from_masks(cx.n, [masks[i] for i in idx]), field) < t
    ]


def _walked(cx: Complex, t: int, field: FieldSpec) -> list[tuple[int, ...]]:
    """The selections stored True by the full walk of a new _Selections of
    cx at t, yielded or covered; it walks also where the facets pass the
    criterion."""
    return walked_below(_Selections(cx.n, cx.facet_masks, t, field))


@pytest.mark.parametrize("count", [300, pytest.param(2500, marks=pytest.mark.slow)])
def test_low_depth_walk_matches_the_built_selections(count, monkeypatch):
    # seeded pure complexes, n 4-8, facet sizes 2-5, 3-8 facets, and the
    # projective plane (t = 3 over Q, 2 over F_2), at every t from 1 to the
    # facet size (at most 5); every route of the walk must answer both
    # ways, except a single facet and the fallback.  A selection is asked
    # at s = t, the depth lemma's intersections at s = t - 1
    answers = set()
    generated_below = homology._generated_below

    def asked(n, parts, s, field):
        below = generated_below(n, parts, s, field)
        if s == t:
            answers.add(("one" if len(parts) < 2 else "pair" if len(parts) == 2
                         else "connectivity" if s <= 2 else "fallback", below))
        else:
            assert s == t - 1
            answers.add(("lemma pair" if len(parts) == 2 else "lemma by masks" if s <= 2
                         else "lemma built", below))
        return below

    monkeypatch.setattr(homology, "_generated_below", asked)
    rng = random.Random(34)
    corpus = []
    for _ in range(count):
        n = rng.randint(4, 8)
        k = rng.randint(2, min(5, n - 1))
        r = rng.randint(3, min(8, comb(n, k)))
        corpus.append(Complex(n, bench_corpus.random_pure_complex(rng, n, k, r)))
    corpus.append(Complex(6, bench_corpus.PROJECTIVE_PLANE_6))
    for cx in corpus:
        for field in (RATIONALS, F2, F3):
            for t in range(1, min(5, cx.dim + 1) + 1):
                assert _walked(cx, t, field) == _built_low_depth_selections(cx, t, field), (cx, t, field)
    assert answers == {
        ("one", False), ("pair", False), ("pair", True),
        ("connectivity", False), ("connectivity", True),
        ("lemma pair", False), ("lemma pair", True),
        ("lemma by masks", False), ("lemma by masks", True),
        ("lemma built", False), ("lemma built", True), ("fallback", True),
    }


@pytest.mark.parametrize("parts, depth", [
    ([0b000, 0b000], 0),  # every G n F empty: the irrelevant complex
    ([0b001, 0b000, 0b001], 1),  # a single vertex
    ([0b001, 0b110], 1),  # a maximal isolated vertex beside an edge
    ([0b011, 0b001, 0b011], 2),  # nested and repeated masks of one edge
    ([0b0111, 0b0011, 0b1100], 2),  # impure: a triangle and an edge on a vertex
    ([0b01111, 0b10011], 3),  # impure: a tetrahedron and a triangle on an edge
    ([0b0111, 0b1110, 0b0110], 3),  # two triangles on an edge, and the edge
])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_intersections_below_read_the_built_depth(parts, depth, s):
    cx = Complex(5, [[j + 1 for j in range(5) if m >> j & 1] for m in parts])
    assert depth_stanley_reisner(cx, RATIONALS) == depth
    assert _generated_below(5, parts, s, RATIONALS) == (depth < s)


@pytest.mark.parametrize("faces", [
    [()], [(), ()], [(), (), ()],  # no nonempty part: the irrelevant complex, depth 0
    [(1, 2, 3)],  # one face: a simplex, depth 3
    [(1, 2, 3), (2, 3, 4)], [(1, 2), (3, 4)],  # two incomparable faces: depth 3 and 1
    [(1, 2), (1, 2, 3)], [(2,), (1, 2, 3, 4)],  # two nested faces: depth 3 and 4
    [(1, 2), (1, 2)], [(1, 2, 3)] * 3,  # a repeated face: depth 2 and 3
    [(), (1, 2)], [(), (1, 2), (2, 3)],  # an empty part beside nonempty ones: depth 2
    [(1, 2), (2, 3), (3, 4)],  # connected, a path: depth 2
    [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],  # connected, a 2-sphere: depth 3
    RP2_FACETS,  # connected: depth 3 over Q, 2 over F_2
    [(1, 2), (3,), (4, 5)], [(1, 2, 3), (2, 3, 4), (5, 6)],  # disconnected: depth 1
    [(1,), (1,), ()],  # on one vertex: depth 1
    [(1, 2, 3), (1, 2), (2, 3, 4)], [(1, 2, 3), (4, 5), (4,)],  # two maximal faces: 3 and 1
])
@pytest.mark.parametrize("field", [RATIONALS, F2], ids=["Q", "F2"])
def test_generated_below_reads_the_depth_of_any_faces(faces, field):
    parts = [sum(1 << (v - 1) for v in f) for f in faces]
    depth = depth_stanley_reisner(Complex(6, faces), field)
    for s in range(1, 5):
        assert _generated_below(6, parts, s, field) == (depth < s), (s, depth)


def test_a_selection_without_a_deep_complement_is_built(monkeypatch):
    # projective plane over Q, t = 3: 123, 145 and 246 meet pairwise in one
    # vertex, so every pair has depth 2 and the triple is built
    cx = Complex(6, bench_corpus.PROJECTIVE_PLANE_6)
    masks = cx.facet_masks
    triple = tuple(sorted(masks.index(sum(1 << (v - 1) for v in f))
                          for f in ((1, 2, 3), (1, 4, 5), (2, 4, 6))))
    built = []
    generated_below = homology._generated_below

    def asked(n, parts, s, field):
        if s == 3 and len(parts) > 2:  # a selection, not the lemma's s = 2
            built.append(tuple(masks.index(m) for m in parts))
        return generated_below(n, parts, s, field)

    monkeypatch.setattr(homology, "_generated_below", asked)
    # asked directly: the walk covers the triple by the pair of its first two
    sels = _Selections(cx.n, masks, 3, RATIONALS)
    for pair in combinations(triple, 2):
        assert sels.below(sum(1 << i for i in pair), pair)
    assert sels.below(sum(1 << i for i in triple), triple) and built == [triple]


def test_low_depth_walk_is_lazy(monkeypatch):
    # making the walk asks nothing; each step takes selections only up to
    # the one it yields
    asked = []

    def below(n, parts, s, field):
        asked.append((len(parts), s))
        return len(parts) == 2

    monkeypatch.setattr(homology, "_generated_below", below)
    selections = _selection_indices(4)
    walk = _Selections(4, (0b0011, 0b0110, 0b1100, 0b1001), 2, RATIONALS).walk(selections)
    assert asked == []
    assert next(walk) == (0b0011, 0b0011)
    assert asked == [(1, 2)] * 4 + [(2, 2)]  # (size, s): selections at t = 2
    assert next(selections) == (0, 2)


def _hochster_walk(cx: Complex, field: FieldSpec) -> int:
    """Oracle: Hochster's formula over every face, with no apex peeled and
    every link's least nonvanishing index from dense boundary matrices."""
    best = cx.dim + 1
    for i in range(-1, cx.dim + 1):
        for fm in cx.face_masks_of_dim(i):
            low = generic_min_nonzero_betti(cx._link_mask(fm), field)
            if low is not None:
                best = min(best, i + 2 + low)
    return best


def _non_pure_complexes(rng: random.Random) -> list[Complex]:
    """The non-pure _random_complexes among 300, and 40 non-pure complexes
    on 6..8 vertices whose facets have four or more, so that the walk's
    first pass forms facet meets."""
    wide: list[Complex] = []
    while len(wide) < 40:
        n = rng.randint(6, 8)
        cx = Complex(n, [rng.sample(range(1, n + 1), rng.randint(4, n - 1))
                         for _ in range(rng.randint(2, 6))])
        if not is_pure(cx):
            wide.append(cx)
    return [cx for cx in (_random_complex(rng) for _ in range(300)) if not is_pure(cx)] + wide


@pytest.mark.slow
@pytest.mark.parametrize("workload, groups", [("rigidity", 24), ("cones", 1), ("non-pure", 0)])
def test_benchmark_corpora_match_the_generic_oracles(workload, groups):
    if workload == "non-pure":
        corpus = _non_pure_complexes(random.Random(4503))
    else:
        corpus = [Complex.from_json_dict(item.data)
                  for item in bench_corpus.CORPORA[workload](1, groups)]
    for cx in corpus:
        for field in (RATIONALS, F2, F3):
            depth = depth_stanley_reisner(cx, field)
            res = is_cohen_macaulay(cx, field)
            assert depth == _hochster_walk(cx, field), (cx, field)
            assert (res.cm, res.face, res.index) == reisner_walk(cx, field), (cx, field)
