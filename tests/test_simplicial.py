import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from srdepth import simplicial
from srdepth.cones import generate_cone_union
from srdepth.criteria import degree_complex, degree_complex_unmixed
from srdepth.homology import RATIONALS, depth_stanley_reisner, min_nonzero_betti, prime_field
from srdepth.ideals import radical_complex
from srdepth.rigid import is_rigid_by_skeleton_cm, is_rigid_by_subcomplex_depths
from srdepth.simplicial import (
    Complex,
    IRRELEVANT,
    ORDINARY,
    VOID,
    face_mask,
    json_fields,
    mask_bits,
    mask_vertices,
    minimal_transversals,
)
from tests.conftest import (
    FIXTURES, combination_faces, mixed_complex_corpus, random_decomposition, random_ideal,
    random_pure_complex,
)


def brute_faces(cx: Complex) -> set:
    """Oracle: all faces by enumerating subsets of every facet."""
    out = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            out.update(combinations(f, k))
    return out


# -- strategies -------------------------------------------------------------------

@st.composite
def complexes(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nfacets = draw(st.integers(min_value=1, max_value=5))
    facets = [
        draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n))
        for _ in range(nfacets)
    ]
    return Complex(n, facets)


# -- construction and normalization ------------------------------------------------

def test_maximality_normalization():
    cx = Complex(4, [(1, 2), (1,), (3, 4)])
    assert cx.facets == ((1, 2), (3, 4))


def test_fourcycle_from_candidates():
    cx = Complex(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
    assert cx.facets == ((1, 2), (2, 3), (1, 4), (3, 4))
    assert cx.kind == ORDINARY


def test_irrelevant_and_void():
    irr = Complex(3, [()])
    assert irr.kind == IRRELEVANT
    assert irr.dim == -1
    void = Complex(3, [])
    assert void.kind == VOID
    assert void.dim == -2


def test_vertex_out_of_range():
    with pytest.raises(ValueError):
        Complex(3, [(1, 4)])
    with pytest.raises(ValueError):
        Complex(0, [()])


@pytest.mark.parametrize("n", [2.0, True])
def test_non_integer_vertex_count_refused(n):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
        Complex(n, [(1,)])


def test_repeated_vertex_refused():
    with pytest.raises(ValueError, match="^vertex 1 listed twice$"):
        Complex(4, [(1, 1, 2), (2, 3)])
    with pytest.raises(ValueError, match="^vertex 2 listed twice$"):
        face_mask([2, 1, 2], 3)


def test_empty_face_dropped_when_dominated():
    cx = Complex(3, [(), (1,)])
    assert cx.facets == ((1,),)


@given(complexes())
@settings(max_examples=60)
def test_constructor_idempotent(cx):
    assert Complex(cx.n, cx.facets) == cx


# -- queries ------------------------------------------------------------------------

def test_dimension(fourcycle):
    assert fourcycle.dim == 1
    assert Complex(5, [(1, 2, 3), (4, 5)]).dim == 2


def test_face_enumeration_fourcycle(fourcycle):
    def faces(i):
        return [mask_vertices(m) for m in fourcycle.face_masks_of_dim(i)]

    assert faces(0) == [(1,), (2,), (3,), (4,)]
    assert faces(1) == [(1, 2), (2, 3), (1, 4), (3, 4)]
    assert faces(-1) == [()]


def test_face_enumeration_is_colex():
    cx = Complex(4, [(1, 2, 3), (2, 3, 4)])
    masks = cx.face_masks_of_dim(1)
    assert masks == tuple(sorted(masks))


@given(complexes())
@settings(max_examples=60)
def test_face_counts_match_brute_force(cx):
    if cx.kind != ORDINARY:
        return
    oracle = brute_faces(cx)
    for i in range(-1, cx.dim + 1):
        faces = {mask_vertices(m) for m in cx.face_masks_of_dim(i)}
        assert faces == {f for f in oracle if len(f) == i + 1}


def test_submask_faces_match_combination_oracle():
    for cx in mixed_complex_corpus():
        for i in range(-1, cx.dim + 1):
            assert cx.face_masks_of_dim(i) == tuple(combination_faces(cx, i)), (cx, i)


def test_complex_owns_its_face_lists():
    cx = Complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for i in range(-1, cx.dim + 1):
        assert cx.face_masks_of_dim(i) is cx.face_masks_of_dim(i)
    # an equal complex built anew lists its own faces, shared with no other
    again = Complex(4, cx.facets)
    assert again == cx and again._levels is None
    assert again.face_masks_of_dim(1) == cx.face_masks_of_dim(1)
    assert again.face_masks_of_dim(1) is not cx.face_masks_of_dim(1)
    # the empty face's link is the complex itself, face lists included
    assert cx._link_mask(0) is cx
    assert cx.link(()) is cx


def link_corpus() -> list:
    rp2 = json.loads((FIXTURES / "projective_plane_6.json").read_text())
    return [cx for cx in mixed_complex_corpus() if cx.kind != VOID] + [
        Complex.from_json_dict(rp2)
    ]


def assert_face_lists_match_oracle(cx):
    for i in range(-1, cx.dim + 1):
        assert cx.face_masks_of_dim(i) == tuple(combination_faces(cx, i)), (cx, i)


def test_links_of_a_listed_complex_filter_its_lists(monkeypatch):
    def no_listing(*args):
        raise AssertionError("a link listed faces from its own facets")

    for cx in link_corpus():
        assert_face_lists_match_oracle(cx)
        # every size is listed now, so no link of cx, nor any link of such a
        # link, two levels deep, lists a face of its own
        monkeypatch.setattr(simplicial, "combinations", no_listing)
        for i in range(-1, cx.dim + 1):
            for fm in cx.face_masks_of_dim(i):
                lk = cx._link_mask(fm)
                assert_face_lists_match_oracle(lk)
                for j in range(-1, lk.dim + 1):
                    for g in lk.face_masks_of_dim(j):
                        assert_face_lists_match_oracle(lk._link_mask(g))
        monkeypatch.undo()


def test_links_of_an_unlisted_complex_leave_it_unlisted():
    for cx in link_corpus():
        for i in range(cx.dim + 1):
            for fm in combination_faces(cx, i):
                lk = cx._link_mask(fm)
                assert_face_lists_match_oracle(lk)
                vertex = lk.facet_masks[0] & -lk.facet_masks[0]
                assert_face_lists_match_oracle(lk._link_mask(vertex))
        assert cx._levels is None, cx


def test_a_link_equals_the_complex_built_from_its_facets(rp2):
    f3 = prime_field(3)
    faces = [fm for i in range(-1, rp2.dim + 1) for fm in rp2.face_masks_of_dim(i)]
    for fm in faces[1:]:  # every link but the complex itself, filtered
        lk = rp2._link_mask(fm)
        built = Complex(lk.n, lk.facets)
        assert lk == built and hash(lk) == hash(built)
        min_nonzero_betti(lk, f3)
        before = min_nonzero_betti.cache_info()
        assert min_nonzero_betti(built, f3) == min_nonzero_betti(lk, f3)
        after = min_nonzero_betti.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits + 2, before.misses, before.currsize,
        )


def submask_faces(cx, i) -> tuple:
    """Oracle: the sums of the (i+1)-subsets of each facet's bits, sorted."""
    found = {sum(c) for fm in cx.facet_masks for c in combinations(mask_bits(fm), i + 1)}
    return tuple(sorted(found))


def level_corpus() -> list:
    """Fresh seeded pure and impure complexes, 0-dimensional ones and the
    irrelevant complex, none of them listed yet."""
    rng = random.Random(25)
    points = [
        Complex(n, [(v,) for v in rng.sample(range(1, n + 1), rng.randint(1, n))])
        for n in range(1, 8)
    ]
    return [
        *(random_pure_complex(rng) for _ in range(80)),
        *(cx for cx in mixed_complex_corpus(count=120, seed=25) if cx.kind != VOID),
        *points,
        Complex(3, [()]),
    ]


@pytest.mark.parametrize("top_first", [False, True])
def test_face_levels_match_the_submask_oracle(top_first):
    def dims(cx):
        order = range(-1, cx.dim + 1)
        return reversed(order) if top_first else order

    def check(cx):
        for i in dims(cx):
            assert cx.face_masks_of_dim(i) == submask_faces(cx, i), (cx, i)

    for cx in level_corpus():
        check(cx)
        # links filter the middle levels of a listed parent, and links of
        # links those of a listed link
        for i in dims(cx):
            for fm in cx.face_masks_of_dim(i):
                lk = cx._link_mask(fm)
                check(lk)
                for j in range(lk.dim + 1):
                    for g in lk.face_masks_of_dim(j):
                        check(lk._link_mask(g))


def test_end_levels_are_read_off_the_facets(monkeypatch):
    def no_listing(*args):
        raise AssertionError("an end level was listed from submasks")

    monkeypatch.setattr(simplicial, "combinations", no_listing)
    for cx in level_corpus():
        for i in {-1, min(0, cx.dim), cx.dim}:
            assert cx.face_masks_of_dim(i) == submask_faces(cx, i), (cx, i)


def test_a_complex_keeps_its_links(rp2):
    for i in range(rp2.dim + 1):
        for fm in rp2.face_masks_of_dim(i):
            lk = rp2._link_mask(fm)
            assert rp2._link_mask(fm) is lk
            assert rp2.link(mask_vertices(fm)) is lk
            assert lk == Complex(rp2.n, lk.facets)
    assert len(rp2._links) == sum(len(rp2.face_masks_of_dim(i)) for i in range(rp2.dim + 1))


def test_cached_face_list_is_not_shared_with_callers(fourcycle):
    with pytest.raises(AttributeError):
        fourcycle.face_masks_of_dim(0).clear()
    assert fourcycle.face_masks_of_dim(0) == (1, 2, 4, 8)


# -- facet selections ---------------------------------------------------------------------


@pytest.mark.parametrize("r", range(1, 7))
def test_selection_indices_order(r):
    selections = simplicial._selection_indices(r)
    assert iter(selections) is selections  # lazy, not a list
    assert list(selections) == [
        idx for k in range(1, r) for idx in combinations(range(r), k)
    ]


def test_selection_indices_cap_refuses_when_called(monkeypatch):
    cap = simplicial.DEFAULT_FACET_CAP
    assert next(simplicial._selection_indices(cap)) == (0,)
    with pytest.raises(ValueError, match=f"^{cap + 1} facets exceed the enumeration cap {cap}$"):
        simplicial._selection_indices(cap + 1)
    monkeypatch.setattr(simplicial, "DEFAULT_FACET_CAP", 3)
    with pytest.raises(ValueError, match="^4 facets exceed the enumeration cap 3$"):
        simplicial._selection_indices(4)


@pytest.mark.parametrize(
    "route", [generate_cone_union, is_rigid_by_subcomplex_depths, is_rigid_by_skeleton_cm]
)
def test_selection_cap_refuses_before_any_depth(monkeypatch, fourcycle, route):
    monkeypatch.setattr(simplicial, "DEFAULT_FACET_CAP", 3)
    depth_stanley_reisner.cache_clear()
    with pytest.raises(ValueError) as exc:
        route(fourcycle, RATIONALS)
    assert str(exc.value) == "4 facets exceed the enumeration cap 3"
    assert depth_stanley_reisner.cache_info().currsize == 0


# -- subsumption kernels ---------------------------------------------------------------

# short lists over few bits: duplicates, 0 and nested masks are common
_mask_lists = st.lists(st.integers(min_value=0, max_value=63), max_size=24)


@given(_mask_lists)
@settings(max_examples=200)
def test_maximal_masks_match_brute_force(masks):
    maximal = simplicial._maximal_masks(masks)
    assert set(maximal) == {m for m in masks if not any(m & o == m != o for o in masks)}
    assert list(maximal) == sorted(set(maximal))


def test_internal_builders_pass_antichains(antichain_contract):
    rng = random.Random(14)
    for _ in range(150):
        ideal = random_ideal(rng, n_max=5)
        radical_complex(ideal)
        for _ in range(4):
            degree_complex(ideal, [rng.randint(0, 3) for _ in range(ideal.n)])
    for _ in range(60):
        dec = random_decomposition(rng)
        for _ in range(4):
            degree_complex_unmixed(dec, [rng.randint(0, 3) for _ in range(dec.n)])
        # a refused degree builds nothing
        with pytest.raises(ValueError):
            degree_complex_unmixed(dec, [-1] * dec.n)
    for cx in mixed_complex_corpus(count=80):
        if cx.kind != VOID:
            for i in range(-1, cx.dim + 1):
                cx.skeleton(i)
    assert antichain_contract


# -- minimal transversals ----------------------------------------------------------------

def brute_minimal_transversals(edges, n):
    # the hitting sets are closed upwards, so one is minimal when dropping
    # any single vertex leaves a set that misses some edge
    hitting = {m for m in range(1 << n) if all(m & e for e in edges)}
    return sorted(
        m for m in hitting if not any(m >> v & 1 and m ^ 1 << v in hitting for v in range(n))
    )


def grown_inside_staying(edges) -> int:
    """How many grown transversals Berge's rule drops over the edges, taken
    by size as minimal_transversals takes them, each step read from the
    public transversals of the edges before it: t | b for t missing the
    edge e and b a bit of e, holding a t' that meets e."""
    edges = sorted(set(edges), key=int.bit_count)
    dropped = 0
    for i, e in enumerate(edges):
        trans = minimal_transversals(edges[:i])
        dropped += sum(
            any(k & e and k & (t | 1 << v) == k for k in trans)
            for t in trans if not t & e
            for v in range(e.bit_length()) if e >> v & 1
        )
    return dropped


def test_transversals_of_no_edges_and_of_an_empty_edge():
    assert minimal_transversals([]) == [0]
    assert minimal_transversals([0b11, 0]) == []
    assert minimal_transversals([0]) == []


def test_transversals_ignore_duplicate_and_nested_edges():
    base = minimal_transversals([0b011, 0b110])
    assert base == [0b010, 0b101]
    assert minimal_transversals([0b011, 0b110, 0b011, 0b111, 0b110]) == base


def test_transversals_are_the_minimal_antichain():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        out = minimal_transversals(edges)
        assert out == sorted(out)
        assert not any(a != b and a & b == a for a in out for b in out)
        assert out == brute_minimal_transversals(edges, n), edges
    # denser hypergraphs, where a staying transversal often lies inside a
    # grown one and that grown mask is dropped
    dropped = 0
    for _ in range(200):
        n = rng.randint(4, 10)
        edges = [rng.randrange(1, 1 << n) for _ in range(rng.randint(6, 12))]
        out = minimal_transversals(edges)
        assert not any(a != b and a & b == a for a in out for b in out)
        assert out == brute_minimal_transversals(edges, n), edges
        dropped += grown_inside_staying(edges)
    assert dropped > 0


# -- link / star / skeleton -----------------------------------------------------------

def test_link_of_empty_face_is_identity(fourcycle):
    assert fourcycle.link(()) == fourcycle


def test_link_star_fourcycle(fourcycle):
    # oracle: directly enumerate faces satisfying the definitions
    faces = brute_faces(fourcycle)
    link1 = {g for g in faces if not set(g) & {1} and tuple(sorted(set(g) | {1})) in faces}
    assert set(brute_faces(fourcycle.link((1,)))) == link1
    assert fourcycle.link((1,)).facets == ((2,), (4,))


def test_link_of_simplex_vertex():
    cx = Complex(3, [range(1, 4)])
    assert cx.link((3,)).facets == ((1, 2),)


def test_link_requires_face(fourcycle):
    with pytest.raises(ValueError):
        fourcycle.link((1, 3))


def test_skeleton_cases(fourcycle):
    simplex = Complex(3, [range(1, 4)])
    assert simplex.skeleton(1).facets == ((1, 2), (1, 3), (2, 3))
    assert fourcycle.skeleton(fourcycle.dim) == fourcycle
    assert simplex.skeleton(-1).kind == IRRELEVANT


def test_skeleton_of_mixed_dimensions():
    cx = Complex(5, [(1, 2, 3), (4, 5)])
    sk = cx.skeleton(1)
    assert sk.facets == ((1, 2), (1, 3), (2, 3), (4, 5))


def test_big_skeleton(two_big_facets):
    sk = two_big_facets.skeleton(3)
    from itertools import combinations

    expected = set(combinations((1, 2, 3, 4, 5), 4)) | set(
        combinations((1, 2, 6, 7, 8), 4)
    )
    assert set(sk.facets) == expected


def test_skeleton_out_of_range(fourcycle):
    with pytest.raises(ValueError):
        fourcycle.skeleton(2)
    with pytest.raises(ValueError):
        fourcycle.skeleton(-2)


@given(complexes(), st.integers(min_value=-1, max_value=5), st.integers(min_value=-1, max_value=5))
@settings(max_examples=60)
def test_skeleton_composition(cx, i, j):
    if cx.kind == VOID or i > cx.dim or j > cx.dim:
        return
    assert cx.skeleton(i).skeleton(min(i, j)) == cx.skeleton(min(i, j))


@given(complexes())
@settings(max_examples=60)
def test_link_subset_star_subset_complex(cx):
    if cx.kind != ORDINARY:
        return
    rng = random.Random(17)
    faces = brute_faces(cx)
    f = rng.choice(sorted(faces))
    # the star of f by its definition: the faces whose union with f is a face
    star_faces = {g for g in faces if tuple(sorted(set(g) | set(f))) in faces}
    link_faces = brute_faces(cx.link(f))
    assert link_faces == {g for g in star_faces if not set(g) & set(f)}


# -- serialization ------------------------------------------------------------------------

@given(complexes())
@settings(max_examples=60)
def test_json_round_trip(cx):
    assert Complex.from_json_dict(cx.to_json_dict()) == cx


def test_json_normalizes_on_load():
    cx = Complex.from_json_dict({"n": 4, "facets": [[1, 2], [1], [3, 4]]})
    assert cx.facets == ((1, 2), (3, 4))


def test_masks_round_trip():
    m = face_mask((2, 5, 7), 8)
    assert mask_vertices(m) == (2, 5, 7)


@pytest.mark.parametrize(
    "data",
    [None, [1], {"n": 4}, {"n": 4, "facets": 5}, {"n": 4, "facets": [1, 2]},
     {"n": 4.0, "facets": [[1]]}, {"n": True, "facets": [[1]]}, {"n": 4, "facets": [[1.5]]}],
)
def test_json_rejects_wrong_types(data):
    with pytest.raises(ValueError):
        Complex.from_json_dict(data)


@pytest.mark.parametrize("data, message", [
    (None, "complex JSON needs 'n' and 'facets': got None"),
    ([1], "complex JSON needs 'n' and 'facets': got [1]"),
    ({}, "complex JSON needs 'n' and 'facets': 'n'"),
    ({"n": 4}, "complex JSON needs 'n' and 'facets': 'facets'"),
])
def test_json_fields_names_what_is_missing(data, message):
    assert json_fields({"n": 4, "facets": [], "x": 0}, "complex", "n", "facets") == [4, []]
    with pytest.raises(ValueError) as err:
        json_fields(data, "complex", "n", "facets")
    assert str(err.value) == message
