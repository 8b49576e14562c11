import random
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

from srdepth import (
    Complex,
    Decomposition,
    MonomialIdeal,
    irreducible_ideal,
    prime_power_ideal,
)
from srdepth.cones import ConeUnion, _disjunct_order
from srdepth.criteria import degree_complex, negative_support
from srdepth.homology import (
    RATIONALS, boundary_matrix, depth_stanley_reisner, matrix_rank, reduced_betti,
)
from srdepth.ideals import radical_complex, support_mask
from srdepth.simplicial import IRRELEVANT, VOID, as_int, face_mask, mask_vertices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the three reference exponent tuples for the 4-cycle, in component reading
# order (x1,x2),(x1,x4),(x2,x3),(x3,x4); the first two give depth equality,
# their componentwise midpoint does not
VEC_EQUAL_1 = (3, 5, 1, 3, 5, 9, 7, 9)
VEC_EQUAL_2 = (1, 3, 1, 1, 7, 11, 11, 1)
VEC_MIDPOINT = (2, 4, 1, 2, 6, 10, 9, 5)

FOURCYCLE = Complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

#: component reading order for the 4-cycle: facets sorted so that their
#: complement variable sets are lexicographic, i.e. the intersection
#: (x1,x2) n (x1,x4) n (x2,x3) n (x3,x4); the eight exponent labels e1..e8
#: enumerate each component's outside variables in ascending order.
FOURCYCLE_COMPONENT_FACETS = ((3, 4), (2, 3), (1, 4), (1, 2))

#: the paper's four systems for the 4-cycle, by label in component reading
#: order: (e_i <= e_j, e_k = e_l, e_p <= e_q)
FOURCYCLE_SYSTEMS = (
    ((3, 1), (2, 5), (7, 6)),
    ((2, 5), (6, 7), (4, 8)),
    ((5, 2), (1, 3), (8, 4)),
    ((1, 3), (4, 8), (6, 7)),
)

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def fourcycle_decomposition(vec8) -> Decomposition:
    comps = {}
    it = iter(vec8)
    for f in FOURCYCLE_COMPONENT_FACETS:
        comps[f] = irreducible_ideal(4, f, (next(it), next(it)))
    return Decomposition(FOURCYCLE, comps)


def fourcycle_symbol_order() -> tuple:
    """The eight 4-cycle symbols (facet index, variable) by label e1..e8."""
    index = {f: i for i, f in enumerate(FOURCYCLE.facets)}
    return tuple(
        (index[f], j) for f in FOURCYCLE_COMPONENT_FACETS for j in range(1, 5) if j not in f
    )


def cone_symbols(cx: Complex) -> tuple:
    """The symbols (facet index, variable outside the facet) in facet order."""
    return tuple((i, j) for i, f in enumerate(cx.facets) for j in range(1, cx.n + 1) if j not in f)


def fourcycle_assignment(values) -> dict:
    """Assignment for the 4-cycle from the eight exponents e1..e8."""
    assert len(values) == 8
    return dict(zip(fourcycle_symbol_order(), [as_int(v, "exponent") for v in values]))


def _prune(disjuncts) -> tuple[frozenset, ...]:
    """Oracle: drop duplicates and any conjunction containing another one, in
    the canonical order of disjuncts."""
    unique = sorted(set(disjuncts), key=_disjunct_order)
    kept: list[frozenset] = []
    for d in unique:
        if not any(k <= d for k in kept):
            kept.append(d)
    return tuple(kept)


def fourcycle_reference_system() -> ConeUnion:
    """The union of the paper's four systems, hard-coded from FOURCYCLE_SYSTEMS."""
    symbols = cone_symbols(FOURCYCLE)
    pos = [symbols.index(s) for s in fourcycle_symbol_order()]

    def le(a, b):  # e_a <= e_b, stored as the atom e_b >= e_a
        return pos[b - 1], pos[a - 1]

    systems = [
        frozenset({le(*lo), le(k, l), le(l, k), le(*hi)})
        for lo, (k, l), hi in FOURCYCLE_SYSTEMS
    ]
    return ConeUnion(4, FOURCYCLE.facets, symbols, _prune(systems))


def two_facet_depth(f, g) -> int:
    """Depth of K[Δ] for the complex with the two facets f and g: |F n G| + 1."""
    return len(set(f) & set(g)) + 1


@pytest.fixture(scope="session")
def fourcycle() -> Complex:
    return FOURCYCLE


@pytest.fixture(scope="session")
def rp2() -> Complex:
    return Complex(6, RP2_FACETS)


@pytest.fixture(scope="session")
def two_big_facets() -> Complex:
    return Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)])


@pytest.fixture
def antichain_contract(monkeypatch) -> list:
    """Complex._from_masks wrapped to assert that its masks are distinct and
    pairwise incomparable; the list collects the mask lists it was given."""
    original = Complex._from_masks.__func__
    seen = []

    def checked(cls, n, masks):
        masks = list(masks)
        assert len(set(masks)) == len(masks), masks
        assert not any(a != b and a & b == a for a in masks for b in masks), masks
        seen.append(masks)
        return original(cls, n, masks)

    monkeypatch.setattr(Complex, "_from_masks", classmethod(checked))
    return seen


# -- seeded random corpora -------------------------------------------------------

def random_pure_complex(rng: random.Random, n_max=7, r_max=5) -> Complex:
    n = rng.randint(2, n_max)
    d = rng.randint(1, max(1, n - 1))
    all_facets = list(combinations(range(1, n + 1), d))
    r = rng.randint(1, min(r_max, len(all_facets)))
    return Complex(n, rng.sample(all_facets, r))


def mixed_complex_corpus(count=250, n_max=8, seed=8) -> list:
    """Seeded complexes with facets of mixed sizes (candidates may nest or be
    empty) on up to n_max vertices, plus the projective plane."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        cands = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 6))]
        out.append(Complex(n, cands))
    return out + [Complex(6, RP2_FACETS)]


def random_ideal(rng: random.Random, n_max=4, gens_max=6, exp_max=3) -> MonomialIdeal:
    n = rng.randint(1, n_max)
    while True:
        gens = []
        for _ in range(rng.randint(1, gens_max)):
            g = tuple(rng.randint(0, exp_max) for _ in range(n))
            if any(g):
                gens.append(g)
        if gens:
            return MonomialIdeal(n, gens)


def random_primary(rng: random.Random, n: int, facet, exp_max=3) -> MonomialIdeal:
    """Random P_F-primary ideal: mandatory pure powers plus optional extras."""
    comp = [j for j in range(1, n + 1) if j not in set(facet)]
    gens = []
    for j in comp:
        vec = [0] * n
        vec[j - 1] = rng.randint(1, exp_max)
        gens.append(tuple(vec))
    for _ in range(rng.randint(0, 2)):
        vec = [0] * n
        for j in comp:
            vec[j - 1] = rng.randint(0, exp_max)
        if any(vec):
            gens.append(tuple(vec))
    return MonomialIdeal(n, gens)


def random_decomposition(rng: random.Random, n_max=5, r_max=4, exp_max=3) -> Decomposition:
    cx = random_pure_complex(rng, n_max=n_max, r_max=r_max)
    comps = {}
    for f in cx.facets:
        style = rng.random()
        if style < 0.4:
            exps = [rng.randint(1, exp_max) for _ in range(cx.n - len(f))]
            comps[f] = irreducible_ideal(cx.n, f, exps)
        elif style < 0.7:
            comps[f] = prime_power_ideal(cx.n, f, rng.randint(1, exp_max))
        else:
            comps[f] = random_primary(rng, cx.n, f, exp_max)
    return Decomposition(cx, comps)


# -- tuple and 2^n oracles of the mask kernel ----------------------------------------

def is_face(cx: Complex, mask: int) -> bool:
    """Whether the vertex set given as a mask lies in some facet of cx."""
    return any(mask & fm == mask for fm in cx.facet_masks)


def combination_faces(cx: Complex, i: int) -> list:
    """The i-faces as masks in colex order, by vertex-tuple combinations of
    each facet, every vertex validated through face_mask."""
    found = set()
    for f in cx.facets:
        for combo in combinations(f, i + 1):
            found.add(face_mask(combo, cx.n))
    return sorted(found)


def tuple_boundary_matrix(cx: Complex, i: int) -> list:
    """boundary_matrix through vertex tuples: removing the vertex at position
    k of a sorted i-face gives the entry (-1)^k."""
    cols = combination_faces(cx, i) if i <= cx.dim else []
    rows = combination_faces(cx, i - 1) if i - 1 <= cx.dim else []
    row_index = {m: r for r, m in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for c, fm in enumerate(cols):
        for k, v in enumerate(mask_vertices(fm)):
            mat[row_index[fm & ~(1 << (v - 1))]][c] = -1 if k % 2 else 1
    return mat


def swept_degree_complex(ideal: MonomialIdeal, a) -> Complex:
    """degree_complex by sweeping all F between G_a and {1..n}: x^a lies in
    the ideal localized at F iff some excess support {j : e_j > a_j} is in F."""
    n = ideal.n
    gmask = negative_support(a)
    excess = [support_mask([e > x for e, x in zip(g, a)]) for g in ideal.gens]
    free = ((1 << n) - 1) & ~gmask
    qualifying = []
    sub = free
    while True:
        f = gmask | sub
        if not any(d & f == d for d in excess):
            qualifying.append(f & ~gmask)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return Complex(n, map(mask_vertices, qualifying))


def swept_radical_complex(ideal: MonomialIdeal) -> Complex:
    """radical_complex by testing all 2^n vertex sets against the supports."""
    gen_masks = [support_mask(g) for g in ideal.gens]
    faces = [
        mask
        for mask in range(1 << ideal.n)
        if not any(gm & mask == gm for gm in gen_masks)
    ]
    return Complex(ideal.n, map(mask_vertices, faces))


# -- index-by-index homology oracle ------------------------------------------------

def generic_min_nonzero_betti(cx: Complex, field=RATIONALS):
    """min_nonzero_betti with every reduced Betti number from dense boundary
    matrices ranked over the field itself, index by index from -1."""
    if cx.kind == VOID:
        return None
    if cx.kind == IRRELEVANT:
        return -1

    def rank(i):
        return matrix_rank(boundary_matrix(cx, i), field) if 0 <= i <= cx.dim else 0

    for i in range(-1, cx.dim + 1):
        f_i = 1 if i == -1 else len(cx.face_masks_of_dim(i))
        if f_i - rank(i) - rank(i + 1):
            return i
    return None


# -- full Reisner walk oracle --------------------------------------------------------

def reisner_walk(cx: Complex, field=RATIONALS, betti=generic_min_nonzero_betti):
    """(cm, face, index) of Reisner's criterion, walking every face of cx by
    (size, colex) with no apex peeled: the first face whose link has reduced
    homology below its dimension, and the least such index."""
    for i in range(-1, cx.dim + 1):
        for fm in cx.face_masks_of_dim(i):
            lk = cx._link_mask(fm)
            low = betti(lk, field)
            if low is not None and low < lk.dim:
                return False, mask_vertices(fm), low
    return True, None, None


# -- unpeeled intersection oracle ----------------------------------------------------

def all_intersections_verdict(cx: Complex, t: int):
    """(rigid, facet indices, intersection size) of the intersection test,
    listing every k-tuple of facets for k up to min(r, t), apex included."""
    masks = cx.facet_masks
    for k in range(1, min(len(masks), t) + 1):
        for idx in combinations(range(len(masks)), k):
            size = sum(1 for v in range(cx.n) if all(masks[i] >> v & 1 for i in idx))
            if size < t - k + 1:
                return False, idx, size
    return True, None, None


# -- squarefree polarization oracle -------------------------------------------------

def polarization(ideal: MonomialIdeal) -> MonomialIdeal:
    """The squarefree polarization: x_j gets one new variable per unit of its
    largest exponent, and x_j^e becomes the product of the first e of them."""
    rho = ideal.max_exponents()
    return MonomialIdeal(
        sum(rho), [[int(s < e) for e, r in zip(g, rho) for s in range(r)] for g in ideal.gens]
    )


# -- raw-box local cohomology oracle -----------------------------------------------

def depth_grid(rho):
    """Every degree of the exact local-cohomology grid {-1} + {0..rho_j - 1},
    -1 standing for every negative value."""
    return product(*[[-1] + list(range(cap)) for cap in rho])


#: the raw grid asks for the radical's complex of one ideal at every degree
_radical_complex = lru_cache(maxsize=16)(radical_complex)


def local_cohomology_dim(ideal: MonomialIdeal, i: int, a, field=RATIONALS) -> int:
    """dim_K of the degree-a piece of the i-th local cohomology of S/I.

    Vanishes unless the negative support of a is a face of the radical's
    complex and a_j stays below the largest x_j-exponent of the generators;
    otherwise it is reduced homology of the degree complex in homological
    degree i - |G_a| - 1.
    """
    if not ideal.is_proper_nonzero:
        raise ValueError("local cohomology scan needs a proper nonzero ideal")
    if i < 0:
        return 0
    gmask = negative_support(a)
    if not is_face(_radical_complex(ideal), gmask):
        return 0
    rho = ideal.max_exponents()
    if any(x >= r for x, r in zip(a, rho)):
        return 0
    cx = degree_complex(ideal, a)
    return reduced_betti(cx, i - gmask.bit_count() - 1, field)


def raw_local_cohomology(ideal: MonomialIdeal, field=RATIONALS):
    """Sorted (i, a, dim) of every nonzero piece over every degree of the grid."""
    return sorted(
        (i, a, d)
        for a in depth_grid(ideal.max_exponents())
        for i in range(ideal.n + 1)
        if (d := local_cohomology_dim(ideal, i, a, field))
    )


# -- tuple-clause cone distribution oracle -----------------------------------------

def distributed_cone_union(cx: Complex, field=RATIONALS) -> ConeUnion:
    """The cone union by unfactored distribution: for each facet selection
    of depth below t, one clause per tuple of outside-variable choices
    (j_q outside F_{i_q} for each outside facet), each clause the OR of
    a_{i_q j_q} >= a_{k j_q} over q and selected k with j_q outside F_k,
    distributed clause by clause into the running DNF."""
    r = len(cx.facet_masks)
    t = depth_stanley_reisner(cx, field)
    symbols = cone_symbols(cx)
    sym_pos = {s: k for k, s in enumerate(symbols)}
    masks = cx.facet_masks
    outside_vars = [
        [j for j in range(1, cx.n + 1) if not fm >> (j - 1) & 1] for fm in masks
    ]
    dnf = [frozenset()]
    for selection, gamma in cx.proper_facet_selections():
        if depth_stanley_reisner(gamma, field) >= t:
            continue
        outside = [i for i in range(r) if i not in selection]
        for tup in product(*[outside_vars[i] for i in outside]):
            clause = {
                (sym_pos[(i_q, j_q)], sym_pos[(k2, j_q)])
                for i_q, j_q in zip(outside, tup)
                for k2 in selection
                if not masks[k2] >> (j_q - 1) & 1
            }
            dnf = list(_prune([d | {atom} for d in dnf for atom in clause]))
            if not dnf:
                return ConeUnion(cx.n, cx.facets, symbols, ())
    return ConeUnion(cx.n, cx.facets, symbols, _prune(dnf))


# -- cone-union comparisons -------------------------------------------------------

def grid_equivalence(u1: ConeUnion, u2: ConeUnion, bound: int):
    """Exhaustively compare two unions on {1..bound}^symbols.

    Symbols are matched by (facet vertex set, variable); returns the first
    disagreeing assignment keyed by u1's symbols, or None when equivalent.
    """
    key1 = {(u1.facets[i], j): (i, j) for i, j in u1.symbols}
    key2 = {(u2.facets[i], j): (i, j) for i, j in u2.symbols}
    if set(key1) != set(key2):
        raise ValueError("cone unions are over different symbol sets")
    keys = sorted(key1)
    for values in product(range(1, bound + 1), repeat=len(keys)):
        a1 = {key1[k]: v for k, v in zip(keys, values)}
        a2 = {key2[k]: v for k, v in zip(keys, values)}
        if u1.evaluate(a1) != u2.evaluate(a2):
            return a1
    return None


def midpoint(union: ConeUnion, p, q) -> dict:
    """The integral midpoint of two assignments that satisfy the union."""
    if not union.evaluate(p) or not union.evaluate(q):
        raise ValueError("both endpoints must satisfy the union")
    if any((p[s] + q[s]) % 2 for s in union.symbols):
        raise ValueError("midpoint is not integral")
    return {s: (p[s] + q[s]) // 2 for s in union.symbols}
