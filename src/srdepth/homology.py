"""Reduced simplicial homology over Q or F_p, exactly.

Ranks of boundary maps are computed column by column on sparse columns:
XOR elimination of column bitsets over F_2, and fraction-free integer
elimination of {row: coefficient} columns over the rationals and odd prime
fields (reduced mod p there); no floating point anywhere.  The dense
boundary_matrix and matrix_rank, one fraction-free elimination of dense
rows for every field, stay as oracles for the tests, `srdepth audit` and
the Koszul depth.
On top of the homology kernel sits Hochster's formula for the depth of a
Stanley-Reisner ring, one walk that also keeps a face attaining the depth
(_hochster); Reisner's Cohen-Macaulay criterion stays as its oracle, for
`srdepth audit`, the skeleton route of rigidity and the tests.

Both read the least i with H~_i != 0.  Over Q that scan resumes where the
F_2 scan stopped: an integer matrix has rank over Q at least its rank over
F_p, so b_i(Q) <= b_i(F_2).  H~_0 and the top homology are free, and below
the first F_2 index there is no 2-torsion, so Q agrees with an F_2 answer of
0 or dim, which the Q scan confirms with no rank: d_1 is read from the
components and d_(dim+1) is zero.  Q ranks are taken only strictly between,
where torsion can appear.
No field needs d_1 eliminated: its rank is f_0 minus the number of connected
components, which overlapping facets merge.  Nor is d_(i+1) ranked when its
f_(i+1) columns are fewer than the i-cycles: H~_i != 0 by counting alone.

Hochster's walk takes its bound from H~_0 first, which is the same over
every field and needs no rank.  A face G that is no facet and whose link is
disconnected is the meet of two facets: the link's facets are F - G for the
facets F holding G, so F and F' with F - G and F' - G in different
components share no vertex outside G, and G = F n F'.  Such a face gives
depth |G| + 1, so pairwise facet meets bound the depth without building a
link; below that bound every link is connected, and only the indices that
can still lower the minimum are ranked (min_nonzero_betti's `below`).
Being field-free, that first pass runs once per complex object, which keeps
its result; a walk over a second field goes straight to the ranks.

The decision and the cone union ask one question of many facet selections of
a complex of depth t, pure or not: is the selection's depth below t?  One
_Selections per (complex, field), from _selections, answers it for both.
Its walk, which the cone union and the audit run, stores as True, unasked,
each selection that a smaller one below t covers, and yields the rest below
t.  It holds whether the facets pass the paper's intersection criterion
(_thin_intersection), under which none falls below t and neither caller
asks; each answer is a stored bool, most read off smaller selections by the
depth lemma (see _Selections), and each asked of _generated_below, one
predicate for any faces: it answers one or two faces and s <= 2 from the
masks over every field and builds the complex only otherwise.

The only caches, by value, are min_nonzero_betti and depth_stanley_reisner,
each bounded at VALUE_CACHE_SIZE entries, and _selections, bounded at 256
complexes, each keeping its answers and the decision's witness
subcomplexes; all three take their arguments by position only, so one
question has one key.  The FieldSpec table holds one entry per field that
is asked for: FieldSpec(p) validates p on every call and returns that
field's one instance, so the caches' keys hash a field by identity.
Per-object state is no cache by value: a complex keeps its face lists, its
links and the (u, G, i) of Hochster's first pass (_first_pass), for as long
as it lives and unshared with equal complexes.

Conventions for degenerate complexes, which degree complexes can be:
the irrelevant complex {0} has H~_{-1} = K and nothing else; the void complex
has no homology at all.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd
from operator import and_, or_

from .simplicial import (
    Complex, Face, IRRELEVANT, ORDINARY, VOID, Record, _maximal_masks, as_int, mask_bits,
    mask_vertices,
)


#: Miller-Rabin on the prime bases 2..37 is exact below this bound (psi_12,
#: Sorenson and Webster); larger characteristics are refused
MILLER_RABIN_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37."""
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"characteristic {p} is too large, the bound is {MILLER_RABIN_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % q == 0 for q in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d with d odd
    for q in bases:
        x = pow(q, (p - 1) >> s, p)
        if x != 1 and p - 1 not in (pow(x, 1 << k, p) for k in range(s)):
            return False
    return True


#: the one instance of each field asked for, by characteristic (None for Q)
_FIELDS: dict[int | None, FieldSpec] = {}


class FieldSpec(Record):
    """Coefficient field: the rationals (p=None) or a prime field F_p.

    The constructor validates p on every call and returns the field's one
    instance, so fields compare and hash by identity in every cache key.
    """

    __slots__ = ("p",)

    def __new__(cls, p: int | None = None) -> FieldSpec:
        key = None if p is None else as_int(p, "characteristic")
        field = _FIELDS.get(key)
        if field is None:
            if key is not None and not _is_prime(key):
                raise ValueError(f"{p} is not prime")
            field = _FIELDS[key] = object.__new__(cls)
            object.__setattr__(field, "p", key)
        return field

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


RATIONALS = FieldSpec()
_F2 = FieldSpec(2)


#: the bound of the value caches of min_nonzero_betti and
#: depth_stanley_reisner: a benchmark round of distinct complexes fills
#: about a thousand entries, so no round evicts, and a long batch keeps at
#: most this many answers of each
VALUE_CACHE_SIZE = 4096


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(as_int(p, "characteristic"))


# -- exact rank kernels ------------------------------------------------------

def matrix_rank(rows: list[list[int]], field: FieldSpec) -> int:
    """Rank of an integer matrix over the field by fraction-free elimination.

    Every row below the pivot row becomes pivot*row - factor*pivot_row.
    Over Q the result is then divided by the previous pivot, Bareiss's
    step: the division is exact, so every entry stays an integer, provided
    every row below the pivot is updated, those with factor 0 too.  Over
    F_p the entries are reduced mod p instead; the pivot is nonzero there,
    so no inverse is needed.
    """
    p = field.p
    a = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    m = len(a)
    rank = 0
    prev = 1
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, m) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        pivot = prow[col]
        for row in a[rank + 1:]:
            factor = row[col]
            for c in range(col, len(row)):
                x = row[c] * pivot - factor * prow[c]
                row[c] = x % p if p else x // prev
        prev = pivot
        rank += 1
    return rank


def rank_fraction_free(rows: list[list[int]]) -> int:
    return matrix_rank(rows, RATIONALS)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    return matrix_rank(rows, prime_field(p))


# -- boundary matrices -------------------------------------------------------

def boundary_matrix(cx: Complex, i: int) -> list[list[int]]:
    """Matrix of the boundary map C_i -> C_{i-1} in the augmented chain complex.

    Rows are the (i-1)-faces and columns the i-faces, both in colex order;
    the entry for removing the vertex at position k of a sorted i-face is
    (-1)^k.  For i = 0 the target is the span of the empty face, so the
    matrix is the all-ones augmentation row.
    """
    if cx.kind == VOID:
        raise ValueError("void complex has no boundary matrices")
    if i < 0:
        raise ValueError("boundary index must be >= 0")
    cols = cx.face_masks_of_dim(i) if i <= cx.dim else []
    rows = cx.face_masks_of_dim(i - 1) if i - 1 <= cx.dim else []
    row_index = {m: r for r, m in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for c, fm in enumerate(cols):
        sign = 1
        for b in mask_bits(fm):
            mat[row_index[fm ^ b]][c] = sign
            sign = -sign
    return mat


def _rank_f2(cx: Complex, i: int) -> int:
    """Rank of boundary_matrix(cx, i) over F_2: each column, the bitset of
    its rows, is XOR-reduced against pivots keyed by their leading bit.  A
    face's bits are read inline, which is faster here than mask_bits."""
    row_bit = {m: 1 << r for r, m in enumerate(cx.face_masks_of_dim(i - 1))}
    pivots: dict[int, int] = {}
    for fm in cx.face_masks_of_dim(i):
        col, rest = 0, fm
        while rest:
            low = rest & -rest
            col |= row_bit[fm ^ low]
            rest ^= low
        while col:
            piv = pivots.get(col.bit_length())
            if piv is None:
                pivots[col.bit_length()] = col
                break
            col ^= piv
    return len(pivots)


def _echelon(cx: Complex, i: int, p: int | None) -> dict[int, dict[int, int]]:
    """Column echelon form of boundary_matrix(cx, i) over Q (p=None) or F_p.

    Each column is a dict {row: coefficient}, reduced against pivots keyed by
    their leading (largest) row: with pivot lead a and column lead c, the
    column becomes (a*col - c*piv) / gcd(a, c), which keeps the rank since
    a != 0; a scaled column then loses the common factor of its entries.
    All arithmetic is in integers.  Over F_p entries are reduced mod p and
    pivots are stored monic, so a = 1 and no column is scaled or copied.
    Returns the pivots by lead row.
    """
    row_index = {m: r for r, m in enumerate(cx.face_masks_of_dim(i - 1))}
    pivots: dict[int, dict[int, int]] = {}
    for fm in cx.face_masks_of_dim(i):
        col = {}
        sign = 1
        for b in mask_bits(fm):
            col[row_index[fm ^ b]] = sign
            sign = -sign
        while col:
            lead = max(col)
            piv = pivots.get(lead)
            if piv is None:
                if p and col[lead] != 1:  # over F_p every pivot is monic
                    inv = pow(col[lead], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[lead] = col
                break
            a, c = piv[lead], col[lead]
            g = gcd(a, c) if a > 0 else -gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                col = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                x = col.get(r, 0) - c * v
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
            if a != 1 and col:  # only over Q
                g = gcd(*col.values())
                col = {r: v // g for r, v in col.items()}
    return pivots


def _components(masks: Iterable[int]) -> int:
    """Connected components of the complex generated by the given nonempty
    facet masks: each grows from one facet, its reach taking in every facet
    that meets it until none does."""
    rest = list(masks)
    count = 0
    while rest:
        reach = rest.pop()
        grew = True
        while grew:
            grew, left = False, []
            for fm in rest:
                if fm & reach:
                    reach |= fm
                    grew = True
                else:
                    left.append(fm)
            rest = left
        count += 1
    return count


def _rank(cx: Complex, i: int, field: FieldSpec) -> int:
    """Rank of the boundary map d_i of cx; 0 outside 0..dim.

    Over every field, rank d_1 = f_0 - c with c connected components, since
    H~_0 has dimension c - 1 and d_0 has rank 1; so d_1 is never eliminated.
    """
    if i < 0 or i > cx.dim:
        return 0
    if i == 1:
        return len(cx.face_masks_of_dim(0)) - _components(cx.facet_masks)
    if field.p == 2:
        return _rank_f2(cx, i)
    return len(_echelon(cx, i, field.p))


def _apex(cx: Complex) -> int:
    """The intersection of all facets as a mask; nonzero iff cx is a cone."""
    return reduce(and_, cx.facet_masks) if cx.kind == ORDINARY else 0


def reduced_betti(cx: Complex, i: int, field: FieldSpec = RATIONALS) -> int:
    """dim_K of the i-th reduced homology of cx over the given field."""
    if i < -1 or i > cx.dim:
        return 0
    if _apex(cx):
        # a common apex makes the complex contractible
        return 0
    f_i = 1 if i == -1 else len(cx.face_masks_of_dim(i))
    return f_i - _rank(cx, i, field) - _rank(cx, i + 1, field)


@lru_cache(maxsize=VALUE_CACHE_SIZE)
def min_nonzero_betti(cx: Complex, field: FieldSpec, below: int, /) -> int | None:
    """The least i < below with H~_i(cx) != 0, or None if there is none; no
    boundary map past d_below is ranked.  The arguments are positional and
    the bound an int, so one question has one cache key.  The irrelevant
    complex answers -1 whatever the bound, and a cone None.

    While lower Betti numbers vanish, rank d_i follows from the face counts,
    so index i needs only rank d_{i+1}; and not even that when
    f_{i+1} < f_i - rank d_i, since rank d_{i+1} is at most its f_{i+1}
    columns.  Over Q see the module docstring; the F_2 scan there takes the
    same bound, as b_i(Q) <= b_i(F_2) at every index.
    """
    if cx.kind == IRRELEVANT:
        return -1
    if _apex(cx):
        return None
    start = 0
    if field.is_rationals:
        start = min_nonzero_betti(cx, _F2, below)
        if start is None:
            return None
    r = 1  # the augmentation d_0 has rank 1
    for j in range(start):
        r = len(cx.face_masks_of_dim(j)) - r
    for i in range(start, min(below, cx.dim + 1)):
        cycles = len(cx.face_masks_of_dim(i)) - r
        if 0 < i < cx.dim and len(cx.face_masks_of_dim(i + 1)) < cycles:
            return i  # rank d_(i+1) <= f_(i+1); at i = 0, d_1 is cheaper than f_1
        r = _rank(cx, i + 1, field)
        if cycles - r:
            return i
    return None


# -- Cohen-Macaulayness and depth --------------------------------------------

class CMResult(Record):
    """Reisner-criterion verdict; on failure carries the violating link."""

    __slots__ = ("cm", "face", "index")

    def __init__(self, cm: bool, face: Face | None = None, index: int | None = None):
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "index", index)

    def __bool__(self) -> bool:
        return self.cm


def is_cohen_macaulay(cx: Complex, field: FieldSpec = RATIONALS) -> CMResult:
    """Reisner's criterion: every link has vanishing homology below its dimension.

    The empty face is included, so H~_i(cx) itself must vanish for i < dim cx.
    The irrelevant complex passes vacuously: K[cx] is the field itself.
    Faces are walked by (size, colex), but a cone is peeled first: with apex
    C, a face missing part of C has a cone as its link, which never fails,
    and lk (C u G) = lk_{lk C} G, so only the faces of lk C are walked.
    Each link is asked below its dimension; the irrelevant one answers -1.
    """
    if cx.kind == VOID:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    apex = _apex(cx)
    core = cx._link_mask(apex)
    for i in range(-1, core.dim + 1):
        for fm in core.face_masks_of_dim(i):
            lk = core._link_mask(fm)
            low = min_nonzero_betti(lk, field, lk.dim)
            if low is not None and low < lk.dim:
                return CMResult(False, mask_vertices(apex | fm), low)
    return CMResult(True)


def _first_pass(cx: Complex) -> tuple[int, int, int]:
    """(u, G, i): the bound of Hochster's first pass over a complex that is
    no cone, from H~_0 alone and so the same over every field, kept in
    cx._meet for every later walk: (1, 0, 0) if cx is disconnected, else the
    smallest facet at -1 or the least meet G with a disconnected link at 0
    (see _hochster)."""
    masks = cx.facet_masks
    if _components(masks) > 1:
        meet = 1, 0, 0
    else:
        face = min(masks, key=int.bit_count)
        best = face.bit_count()
        meet = best, face, -1
        faces = ()
        if best == 3:
            faces = cx.face_masks_of_dim(0)
        elif best > 3:
            faces = sorted({m for f, g in combinations(masks, 2)
                            if 0 < (m := f & g).bit_count() < best - 1}, key=int.bit_count)
        for fm in faces:
            if _components(cx._link_facets(fm)) > 1:
                meet = fm.bit_count() + 1, fm, 0  # the least such meet
                break
    cx._meet = meet
    return meet


def _hochster(cx: Complex, field: FieldSpec, /) -> tuple[int, int, int]:
    """(depth, G, i): depth K[cx] by Hochster's formula, in two passes over
    the faces, with a face mask G and an index i attaining it, H~_i(lk G) != 0:

        depth = min over faces F of |F| + 1 + min{i : H~_i(lk F) != 0}.

    A cone is peeled first: with apex C, the intersection of all facets,
    depth K[cx] = |C| + depth K[lk C], and C joins the face of lk C, as
    lk (C u G) = lk_{lk C} G; so a simplex costs nothing.  Every facet F has
    the irrelevant link (i = -1) and contributes |F|, and any other face at
    least |F| + 1, exactly that when its link is disconnected (i = 0).

    The first pass (_first_pass) reads the bound u from H~_0 alone, the same
    over every field, so it runs once on each complex walked, the core left
    by the peel, which keeps (u, G, i) in its _meet slot; a walk over
    another field reads the slot and goes straight to the second pass.  u is
    the least of the smallest facet size and |G| + 1 over the faces G with a
    disconnected link.  A disconnected cx gives 1 at once, at the empty
    face: the second pass asks the empty face only while the bound is 3 or
    more, so one whose smallest facet is an edge would read 2.  A G of at
    least one vertex is the meet of two facets (module docstring), so only
    the meets of 1 to u - 2 vertices are asked, by merging the facets
    holding each, with no link built; at u = 3 the vertices are asked
    instead.  Every face of fewer than u - 1 vertices then has a connected
    link, so a face of size s can only lower the minimum through H~_i with
    1 <= i < u - s - 1.  The second pass walks the sizes s with
    s + 2 < best, by increasing size, and asks each link only below
    best - s - 1; each pass keeps the face that lowers the bound.  The
    irrelevant complex has depth 0 at the empty face: K[cx] is the field.
    """
    if cx.kind == VOID:
        raise ValueError("depth is undefined for the void complex")
    if apex := _apex(cx):
        depth, face, index = _hochster(cx._link_mask(apex), field)
        return apex.bit_count() + depth, apex | face, index
    best, face, index = cx._meet or _first_pass(cx)
    size = 0
    while size + 2 < best:
        for fm in cx.face_masks_of_dim(size - 1):
            low = min_nonzero_betti(cx._link_mask(fm), field, best - size - 1)
            if low is not None:
                best, face, index = size + 1 + low, fm, low
        size += 1
    return best, face, index


@lru_cache(maxsize=VALUE_CACHE_SIZE)
def depth_stanley_reisner(cx: Complex, field: FieldSpec, /) -> int:
    """depth of K[cx] by Hochster's formula, _hochster's walk.  The arguments
    are positional, so one question has one cache key."""
    return _hochster(cx, field)[0]


def _thin_intersection(masks: tuple[int, ...], t: int) -> tuple[tuple[int, ...], int] | None:
    """The first k facet indices, 2 <= k <= min(r, t), in the order of
    itertools.combinations by increasing k, whose facets meet in fewer than
    t - k + 1 vertices, with the size of that intersection; None when there
    is none, the paper's criterion for rigid depth t.  Every intersection
    holds the apex C of all facets, so only k <= t - |C| can fall short.
    No facet F is short at t = depth K[Δ], as |F| >= t by Hochster's
    formula at F.  A facet G with |G| < t <= dim + 1, as
    rigid.is_rigid_by_intersections may ask, fails k = 2: |F n G| >= t - 1
    would put G inside another facet F, and |C| < |G| keeps k = 2 searched.
    The pairs, which most verdicts end on or pass through, are scanned by
    two index loops in the same order; combinations lists only k >= 3.

    At t = depth K[Δ] the criterion passes iff no proper facet selection
    falls below t; neither step uses purity.  Sufficiency: if every j <= s
    of the faces G_1..G_m meet in >= s - j + 1 vertices, depth K[Γ] >= s
    for Γ = <G_1..G_m>, by induction on m: split off G_m as in _Selections,
    where Γ' and <G_m> have depth >= s, so depth K[Γ] >= min(s, depth K[Λ]
    + 1) for Λ = <G_i n G_m : i < m>, whose faces meet the condition at
    s - 1.  Necessity: for the first short tuple (least k), Γ' and <G_k>
    pass, and Λ is a first short tuple at t - 1, below t - 1 by induction
    on k; so depth K[Γ] = depth K[Λ] + 1 < t, and Γ is proper.
    """
    r = len(masks)
    top = min(r, t - reduce(and_, masks).bit_count())
    if top >= 2:
        need = t - 1
        for a in range(r - 1):
            fa = masks[a]
            for b in range(a + 1, r):
                size = (fa & masks[b]).bit_count()
                if size < need:
                    return (a, b), size
    for k in range(3, top + 1):
        for idx in combinations(range(r), k):
            inter = masks[idx[0]]
            for i in idx[1:]:
                inter &= masks[i]
            size = inter.bit_count()
            if size < t - k + 1:
                return idx, size
    return None


def _generated_below(n: int, parts: list[int], s: int, field: FieldSpec) -> bool:
    """Whether the complex generated by the faces `parts`, which may be
    empty, nested or repeated, has depth below s >= 1: one predicate for
    facet selections at s = t and the depth lemma's intersections at t - 1.

    The cases, in order.  One face F is a simplex of depth |F|, 0 for the
    empty face (the irrelevant complex); no face is the void complex, never
    below.  Two faces F, G, neither holding the other, form a cone over
    F n G on two disjoint simplices, of depth |F n G| + 1, else the larger
    simplex.  More faces have depth 0 if every part is empty, 1 if the
    nonempty ones are disconnected or cover one vertex, and at least 2
    otherwise, which settles s <= 2.  Otherwise the maximal faces are built
    and Hochster's formula read from the cache of depth_stanley_reisner.
    """
    if len(parts) < 2:
        return bool(parts) and parts[0].bit_count() < s
    if len(parts) == 2:
        f, g = parts
        meet = f & g
        return (meet.bit_count() + 1 if meet not in parts else (f | g).bit_count()) < s
    if s <= 2:
        parts = [m for m in parts if m]
        return not parts or s == 2 and (
            _components(parts) > 1 or reduce(or_, parts).bit_count() < 2)
    return depth_stanley_reisner(Complex._from_masks(n, _maximal_masks(parts)), field) < s


class _Selections:
    """Which facet selections of a complex fall below t, its depth
    over a field: one object per (complex, field), from _selections, holding
    t, whether the facets pass the paper's criterion at t, the answers and
    the decision's witness subcomplexes.

    The decision and the cone union ask one question of facet selections,
    through below and walk: is the selection's depth below t?  None is when
    every k facets meet in at least t - k + 1 vertices, the paper's
    criterion for rigid depth (rigid, from _thin_intersection), and both
    callers answer a rigid complex without asking.  answers maps each
    selection asked or covered (see walk), by its facet-index bitmask, to
    False when it has depth >= t and else to True; the void selection and
    the whole complex start as False.  A selection Γ of three or more
    facets, at t >= 3, with a facet F whose complement Γ' = Γ minus F is
    stored as False, is answered by
    Λ = <G n F : G in Γ'>, since

        depth K[Γ] >= t  iff  depth K[Λ] >= t - 1.

    For 0 -> K[Γ] -> K[Γ'] + K[<F>] -> K[Λ] -> 0 is exact (Mayer-Vietoris),
    and the middle has depth >= t as |F| >= t; the depth lemma
    (Bruns-Herzog, Prop. 1.2.9) then gives
    depth K[Γ] >= min(t, depth K[Λ] + 1) and
    depth K[Λ] >= min(t, depth K[Γ] - 1).  Walking by size, as
    simplicial._selection_indices lists the selections, answers most of
    them so; _generated_below is asked of Λ at t - 1, or else of Γ at t.

    witnesses maps a selection's facet-index bitmask to the subcomplex the
    decision returned as its witness, built on the first verdict that ends
    there and returned again, the same object, by every later one over an
    equal complex and the same field.  answers holds only bools.
    """

    __slots__ = ("n", "masks", "field", "t", "rigid", "answers", "witnesses")

    def __init__(self, n: int, masks: tuple[int, ...], t: int, field: FieldSpec):
        self.n, self.masks, self.field, self.t = n, masks, field, t
        self.rigid = _thin_intersection(masks, t) is None
        self.answers: dict[int, bool] = {0: False, (1 << len(masks)) - 1: False}
        self.witnesses: dict[int, Complex] = {}

    def below(self, bits: int, idx: Sequence[int]) -> bool:
        """The answer for the selection idx, of index bitmask bits, stored."""
        answers = self.answers
        found = answers.get(bits)
        if found is not None:
            return found
        n, masks, t, field = self.n, self.masks, self.t, self.field
        for i in idx if t >= 3 and len(idx) > 2 else ():
            if answers.get(bits ^ 1 << i) is False:
                fm = masks[i]
                found = _generated_below(n, [masks[k] & fm for k in idx if k != i], t - 1, field)
                break
        else:
            found = _generated_below(n, [masks[i] for i in idx], t, field)
        answers[bits] = found
        return found

    def walk(self, selections: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
        """(bits, held) for each selection idx among `selections`, of
        index bitmask bits, below t and covered by no earlier one yielded,
        lazily and in their order; held masks the facets holding G(idx),
        the common face.  A yielded Γ' covers each later Γ whose facets
        holding G = G(Γ') are those of Γ' (bits & held == bits of Γ'); then
        Γ' is the cone over G on lk_Γ' G = lk_Γ G, so depth K[Γ] <= |G| +
        depth K[lk_Γ G] = depth K[Γ'] < t by Hochster's formula, and Γ is
        stored as True, neither asked of below nor yielded."""
        answers, below, masks = self.answers, self.below, self.masks
        covering: list[tuple[int, int]] = []  # (bits, held) of each yielded selection
        for idx in selections:
            bits = 0
            for i in idx:
                bits |= 1 << i
            for b, h in covering:
                if bits & h == b:
                    answers[bits] = True
                    break
            else:
                if below(bits, idx):
                    common = reduce(and_, [masks[i] for i in idx])
                    held = sum(1 << i for i, fm in enumerate(masks) if fm & common == common)
                    covering.append((bits, held))
                    yield bits, held


@lru_cache(maxsize=256)
def _selections(cx: Complex, field: FieldSpec, /) -> _Selections:
    """The one _Selections of a complex over field, at t = depth K[cx];
    equal complexes share it."""
    return _Selections(cx.n, cx.facet_masks, depth_stanley_reisner(cx, field), field)
