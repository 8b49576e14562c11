"""Reduced simplicial homology over Q or F_p, exactly.

Ranks of boundary maps are computed column by column on sparse columns:
XOR elimination of column bitsets over F_2, and fraction-free integer
elimination of {row: coefficient} columns over the rationals and odd prime
fields (reduced mod p there); no floating point anywhere.  The dense
boundary_matrix and its eliminations (Bareiss-style over Q, Gaussian over
F_p) stay as oracles for the tests, `srdepth audit` and the Koszul depth.
On top of the homology kernel sit Reisner's Cohen-Macaulay criterion and
Hochster's formula for the depth of a Stanley-Reisner ring.

Both read the least i with H~_i != 0.  Over Q that scan resumes where the
F_2 scan stopped: an integer matrix has rank over Q at least its rank over
F_p, so b_i(Q) <= b_i(F_2).  H~_0 and the top homology are free, and below
the first F_2 index there is no 2-torsion, so Q agrees with an F_2 answer of
0 or dim; Q ranks are taken only strictly between, where torsion can appear.
No field needs d_1 eliminated: its rank is f_0 minus the number of connected
components, which overlapping facets merge.  Nor is d_(i+1) ranked when its
f_(i+1) columns are fewer than the i-cycles: H~_i != 0 by counting alone.

At the last face size that can lower Hochster's minimum only H~_0 of a
link matters, and it is the same over every field, so that size asks only
whether the link is connected and builds no link: the link's facets are the
facets holding the face, with the face removed.

The decision and the cone union ask one question of many facet selections
of a pure complex of depth t: is the selection's depth below t?
_selection_below answers it from the facet masks for one or two facets
(a pair has depth |F n G| + 1) and for t <= 2 (connectivity), over every
field, and builds the subcomplex only for the rest.

The only caches, by value, are min_nonzero_betti and depth_stanley_reisner.

Conventions for degenerate complexes (needed by the local-cohomology code):
the irrelevant complex {0} has H~_{-1} = K and nothing else; the void complex
has no homology at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from operator import and_
from typing import Iterable, Optional

from .simplicial import (
    Complex, Face, IRRELEVANT, ORDINARY, VOID, as_int, mask_bits, mask_vertices,
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


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (p=None) or a prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(as_int(self.p, "characteristic")):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


RATIONALS = FieldSpec()
_F2 = FieldSpec(2)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(as_int(p, "characteristic"))


# -- exact rank kernels ------------------------------------------------------

def rank_fraction_free(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Bareiss' two-step determinant update keeps every intermediate entry an
    integer (the division is exact), so the result is exact for arbitrary
    integer input.
    """
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    a = [list(r) for r in rows]
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        pivot = a[rank][col]
        for r in range(rank + 1, m):
            factor = a[r][col]
            row = a[r]
            prow = a[rank]
            for c in range(col, ncols):
                row[c] = (row[c] * pivot - factor * prow[c]) // prev
        prev = pivot
        rank += 1
        if rank == m:
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    a = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        prow = a[rank]
        if inv != 1:
            a[rank] = prow = [(x * inv) % p for x in prow]
        for r in range(rank + 1, m):
            factor = a[r][col]
            if factor:
                row = a[r]
                for c in range(col, ncols):
                    row[c] = (row[c] - factor * prow[c]) % p
        rank += 1
        if rank == m:
            break
    return rank


def matrix_rank(rows: list[list[int]], field: FieldSpec) -> int:
    if field.is_rationals:
        return rank_fraction_free(rows)
    return rank_mod_p(rows, field.p)


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
    its rows, is XOR-reduced against pivots keyed by their leading bit."""
    row_bit = {m: 1 << r for r, m in enumerate(cx.face_masks_of_dim(i - 1))}
    pivots: dict[int, int] = {}
    for fm in cx.face_masks_of_dim(i):
        col = 0
        for b in mask_bits(fm):
            col |= row_bit[fm ^ b]
        while col:
            piv = pivots.get(col.bit_length())
            if piv is None:
                pivots[col.bit_length()] = col
                break
            col ^= piv
        if len(pivots) == len(row_bit):
            break
    return len(pivots)


def _echelon(cx: Complex, i: int, p: Optional[int]) -> dict[int, dict[int, int]]:
    """Column echelon form of boundary_matrix(cx, i) over Q (p=None) or F_p.

    Each column is a dict {row: coefficient}, reduced against pivots keyed by
    their leading (largest) row: with pivot lead a and column lead c, the
    column becomes (a*col - c*piv) / gcd(a, c), which keeps the rank since
    a != 0; a scaled column then loses the common factor of its entries.
    All arithmetic is in integers.  Over F_p entries are reduced mod p and
    pivots are stored monic, so a = 1.  Returns the pivots by lead row.
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
                if g != 1:
                    col = {r: v // g for r, v in col.items()}
        if len(pivots) == len(row_index):
            break
    return pivots


def _components(masks: Iterable[int]) -> int:
    """Connected components of the complex generated by the given nonempty
    facet masks: they are merged while they share a vertex."""
    parts: list[int] = []
    for fm in masks:
        for part in [q for q in parts if q & fm]:
            parts.remove(part)
            fm |= part
        parts.append(fm)
    return len(parts)


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


@lru_cache(maxsize=None)
def min_nonzero_betti(cx: Complex, field: FieldSpec) -> Optional[int]:
    """Least i with H~_i(cx) != 0, or None if all reduced homology vanishes.

    While lower Betti numbers vanish, rank d_i follows from the face counts,
    so index i needs only rank d_{i+1}; and not even that when
    f_{i+1} < f_i - rank d_i, since rank d_{i+1} is at most its f_{i+1}
    columns.  Over Q see the module docstring.
    """
    if cx.kind == IRRELEVANT:
        return -1
    if _apex(cx):
        return None
    start = 0
    if field.is_rationals:
        start = min_nonzero_betti(cx, _F2)
        if start is None or start == 0 or start == cx.dim:
            return start
    r = 1  # the augmentation d_0 has rank 1
    for j in range(start):
        r = len(cx.face_masks_of_dim(j)) - r
    for i in range(start, cx.dim + 1):
        cycles = len(cx.face_masks_of_dim(i)) - r
        if 0 < i < cx.dim and len(cx.face_masks_of_dim(i + 1)) < cycles:
            return i  # rank d_(i+1) <= f_(i+1); at i = 0, d_1 is cheaper than f_1
        r = _rank(cx, i + 1, field)
        if cycles - r:
            return i
    return None


# -- Cohen-Macaulayness and depth --------------------------------------------

@dataclass(frozen=True)
class CMResult:
    """Reisner-criterion verdict; on failure carries the violating link."""

    cm: bool
    face: Optional[Face] = None
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.cm


def is_cohen_macaulay(cx: Complex, field: FieldSpec = RATIONALS) -> CMResult:
    """Reisner's criterion: every link has vanishing homology below its dimension.

    The empty face is included, so H~_i(cx) itself must vanish for i < dim cx.
    The irrelevant complex passes vacuously: K[cx] is the field itself.
    Faces are walked by (size, colex), but a cone is peeled first: with apex
    C, a face missing part of C has a cone as its link, which never fails,
    and lk (C u G) = lk_{lk C} G, so only the faces of lk C are walked.
    """
    if cx.kind == VOID:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    apex = _apex(cx)
    core = cx._link_mask(apex)
    for i in range(-1, core.dim + 1):
        for fm in core.face_masks_of_dim(i):
            lk = core._link_mask(fm)
            low = min_nonzero_betti(lk, field)
            if low is not None and low < lk.dim:
                return CMResult(False, mask_vertices(apex | fm), low)
    return CMResult(True)


@lru_cache(maxsize=None)
def depth_stanley_reisner(cx: Complex, field: FieldSpec = RATIONALS) -> int:
    """depth of K[cx] by Hochster's formula, in one pass over the faces:

        depth = min over faces F of |F| + 1 + min{i : H~_i(lk F) != 0}.

    A cone is peeled first: with apex C, the intersection of all facets,
    depth K[cx] = |C| + depth K[lk C], so a simplex costs nothing.  Every
    facet F has the irrelevant link and contributes |F|, so the scan starts
    from the smallest facet size.  Any other face contributes at least
    |F| + 1, and faces come by increasing size, so the scan stops at the
    first size that cannot lower the minimum.  At the last size s that can,
    s + 2 >= best, only H~_0 of a link counts: such a face is no facet, so
    its link is ordinary and it is disconnected exactly when the facets
    holding the face, with the face removed, are.  The first such face gives
    depth s + 1, since deeper faces give at least s + 2; no link is built
    there and no rank is taken.  The irrelevant complex has depth 0: K[cx]
    is the field itself.
    """
    if cx.kind == VOID:
        raise ValueError("depth is undefined for the void complex")
    if apex := _apex(cx):
        return apex.bit_count() + depth_stanley_reisner(cx._link_mask(apex), field)
    best = min(fm.bit_count() for fm in cx.facet_masks)
    for size in range(cx.dim + 2):
        if size + 1 >= best:
            break
        if size + 2 >= best:
            # only H~_0 of a link can still lower the minimum, to size + 1
            for fm in cx.face_masks_of_dim(size - 1):
                if _components(cx._link_facets(fm)) > 1:
                    return size + 1
            break
        for fm in cx.face_masks_of_dim(size - 1):
            low = min_nonzero_betti(cx._link_mask(fm), field)
            if low is not None and size + 1 + low < best:
                best = size + 1 + low
                if low == 0:
                    break  # no face of this size can go lower
    return best


def _selection_below(n: int, masks: list[int], t: int, field: FieldSpec) -> bool:
    """Whether the subcomplex generated by `masks`, facets of a pure complex
    of depth t, has depth below t.

    The facets alone answer three cases, over every field.  No facet or one
    facet F never does: the void complex is not asked, and a simplex has
    depth |F| >= t.  Two facets F, G form a cone over F n G on two disjoint
    simplices, of depth |F n G| + 1.  More nonempty facets have depth 1 if
    they are disconnected and at least 2 if not, which settles t <= 2.  Any
    other selection is built and its depth read from the cache of
    depth_stanley_reisner.
    """
    if len(masks) < 2:
        return False
    if len(masks) == 2:
        return (masks[0] & masks[1]).bit_count() + 1 < t
    if t <= 2:
        return t == 2 and _components(masks) > 1
    return depth_stanley_reisner(Complex._from_masks(n, masks), field) < t
