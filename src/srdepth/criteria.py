"""Degree complexes and the depth of monomial ideals.

The central object is the degree complex of an ideal I at a degree vector
a >= 0: the faces are the sets F such that x^a stays outside I after
inverting the variables of F.  The graded pieces of local cohomology are
reduced homology groups of degree complexes (Takayama), and the degree
complex at any a in Z^n is a link of the one at its nonnegative part, so
depth is a finite, exact computation over a >= 0 alone: only degrees with
a_j < max exponent of x_j can contribute.

By Alexander duality the facets of the degree complex are the complements
of the minimal transversals of the excess sets {j : g_j > a_j}
(Complex._from_nonfaces), so no 2^n subsets are swept.

Membership of x^a, the excess sets {j : g_j > a_j} and so every degree
complex change only where some a_j crosses a generator exponent of x_j
(the fact behind Takayama's formula).  Every scan therefore visits one
representative per breakpoint class of each coordinate, its smallest
point, below the largest exponent rho_j, or 0 when x_j is unused: one
grid, `_class_grid`.  The decision files each generator's nonzero
exponents by coordinate, in one pass over the generator rows, which gives
it the same grid and the generators dividing each class.

Hochster's formula, depth_stanley_reisner, is the one depth engine.  With
Delta_a(I) = lk_{Delta_a+(I)} G_a, where G_a = {j : a_j < 0} and
a+ = max(a, 0) coordinatewise, it turns Takayama's formula into
depth(S/I) = min over a >= 0 of depth K[Delta_a(I)], which is how
depth_via_local_cohomology computes the depth and how depth_equals_radical
compares it with the radical's.  The degree complex at a = 0 is the
radical's complex (its excess sets are the supports), so the scan takes it
from ideals.radical_complex, which each ideal builds once.  The depth scan
reads each degree's excess sets once and asks only whether its complex
falls below the running minimum, so once that is 2 or less it reads the
answer straight from those minimal nonfaces: depth 0 iff every vertex is
a nonface, and depth >= 2 iff the 1-skeleton (the vertices that are not
nonfaces, joined unless they form a nonface) is connected with at least
two vertices.  At a minimum of 1 only depth 0 can lower it, so only the
1-element excess sets are read.

The decision's degree complexes are facet selections of the radical's
complex (Minh-Trung, Adv. Math. 226 (2011)), so whether one has depth
below t = depth K[Delta] depends on the complex and the field alone.  The
decision reads t, the paper's criterion for rigid depth and every answer
from homology._selections, the one object per (complex, field) that the
cone union also reads (see homology._Selections): a rigid Delta answers
equality with no table and no search, a selection answered once, by
either, is not asked again over an equal complex, and a witness
subcomplex, once built, is returned again by every verdict that ends at
its selection.

A multigraded Koszul-complex depth is kept for the tests and `srdepth
audit` as an independent check on the depth.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from .homology import (
    FieldSpec,
    RATIONALS,
    _selections,
    matrix_rank,
    depth_stanley_reisner,
)
from .ideals import Decomposition, MonomialIdeal, radical_complex
from .simplicial import Complex, Record


# -- degree complexes ---------------------------------------------------------

def _check_degree(a: Sequence[int], n: int) -> None:
    """Refuse a degree vector of the wrong length or with a negative entry."""
    if len(a) != n:
        raise ValueError(f"degree length {len(a)} != ambient {n}")
    if any(x < 0 for x in a):
        raise ValueError("a degree complex needs a nonnegative degree vector")


def degree_complex_facet_form(dec: Decomposition, a: Sequence[int]) -> Complex:
    """Subcomplex generated by the facets whose component misses x^a (a >= 0):
    degree_complex_unmixed under the name the tests and the benchmark
    tracer use for the facet-selection form."""
    return degree_complex_unmixed(dec, a)


def degree_complex(ideal: MonomialIdeal, a: Sequence[int]) -> Complex:
    """Localization form for an arbitrary monomial ideal and a >= 0.

    x^a lies in the ideal localized at F iff some generator's excess support
    d = {j : e_j > a_j} lies in F, so x^a stays out iff the complement of F
    meets every d, and Complex._from_nonfaces builds the complex from the d,
    or from the empty set, giving the void complex, when x^a is in the ideal.
    """
    _check_degree(a, ideal.n)
    excess = _excess_sets(_supports(ideal), a)
    return Complex._from_nonfaces(ideal.n, [0] if excess is None else excess)


def _supports(ideal: MonomialIdeal) -> list[list[tuple[int, int]]]:
    """Each generator's support as (coordinate, exponent) pairs."""
    return [[(j, e) for j, e in enumerate(g) if e] for g in ideal.gens]


def _excess_sets(supports: list[list[tuple[int, int]]], a: Sequence[int]) -> list[int] | None:
    """The excess sets d = {j : e_j > a_j} of the generators e at a >= 0,
    given by their _supports: a zero e_j exceeds no a_j.  The nonfaces of
    degree_complex(ideal, a) are the sets holding one of them.  None when
    one is empty: x^a is in the ideal and the complex is void."""
    excess = []
    for support in supports:
        d = 0
        for j, e in support:
            if e > a[j]:
                d |= 1 << j
        if not d:
            return None
        excess.append(d)
    return excess


def degree_complex_unmixed(dec: Decomposition, a: Sequence[int]) -> Complex:
    """degree_complex of a decomposition's intersection at a >= 0, by
    component membership: generated by the facets F with x^a outside C_F.
    The name recalls the unmixed ideals of a pure complex; no step uses
    purity.

    A P_F-primary component has no generator involving a variable of F, so
    inverting those variables changes no membership; at a face outside F it
    becomes the unit ideal.
    """
    _check_degree(a, dec.n)
    masks = [
        fm for fm, comp in zip(dec.delta.facet_masks, dec.components) if not comp.contains(a)
    ]
    return Complex._from_masks(dec.n, masks)


# -- witnesses for exact facet selections --------------------------------------

def degree_selecting_witness(
    dec: Decomposition, gamma_indices: Sequence[int]
) -> tuple[int, ...] | None:
    """A degree a >= 0 whose monomial lies in every component outside the
    selection and in none inside it, or None.

    The search grid caps each coordinate at the componentwise max exponent;
    capping preserves every component membership because the components of a
    valid decomposition have generator exponents bounded by those maxima.
    """
    r = len(dec.components)
    inside = sorted(set(gamma_indices))
    if not inside or len(inside) >= r:
        raise ValueError("selection must be a proper nonempty subset of the facets")
    for i in inside:
        if not 0 <= i < r:
            raise ValueError(f"facet index {i} out of range 0..{r - 1}")
    inside_set = set(inside)
    rho = dec.max_exponents()
    outside = [c for i, c in enumerate(dec.components) if i not in inside_set]
    chosen = [dec.components[i] for i in inside]
    for a in product(*[range(cap + 1) for cap in rho]):
        if all(c.contains(a) for c in outside) and not any(
            c.contains(a) for c in chosen
        ):
            return a
    return None


# -- the depth scan ---------------------------------------------------------------

def _class_grid(n: int, gens) -> list[list[int]]:
    """Breakpoint-class representatives of each coordinate below rho_j, in
    increasing order.

    With b_0 = 0 < b_1 < ... < rho_j the distinct exponents of x_j among gens,
    g_j <= a_j holds for the same generators on every a_j in [b_k, b_(k+1)),
    so b_k stands for its class.  The top class a_j >= rho_j is left out
    when rho_j > 0: there every degree complex is a cone with apex j, which
    carries no local cohomology and, for depth, never falls below its
    a_j = 0 counterpart.  When x_j is unused, rho_j = 0 and the list is [0],
    the one class.  A representative is the least point of its class, so
    the lexicographic order of the representatives is the box order.
    """
    return [[0, *sorted({g[j] for g in gens} - {0})[:-1]] for j in range(n)]


def _depth_to_two(n: int, excess: list[int], best: int = 2) -> int:
    """min(depth K[Delta], best) for best <= 2 and the complex Delta on n
    vertices whose nonfaces are the sets holding a mask of `excess`, none of
    them empty.

    Hochster's formula gives both facts: depth K[Delta] = 0 iff Delta is
    {()}, that is every vertex is a nonface, and depth >= 2 iff Delta is
    connected with at least two vertices (a facet F contributes |F|, the
    empty face 1 + the least i with H~_i(Delta) != 0).  The 1-skeleton
    decides this: its vertices are the j with {j} not a nonface, its edges
    the pairs of vertices that are not 2-element nonfaces.  At best = 1
    only depth 0 counts, so only the 1-element nonfaces are read.
    """
    verts = (1 << n) - 1
    apart = [0] * n  # apart[j]: the vertices that share a 2-element nonface with j
    for d in excess:
        size = d.bit_count()
        if size == 1:
            verts &= ~d
        elif size == 2 and best == 2:
            low = d & -d
            apart[low.bit_length() - 1] |= d ^ low
            apart[d.bit_length() - 1] |= low
    if not verts:
        return 0
    if best == 1:
        return 1
    seen = frontier = verts & -verts
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = verts & ~seen & ~apart[b.bit_length() - 1]
        seen |= new
        frontier |= new
    return 2 if seen == verts and verts & (verts - 1) else 1


def depth_via_local_cohomology(
    ideal: MonomialIdeal, field: FieldSpec = RATIONALS
) -> int:
    """depth(S/I) as the least depth K[Delta_a(I)] over nonnegative degrees a.

    By Takayama's formula and Delta_a(I) = lk_{Delta_a+(I)} G_a, each
    nonvanishing graded local cohomology piece is a term of Hochster's
    formula for a degree complex at a >= 0, and none of these complexes has
    depth below depth(S/I).  Such a piece has a_j < rho_j, so the scan
    visits one degree per breakpoint class, the grid of _class_grid, and
    stops at 0.  It reads each degree's excess sets once; None, x^a in I,
    is a void complex, and the degree is skipped before anything is built.

    Each degree only has to show whether its complex has depth below the
    running best.  While the best is 3 or more, depth_stanley_reisner reads
    the depth of the complex that Complex._from_nonfaces builds from the
    excess sets; at a = 0 they are the supports, and the scan takes the
    radical's complex, which the ideal keeps, from radical_complex.  From a
    best of 2 down, only min(depth, best) matters, and _depth_to_two reads
    it from the same excess sets, the minimal nonfaces: depth 0 iff every
    vertex is a nonface, depth >= 2 iff the 1-skeleton is connected with at
    least two vertices.  At a best of 1 only depth 0 can lower it, so only
    the 1-element excess sets are read.  No complex is made at those degrees.
    """
    if not ideal.is_proper_nonzero:
        raise ValueError("depth needs a proper nonzero ideal")
    n = best = ideal.n
    supports = _supports(ideal)
    for a in product(*_class_grid(n, ideal.gens)):
        excess = _excess_sets(supports, a)
        if excess is None:
            continue
        if best > 2:
            cx = Complex._from_nonfaces(n, excess) if any(a) else radical_complex(ideal)
            best = min(best, depth_stanley_reisner(cx, field))
        else:
            best = _depth_to_two(n, excess, best)
        if best == 0:
            break
    return best


# -- Koszul-complex depth oracle -------------------------------------------------

def depth_via_koszul(ideal: MonomialIdeal, field: FieldSpec = RATIONALS) -> int:
    """Independent depth oracle: n minus the top nonvanishing Koszul homology
    index of the full variable sequence on S/I.

    Works degree by degree over the closed box prod_j {0..rho_j}; the Koszul
    differentials lower multidegrees by squarefree vectors and multiplication
    by x_j is bijective beyond rho_j, so homology is supported in the box.
    In degree b the basis of homological degree k is the k-sets T that miss
    the zero coordinates of b with x^(b - e_T) outside the ideal, numbered
    in increasing mask order.
    """
    if not ideal.is_proper_nonzero:
        raise ValueError("depth needs a proper nonzero ideal")
    n = ideal.n
    top = -1
    for b in product(*[range(r + 1) for r in ideal.max_exponents()]):
        zero = sum(1 << j for j, x in enumerate(b) if not x)
        bases: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for t in range(1 << n):
            if not t & zero and not ideal.contains([x - (t >> j & 1) for j, x in enumerate(b)]):
                basis = bases[t.bit_count()]
                basis[t] = len(basis)
        ranks = [0] * (n + 2)
        for k in range(1, n + 1):  # an empty basis makes an empty matrix, of rank 0
            rows = [[0] * len(bases[k]) for _ in bases[k - 1]]
            for t, c in bases[k].items():
                sign = 1
                for j in range(n):
                    if t >> j & 1:
                        r = bases[k - 1].get(t & ~(1 << j))
                        if r is not None:
                            rows[r][c] = sign
                        sign = -sign
            ranks[k] = matrix_rank(rows, field)
        for k in range(n, top, -1):
            if len(bases[k]) - ranks[k] - ranks[k + 1] > 0:
                top = k
                break
    if top < 0:
        raise AssertionError("Koszul homology of S/I cannot vanish entirely")
    return n - top


# -- decision procedure: depth(S/I) vs depth of the radical ----------------------

class DepthEqualsRadicalVerdict(Record):
    """Outcome of the depth-vs-radical decision.

    On inequality, witness_degree is a degree a whose selected subcomplex
    witness_subcomplex has depth below the radical depth t.  Verdicts over
    equal complexes and one field that select the same facets share one
    witness_subcomplex object.
    """

    __slots__ = ("equal", "t", "witness_degree", "witness_subcomplex")

    def __init__(
        self, equal: bool, t: int, witness_degree: tuple[int, ...] | None = None,
        witness_subcomplex: Complex | None = None,
    ):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "witness_degree", witness_degree)
        object.__setattr__(self, "witness_subcomplex", witness_subcomplex)

    def __bool__(self) -> bool:
        return self.equal


def _divisibility_rows(n: int, gens) -> tuple[list[list[int]], list[list[int]]]:
    """The decision's search tables: per coordinate j, its class grid and,
    class by class, the generators (bits in the order of gens) whose x_j
    exponent is at most the class.

    One pass over the generator rows, with a running bit, files the bit of
    each generator g under filed[j][e] for each nonzero exponent g_j = e.
    Row 0 of coordinate j is the generators free of x_j, all of them but
    those filed at j; each later class joins its own file.  The classes are
    0 and the filed exponents but the largest, rho_j, so the grid is
    exactly _class_grid(n, gens); with at most one filed exponent the
    classes of j are [0] and nothing is sorted.
    """
    filed: list[dict[int, int]] = [{} for _ in range(n)]
    bit = 1
    for g in gens:
        for j, e in enumerate(g):
            if e:
                file = filed[j]
                file[e] = file.get(e, 0) | bit
        bit <<= 1
    grid, rows = [], []
    for file in filed:
        below = bit - 1 - sum(file.values())  # a generator is filed once per coordinate
        classes, row = [0], [below]
        if len(file) > 1:
            steps = sorted(file)
            steps.pop()  # rho_j starts the top class, which the grid leaves out
            for e in steps:
                below |= file[e]
                row.append(below)
            classes += steps
        grid.append(classes)
        rows.append(row)
    return grid, rows


def depth_equals_radical(
    dec: Decomposition, field: FieldSpec = RATIONALS
) -> DepthEqualsRadicalVerdict:
    """Decide depth(S/I) = depth(S/sqrt(I)) for the decomposition's intersection.

    Since depth(S/I) is the least depth K[Delta_a(I)] over a >= 0, equality
    holds iff every nonvoid degree complex on the class grid has depth >= t;
    the first degree, in the box's lexicographic order, whose complex falls
    below t is the witness.  The grid drops each top class a_j >= rho_j:
    there the complex is a cone with apex j, whose depth is at least that at
    a_j = 0, which comes first, so the first witness never lies there.

    Each degree complex at a >= 0 is a facet selection of Delta, pure or not,
    the facets whose component misses x^a (Minh-Trung, Adv. Math. 226
    (2011)), so whether it falls below t depends on the complex and the
    field alone, and homology._selections keeps t, the criterion and the
    answers once per (complex, field), shared with the cone union (see
    homology._Selections).  When Delta passes the paper's intersection
    criterion it has rigid depth: every selection has depth >= t and the
    verdict is equality at once, with no table and no search.  Every
    complex passes at t <= 1.

    Otherwise the search is one function of its state (j, mask): the
    coordinate and the bitmask of the generators, across all components,
    that divide the degree prefix.  It returns the facet-index bitmask of
    the least bad completion's selection, or 0, trying each coordinate's
    breakpoint classes in increasing order, and files the class it took at
    each coordinate on the way back up, which gives the witness degree.
    The classes of the last coordinate are tried in one loop, which reads
    each leaf in place: the selected facets are those whose component keeps
    no dividing generator, as degree_complex_unmixed selects them; their
    index bitmask is looked up in the stored answers, and only a selection
    not met before, over an equal complex and the same field, is asked of
    the _Selections, with its index list built then.  The void selection is
    stored as not below t, so 0 never names a witness.  Dead states are
    memoised, one set of masks per coordinate, so the first bad leaf is the
    box scan's first witness.  Its subcomplex is built from the winning
    selection only when no earlier verdict over an equal complex and the
    same field ended there: the _Selections keeps each witness by selection
    and every later verdict returns that object.  The grid and the
    generators dividing each class come from _divisibility_rows, one pass
    over the generator rows.
    The equivalent facet-selection route (no selection of depth < t admits
    a degree_selecting_witness) is left to the tests as an oracle; `srdepth
    audit` checks the verdict against depth_via_local_cohomology of the
    intersection, a separate code path.
    """
    sels = _selections(dec.delta, field)
    t, answers, below = sels.t, sels.answers, sels.below
    if sels.rigid:
        return DepthEqualsRadicalVerdict(True, t)
    n = dec.n
    gens, comps = [], []  # comps[i]: facet i's bit and the bits of its component's generators
    for i, comp in enumerate(dec.components):
        comps.append((1 << i, ((1 << len(comp.gens)) - 1) << len(gens)))
        gens += comp.gens
    grid, divides = _divisibility_rows(n, gens)
    r, last = len(comps), n - 1
    dead: list[set[int]] = [set() for _ in range(n)]  # dead[j]: masks with no bad completion
    degree = [0] * n  # the winning leaf's degree, filed on the way back up

    def search(j: int, mask: int) -> int:
        if mask in dead[j]:
            return 0
        if j == last:
            # a leaf selects the facets whose component keeps no dividing
            # generator; the void selection is stored as not below t
            for v, d in zip(grid[j], divides[j]):
                leaf = mask & d
                selection = 0
                for b, bits in comps:
                    if not leaf & bits:
                        selection |= b
                found = answers.get(selection)
                if found is None:
                    found = below(selection, [i for i in range(r) if selection >> i & 1])
                if found:
                    degree[j] = v
                    return selection
        else:
            for v, d in zip(grid[j], divides[j]):
                if selection := search(j + 1, mask & d):
                    degree[j] = v
                    return selection
        dead[j].add(mask)
        return 0

    selection = search(0, (1 << len(gens)) - 1)
    if not selection:
        return DepthEqualsRadicalVerdict(True, t)
    witness = sels.witnesses.get(selection)
    if witness is None:
        witness = sels.witnesses[selection] = Complex._from_masks(n, [
            fm for i, fm in enumerate(dec.delta.facet_masks) if selection >> i & 1])
    return DepthEqualsRadicalVerdict(False, t, tuple(degree), witness)
