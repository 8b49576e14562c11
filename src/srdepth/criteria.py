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
point, below the largest exponent rho_j, or 0 when x_j is unused.  One
table, `_exceed_rows`, built in one pass over the generator rows, gives
both scans this grid and, per coordinate and class, the bitmask of the
generators whose exponent exceeds the class, so a degree is the tuple of
its coordinates' masks: the OR of the masks is the generators exceeding
somewhere, and x^a lies in I iff it misses one.

Hochster's formula, depth_stanley_reisner, is the one depth engine.  With
Delta_a(I) = lk_{Delta_a+(I)} G_a, where G_a = {j : a_j < 0} and
a+ = max(a, 0) coordinatewise, it turns Takayama's formula into
depth(S/I) = min over a >= 0 of depth K[Delta_a(I)], which is how
depth_via_local_cohomology computes the depth and how depth_equals_radical
compares it with the radical's.  The degree complex at a = 0 is the
radical's complex (its excess sets are the supports), so the scan takes it
from ideals.radical_complex, which each ideal builds once.  The depth scan
reads each degree off its masks once and asks only whether its complex
falls below the running minimum.  While that is 3 or more it reads the
excess sets back off the masks and builds the complex; from 2 down,
bit-sliced counts over the masks give the generators exceeding at exactly
one coordinate and at exactly two, whose excess sets give every nonface of
at most two elements, and these decide it with no complex: depth 0 iff every vertex
is a nonface, and depth >= 2 iff the 1-skeleton (the vertices that are not
nonfaces, joined unless they form a nonface) is connected with at least
two vertices.  At a minimum of 1 only depth 0 can lower it.

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
from functools import reduce
from itertools import product
from operator import or_

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
    meets every d, and Complex._from_nonfaces builds the complex from the d.
    An empty d, x^a in the ideal, makes every set a nonface: the void complex.
    """
    _check_degree(a, ideal.n)
    return Complex._from_nonfaces(ideal.n, [
        sum(1 << j for j, (e, x) in enumerate(zip(g, a)) if e > x) for g in ideal.gens])


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

def _exceed_rows(n: int, gens) -> tuple[list[list[int]], list[list[int]]]:
    """The class grid and, per coordinate j and class by class, the
    generators (bits in the order of gens) whose x_j exponent exceeds the
    class: both scans read every degree off these rows.

    With b_0 = 0 < b_1 < ... < rho_j the distinct exponents of x_j among gens,
    g_j > a_j holds for the same generators on every a_j in [b_k, b_(k+1)),
    so b_k stands for its class.  The top class a_j >= rho_j is left out
    when rho_j > 0: there every degree complex is a cone with apex j, which
    carries no local cohomology and, for depth, never falls below its
    a_j = 0 counterpart.  When x_j is unused, rho_j = 0 and the classes are
    [0], the one class.  A representative is the least point of its class,
    so the lexicographic order of the representatives is the box order.

    One pass over the generator rows, with a running bit, files the bit of
    each generator g under filed[j][e] for each nonzero exponent g_j = e.
    Row 0 of coordinate j is every generator filed at j; each later class
    e drops the file of e, whose generators no longer exceed it.  With at
    most one filed exponent the classes of j are [0] and nothing is sorted.
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
        above = sum(file.values())  # a generator is filed once per coordinate
        classes, row = [0], [above]
        if len(file) > 1:
            steps = sorted(file)
            steps.pop()  # rho_j starts the top class, which the grid leaves out
            for e in steps:
                above ^= file[e]
                row.append(above)
            classes += steps
        grid.append(classes)
        rows.append(row)
    return grid, rows


def depth_via_local_cohomology(
    ideal: MonomialIdeal, field: FieldSpec = RATIONALS
) -> int:
    """depth(S/I) as the least depth K[Delta_a(I)] over nonnegative degrees a.

    By Takayama's formula and Delta_a(I) = lk_{Delta_a+(I)} G_a, each
    nonvanishing graded local cohomology piece is a term of Hochster's
    formula for a degree complex at a >= 0, and none of these complexes has
    depth below depth(S/I).  Such a piece has a_j < rho_j, so the scan
    visits one degree per breakpoint class, as the tuple of its row masks
    in _exceed_rows, and stops at 0.  Generator i exceeds x^a at j iff bit
    i is set in the mask of j, and x^a lies in I iff the OR of the masks
    misses a generator; such a degree is skipped first, with nothing built.

    Each degree only has to show whether its complex has depth below the
    running best.  While the best is 3 or more, depth_stanley_reisner reads
    the complex that Complex._from_nonfaces builds from the excess sets,
    read back off the masks; at a = 0 they are the supports, and the scan
    takes the radical's complex, which the ideal keeps, from
    radical_complex.  From a best of 2 down, one bit-sliced pass over the
    masks gives the generators exceeding at >= 1 (the OR), >= 2 and >= 3
    coordinates, so those exceeding at exactly one and at exactly two, and
    no complex is built: depth 0 iff every coordinate has a generator
    exceeding there alone (every vertex is a nonface), and depth >= 2 iff
    the 1-skeleton (the other coordinates, joined unless one generator
    exceeds at both and nowhere else) is connected with at least two
    vertices.  At a best of 1 only depth 0 can lower it.
    """
    if not ideal.is_proper_nonzero:
        raise ValueError("depth needs a proper nonzero ideal")
    n = best = ideal.n
    full = (1 << len(ideal.gens)) - 1
    rows = _exceed_rows(n, ideal.gens)[1]
    zero = tuple(row[0] for row in rows)  # a = 0, whose excess sets are the supports
    for masks in product(*rows):
        if best > 2:
            if reduce(or_, masks) != full:
                continue
            if masks == zero:
                cx = radical_complex(ideal)
            else:
                cx = Complex._from_nonfaces(n, [
                    sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                    for i in range(len(ideal.gens))])
            best = min(best, depth_stanley_reisner(cx, field))
            if best == 0:
                break
            continue
        ones = twos = threes = 0  # the generators exceeding at >= 1, >= 2, >= 3 coordinates
        for m in masks:
            threes |= twos & m
            twos |= ones & m
            ones |= m
        if ones != full:
            continue
        sole = ones & ~twos
        if best == 1:
            for m in masks:
                if not m & sole:
                    break
            else:
                return 0
            continue
        verts, bit = 0, 1
        for m in masks:
            if not m & sole:
                verts |= bit
            bit <<= 1
        if not verts:
            return 0
        pairs = twos & ~threes
        seen = frontier = verts & -verts
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = verts & ~seen
            apart = masks[b.bit_length() - 1] & pairs  # exceeding at b and one other
            if apart:
                bit = 1
                for m in masks:
                    if m & apart:
                        new &= ~bit
                    bit <<= 1
            seen |= new
            frontier |= new
        if seen != verts or not verts & (verts - 1):
            best = 1
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

    Otherwise the search is one loop over explicit state: masks[j], the
    bitmask of the generators, across all components, that fail to divide
    the degree prefix entering coordinate j (the OR of the prefix's rows of
    _exceed_rows), and ks[j], the index of the breakpoint class being tried
    at j.  Each coordinate tries its classes in increasing order; a child
    state met before with no bad completion is passed over, and a
    coordinate whose classes are used up adds its mask to dead[j], one set
    of masks per coordinate, and backs up to the class after the one its
    parent was trying.  The classes of the last coordinate are tried in
    one inner loop, which reads each leaf in place: the selected facets are
    those whose component has every generator failing, as
    degree_complex_unmixed selects them; their index bitmask is looked up
    in the stored answers, and only a selection not met before, over an
    equal complex and the same field, is asked of the _Selections, with
    its index list built then.  The void selection is stored as not below
    t, so it never names a witness.  Dead states are skipped only because
    they have no bad leaf, so the first bad leaf is the box scan's first
    witness, and its degree is grid[j][ks[j]] at every coordinate j.
    Its subcomplex is built from the winning selection only when no
    earlier verdict over an equal complex and the same field ended there:
    the _Selections keeps each witness by selection and every later verdict
    returns that object.  The search is no nested function, so it makes
    no reference cycle: its state is freed by reference counting as the
    verdict returns, and no verdict leaves work for the cycle collector.
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
    grid, exceeds = _exceed_rows(n, gens)
    r, last = len(comps), n - 1
    dead: list[set[int]] = [set() for _ in range(n)]  # dead[j]: masks with no bad completion
    masks = [0] * n  # masks[j]: the prefix mask entering coordinate j
    ks = [0] * n  # ks[j]: the index of the class tried at coordinate j
    j = 0
    while True:
        mask = masks[j]
        if j < last:
            k = ks[j]
            if k < len(grid[j]):
                child = mask | exceeds[j][k]
                if child in dead[j + 1]:
                    ks[j] = k + 1
                else:
                    j += 1
                    masks[j], ks[j] = child, 0
                continue
        else:
            # a leaf selects the facets whose component has every generator
            # failing; the void selection is stored as not below t
            for k, e in enumerate(exceeds[j]):
                leaf = mask | e
                selection = 0
                for b, bits in comps:
                    if leaf & bits == bits:
                        selection |= b
                found = answers.get(selection)
                if found is None:
                    found = below(selection, [i for i in range(r) if selection >> i & 1])
                if found:
                    break
            if found:
                ks[j] = k
                break
        dead[j].add(mask)  # the classes of j are used up: back up
        if not j:
            return DepthEqualsRadicalVerdict(True, t)
        j -= 1
        ks[j] += 1
    witness = sels.witnesses.get(selection)
    if witness is None:
        witness = sels.witnesses[selection] = Complex._from_masks(n, [
            fm for i, fm in enumerate(dec.delta.facet_masks) if selection >> i & 1])
    return DepthEqualsRadicalVerdict(
        False, t, tuple(classes[k] for classes, k in zip(grid, ks)), witness)
