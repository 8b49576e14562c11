"""Inequality systems on irreducible exponents that govern depth equality.

For a pure complex, the exponent tuples (a_{ij}) of an irreducible
decomposition for which depth(S/I) equals the radical depth form a finite
union of rational cones.  The facet selections of depth below t come from
homology._selections, the one object per (complex, field) that the
decision also reads (see homology._Selections): none when the complex
passes the paper's intersection criterion, else those its walk puts below
t by homology._generated_below, the one depth-below predicate.  Each Γ of
depth below t contributes the formula OR_{i not in Γ} AND_{j not in F_i}
OR_{k in Γ, j not in F_k} a_{ij} >= a_{kj}, the factored form (by
distributivity) of a conjunction over tuples of outside-variable choices.
Expanding each selection's formula into a small disjunctive normal form,
multiplying these into one DNF selection by selection and dropping
subsumed products yields an explicit union of cones, evaluable on integer
points and tested against the paper's 4-cycle systems.
The union is never empty (see generate_cone_union).
Every product holds a local term, so a product is compared for subsumption
only with the conjunctions filed under the local terms it holds.  The atoms
are numbered in their sorted order before any product, so each conjunction
reads back its atoms, sorted, from its set bits.
An expansion step that would list more than MAX_CONE_CANDIDATES candidate
conjunctions is refused, so a union too large to list fails fast.

Symbols are (facet index, variable) pairs with the variable outside the
facet; facet indices follow the canonical facet order of the complex.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import product
from math import prod

from .homology import FieldSpec, RATIONALS, _selections
from .simplicial import Complex, Record, _selection_indices, as_int, require_pure

Symbol = tuple[int, int]  # (facet index, variable index)
Atom = tuple[int, int]  # (left symbol position, right symbol position): left >= right

#: largest number of candidate conjunctions one expansion step may list
MAX_CONE_CANDIDATES = 10**4


def _minimal_product(dnf: list[int], terms: list[int]) -> list[int]:
    """The minimal masks d | c over d in the antichain dnf and c in terms.

    A d holding some term c is its own product d | c, minimal because dnf is
    an antichain; only the other d grow by every term.  Every product holds
    a term, and each kept mask, and each grown one as it is accepted, is
    filed under the first term it holds.  Grown masks are taken by bit
    count, so a grown mask inside g (a copy of g too) is settled before g,
    and g is compared only with the masks filed under the terms inside g: a
    mask inside g has its filing term inside g, so g drops out exactly when
    it holds a kept mask or an accepted grown one.
    """
    filed: dict[int, list[int]] = {c: [] for c in terms}
    out, grown = [], []
    for d in dnf:
        for c in filed:
            if c & d == c:
                out.append(d)
                filed[c].append(d)
                break
        else:
            grown += [d | c for c in terms]
    for g in sorted(grown, key=int.bit_count):
        home = None  # the masks filed under the first term inside g
        for c, masks in filed.items():
            if c & g == c:
                if home is None:
                    home = masks
                for o in masks:
                    if o & g == o:
                        break
                else:
                    continue
                break  # a filed mask lies inside g
        else:
            out.append(g)
            home.append(g)
    return out


class ConeUnion(Record):
    """Disjunction of conjunctions of comparisons between exponent symbols."""

    __slots__ = ("n", "facets", "symbols", "disjuncts")

    def __init__(
        self, n: int, facets: tuple[tuple[int, ...], ...], symbols: tuple[Symbol, ...],
        disjuncts: tuple[frozenset[Atom], ...],
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "disjuncts", disjuncts)

    @property
    def is_trivially_true(self) -> bool:
        return any(not d for d in self.disjuncts)

    def evaluate(self, assignment: Mapping[Symbol, int]) -> bool:
        """True iff every comparison of some disjunct holds.

        The assignment must give a positive integer to every symbol.
        """
        values = []
        for sym in self.symbols:
            if sym not in assignment:
                raise ValueError(f"assignment misses symbol {sym}")
            v = as_int(assignment[sym], f"exponent for {sym}")
            if v < 1:
                raise ValueError(f"exponent for {sym} must be positive, got {v}")
            values.append(v)
        return any(
            all(values[left] >= values[right] for left, right in d)
            for d in self.disjuncts
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "facets": [list(f) for f in self.facets],
            "symbols": [{"facet": i + 1, "var": j} for i, j in self.symbols],
            "disjuncts": [
                [
                    {"left": left, "rel": ">=", "right": right}
                    for left, right in sorted(d)
                ]
                for d in self.disjuncts
            ],
        }


def generate_cone_union(cx: Complex, field: FieldSpec = RATIONALS) -> ConeUnion:
    """Emit the union of cones characterizing depth equality over cx.

    Each facet selection Γ of depth below t contributes the formula

        OR_{i not in Γ} AND_{j not in F_i} OR_{k in Γ, j not in F_k} a_{ij} >= a_{kj}

    (some outside facet has, at each of its outside variables, an exponent
    dominating a matching exponent of a selected facet; a selected facet
    containing x_j contributes no comparison).  It expands to a small local
    DNF: one conjunction per outside facet and choice of k for each j, and
    an outside facet with an empty inner OR drops out.  The local DNFs are
    multiplied into the running DNF selection by selection; conjunctions are
    bitmasks until the end.  Every atom is numbered up front in its sorted
    order, so a final mask decodes by its set bits alone into sorted atoms,
    and the canonical sort compares those tuples as they come.  The running
    DNF stays an antichain (see _minimal_product), so the final union needs
    no prune, only the canonical sort.

    The selections of depth below t come from the walk of
    homology._selections(cx, field), in the order of
    simplicial._selection_indices: none when cx passes the paper's
    intersection criterion, so its union, trivially true, is returned before
    any atom is numbered; else the selections its answers, shared with the
    decision, put below t (see homology._Selections for the depth lemma).

    A step whose product would list more than MAX_CONE_CANDIDATES candidate
    conjunctions is refused with a ValueError before it is expanded, and a
    complex beyond simplicial.DEFAULT_FACET_CAP facets before any depth or
    the criterion is read.
    The irrelevant complex has no selection, so its union is trivially true.

    The union is never empty.  A selection Γ below t is not the full star
    of its common face G, which has depth |G| + depth K[lk G] >= t by
    Hochster's formula, so an outside facet F_i holds G.  Each x_j outside
    F_i lies outside G, so some selected facet misses it: F_i's local DNF is
    nonempty, and so is every product.  Every disjunct holds at the all-ones
    point, where the ideal is I_Delta.
    """
    require_pure(cx)
    masks = cx.facet_masks
    r = len(masks)
    selections = _selection_indices(r)
    outside_vars = [
        [j for j in range(1, cx.n + 1) if not fm >> (j - 1) & 1] for fm in masks
    ]
    symbols = tuple((i, j) for i in range(r) for j in outside_vars[i])
    sels = _selections(cx, field)
    if sels.rigid:
        return ConeUnion(cx.n, cx.facets, symbols, (frozenset(),))
    sym_pos = {s: k for k, s in enumerate(symbols)}
    # every atom numbered up front in sorted order, (i, j) then k;
    # rows[i][q][k]: the bit of the atom (sym_pos[(i, j)], sym_pos[(k, j)])
    # for the q-th outside variable j of facet i, 0 where x_j lies in F_k
    atoms: list[Atom] = []
    rows: list[list[list[int]]] = [[] for _ in range(r)]
    for p, (i, j) in enumerate(symbols):
        row = [0] * r
        for k in range(r):
            if k != i and not masks[k] >> (j - 1) & 1:
                row[k] = 1 << len(atoms)
                atoms.append((p, sym_pos[(k, j)]))
        rows[i].append(row)

    dnf = [0]
    for selection in sels.walk(selections):
        # per outside facet, the atoms usable at each of its outside variables
        choices = [
            [[row[k] for k in selection if row[k]] for row in rows[i]]
            for i in range(r)
            if i not in selection
        ]
        size = sum(prod(len(c) for c in per_var) for per_var in choices)
        if len(dnf) * size > MAX_CONE_CANDIDATES:
            raise ValueError(
                f"cone union expansion needs {len(dnf) * size} candidate "
                f"conjunctions in one step, more than {MAX_CONE_CANDIDATES}"
            )
        # each term takes one atom per variable, so its sum is its union;
        # distinct outside facets give disjoint atoms, so the local DNF is
        # already pruned
        local = [sum(term) for per_var in choices for term in product(*per_var)]
        dnf = _minimal_product(dnf, local)
    decoded = []
    for d in dnf:
        held = []  # the atoms of d's set bits, in increasing order
        while d:
            low = d & -d
            held.append(atoms[low.bit_length() - 1])
            d ^= low
        decoded.append((len(held), tuple(held)))
    decoded.sort()
    return ConeUnion(cx.n, cx.facets, symbols, tuple(frozenset(held) for _, held in decoded))
