"""Inequality systems on irreducible exponents that govern depth equality.

For a pure complex, the exponent tuples (a_{ij}) of an irreducible
decomposition for which depth(S/I) equals the radical depth form a finite
union of rational cones.  The facet selections are walked by their masks,
and homology._selection_below asks whether each has depth below t, building
a subcomplex only where the facets alone do not tell; each such Γ contributes
the formula OR_{i not in Γ} AND_{j not in F_i} OR_{k in Γ, j not in F_k}
a_{ij} >= a_{kj}, the factored form (by distributivity) of a conjunction over
tuples of outside-variable choices.  Expanding each selection's formula into a
small disjunctive normal form, multiplying these into one DNF selection by
selection and dropping subsumed products yields an explicit union of cones,
evaluable on integer points and tested against the paper's 4-cycle systems.
An expansion step that would list more than MAX_CONE_CANDIDATES candidate
conjunctions is refused, so a union too large to list fails fast.

Symbols are (facet index, variable) pairs with the variable outside the
facet; facet indices follow the canonical facet order of the complex.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Mapping

from .homology import FieldSpec, RATIONALS, _selection_below, depth_stanley_reisner
from .simplicial import Complex, _minimal_product, _selection_indices, as_int, require_pure

Symbol = tuple[int, int]  # (facet index, variable index)
Atom = tuple[int, int]  # (left symbol position, right symbol position): left >= right

#: largest number of candidate conjunctions one expansion step may list
MAX_CONE_CANDIDATES = 10**4


def _disjunct_order(d: frozenset) -> tuple:
    """The canonical order of disjuncts: by size, then by sorted atoms."""
    return len(d), sorted(d)


@dataclass(frozen=True)
class ConeUnion:
    """Disjunction of conjunctions of comparisons between exponent symbols."""

    n: int
    facets: tuple[tuple[int, ...], ...]
    symbols: tuple[Symbol, ...]
    disjuncts: tuple[frozenset[Atom], ...]

    @property
    def is_trivially_true(self) -> bool:
        return any(not d for d in self.disjuncts)

    @property
    def is_unsatisfiable(self) -> bool:
        return not self.disjuncts

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
    bitmasks until the end, an atom getting its bit when a selection first
    uses it.  The running DNF is an antichain: a conjunction that already
    holds a local term carries over unchanged, only the others grow by every
    local term, and subsumed growths are pruned.  So the final union needs no
    prune, only the canonical sort.

    A step whose product would list more than MAX_CONE_CANDIDATES candidate
    conjunctions is refused with a ValueError before it is expanded, and a
    complex beyond simplicial.DEFAULT_FACET_CAP facets before any depth.
    The irrelevant complex has no selection, so its union is trivially true.
    """
    require_pure(cx)
    masks = cx.facet_masks
    r = len(masks)
    selections = _selection_indices(r)
    t = depth_stanley_reisner(cx, field)
    outside_vars = [
        [j for j in range(1, cx.n + 1) if not fm >> (j - 1) & 1] for fm in masks
    ]
    symbols = tuple((i, j) for i in range(r) for j in outside_vars[i])
    sym_pos = {s: k for k, s in enumerate(symbols)}
    bit: dict[Atom, int] = {}  # each atom's bit, given on first use

    low_depth_selections = (
        selection for selection in selections
        if _selection_below(cx.n, [masks[i] for i in selection], t, field)
    )

    dnf = [0]
    for selection in low_depth_selections:
        # per outside facet, the atoms usable at each of its outside variables
        choices = [
            [
                [
                    bit.setdefault((sym_pos[(i, j)], sym_pos[(k, j)]), 1 << len(bit))
                    for k in selection
                    if not masks[k] >> (j - 1) & 1
                ]
                for j in outside_vars[i]
            ]
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
        if not dnf:
            break
    atoms = list(bit)
    disjuncts = [frozenset(a for b, a in enumerate(atoms) if d >> b & 1) for d in dnf]
    return ConeUnion(cx.n, cx.facets, symbols, tuple(sorted(disjuncts, key=_disjunct_order)))
