"""Monomial ideals with exact integer exponents, and primary decompositions.

A monomial is an exponent tuple of length n, 1 <= n <= 64; a MonomialIdeal
keeps the antichain of minimal generators in a canonical sort order.
Intersections go through pairwise lcms plus minimalization, which compares
a generator only with kept ones of lower degree and nested support.

Complexes and squarefree ideals pass into each other by minimal
transversals (Alexander duality), so no 2^n sweep is needed: the complex
of the squarefree monomials outside the radical (`radical_complex`) has as
facets the complements of the minimal vertex covers of the generator
supports, and the Stanley-Reisner ideal of a complex is generated by its
minimal nonfaces, the minimal transversals of the facet complements.
Each ideal keeps its radical complex once built; ideals are never changed
after construction, so the kept complex cannot go stale.

A Decomposition pairs a complex Δ, pure or not but never void, with one
P_F-primary component per facet F: every generator is supported off F and
every variable off F occurs as a pure power.  Their intersection I has
sqrt I = I_Δ and no embedded prime; for a pure Δ these I are exactly the
unmixed ideals with radical I_Δ.  Each value is checked once, where it is
read.  The 'power' and 'irreducible' forms are P_F-primary by construction
unless F covers every vertex, so only the 'generators' form goes through
primary_violation.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from math import comb

from .simplicial import (
    MAX_VERTICES, Complex, VOID, as_int, face_mask, json_fields, json_list, json_rows,
    mask_vertices, minimal_transversals,
)

Monomial = tuple  # exponent tuple of length n

#: generators beyond which prime_power_ideal refuses to list a prime power
MAX_PRIME_POWER_GENERATORS = 10**5


def divides(u: Monomial, v: Monomial) -> bool:
    return all(a <= b for a, b in zip(u, v))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a if a >= b else b for a, b in zip(u, v))


def support_mask(u: Monomial) -> int:
    m = 0
    for j, e in enumerate(u):
        if e:
            m |= 1 << j
    return m


def _ambient(n) -> int:
    """n as a variable count, refusing anything outside 1..MAX_VERTICES."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("ambient variable count must be >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"ambient variable count must be at most {MAX_VERTICES}, got {n}")
    return n


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    # a proper divisor has a lower degree and a support inside the multiple's
    out: list[tuple[int, Monomial]] = []
    for _, g in sorted((sum(t), t) for t in set(gens)):
        s = support_mask(g)
        for hs, h in out:
            if hs & s == hs and divides(h, g):
                break
        else:
            out.append((s, g))
    return tuple(sorted(g for _, g in out))


class MonomialIdeal:
    """Finite antichain of minimal monomial generators in K[x_1..x_n]."""

    __slots__ = ("n", "gens", "_radical")

    def __init__(self, n: int, generators: Iterable[Iterable[int]]):
        n = _ambient(n)
        clean: list[Monomial] = []
        for g in generators:
            t = tuple(g)
            if set(map(type, t)) - {int}:
                t = tuple(as_int(e, "exponent") for e in t)
            if len(t) != n:
                raise ValueError(f"generator {t} has length {len(t)}, expected {n}")
            if min(t) < 0:
                raise ValueError(f"negative exponent in generator {t}")
            clean.append(t)
        self.n = n
        self.gens = _minimalize(clean)
        self._radical = None  # radical_complex, once built

    @classmethod
    def _from_antichain(cls, n: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        """The ideal of exponent tuples of length n that already form an
        antichain: only n is checked, and nothing is minimalised again."""
        ideal = cls.__new__(cls)
        ideal.n = _ambient(n)
        ideal.gens = tuple(sorted(gens))
        ideal._radical = None
        return ideal

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[0])

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    # -- membership and arithmetic --------------------------------------------

    def contains(self, monomial: Iterable[int]) -> bool:
        """True iff some minimal generator divides the monomial."""
        m = tuple(monomial)
        if len(m) != self.n:
            raise ValueError(f"monomial length {len(m)} != ambient {self.n}")
        return any(divides(g, m) for g in self.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if self.is_zero or other.is_zero:
            return MonomialIdeal(self.n, [])
        return MonomialIdeal(
            self.n, [lcm(u, v) for u in self.gens for v in other.gens]
        )

    def radical(self) -> "MonomialIdeal":
        """Generated by the squarefree supports of the generators."""
        return MonomialIdeal(
            self.n, [tuple(1 if e else 0 for e in g) for g in self.gens]
        )

    def max_exponents(self) -> tuple[int, ...]:
        return tuple(
            max((g[j] for g in self.gens), default=0) for j in range(self.n)
        )

    # -- serialization and protocol --------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        n, gens = json_fields(data, "ideal", "n", "generators")
        return cls(as_int(n, "n"), json_rows(gens, "generators"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"


# -- component constructors ---------------------------------------------------
# the private builders also return the facet's mask, which the JSON reader keys by

def _complement(n: int, facet: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    n = _ambient(n)
    fmask = face_mask(facet, n)
    return fmask, tuple(j for j in range(1, n + 1) if not fmask >> (j - 1) & 1)


def irreducible_ideal(n: int, facet: Iterable[int], exps: Sequence[int]) -> MonomialIdeal:
    """(x_j^{e_j} : j not in F), exponents listed by ascending complement variable."""
    return _irreducible(n, facet, exps)[1]


def _irreducible(n: int, facet: Iterable[int], exps: Sequence[int]) -> tuple[int, MonomialIdeal]:
    fmask, comp = _complement(n, facet)
    if len(exps) != len(comp):
        raise ValueError(f"expected {len(comp)} exponents for complement {comp}, got {len(exps)}")
    gens = []
    for j, e in zip(comp, exps):
        e = as_int(e, "exponent")
        if e < 1:
            raise ValueError(f"irreducible exponents must be >= 1, got {e}")
        gens.append((0,) * (j - 1) + (e,) + (0,) * (n - j))
    # pure powers of distinct variables divide none of each other
    return fmask, MonomialIdeal._from_antichain(n, gens)


def prime_power_ideal(n: int, facet: Iterable[int], m: int) -> MonomialIdeal:
    """P_F^m, generated by all degree-m monomials in the complement variables;
    refused when there are more than MAX_PRIME_POWER_GENERATORS of them."""
    return _prime_power(n, facet, m)[1]


def _prime_power(n: int, facet: Iterable[int], m: int) -> tuple[int, MonomialIdeal]:
    m = as_int(m, "power")
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    fmask, comp = _complement(n, facet)
    count = comb(m + len(comp) - 1, m)
    if count > MAX_PRIME_POWER_GENERATORS:
        raise ValueError(
            f"prime power P_F^{m} in {len(comp)} variables has {count} generators, "
            f"more than {MAX_PRIME_POWER_GENERATORS}"
        )
    if not comp:
        return fmask, MonomialIdeal._from_antichain(n, ())
    # Nijenhuis and Wilf's NEXCOM, O(1) steps per generator: the first
    # nonzero exponent t, at h, leaves t - 1 at pos[0] and 1 at pos[h + 1]
    pos = [j - 1 for j in comp]
    vec = [0] * n
    vec[pos[0]] = m
    gens = [tuple(vec)]
    h = t = 0
    while vec[pos[-1]] != m:
        if t > 1:
            h = 0  # the first variable kept t - 1 > 0
        t = vec[pos[h]]
        vec[pos[h]] = 0
        vec[pos[0]] = t - 1
        h += 1
        vec[pos[h]] += 1
        gens.append(tuple(vec))
    # distinct monomials of one degree divide none of each other
    return fmask, MonomialIdeal._from_antichain(n, gens)


def stanley_reisner_ideal(cx: Complex) -> MonomialIdeal:
    """I_cx, generated by the minimal nonfaces of the complex: the minimal
    transversals of the facet complements, as squarefree monomials.  It
    equals the intersection of the facet primes P_F; a simplex gives the
    zero ideal and {()} the maximal ideal."""
    if cx.kind == VOID:
        raise ValueError("void complex has no Stanley-Reisner ideal")
    n = cx.n
    nonfaces = minimal_transversals(((1 << n) - 1) & ~fm for fm in cx.facet_masks)
    gens = [tuple(t >> j & 1 for j in range(n)) for t in nonfaces]
    # minimal transversals form an antichain, and so do their 0/1 exponents
    return MonomialIdeal._from_antichain(n, gens)


def radical_complex(ideal: MonomialIdeal) -> Complex:
    """The complex whose faces are the squarefree monomials outside radical(ideal):
    its facets are the complements of the minimal vertex covers of the supports.

    It is also the degree complex at a = 0, whose excess sets are the
    supports.  The ideal keeps the complex it first builds, so the depth
    scan, which starts at a = 0, and a later call share one object."""
    if ideal._radical is None:
        ideal._radical = Complex._from_nonfaces(ideal.n, map(support_mask, ideal.gens))
    return ideal._radical


# -- primary decompositions ----------------------------------------------------

def primary_violation(n: int, facet_mask: int, component: MonomialIdeal) -> str | None:
    """Reason the component fails to be P_F-primary, or None if it is."""
    if component.n != n:
        return f"component ambient {component.n} != {n}"
    missing = ((1 << n) - 1) & ~facet_mask  # complement variables with no pure power yet
    if missing == 0:
        return "facet covers every vertex, so its prime is zero"
    for g in component.gens:
        sm = support_mask(g)
        if sm & facet_mask:
            return f"generator {g} involves variables of the facet"
        if sm & (sm - 1) == 0:
            missing &= ~sm
    if missing:
        return f"no pure power of x_{(missing & -missing).bit_length()} among the generators"
    return None


class Decomposition:
    """A nonvoid complex plus one P_F-primary monomial ideal per facet.

    Components come as a mapping from each facet (its vertices in any order)
    to its ideal, and are stored in the canonical facet order.  Once the
    P_F-primary conditions hold, the intersection of the components has
    radical equal to the Stanley-Reisner ideal of the complex.
    """

    __slots__ = ("delta", "components")

    def __init__(self, delta: Complex, components: Mapping[Iterable[int], MonomialIdeal]):
        self._assemble(delta, [(f, None, ideal) for f, ideal in components.items()])

    def _assemble(self, delta: Complex, read: Iterable[tuple]) -> "Decomposition":
        """Store the (facet, mask, component) triples of read in the facet order
        of delta; a mask of None marks a facet and a component still to check."""
        if delta.kind == VOID:
            raise ValueError("a decomposition needs a nonvoid complex")
        n, keyed, unchecked = delta.n, {}, {(1 << delta.n) - 1}
        for f, fm, ideal in read:
            if fm is None:
                fm = face_mask(f, n)
                unchecked.add(fm)
            if fm in keyed:
                raise ValueError(f"facet {list(mask_vertices(fm))} has more than one component")
            keyed[fm] = ideal
        if keyed.keys() != set(delta.facet_masks):
            raise ValueError("components must be keyed by the facets of the complex")
        for fm in delta.facet_masks:
            reason = fm in unchecked and primary_violation(n, fm, keyed[fm])
            if reason:
                raise ValueError(
                    f"component for facet {list(mask_vertices(fm))} is not primary: {reason}"
                )
        self.delta = delta
        self.components = tuple(keyed[fm] for fm in delta.facet_masks)
        return self

    @property
    def n(self) -> int:
        return self.delta.n

    def intersection(self) -> MonomialIdeal:
        return reduce(MonomialIdeal.intersect, self.components)

    def max_exponents(self) -> tuple[int, ...]:
        """Coordinatewise max over components; equals the intersection's maxima."""
        return tuple(map(max, zip(*(c.max_exponents() for c in self.components))))

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        cx_data, raw = json_fields(data, "decomposition", "complex", "components")
        delta = Complex.from_json_dict(cx_data)
        read = []  # (facet, its mask or None, component)
        for entry in json_list(raw, "components"):
            (facet,) = json_fields(entry, "component", "facet")
            facet = tuple(as_int(v, "vertex") for v in json_list(facet, "facet"))
            # exactly one form: reading the first one found would drop the others
            forms = [repr(k) for k in ("generators", "power", "irreducible") if k in entry]
            if len(forms) != 1:
                raise ValueError(
                    f"component for facet {list(facet)} needs exactly one of 'generators', "
                    f"'power' or 'irreducible', got {' and '.join(forms) or 'none'}"
                )
            if "generators" in entry:
                fm = None
                ideal = MonomialIdeal(delta.n, json_rows(entry["generators"], "generators"))
            elif "power" in entry:
                fm, ideal = _prime_power(delta.n, facet, entry["power"])
            else:
                exps = json_list(entry["irreducible"], "irreducible")
                fm, ideal = _irreducible(delta.n, facet, exps)
            read.append((facet, fm, ideal))
        return cls.__new__(cls)._assemble(delta, read)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.delta == other.delta and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.delta, self.components))

    def __repr__(self) -> str:
        return f"Decomposition(delta={self.delta!r}, components={len(self.components)})"

