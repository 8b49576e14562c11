"""Simplicial complexes on the vertex set {1..n}, stored by their facets.

Faces are bitmasks internally (bit j-1 <-> vertex j), so every operation is
set algebra on machine integers; n is capped at 64.  Three kinds of complex
are kept apart because homology conventions differ downstream:

* void        -- no faces at all (not even the empty face),
* irrelevant  -- the single face is the empty set,
* ordinary    -- everything else.

Vertex tuples are validated only at the boundary (constructor, link, JSON);
internal paths pass masks, and the k-faces of a facet are its k-bit
submasks.  Face enumeration is colexicographic on bitmasks (numeric order of
the mask), which fixes boundary-matrix rows/columns and makes all outputs
reproducible.  `minimal_transversals` adds edges, minimal or not, by Berge's
rule, comparing each grown transversal only with the ones that stay, and
builds degree and radical complexes.  `require_pure` is the precondition of
rigidity, cones and decompositions.
`Record` is the slotted, immutable base of the package's value records.

The public constructor keeps the maximal faces of whatever it is given.
`Complex._from_masks` takes an antichain of facet masks and only sorts it:
every internal builder (links, skeletons, facet selections, degree and
radical complexes) has one at hand, so no subsumption scan runs twice.

A complex owns its face lists: `face_masks_of_dim` lists each size once and
keeps it, unshared with equal complexes.  Three sizes are read off the
facets: the empty face, the vertices (the bits of the facets' union) and
the top size (the facets of dimension dim).  The empty face's link is the
complex itself, so Hochster's and Reisner's walks start from its lists.
Any other link keeps its parent's level list, never the parent itself, if
the parent had one when the link was built: it filters the middle sizes
that list holds (the faces holding the linked face, with that face removed)
and lists only the other sizes from its own facets.  A complex also keeps
the links it has built.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import combinations

MAX_VERTICES = 64

#: facets beyond which _selection_indices refuses to list the 2^r facet
#: selections (for cone generation and the rigidity oracles)
DEFAULT_FACET_CAP = 20

VOID = "void"
IRRELEVANT = "irrelevant"
ORDINARY = "ordinary"

Face = tuple  # sorted tuple of vertices at the API boundary


def as_int(x, what: str) -> int:
    """x as an integer; bools, floats and strings are refused, never coerced."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def json_fields(data, what: str, *keys: str) -> list:
    """The values of the given keys of a JSON object, refusing anything else."""
    if isinstance(data, dict) and all(k in data for k in keys):
        return [data[k] for k in keys]
    need = f"{what} JSON needs {' and '.join(map(repr, keys))}"
    if not isinstance(data, dict):
        raise ValueError(f"{need}: got {data!r}")
    missing = next(k for k in keys if k not in data)
    raise ValueError(f"{need}: {missing!r}")


def json_list(value, what: str) -> list:
    """A JSON list, refusing anything else."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def json_rows(value, what: str) -> list:
    """A JSON list of lists (facets, generators), refusing anything else."""
    for row in json_list(value, what):
        json_list(row, f"each entry of {what}")
    return value


def face_mask(vertices: Iterable[int], n: int) -> int:
    """Bitmask of a vertex set, validating the 1..n range and refusing a
    vertex listed twice; a vertex already read as an int costs one type test."""
    m = 0
    for v in vertices:
        if type(v) is not int:
            v = as_int(v, "vertex")
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
        if m >> (v - 1) & 1:
            raise ValueError(f"vertex {v} listed twice")
        m |= 1 << (v - 1)
    return m


def mask_bits(mask: int) -> Iterator[int]:
    """The one-bit masks of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def mask_vertices(mask: int) -> Face:
    """Sorted vertex tuple of a bitmask."""
    verts = []
    v = 1
    while mask:
        if mask & 1:
            verts.append(v)
        mask >>= 1
        v += 1
    return tuple(verts)


def _maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for o in out:
            if m & o == m:
                break
        else:
            out.append(m)
    out.sort()
    return tuple(out)


def minimal_transversals(edges: Iterable[int]) -> list[int]:
    """The minimal masks meeting every edge mask, in numeric order.

    Edges are added one at a time by Berge's rule: a transversal meeting
    the new edge e stays, and one missing it grows into t | b for each bit b
    of e.  A grown mask meets e only in b, so no grown mask lies inside
    another, and none lies inside a staying one (which would then hold t,
    another member of the antichain).  So a grown mask is compared only with
    the staying transversals, and drops out when one of them lies inside it.
    Edges need not be minimal: taken by size, an edge holding another comes
    after it and keeps every transversal, so each list is as over the
    minimal edges alone.
    No edges give [0]; an empty edge gives no transversal at all.
    """
    trans = [0]
    for e in sorted(set(edges), key=int.bit_count):
        if not e:
            return []
        stay = [t for t in trans if t & e]
        grown = []
        for t in trans:
            if not t & e:
                for b in mask_bits(e):
                    g = t | b
                    for k in stay:
                        if k & g == k:
                            break
                    else:
                        grown.append(g)
        trans = stay + grown
    return sorted(trans)


def _selection_indices(r: int) -> Iterator[tuple[int, ...]]:
    """Lazy index tuples of the proper nonempty selections of r facets, by
    size and then in combinations order.  More than DEFAULT_FACET_CAP facets
    are refused when this is called, before anything is listed."""
    if r > DEFAULT_FACET_CAP:
        raise ValueError(f"{r} facets exceed the enumeration cap {DEFAULT_FACET_CAP}")
    return (idx for k in range(1, r) for idx in combinations(range(r), k))


class Record:
    """Base of the immutable value records (verdicts, cone unions, fields).

    A subclass names its fields in __slots__, in constructor order, and sets
    them in __init__ through object.__setattr__.  Records compare and hash by
    the tuple of their fields, print as `Name(field=value, ...)`, refuse
    assignment and deletion, and pickle and copy through their constructor.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return tuple(getattr(self, s) for s in fields) == tuple(getattr(other, s) for s in fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, s) for s in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, s) for s in self.__slots__)


class Complex:
    """Immutable simplicial complex, normalized to its inclusion-maximal faces.

    The constructor accepts any collection of candidate faces (iterables of
    vertices) and keeps the maximal ones; it is idempotent on facet sets.
    """

    __slots__ = ("n", "_fmasks", "kind", "dim", "_hash", "_levels", "_above", "_links")

    def __init__(self, n: int, faces: Iterable[Iterable[int]]):
        n = as_int(n, "n")
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        self._set_facets(n, _maximal_masks(face_mask(f, n) for f in faces))

    def _set_facets(self, n: int, fmasks: tuple[int, ...]) -> None:
        self.n = n
        self._fmasks = fmasks
        # max |F|-1; -1 if irrelevant, -2 if void (a below-everything sentinel)
        self.dim = max((m.bit_count() for m in fmasks), default=-1) - 1
        if not fmasks:
            self.kind = VOID
        elif fmasks == (0,):
            self.kind = IRRELEVANT
        else:
            self.kind = ORDINARY
        self._hash = hash((n, fmasks))
        self._levels = None  # slot k: the k-vertex faces, once listed
        self._above = None  # (parent's level list, face mask) of a link
        self._links = None  # face mask -> link, once built

    @classmethod
    def _from_masks(cls, n: int, masks: Iterable[int]) -> "Complex":
        """The complex with the given facet masks, which must form an
        antichain (distinct and pairwise incomparable): they are only sorted,
        never normalised as the constructor's faces are."""
        cx = object.__new__(cls)
        cx._set_facets(n, tuple(sorted(masks)))
        return cx

    # -- basic queries ------------------------------------------------------

    @property
    def facets(self) -> tuple[Face, ...]:
        return tuple(mask_vertices(m) for m in self._fmasks)

    @property
    def facet_masks(self) -> tuple[int, ...]:
        return self._fmasks

    @property
    def is_pure(self) -> bool:
        # the void complex, with no facet, is pure
        return len({m.bit_count() for m in self._fmasks}) <= 1

    def face_masks_of_dim(self, i: int) -> tuple[int, ...]:
        """All i-faces as bitmasks, in colexicographic (numeric) order.

        Three levels are read off the facets: the empty face, the vertices
        of their union, lowest first, and at i = dim the facets of top
        size, since every face of that size is a facet.  A link filters any
        other level from its parent's list when the parent has one; else
        the level is listed from the facets' submasks."""
        if self.kind == VOID:
            return ()
        if i < -1 or i > self.dim:
            raise ValueError(f"dimension {i} out of range -1..{self.dim}")
        levels = self._levels
        if levels is None:
            levels = self._levels = [None] * (self.dim + 2)
        level = levels[i + 1]
        if level is None:
            if i == -1:
                level = (0,)
            elif i == self.dim:
                level = tuple([fm for fm in self._fmasks if fm.bit_count() == i + 1])
            elif i == 0:
                level = tuple(mask_bits(reduce(operator.or_, self._fmasks)))
            else:
                up = None
                if self._above:
                    above, m = self._above
                    up = above[i + m.bit_count() + 1]
                if up is not None:
                    # h -> h - m is monotone on the supersets of m: colex kept
                    level = tuple([h ^ m for h in up if h & m == m])
                else:
                    found: set[int] = set()
                    for fm in self._fmasks:
                        found.update(map(sum, combinations(mask_bits(fm), i + 1)))
                    level = tuple(sorted(found))
            levels[i + 1] = level
        return level

    # -- derived complexes --------------------------------------------------

    def link(self, face: Iterable[int]) -> "Complex":
        """Faces G disjoint from `face` with G u face in the complex."""
        m = face_mask(face, self.n)
        if not any(m & fm == m for fm in self._fmasks):
            raise ValueError(f"{mask_vertices(m)} is not a face")
        return self._link_mask(m)

    def _link_mask(self, m: int) -> "Complex":
        """link() of a face given as a mask, which must be a face; the empty
        face's link is the complex itself, face lists included.  Any other
        link is built once and kept, so a second walk over the faces (the
        F_2 depth after the Q depth) finds the first walk's links.  A link built
        after this complex has listed a size keeps its level list, filled in
        place, to filter the middle sizes listed there; one built before
        keeps nothing, as a cone's apex link would make the cone list up to
        2^|apex| times the link's faces."""
        if not m:
            return self
        links = self._links
        if links is None:
            links = self._links = {}
        lk = links.get(m)
        if lk is None:
            lk = links[m] = Complex._from_masks(self.n, self._link_facets(m))
            if self._levels is not None:
                lk._above = (self._levels, m)
        return lk

    def _link_facets(self, m: int) -> list[int]:
        """The facet masks of the link of the face m: the facets holding m,
        with m removed.  Building no complex, they answer what the facets
        alone tell, such as the link's dimension and connectivity."""
        return [fm ^ m for fm in self._fmasks if fm & m == m]

    def skeleton(self, i: int) -> "Complex":
        """Subcomplex of all faces of dimension <= i."""
        if self.kind == VOID:
            raise ValueError("void complex has no skeleton")
        if not -1 <= i <= self.dim:
            raise ValueError(f"skeleton index {i} out of range -1..{self.dim}")
        if i == self.dim:
            return self
        # the i-faces and the facets of lower dimension
        low = [fm for fm in self._fmasks if fm.bit_count() <= i]
        return Complex._from_masks(self.n, [*self.face_masks_of_dim(i), *low])

    # -- serialization and protocol ----------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Complex":
        n, facets = json_fields(data, "complex", "n", "facets")
        return cls(as_int(n, "n"), json_rows(facets, "facets"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.n == other.n and self._fmasks == other._fmasks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.kind == VOID:
            return f"Complex(n={self.n}, void)"
        return f"Complex(n={self.n}, facets={list(self.facets)})"


def require_pure(cx: Complex) -> None:
    """Refuse the void complex and impure complexes; rigid depth, cone unions
    and unmixed decompositions are defined over all others, {()} included."""
    if cx.kind == VOID:
        raise ValueError("expected a pure complex, got the void complex")
    if not cx.is_pure:
        sizes = sorted({m.bit_count() for m in cx.facet_masks})
        raise ValueError(f"expected a pure complex, got facets of sizes {sizes}")
