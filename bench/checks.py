"""Independent checks of the program's verdicts.

Nothing here imports srdepth.  Complexes are lists of facets (vertex tuples)
and monomials are exponent tuples; the homology is computed from scratch with
exact Fraction elimination over Q and plain elimination over F_p, and the
depth of a Stanley-Reisner ring comes from Hochster's formula

    depth K[D] = min over faces F of |F| + 1 + min{i : H~_i(lk F) != 0},

a different route from the program's skeleton-by-skeleton Reisner test.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


# -- monomials -----------------------------------------------------------------

def divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def in_ideal(gens, a) -> bool:
    return any(divides(g, a) for g in gens)


def socle_monomial(n: int, gens):
    """An exponent a with x^a outside the ideal and x_j x^a inside it for
    every j, or None.  Then depth(S/I) = 0 exactly when one exists.

    x_j x^a in I while x^a is not forces a generator with exponent a_j + 1 in
    x_j, so each coordinate ranges over those values minus one.
    """
    choices = []
    for j in range(n):
        values = sorted({g[j] - 1 for g in gens if g[j] >= 1})
        if not values:
            return None  # x_j is a nonzerodivisor
        choices.append(values)
    for a in product(*choices):
        if in_ideal(gens, a):
            continue
        if all(in_ideal(gens, a[:j] + (a[j] + 1,) + a[j + 1:]) for j in range(n)):
            return a
    return None


# -- simplicial complexes -------------------------------------------------------

def faces_of(facets) -> set[frozenset]:
    out: set[frozenset] = set()
    for f in facets:
        for k in range(len(f) + 1):
            for sub in combinations(f, k):
                out.add(frozenset(sub))
    return out


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank over Q (p = 0, exact fractions) or over F_p."""
    if not rows or not rows[0]:
        return 0
    if p:
        a = [[x % p for x in r] for r in rows]
    else:
        a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(a[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                if p:
                    f = a[r][col] * pow(pv, -1, p) % p
                    a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
                else:
                    f = a[r][col] / pv
                    a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def reduced_bettis(faces: set[frozenset], p: int, upto: int | None = None) -> dict[int, int]:
    """Reduced Betti numbers, in degrees -1..upto (default: all), of the
    complex with the given face set (the empty face included; an empty set
    means the void complex)."""
    if not faces:
        return {}
    by_dim: dict[int, list[tuple]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    top = max(by_dim) if upto is None else min(max(by_dim), upto)
    ranks = {}
    for d in range(0, min(top + 1, max(by_dim)) + 1):
        rows = by_dim[d - 1]
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(by_dim[d]) for _ in rows]
        for c, f in enumerate(by_dim[d]):
            for k in range(len(f)):
                mat[index[f[:k] + f[k + 1:]]][c] = -1 if k % 2 else 1
        ranks[d] = _rank(mat, p)
    return {
        d: len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(-1, top + 1)
    }


def hochster_depth(facets, p: int) -> int:
    """depth of K[D] over Q (p = 0) or F_p for an ordinary complex."""
    faces = faces_of(facets)
    # a facet's link is {empty}, with H~_-1 != 0, so each facet gives |F|;
    # the link of any other face has H~_-1 = 0, so a face F gives >= |F| + 1
    best = min(len(f) for f in facets)
    for face in sorted(faces, key=len):
        if len(face) + 1 >= best:
            break
        link = {g - face for g in faces if face <= g}
        bettis = reduced_bettis(link, p, best - len(face) - 2)
        for i in sorted(bettis):
            if bettis[i]:
                best = min(best, len(face) + 1 + i)
                break
    return best


def euler_from_faces(facets) -> int:
    """Reduced Euler characteristic: sum over faces, the empty one included,
    of (-1)^dim."""
    return sum(1 if len(f) % 2 else -1 for f in faces_of(facets))


def intersections_rigid(facets, t: int) -> bool:
    """The paper's combinatorial condition: every k facets, 1 <= k <= t,
    meet in at least t - k + 1 vertices."""
    sets = [set(f) for f in facets]
    for k in range(1, min(len(sets), t) + 1):
        for combo in combinations(sets, k):
            if len(set.intersection(*combo)) < t - k + 1:
                return False
    return True


class DepthMemo:
    """Hochster depths keyed by (facets, p), shared by all checks of a run."""

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, facets, p: int = 0) -> int:
        key = (tuple(sorted(tuple(f) for f in facets)), p)
        if key not in self._memo:
            self._memo[key] = hochster_depth(key[0], p)
        return self._memo[key]
