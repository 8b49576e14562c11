"""Seeded input corpora for the four benchmark workloads.

Nothing here imports srdepth: every input is produced as a plain JSON-ready
dict (the program's file formats), together with the facts the benchmark
needs to check the verdict independently.

A corpus is a list of groups, and every group holds the same templates in the
same order.  The inputs themselves come from a base family drawn once with a
fixed generator seed; the run's --seed relabels the vertices (variables) of
every base input by its own random permutation.  Relabelling keeps what a
verdict costs, apart from the order in which scans meet their witnesses, so
runs with different seeds get different inputs but the same amount of work:
their differences show the program and the host, not the luck of the draw.
Inputs that must not depend on the seed (the 4-cycle of the cones workload,
the m-primary ideals) are not relabelled.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement


@dataclass
class Item:
    """One verdict to ask for: the program input plus what the checks need."""

    kind: str  # "decomposition", "ideal" or "complex"
    data: dict  # the input in the program's JSON format
    family: str  # template name, used by the checks and the README tables
    meta: dict = field(default_factory=dict)


# -- the 4-cycle and the paper's inequality systems --------------------------

FOURCYCLE_FACETS = ((1, 2), (2, 3), (3, 4), (1, 4))

#: Component reading order of the paper: the 4-cycle ideal is
#: (x1,x2) n (x1,x4) n (x2,x3) n (x3,x4), and e1..e8 list the exponents of
#: each component's two variables in ascending order.  Each entry is
#: (facet, its two complement variables).
FOURCYCLE_READING = (
    ((3, 4), (1, 2)),  # x1^e1, x2^e2
    ((2, 3), (1, 4)),  # x1^e3, x4^e4
    ((1, 4), (2, 3)),  # x2^e5, x3^e6
    ((1, 2), (3, 4)),  # x3^e7, x4^e8
)


def fourcycle_systems_hold(e) -> bool:
    """The paper's four systems: depth(S/I) = depth(S/sqrt I) for the 4-cycle
    irreducible decomposition with exponents e1..e8 iff one of them holds."""
    e1, e2, e3, e4, e5, e6, e7, e8 = e
    return (
        (e3 <= e1 and e2 == e5 and e7 <= e6)
        or (e2 <= e5 and e6 == e7 and e4 <= e8)
        or (e5 <= e2 and e1 == e3 and e8 <= e4)
        or (e1 <= e3 and e4 == e8 and e6 <= e7)
    )


def _fourcycle_exponents(rng: random.Random, top: int, on_system: bool) -> list[int]:
    """Eight exponents in 1..top; with on_system, forced onto one of the
    paper's systems so that equal and unequal verdicts both occur."""
    e = [rng.randint(1, top) for _ in range(8)]
    if on_system:
        s = rng.randrange(4)
        # (le_small, le_big, eq_a, eq_b, le2_small, le2_big), 0-based
        small, big, a, b, small2, big2 = (
            (2, 0, 1, 4, 6, 5),
            (1, 4, 5, 6, 3, 7),
            (4, 1, 0, 2, 7, 3),
            (0, 2, 3, 7, 5, 6),
        )[s]
        e[b] = e[a]
        e[small] = rng.randint(1, e[big])
        e[small2] = rng.randint(1, e[big2])
    return e


def fourcycle_item(rng: random.Random, top: int, on_system: bool) -> Item:
    """The 4-cycle with an irreducible decomposition; meta keeps e1..e8 in
    the paper's reading order, which relabelling does not change."""
    e = _fourcycle_exponents(rng, top, on_system)
    components = [
        {"facet": list(facet), "irreducible": [e[2 * q], e[2 * q + 1]]}
        for q, (facet, _) in enumerate(FOURCYCLE_READING)
    ]
    data = {
        "complex": {"n": 4, "facets": [list(f) for f in FOURCYCLE_FACETS]},
        "components": components,
    }
    return Item("decomposition", data, f"fourcycle-{top}", {"exponents": e})


# -- random pure complexes and decompositions -----------------------------------

def _pure_powers(n: int, variables, exps) -> list[tuple[int, ...]]:
    out = []
    for j, e in zip(variables, exps):
        v = [0] * n
        v[j - 1] = e
        out.append(tuple(v))
    return out


def random_pure_complex(rng: random.Random, n: int, k: int, r: int) -> list[tuple[int, ...]]:
    """r distinct k-subsets of {1..n}, sorted; equal sizes make it pure."""
    facets: set[tuple[int, ...]] = set()
    while len(facets) < r:
        facets.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return sorted(facets)


def _complement(n: int, facet) -> list[int]:
    return [j for j in range(1, n + 1) if j not in facet]


def random_component(rng: random.Random, n: int, facet) -> dict:
    """A P_F-primary component in one of the three JSON forms."""
    comp = _complement(n, facet)
    form = rng.randrange(3)
    if form == 0:
        return {"facet": list(facet), "irreducible": [rng.randint(1, 3) for _ in comp]}
    if form == 1:
        return {"facet": list(facet), "power": rng.randint(1, 2)}
    gens = _pure_powers(n, comp, [rng.randint(1, 3) for _ in comp])
    for _ in range(2):
        v = [0] * n
        for j in rng.sample(comp, min(2, len(comp))):
            v[j - 1] = rng.randint(1, 2)
        gens.append(tuple(v))
    return {"facet": list(facet), "generators": [list(g) for g in gens]}


def component_generators(n: int, entry: dict) -> list[tuple[int, ...]]:
    """Generators of a component in any of the three JSON forms, written out
    here for the divisibility checks."""
    comp = _complement(n, entry["facet"])
    if "irreducible" in entry:
        return _pure_powers(n, comp, entry["irreducible"])
    if "power" in entry:
        gens = []
        for combo in combinations_with_replacement(comp, entry["power"]):
            v = [0] * n
            for j in combo:
                v[j - 1] += 1
            gens.append(tuple(v))
        return gens
    return [tuple(g) for g in entry["generators"]]


def random_decomposition_item(rng: random.Random, n: int, facets, family: str) -> Item:
    data = {
        "complex": {"n": n, "facets": [list(f) for f in facets]},
        "components": [random_component(rng, n, f) for f in facets],
    }
    return Item("decomposition", data, family)


# -- relabelling ------------------------------------------------------------------

def permutation(rng: random.Random, n: int) -> list[int]:
    """Vertex v goes to p[v - 1]."""
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def _facets(facets, p) -> list[list[int]]:
    return sorted(sorted(p[v - 1] for v in f) for f in facets)


def _vector(vec, p) -> list[int]:
    out = [0] * len(vec)
    for j, e in enumerate(vec):
        out[p[j] - 1] = e
    return out


def relabel(item: Item, p) -> Item:
    """The same input with vertex (variable) v renamed p[v - 1]."""
    data = item.data
    if item.kind == "complex":
        new = {"n": data["n"], "facets": _facets(data["facets"], p)}
    elif item.kind == "ideal":
        new = {"n": data["n"], "generators": [_vector(g, p) for g in data["generators"]]}
    else:
        n = data["complex"]["n"]
        components = []
        for entry in data["components"]:
            facet = sorted(p[v - 1] for v in entry["facet"])
            out = {"facet": facet}
            if "irreducible" in entry:
                # exponents are listed by ascending complement variable
                renamed = sorted(zip((p[j - 1] for j in _complement(n, entry["facet"])),
                                     entry["irreducible"]))
                out["irreducible"] = [e for _, e in renamed]
            elif "power" in entry:
                out["power"] = entry["power"]
            else:
                out["generators"] = [_vector(g, p) for g in entry["generators"]]
            components.append(out)
        new = {"complex": {"n": n, "facets": _facets(data["complex"]["facets"], p)},
               "components": components}
    return Item(item.kind, new, item.family, dict(item.meta))


def with_decomposition_meta(item: Item) -> Item:
    """Record facets and written-out generators, component by component."""
    n = item.data["complex"]["n"]
    item.meta.update(
        n=n,
        facets=[tuple(c["facet"]) for c in item.data["components"]],
        generators=[component_generators(n, c) for c in item.data["components"]],
    )
    return item


#: (n, facet size, facet count) of the decision pool: one complex per class,
#: each shared by one decomposition in every group.
DECISION_POOL = (
    (4, 2, 3), (4, 2, 4), (5, 2, 3), (5, 2, 4), (5, 3, 3), (5, 3, 4),
    (5, 3, 5), (6, 2, 4), (6, 3, 3), (6, 3, 4), (6, 4, 3), (6, 4, 4),
)


def decision_corpus(seed: int, groups: int) -> list[Item]:
    base = random.Random("decision/base")
    rng = random.Random(f"decision/{seed}")
    pool = [random_pure_complex(base, n, k, r) for n, k, r in DECISION_POOL]
    # one relabelling per pool complex, so its decompositions still share it
    pool_perms = [permutation(rng, n) for n, _, _ in DECISION_POOL]
    items = []
    for _ in range(groups):
        for top, on_system in ((12, True), (12, False), (3, True), (3, False)):
            item = fourcycle_item(base, top, on_system)
            # where an unequal scan meets its first witness depends on the
            # order of the coordinates, so renaming those would move the cost
            items.append(relabel(item, permutation(rng, 4)) if on_system else item)
        for (n, k, r), facets, p in zip(DECISION_POOL, pool, pool_perms):
            item = random_decomposition_item(base, n, facets, f"pool-{n}.{k}.{r}")
            items.append(relabel(item, p))
    return [with_decomposition_meta(it) for it in items]


# -- monomial ideals ---------------------------------------------------------------

#: m-primary ideals; every variable has a pure power, so the radical complex
#: is the irrelevant complex and the radical depth is 0.  They are the same
#: in every run: today each of them fails (see the benchmark README).
M_PRIMARY = (
    {"n": 5, "generators": [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                            [0, 0, 0, 3, 0], [0, 0, 0, 0, 2], [1, 1, 0, 1, 0]]},
    {"n": 6, "generators": [[2, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0],
                            [0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 3],
                            [1, 0, 1, 1, 0, 1]]},
    {"n": 5, "generators": [[3, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, 0],
                            [0, 0, 0, 2, 0], [0, 0, 0, 0, 2], [2, 0, 1, 0, 1]]},
)


def random_ideal(rng: random.Random, n: int, ngens: int, top: int) -> list[list[int]]:
    """Generators with supports of 1 to 3 variables; never m-primary."""
    while True:
        gens = []
        for _ in range(ngens):
            v = [0] * n
            for j in rng.sample(range(n), rng.choice((1, 2, 2, 3, 3))):
                v[j] = rng.randint(1, top)
            gens.append(v)
        pure = {next(j for j, e in enumerate(g) if e) for g in gens if sum(1 for e in g if e) == 1}
        if len(pure) < n:
            return gens


def ideal_depth_corpus(seed: int, groups: int) -> list[Item]:
    base = random.Random("ideal-depth/base")
    rng = random.Random(f"ideal-depth/{seed}")
    items = []
    for q in range(groups):
        for n, count in ((5, 12), (6, 4)):
            for _ in range(count):
                item = Item("ideal", {"n": n, "generators": random_ideal(base, n, 8, 3)}, f"ideal-{n}")
                items.append(relabel(item, permutation(rng, n)))
        items.append(Item("ideal", M_PRIMARY[q % len(M_PRIMARY)], "m-primary"))
    return items


# -- complexes for rigidity ------------------------------------------------------------

#: (n, facet size, facet count) of the random complexes in every group.
RIGIDITY_CLASSES = (
    (6, 3, 5), (6, 4, 5), (7, 3, 7), (7, 4, 6), (7, 5, 5), (8, 3, 9), (8, 4, 8), (8, 5, 6),
)

#: The six-vertex real projective plane (same triangulation as
#: fixtures/projective_plane_6.json).
PROJECTIVE_PLANE_6 = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
)


def _complex_item(n: int, facets, family: str, **meta) -> Item:
    return Item("complex", {"n": n, "facets": [list(f) for f in facets]}, family, {"n": n, **meta})


def rigidity_corpus(seed: int, groups: int) -> list[Item]:
    base = random.Random("rigidity/base")
    rng = random.Random(f"rigidity/{seed}")
    items = []
    for _ in range(groups):
        for n, k, r in RIGIDITY_CLASSES:
            items.append(_complex_item(n, random_pure_complex(base, n, k, r), f"random-{n}.{k}.{r}"))
        m = base.randint(4, 8)
        cycle = [(i, i % m + 1) for i in range(1, m + 1)]
        items.append(_complex_item(8, cycle, "cycle", depth_q=2, depth_f2=2))
        k = base.randint(3, 5)
        s = base.randint(max(0, 2 * k - 8), k - 1)
        two = [tuple(range(1, k + 1)), tuple(range(1, s + 1)) + tuple(range(k + 1, 2 * k - s + 1))]
        items.append(_complex_item(8, two, "two-facets", depth_q=s + 1, depth_f2=s + 1))
        m = base.randint(4, 6)
        i = base.randint(0, min(2, m - 2))
        skeleton = list(combinations(range(1, m + 1), i + 1))
        items.append(_complex_item(8, skeleton, "simplex-skeleton", depth_q=i + 1, depth_f2=i + 1))
        items.append(_complex_item(6, PROJECTIVE_PLANE_6, "projective-plane-6", depth_q=3, depth_f2=2))
    return [relabel(it, permutation(rng, it.data["n"])) for it in items]


# -- complexes for cone generation -------------------------------------------------------

#: (n, facet size, facet count) of the small complexes in every group.
#: Complexes whose union is one cone are rare here: they time the call, not
#: the cone generation.  The classes are ordered by cost and weighted so that
#: the latency median falls inside the (5, 2, 4) class and the 90th
#: percentile inside the (5, 3, 6) class, not on a step between two classes.
CONE_CLASSES = (
    (5, 2, 3), (5, 3, 3), (4, 2, 4), (5, 4, 4), (5, 3, 4), (5, 2, 4),
    (5, 2, 4), (5, 3, 5), (5, 3, 5), (5, 3, 5), (5, 3, 6), (5, 3, 6),
)


def cones_corpus(seed: int, groups: int) -> list[Item]:
    base = random.Random("cones/base")
    rng = random.Random(f"cones/{seed}")
    items = []
    five = [(i, i % 5 + 1) for i in range(1, 6)]
    for _ in range(groups):
        # the 4-cycle stays as the paper labels it, for the systems check
        items.append(_complex_item(4, FOURCYCLE_FACETS, "fourcycle"))
        items.append(relabel(_complex_item(5, five, "fivecycle"), permutation(rng, 5)))
        for _ in range(8):
            for n, k, r in CONE_CLASSES:
                item = _complex_item(n, random_pure_complex(base, n, k, r), f"small-{n}.{k}.{r}")
                items.append(relabel(item, permutation(rng, n)))
    return items


CORPORA = {
    "decision": decision_corpus,
    "ideal-depth": ideal_depth_corpus,
    "rigidity": rigidity_corpus,
    "cones": cones_corpus,
}
