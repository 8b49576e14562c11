#!/usr/bin/env python3
"""Reference figures for the baselines quoted in ROADMAP.md.

    python3 bench/reference.py [--seed 0]

Prints the median wall time per call of:
  * depth_equals_radical on 4-cycle irreducible decompositions with random
    exponents in 1..3 and in 1..12 (40 and 20 calls),
  * depth_via_local_cohomology on random n = 6 ideals, eight generators with
    1 to 3 variables and exponents in 1..4 (10 calls),
  * generate_cone_union on the 5-cycle (3 calls), with the number of cones.
Every call starts from a fresh import, so the lru_caches are cold.  These are
single measurements on a noisy host, for orientation only: bench/run.py is
the benchmark.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from time import perf_counter

import corpus
import run


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    rng = random.Random(args.seed)

    for top, calls in ((3, 40), (12, 20)):
        times = []
        for _ in range(calls):
            data = corpus.fourcycle_item(rng, top, rng.random() < 0.5).data
            pkg = run.import_srdepth()
            dec = pkg.ideals.Decomposition.from_json_dict(data)
            times.append(timed(pkg.criteria.depth_equals_radical, dec)[0])
        print(f"4-cycle depth_equals_radical, exponents <= {top}: "
              f"{statistics.median(times) * 1e3:.2f} ms median of {calls}")

    times = []
    for _ in range(10):
        pkg = run.import_srdepth()
        ideal = pkg.ideals.MonomialIdeal(6, corpus.random_ideal(rng, 6, 8, 4))
        times.append(timed(pkg.criteria.depth_via_local_cohomology, ideal)[0])
    print(f"n = 6 depth_via_local_cohomology, exponents <= 4: "
          f"{statistics.median(times):.3f} s median of 10")

    times = []
    for _ in range(3):
        pkg = run.import_srdepth()
        cx = pkg.simplicial.Complex.from_json_dict(json.loads(
            '{"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}'))
        t, union = timed(pkg.cones.generate_cone_union, cx)
        times.append(t)
    print(f"5-cycle generate_cone_union: {statistics.median(times):.2f} s median of 3, "
          f"{len(union.disjuncts)} cones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
