#!/usr/bin/env python3
"""Benchmark of srdepth verdicts: one caller, one verdict at a time.

    python3 bench/run.py --workload decision --seed 1 --seconds 20 --trace 0

Workloads: decision, ideal-depth, rigidity, cones (see bench/README.md).  A
run builds one seeded round of inputs and asks for every verdict of it
round(--seconds / round seconds) times, each time after importing srdepth
afresh from src/ of the checkout; no loop is bounded by time.  Timings are
scaled by the host slowness that hostspeed.HostMeter measures, and reported
as medians over the rounds.  Every verdict is then checked independently.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics and --trace 1
the per-layer ones, from a second, traced set of rounds.  Exit code 0 means
every verdict passed its checks apart from the failures the README
attributes to a known fault.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import checks
import corpus
from hostspeed import HostMeter, burst_factor
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: groups of the corpus in one round, and the seconds one round takes on the
#: reference machine (2 vCPU VM, CPython 3.11).  A run repeats the same round
#: about --seconds / round-seconds times, each time on a fresh import.
ROUNDS = {
    "decision": (12, 2.0),
    "ideal-depth": (8, 2.0),
    "rigidity": (24, 2.0),
    "cones": (1, 3.8),
}

#: independent program routes run on a seeded subsample of each run
SUBSAMPLE = 3

#: rigidity verdicts whose depths are recomputed by Hochster's formula
HOCHSTER_SAMPLE = 48


class Fault(Exception):
    """A verdict that contradicts an independent check."""


# -- set-up ----------------------------------------------------------------------

def drop_srdepth():
    for name in [k for k in sys.modules if k == "srdepth" or k.startswith("srdepth.")]:
        del sys.modules[name]


def forget_srdepth():
    """Drop every imported srdepth module and collect it with its caches;
    the caller must hold no srdepth object."""
    drop_srdepth()
    gc.collect()


def import_srdepth():
    """Import srdepth afresh from src/, so every lru_cache starts cold."""
    drop_srdepth()
    importlib.invalidate_caches()
    pkg = importlib.import_module("srdepth")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "srdepth"):
        raise SystemExit(f"error: srdepth imported from {pkg.__file__}, not from {SRC}")
    return pkg


def parse_inputs(pkg, items):
    parsers = {
        "decomposition": pkg.ideals.Decomposition.from_json_dict,
        "ideal": pkg.ideals.MonomialIdeal.from_json_dict,
        "complex": pkg.simplicial.Complex.from_json_dict,
    }
    return [parsers[it.kind](data) for it, data in items]


def setup(items):
    """Import srdepth and build every input from its JSON form."""
    t0 = perf_counter()
    pkg = import_srdepth()
    t1 = perf_counter()
    inputs = parse_inputs(pkg, items)
    t2 = perf_counter()
    return pkg, inputs, t2 - t0, t2 - t1


# -- verdicts ----------------------------------------------------------------------

def verdict_decision(pkg, dec):
    return pkg.criteria.depth_equals_radical(dec, pkg.homology.RATIONALS)


def verdict_ideal_depth(pkg, ideal):
    d = pkg.criteria.depth_via_local_cohomology(ideal, pkg.homology.RATIONALS)
    rc = pkg.ideals.radical_complex(ideal)
    return d, pkg.homology.depth_stanley_reisner(rc, pkg.homology.RATIONALS)


def verdict_rigidity(pkg, cx):
    t = pkg.homology.depth_stanley_reisner(cx, pkg.homology.RATIONALS)
    t2 = pkg.homology.depth_stanley_reisner(cx, pkg.homology.prime_field(2))
    return t, t2, pkg.rigid.is_rigid_by_intersections(cx, t)


def verdict_cones(pkg, cx):
    return pkg.cones.generate_cone_union(cx, pkg.homology.RATIONALS)


VERDICTS = {
    "decision": verdict_decision,
    "ideal-depth": verdict_ideal_depth,
    "rigidity": verdict_rigidity,
    "cones": verdict_cones,
}


@dataclass
class Round:
    """One round in plain data: the verdicts' summaries, which verdicts
    raised, per-verdict wall times, the round's wall time, its set-up time,
    and the host slowness factor measured over both (1.0 when no meter ran).
    It keeps no srdepth object, so a finished round frees the modules it
    imported and their caches."""

    verdicts: list
    raised: list
    latencies: list
    wall: float
    setup_s: float = 0.0
    factor: float = 1.0


def timed_pass(workload, pkg, inputs, tracer=None, meter=None):
    """Ask for every verdict in turn; returns the outputs (result,
    exception) and the Round.  Time spent in the host meter's handler is
    taken out of every timing."""
    verdict = VERDICTS[workload]
    outputs = []
    latencies = []
    span_name = f"verdict.{workload}"

    def stolen():
        return meter.stolen if meter else 0.0

    gc.collect()
    stolen0 = stolen()
    start = perf_counter()
    for obj in inputs:
        s0 = stolen()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = verdict(pkg, obj)
            else:
                out = tracer.call(span_name, True, verdict, pkg, obj)
            outputs.append((out, None))
        except Exception as exc:  # recorded and classified by the checks
            outputs.append((None, exc))
        latencies.append(perf_counter() - t0 - (stolen() - s0))
    wall = perf_counter() - start - (stolen() - stolen0)
    return outputs, Round([summary(workload, o) for o in outputs],
                          [exc is not None for _, exc in outputs], latencies, wall)


def summary(workload, output):
    """Plain-data form of a verdict, to compare the rounds of a run."""
    out, exc = output
    if exc is not None:
        return (type(exc).__name__, str(exc))
    if workload == "decision":
        w = out.witness_subcomplex
        return (out.equal, out.t, out.witness_degree, w.facets if w else None)
    if workload == "ideal-depth":
        return out
    if workload == "rigidity":
        return (out[0], out[1], bool(out[2]), out[2].facet_indices)
    return (out.symbols, sorted(sorted(d) for d in out.disjuncts))


# -- checks ------------------------------------------------------------------------

def expected_failure(workload, item, exc) -> bool:
    """The one known fault kept in the benchmark: the radical complex of an
    m-primary ideal is the irrelevant complex, and depth_stanley_reisner
    raises for it although the radical depth is 0."""
    return (
        workload == "ideal-depth"
        and item.family == "m-primary"
        and isinstance(exc, ValueError)
        and "depth is defined for ordinary complexes" in str(exc)
    )


def check_decision(ctx, item, obj, v):
    meta = item.meta
    facets = meta["facets"]
    t = ctx.depth(facets)
    if v.t != t:
        raise Fault(f"radical depth {v.t}, Hochster's formula gives {t}")
    if item.family.startswith("fourcycle"):
        expected = corpus.fourcycle_systems_hold(meta["exponents"])
        if v.equal != expected:
            raise Fault(f"4-cycle exponents {meta['exponents']}: equal={v.equal}, "
                        f"the paper's systems say {expected}")
    if v.equal:
        return
    if checks.intersections_rigid(facets, t):
        raise Fault("unequal depth on a complex that passes the intersection test")
    a = tuple(v.witness_degree)
    missing = [f for f, gens in zip(facets, meta["generators"]) if not checks.in_ideal(gens, a)]
    if not missing or sorted(missing) != sorted(v.witness_subcomplex.facets):
        raise Fault(f"witness {a} selects {missing}, program says {v.witness_subcomplex.facets}")
    if ctx.depth(missing) >= t:
        raise Fault(f"witness subcomplex {missing} has depth {ctx.depth(missing)} >= {t}")


def check_ideal_depth(ctx, item, obj, out):
    d, rd = out
    n = item.data["n"]
    gens = [tuple(g) for g in item.data["generators"]]
    socle = checks.socle_monomial(n, gens)
    if (d == 0) != (socle is not None):
        raise Fault(f"depth {d} but socle monomial {socle}")
    supports = [frozenset(j + 1 for j, e in enumerate(g) if e) for g in gens]
    faces = [
        f for f in (frozenset(j + 1 for j in range(n) if m >> j & 1) for m in range(1 << n))
        if not any(s <= f for s in supports)
    ]
    dim = max(len(f) for f in faces)  # Krull dimension of S/I
    if not 0 <= d <= dim:
        raise Fault(f"depth {d} outside 0..{dim}")
    if d > rd:
        raise Fault(f"depth {d} above the radical depth {rd}")
    maximal = [tuple(sorted(f)) for f in faces if not any(f < g for g in faces)]
    if rd != ctx.depth(maximal):
        raise Fault(f"radical depth {rd}, Hochster's formula gives {ctx.depth(maximal)}")


def check_rigidity(ctx, item, obj, out):
    t, t2, v = out
    facets = [tuple(f) for f in item.data["facets"]]
    meta = item.meta
    if "depth_q" in meta and (t, t2) != (meta["depth_q"], meta["depth_f2"]):
        raise Fault(f"{item.family}: depths {t}, {t2}; closed form {meta['depth_q']}, {meta['depth_f2']}")
    if not 1 <= t2 <= t <= len(facets[0]):
        raise Fault(f"depths over F_2 and Q are {t2} and {t}")
    if bool(v) != checks.intersections_rigid(facets, t):
        raise Fault(f"rigid={bool(v)}, the intersection condition says otherwise")
    q = ctx.pkg.homology.RATIONALS
    euler = sum((-1) ** (k % 2) * ctx.pkg.homology.reduced_betti(obj, k, q)
                for k in range(-1, obj.dim + 1))
    if euler != checks.euler_from_faces(facets):
        raise Fault(f"Euler characteristic {euler} from Betti numbers, "
                    f"{checks.euler_from_faces(facets)} from face counts")


def check_cones(ctx, item, obj, union):
    if item.family == "fourcycle":
        index = {f: i for i, f in enumerate(union.facets)}
        keys = [(index[f], j) for f, vs in corpus.FOURCYCLE_READING for j in vs]
        for e in itertools.product(range(1, 4), repeat=8):
            if union.evaluate(dict(zip(keys, e))) != corpus.fourcycle_systems_hold(e):
                raise Fault(f"4-cycle union and the paper's systems differ at {e}")
        return
    ctx.cone_points.append((item, union))


class Context:
    """State shared by the checks of one run."""

    def __init__(self, workload, seed, pkg):
        self.workload = workload
        self.pkg = pkg
        self.rng = random.Random(f"checks/{workload}/{seed}")
        self.depth = checks.DepthMemo()
        self.cone_points = []


CHECKS = {
    "decision": check_decision,
    "ideal-depth": check_ideal_depth,
    "rigidity": check_rigidity,
    "cones": check_cones,
}


def subsample_checks(ctx, items, inputs, outputs):
    """Independent program routes and costlier checks on a seeded subsample."""
    pkg, q = ctx.pkg, ctx.pkg.homology.RATIONALS
    ok = [i for i, (out, exc) in enumerate(outputs) if exc is None]
    if ctx.workload == "decision":
        small = [i for i in ok if items[i].meta["n"] <= 5 and _box(inputs[i].max_exponents()) <= 1100]
        for i in ctx.rng.sample(small, min(SUBSAMPLE, len(small))):
            v = outputs[i][0]
            k = pkg.criteria.depth_via_koszul(inputs[i].intersection(), q)
            if k > v.t or (k == v.t) != v.equal:
                raise Fault(f"item {i}: Koszul depth {k}, radical depth {v.t}, equal={v.equal}")
    elif ctx.workload == "ideal-depth":
        small = [i for i in ok if _box(inputs[i].max_exponents()) <= 1100]
        for i in ctx.rng.sample(small, min(SUBSAMPLE, len(small))):
            k = pkg.criteria.depth_via_koszul(inputs[i], q)
            if k != outputs[i][0][0]:
                raise Fault(f"item {i}: Koszul depth {k}, local cohomology {outputs[i][0][0]}")
    elif ctx.workload == "rigidity":
        for i in ctx.rng.sample(ok, min(HOCHSTER_SAMPLE, len(ok))):
            t, t2, _ = outputs[i][0]
            facets = [tuple(f) for f in items[i].data["facets"]]
            if (ctx.depth(facets, 0), ctx.depth(facets, 2)) != (t, t2):
                raise Fault(f"item {i}: depths {t}, {t2}; Hochster's formula gives "
                            f"{ctx.depth(facets, 0)}, {ctx.depth(facets, 2)}")
        few = [i for i in ok if len(inputs[i].facet_masks) <= 8]
        for i in ctx.rng.sample(few, min(SUBSAMPLE, len(few))):
            v = outputs[i][0][2]
            routes = (pkg.rigid.is_rigid_by_subcomplex_depths(inputs[i], q),
                      pkg.rigid.is_rigid_by_skeleton_cm(inputs[i], q))
            if any(bool(r) != bool(v) for r in routes):
                raise Fault(f"item {i}: homological rigidity routes disagree with rigid={bool(v)}")
    elif ctx.workload == "cones":
        for item, union in ctx.cone_points:
            n = item.data["n"]
            facets = [tuple(f) for f in item.data["facets"]]
            for _ in range(3 if item.family == "fivecycle" else 1):
                comps = []
                assignment = {}
                index = {f: i for i, f in enumerate(union.facets)}
                for f in facets:
                    outside = [j for j in range(1, n + 1) if j not in f]
                    exps = [ctx.rng.randint(1, 3) for _ in outside]
                    comps.append({"facet": list(f), "irreducible": exps})
                    assignment.update({(index[f], j): e for j, e in zip(outside, exps)})
                dec = pkg.ideals.Decomposition.from_json_dict({"complex": item.data, "components": comps})
                equal = pkg.criteria.depth_equals_radical(dec, q).equal
                if union.evaluate(assignment) != equal:
                    raise Fault(f"{item.data}: union says {not equal} at {comps}")


def _box(rho) -> int:
    return math.prod(r + 1 for r in rho)


def check_all(workload, seed, pkg, items, inputs, outputs):
    """Returns (failed, faults): failures attributed to the known fault, and
    contradictions found by the checks."""
    ctx = Context(workload, seed, pkg)
    check = CHECKS[workload]
    failed = 0
    faults = []
    for i, (item, obj, (out, exc)) in enumerate(zip(items, inputs, outputs)):
        if exc is not None:
            failed += 1
            if not expected_failure(workload, item, exc):
                faults.append(f"item {i} ({item.family}): {type(exc).__name__}: {exc}")
            continue
        try:
            check(ctx, item, obj, out)
        except Fault as exc:
            failed += 1
            faults.append(f"item {i} ({item.family}): {exc}")
    try:
        subsample_checks(ctx, items, inputs, outputs)
    except Fault as exc:
        faults.append(str(exc))
    return failed, faults


# -- metrics -----------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, failed_per_round, peak_rss_mb):
    """Every timing is scaled by its round's host slowness factor.  The
    latency percentiles are over every verdict of the run; the round time and
    the set-up time are medians over the rounds, which repeat the same work."""
    passed = len(rounds[0].verdicts) - failed_per_round
    wall = statistics.median(r.wall / r.factor for r in rounds)
    # a failed verdict misses every latency limit
    lat = sorted(math.inf if raised else lat / r.factor
                 for r in rounds for lat, raised in zip(r.latencies, r.raised))
    return {
        "verdicts_per_s": metric(passed / wall, "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(lat[math.ceil(0.9 * len(lat)) - 1] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(r.setup_s / r.factor for r in rounds), "s"),
    }


def per_layer(tr: Tracer, parse_s, overhead_s, hit_ratio):
    def calls(*names):
        return sum(tr.calls.get(n, 0) for n in names)

    def self_s(*names):
        return sum(tr.self_time.get(n, 0.0) for n in names)

    count, sec = "count", "s"
    return {
        "ideals.contains_calls": metric(calls("ideals.contains"), count),
        "ideals.contains_s": metric(self_s("ideals.contains"), sec),
        "criteria.degree_complexes": metric(calls(
            "criteria.degree_complex_facet_form", "criteria.degree_complex",
            "criteria.degree_complex_unmixed"), count),
        "criteria.scan_self_s": metric(self_s(
            "criteria.depth_equals_radical", "criteria.depth_via_local_cohomology"), sec),
        "criteria.witness_calls": metric(calls("criteria.degree_selecting_witness"), count),
        "criteria.witness_s": metric(self_s("criteria.degree_selecting_witness"), sec),
        "criteria.degree_complex_s": metric(self_s("criteria.degree_complex"), sec),
        "ideals.radical_complex_s": metric(self_s("ideals.radical_complex"), sec),
        "homology.min_betti_calls": metric(calls("homology.min_nonzero_betti"), count),
        "homology.min_betti_s": metric(self_s("homology.min_nonzero_betti"), sec),
        "homology.rank_q_calls": metric(calls("homology.rank_fraction_free"), count),
        "homology.rank_q_entries": metric(tr.counters.get("homology.rank_q_entries", 0), count),
        "homology.rank_q_s": metric(self_s("homology.rank_fraction_free"), sec),
        "homology.rank_fp_calls": metric(calls("homology.rank_mod_p"), count),
        "homology.rank_fp_entries": metric(tr.counters.get("homology.rank_fp_entries", 0), count),
        "homology.rank_fp_s": metric(self_s("homology.rank_mod_p"), sec),
        "homology.boundary_matrix_s": metric(self_s("homology.boundary_matrix"), sec),
        "homology.cm_calls": metric(calls("homology.is_cohen_macaulay"), count),
        "homology.cm_s": metric(self_s("homology.is_cohen_macaulay"), sec),
        "homology.sr_depth_calls": metric(calls("homology.depth_stanley_reisner"), count),
        "homology.sr_depth_s": metric(self_s("homology.depth_stanley_reisner"), sec),
        "homology.sr_depth_hit_ratio": metric(hit_ratio, "ratio"),
        "simplicial.link_calls": metric(calls("simplicial.link"), count),
        "simplicial.skeleton_calls": metric(calls("simplicial.skeleton"), count),
        "simplicial.face_enum_s": metric(self_s("simplicial.face_masks_of_dim"), sec),
        "rigid.intersection_test_s": metric(self_s("rigid.is_rigid_by_intersections"), sec),
        "cones.generate_self_s": metric(self_s("cones.generate_cone_union"), sec),
        "ideals.parse_s": metric(parse_s, sec),
        "trace.overhead_s": metric(overhead_s, sec),
        "trace.spans": metric(len(tr.spans) + tr.spans_dropped, count),
    }


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(VERDICTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "srdepth", "__init__.py")):
        print(f"error: no srdepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    groups, round_s = ROUNDS[args.workload]
    n_rounds = max(2, round(args.seconds / round_s))
    items = corpus.CORPORA[args.workload](args.seed, groups)
    # the program sees only the JSON form of each input
    pairs = list(zip(items, json.loads(json.dumps([it.data for it in items]))))

    rounds = []
    meter = HostMeter()
    meter.start()
    try:
        for _ in range(n_rounds):
            # free the previous round's modules, caches and verdicts, so that
            # the peak RSS is that of one round on a fresh import
            pkg = inputs = outputs = None
            forget_srdepth()
            stolen0 = meter.stolen
            t0 = perf_counter()
            pkg, inputs, setup_s, _ = setup(pairs)
            setup_s -= meter.stolen - stolen0
            outputs, r = timed_pass(args.workload, pkg, inputs, meter=meter)
            r.setup_s = setup_s
            r.factor = meter.factor(t0, perf_counter())
            rounds.append(r)
    finally:
        meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict_sets = [r.verdicts for r in rounds]

    if args.trace:
        # per-layer figures are raw wall times: the meter is off, so that its
        # handler adds nothing to the spans
        tr = Tracer()
        parse_s = 0.0
        traced_walls = []
        traced_adjusted = []
        hits = lookups = 0
        for _ in range(n_rounds):
            pkg = inputs = outputs = None
            forget_srdepth()
            pkg, inputs, _, round_parse_s = setup(pairs)
            parse_s += round_parse_s
            tr.install(pkg)
            before = burst_factor()
            outputs, traced = timed_pass(args.workload, pkg, inputs, tracer=tr)
            factor = (before + burst_factor()) / 2
            tr.uninstall()
            traced_walls.append(traced.wall)
            traced_adjusted.append(traced.wall / factor)
            verdict_sets.append(traced.verdicts)
            info = tr.originals["homology.depth_stanley_reisner"].cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
        # traced minus untraced wall, both adjusted for host slowness and
        # taken from their median rounds
        overhead_s = (statistics.median(traced_adjusted)
                      - statistics.median(r.wall / r.factor for r in rounds)) * n_rounds
        metrics = per_layer(tr, parse_s, overhead_s, hits / lookups if lookups else 0.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "rounds": n_rounds,
                "untraced_round_s": [r.wall for r in rounds],
                "traced_round_s": traced_walls,
                "calls": tr.calls, "self_s": tr.self_time, "total_s": tr.total,
                "counters": tr.counters, "spans_dropped": tr.spans_dropped,
                "span_fields": ["name", "start", "end", "parent"], "spans": tr.spans_json(),
            }, fh)

    t_checks = perf_counter()
    failed, faults = check_all(args.workload, args.seed, pkg, items, inputs, outputs)
    for k, verdicts in enumerate(verdict_sets):
        if verdicts != verdict_sets[-1]:
            faults.append(f"round {k} gave other verdicts than the last round")
    walls = sorted(r.wall for r in rounds)
    factors = sorted(r.factor for r in rounds)
    print(f"{args.workload}: {n_rounds} rounds of {len(items)} verdicts, raw round wall "
          f"min/median/max {walls[0]:.3f}/{statistics.median(walls):.3f}/{walls[-1]:.3f} s, "
          f"host slowness min/median/max {factors[0]:.3f}/{statistics.median(factors):.3f}/"
          f"{factors[-1]:.3f}, checked in {perf_counter() - t_checks:.2f} s", file=sys.stderr)
    if not args.trace:
        metrics = end_to_end(rounds, failed, peak_rss_mb)
    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)
    result = {
        "correct": not faults,
        "attempted": n_rounds * len(items),
        "failed": n_rounds * failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
