"""Command-line front end: batch verdicts over JSON inputs.

Commands
--------
depth                 depth/CM verdict for a complex or a monomial ideal
rigid                 rigidity verdict with certificate for a pure complex
depth-equal-radical   depth(S/I) vs depth(S/sqrt I) for a decomposition
cones                 exponent cone union for a pure complex
delta-a               facet selection of a decomposition at a degree vector
local-cohomology      nonzero graded local cohomology pieces of an ideal
polarize              squarefree polarization of an ideal
audit                 invariant suites over a directory of JSON fixtures

All vertices and variables are 1-based in file formats.  --format json emits
machine-readable verdicts; text and json report identical content.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import cones as cones_mod
from .criteria import (
    degree_complex_facet_form,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
    local_cohomology_table,
)
from .homology import (
    FieldSpec,
    RATIONALS,
    boundary_matrix,
    depth_stanley_reisner,
    is_cohen_macaulay,
    prime_field,
    reduced_betti,
)
from .ideals import Decomposition, MonomialIdeal, radical_complex, stanley_reisner_ideal
from .rigid import (
    is_rigid_by_intersections,
    is_rigid_by_skeleton_cm,
    is_rigid_by_subcomplex_depths,
    sample_depth_stability,
)
from .simplicial import Complex, ORDINARY


@dataclass
class RunConfig:
    field: FieldSpec = RATIONALS
    facet_enumeration_cap: int = 20
    output_format: str = "text"
    seed: int = 0


class CliError(Exception):
    pass


def parse_field(spec: str) -> FieldSpec:
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rationals", "0"):
        return RATIONALS
    if spec.startswith("fp:"):
        try:
            return prime_field(int(spec[3:]))
        except ValueError as exc:
            raise CliError(f"bad field {spec!r}: {exc}") from exc
    raise CliError(f"bad field {spec!r}: expected 'q' or 'fp:<prime>'")


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object, got {data!r}")
    return data


def load_complex(path: str) -> Complex:
    data = load_json(path)
    try:
        return Complex.from_json_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_ideal(path: str) -> MonomialIdeal:
    data = load_json(path)
    try:
        return MonomialIdeal.from_json_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_decomposition(path: str) -> Decomposition:
    data = load_json(path)
    try:
        return Decomposition.from_json_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def parse_vector(text: str, n: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise CliError(f"bad degree vector {text!r}: {exc}") from exc
    if len(vec) != n:
        raise CliError(f"degree vector has {len(vec)} entries, expected {n}")
    return vec


def emit(report: dict, config: RunConfig, lines: list[str]) -> None:
    if config.output_format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- commands ------------------------------------------------------------------


def cmd_depth(args, config: RunConfig) -> int:
    data = load_json(args.input)
    if "facets" in data:
        cx = Complex.from_json_dict(data)
        d = depth_stanley_reisner(cx, config.field)
        cm = is_cohen_macaulay(cx, config.field)
        report = {
            "command": "depth",
            "kind": "complex",
            "field": str(config.field),
            "depth": d,
            "dim": cx.dim,
            "cohen_macaulay": bool(cm),
        }
        lines = [
            f"complex on {cx.n} vertices, dim {cx.dim}, field {config.field}",
            f"depth = {d}",
            f"Cohen-Macaulay: {'yes' if cm else 'no'}",
        ]
        if not cm:
            report["violating_face"] = list(cm.face)
            report["violating_index"] = cm.index
            lines.append(
                f"violating link at face {list(cm.face)} in homology degree {cm.index}"
            )
        emit(report, config, lines)
        return 0
    if "generators" in data:
        ideal = MonomialIdeal.from_json_dict(data)
        if not ideal.is_proper_nonzero:
            raise CliError("depth needs a proper nonzero ideal")
        d = depth_via_local_cohomology(ideal, config.field)
        rc = radical_complex(ideal)
        rad_depth = depth_stanley_reisner(rc, config.field)
        report = {
            "command": "depth",
            "kind": "ideal",
            "field": str(config.field),
            "depth": d,
            "radical_depth": rad_depth,
            "cohen_macaulay": d == rc.dim + 1,
        }
        lines = [
            f"monomial ideal in {ideal.n} variables, field {config.field}",
            f"depth = {d} (radical depth {rad_depth})",
        ]
        emit(report, config, lines)
        return 0
    raise CliError(f"{args.input}: neither a complex ('facets') nor an ideal ('generators')")


def cmd_rigid(args, config: RunConfig) -> int:
    cx = load_complex(args.input)
    if cx.kind != ORDINARY or not cx.is_pure:
        raise CliError("rigid needs an ordinary pure complex")
    t = depth_stanley_reisner(cx, config.field)
    verdict = is_rigid_by_intersections(cx, t)
    report = {
        "command": "rigid",
        "field": str(config.field),
        "t": t,
        "rigid": bool(verdict),
    }
    lines = [f"depth = {t} over {config.field}", f"rigid: {'yes' if verdict else 'no'}"]
    if not verdict:
        facets = [list(cx.facets[i]) for i in verdict.facet_indices]
        report["violating_facets"] = facets
        report["intersection_size"] = verdict.intersection_size
        lines.append(
            f"facets {facets} intersect in {verdict.intersection_size} "
            f"< {t - len(facets) + 1} vertices"
        )
    emit(report, config, lines)
    return 0


def cmd_depth_equal_radical(args, config: RunConfig) -> int:
    dec = load_decomposition(args.input)
    verdict = depth_equals_radical(dec, config.field)
    report = {
        "command": "depth-equal-radical",
        "field": str(config.field),
        "t": verdict.t,
        "equal": verdict.equal,
    }
    lines = [f"radical depth t = {verdict.t} over {config.field}"]
    if verdict.equal:
        lines.append("depth(S/I) = depth(S/sqrt(I)): yes")
    else:
        lines.append("depth(S/I) = depth(S/sqrt(I)): no")
        report["witness_degree"] = list(verdict.witness_degree)
        report["witness_subcomplex"] = verdict.witness_subcomplex.to_json_dict()
        lines.append(f"witness degree a = {list(verdict.witness_degree)}")
        lines.append(
            "selected subcomplex "
            f"{[list(f) for f in verdict.witness_subcomplex.facets]} has depth "
            f"{depth_stanley_reisner(verdict.witness_subcomplex, config.field)} < {verdict.t}"
        )
    emit(report, config, lines)
    return 0


def cmd_cones(args, config: RunConfig) -> int:
    cx = load_complex(args.input)
    union = cones_mod.generate_cone_union(cx, config.field, config.facet_enumeration_cap)
    report = {"command": "cones", "field": str(config.field), "union": union.to_json_dict()}
    lines = [
        f"{len(union.symbols)} exponent symbols, {len(union.disjuncts)} cones",
    ]

    def sym_name(k: int) -> str:
        i, j = union.symbols[k]
        return f"a[{'.'.join(str(v) for v in union.facets[i])};x{j}]"

    if union.is_unsatisfiable:
        lines.append("unsatisfiable: no exponents give depth equality")
    elif union.is_trivially_true:
        lines.append("trivially true: every exponent choice gives depth equality")
    for idx, d in enumerate(union.disjuncts, start=1):
        comps = " and ".join(
            f"{sym_name(left)} >= {sym_name(right)}" for left, right in sorted(d)
        )
        lines.append(f"cone {idx}: {comps if comps else '(no constraints)'}")
    if config.output_format == "text":
        emit(report, config, lines)
    else:
        print(json.dumps(union.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_delta_a(args, config: RunConfig) -> int:
    dec = load_decomposition(args.input)
    a = parse_vector(args.a, dec.n)
    if any(x < 0 for x in a):
        raise CliError("delta-a needs a nonnegative degree vector")
    cx = degree_complex_facet_form(dec, a)
    report = {"command": "delta-a", "degree": list(a), "complex": cx.to_json_dict()}
    lines = [f"degree {list(a)} selects {cx!r}"]
    if config.output_format == "text":
        emit(report, config, lines)
    else:
        print(json.dumps(cx.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_local_cohomology(args, config: RunConfig) -> int:
    ideal = load_ideal(args.input)
    if not ideal.is_proper_nonzero:
        raise CliError("local-cohomology needs a proper nonzero ideal")
    cells = local_cohomology_table(ideal, config.field, args.max_index)
    depth = depth_via_local_cohomology(ideal, config.field)
    report = {
        "command": "local-cohomology",
        "field": str(config.field),
        "depth": depth,
        "cells": [
            {"i": c.index, "degree": list(c.degree), "dim": c.dimension} for c in cells
        ],
    }
    lines = [f"depth = {depth} over {config.field}; {len(cells)} nonzero graded pieces"]
    for c in cells:
        lines.append(f"H^{c.index} at degree {list(c.degree)}: dim {c.dimension}")
    emit(report, config, lines)
    return 0


def cmd_polarize(args, config: RunConfig) -> int:
    ideal = load_ideal(args.input)
    pol, origin = ideal.polarize()
    report = {
        "command": "polarize",
        "ideal": pol.to_json_dict(),
        "origin": list(origin),
    }
    lines = [
        f"polarization lives in {pol.n} variables "
        f"(origin map {list(origin)})",
        f"generators: {[list(g) for g in pol.gens]}",
    ]
    if config.output_format == "text":
        emit(report, config, lines)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# -- audit -----------------------------------------------------------------------


def _audit_complex(cx: Complex, config: RunConfig, problems: list[str]) -> None:
    if cx.kind != ORDINARY:
        return
    fields = [RATIONALS, prime_field(2)]
    # boundary composition and Euler characteristic
    for i in range(1, cx.dim + 1):
        d_i = boundary_matrix(cx, i)
        d_prev = boundary_matrix(cx, i - 1)
        for col in range(len(d_i[0]) if d_i else 0):
            vec = [row[col] for row in d_i]
            for r in range(len(d_prev)):
                s = sum(d_prev[r][k] * vec[k] for k in range(len(vec)))
                if s != 0:
                    problems.append(f"boundary composition nonzero at index {i}")
                    return
    for k in fields:
        euler_faces = sum(
            (-1) ** i * len(cx.face_masks_of_dim(i)) for i in range(cx.dim + 1)
        ) - 1
        euler_betti = sum(
            (-1) ** i * reduced_betti(cx, i, k) for i in range(-1, cx.dim + 1)
        )
        if euler_faces != euler_betti:
            problems.append(f"Euler characteristic mismatch over {k}")
        d = depth_stanley_reisner(cx, k)
        if (d == cx.dim + 1) != bool(is_cohen_macaulay(cx, k)):
            problems.append(f"depth/CM inconsistency over {k}")
    if cx.is_pure and len(cx.facet_masks) <= config.facet_enumeration_cap:
        for k in fields:
            t = depth_stanley_reisner(cx, k)
            f = bool(is_rigid_by_intersections(cx, t))
            dv = bool(is_rigid_by_subcomplex_depths(cx, k, config.facet_enumeration_cap))
            ev = bool(is_rigid_by_skeleton_cm(cx, k, config.facet_enumeration_cap))
            if not f == dv == ev:
                problems.append(f"rigidity routes disagree over {k}")
        t = depth_stanley_reisner(cx, RATIONALS)
        if is_rigid_by_intersections(cx, t):
            rep = sample_depth_stability(
                cx, RATIONALS, exponent_bound=2, trials=5, seed=config.seed
            )
            if not rep.all_equal:
                problems.append(
                    f"rigid complex has a depth-{rep.mismatches[0].depth} sample"
                )


def _audit_ideal(ideal: MonomialIdeal, config: RunConfig, problems: list[str]) -> None:
    if not ideal.is_proper_nonzero:
        return
    rad = ideal.radical()
    if rad.radical() != rad:
        problems.append("radical is not idempotent")
    if all(r <= 3 for r in ideal.max_exponents()) and ideal.n <= 5:
        for k in (RATIONALS, prime_field(2)):
            a = depth_via_local_cohomology(ideal, k)
            b = depth_via_koszul(ideal, k)
            if a != b:
                problems.append(f"depth oracles disagree over {k}: {a} vs {b}")


def _audit_decomposition(dec: Decomposition, config: RunConfig, problems: list[str]) -> None:
    ok, offending = dec.validate()
    if not ok:
        problems.append(f"invalid component at facet {offending}")
        return
    inter = dec.intersection()
    if inter.radical() != stanley_reisner_ideal(dec.delta):
        problems.append("radical of the intersection differs from the facet primes")
    verdict = depth_equals_radical(dec, config.field)
    d = depth_via_local_cohomology(inter, config.field)
    if verdict.equal != (d == verdict.t):
        problems.append("depth-equality verdict contradicts the computed depth")


def cmd_audit(args, config: RunConfig) -> int:
    root = Path(args.input)
    if not root.is_dir():
        raise CliError(f"{args.input}: not a directory")
    files = sorted(root.glob("*.json"))
    if not files:
        raise CliError(f"{args.input}: no JSON fixtures found")
    failures = 0
    for path in files:
        problems: list[str] = []
        data = None
        try:
            data = load_json(str(path))
            if "components" in data:
                _audit_decomposition(Decomposition.from_json_dict(data), config, problems)
            elif "facets" in data:
                _audit_complex(Complex.from_json_dict(data), config, problems)
            elif "generators" in data:
                _audit_ideal(MonomialIdeal.from_json_dict(data), config, problems)
            else:
                problems.append("unrecognized fixture kind")
        except (ValueError, CliError) as exc:
            problems.append(str(exc))
        status = "ok" if not problems else "FAIL"
        print(f"{path.name}: {status}")
        for p in problems:
            print(f"  - {p}")
        if problems:
            print(f"  instance: {json.dumps(data, sort_keys=True)}")
            failures += 1
    print(f"{len(files) - failures}/{len(files)} fixtures passed")
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdepth",
        description="Exact depth verdicts for monomial ideals and simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="q", help="coefficient field: q or fp:<prime>")
        p.add_argument("--format", default="text", choices=("text", "json"))
        p.add_argument("--cap", type=int, default=20, help="facet enumeration cap")
        p.add_argument("--seed", type=int, default=0, help="seed for sampling")

    p = sub.add_parser("depth", help="depth of a complex or monomial ideal")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("rigid", help="rigid-depth verdict for a pure complex")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("depth-equal-radical", help="depth(S/I) vs depth of the radical")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("cones", help="exponent cone union for a pure complex")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("delta-a", help="facet selection at a degree vector")
    p.add_argument("input")
    p.add_argument("--a", required=True, help="comma-separated degree vector")
    common(p)

    p = sub.add_parser("local-cohomology", help="graded local cohomology table")
    p.add_argument("input")
    p.add_argument("--max-index", type=int, default=None)
    common(p)

    p = sub.add_parser("polarize", help="squarefree polarization of an ideal")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("audit", help="run invariant suites over a fixture directory")
    p.add_argument("input")
    common(p)

    return parser


HANDLERS = {
    "depth": cmd_depth,
    "rigid": cmd_rigid,
    "depth-equal-radical": cmd_depth_equal_radical,
    "cones": cmd_cones,
    "delta-a": cmd_delta_a,
    "local-cohomology": cmd_local_cohomology,
    "polarize": cmd_polarize,
    "audit": cmd_audit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            field=parse_field(args.field),
            facet_enumeration_cap=args.cap,
            output_format=args.format,
            seed=args.seed,
        )
        return HANDLERS[args.command](args, config)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
