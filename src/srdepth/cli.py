"""Command-line front end: batch verdicts over JSON inputs.

Commands and the options each one reads
---------------------------------------
depth                 depth/CM verdict for a complex or a monomial ideal
                      (--field, --format)
rigid                 rigidity verdict with certificate for a pure complex
                      (--field, --format)
depth-equal-radical   depth(S/I) vs depth(S/sqrt I) for a decomposition
                      (--field, --format)
cones                 exponent cone union for a pure complex
                      (--field, --format)
delta-a               facet selection of a decomposition at a degree vector
                      (--a, --format)
local-cohomology      every nonzero graded local cohomology piece of an ideal,
                      one per breakpoint class and index (--field, --format)
audit                 invariant suites over a directory of JSON fixtures, each
                      fixture checked over Q and F_2 (no options)

Any other option is refused with exit code 2.  Facet-selection enumeration
(cone generation and the rigidity audits) is capped at 20 facets,
simplicial.DEFAULT_FACET_CAP.  All vertices and variables are 1-based in
file formats.  --format json emits machine-readable verdicts; text and json
report identical content.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

from . import cones as cones_mod
from .criteria import (
    degree_complex_unmixed,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
    local_cohomology_table,
)
from .homology import (
    FieldSpec,
    RATIONALS,
    _rank,
    boundary_matrix,
    depth_stanley_reisner,
    is_cohen_macaulay,
    matrix_rank,
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
from .simplicial import Complex, DEFAULT_FACET_CAP, ORDINARY


class CliError(Exception):
    pass


def parse_field(spec: str) -> FieldSpec:
    if spec == "q":
        return RATIONALS
    if spec.startswith("fp:") and re.fullmatch("[0-9]+", spec[3:]):
        try:
            return prime_field(int(spec[3:]))
        except ValueError as exc:
            raise CliError(f"bad field {spec!r}: {exc}") from exc
    raise CliError(f"bad field {spec!r}: expected 'q' or 'fp:<prime>'")


def _unique_keys(pairs: list) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # a repeated key, bytes that are not UTF-8, or nesting too deep to parse
        raise CliError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object, got {data!r}")
    return data


# the key that marks each input kind in a JSON file
_KIND_KEYS = {Decomposition: "components", Complex: "facets", MonomialIdeal: "generators"}


def load(path: str, *kinds: type, data: Optional[dict] = None):
    """The JSON input at path as the one of kinds whose key it has, refusing the
    keys of two kinds; data is the file's content when already read."""
    if data is None:
        data = load_json(path)
    marked = [repr(key) for key in _KIND_KEYS.values() if key in data]
    if len(marked) > 1:
        raise CliError(f"{path}: keys {' and '.join(marked)} mark different kinds of input")
    for kind in kinds:
        if _KIND_KEYS[kind] in data:
            try:
                return kind.from_json_dict(data)
            except ValueError as exc:
                raise CliError(f"{path}: {exc}") from exc
    keys = " or ".join(repr(_KIND_KEYS[kind]) for kind in kinds)
    raise CliError(f"{path}: expected an input with {keys}")


def parse_vector(text: str, n: int) -> tuple[int, ...]:
    entries = [x.strip() for x in text.split(",")]
    for x in entries:
        if not re.fullmatch("-?[0-9]+", x):
            raise CliError(f"bad degree vector {text!r}: entry {x!r} is not an integer")
    vec = tuple(map(int, entries))
    if len(vec) != n:
        raise CliError(f"degree vector has {len(vec)} entries, expected {n}")
    return vec


def emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- commands ------------------------------------------------------------------


def cmd_depth(args) -> int:
    obj = load(args.input, Complex, MonomialIdeal)
    if isinstance(obj, Complex):
        cx = obj
        d = depth_stanley_reisner(cx, args.field)
        cm = d == cx.dim + 1
        report = {
            "command": "depth",
            "kind": "complex",
            "field": str(args.field),
            "depth": d,
            "dim": cx.dim,
            "cohen_macaulay": cm,
        }
        lines = [
            f"complex on {cx.n} vertices, dim {cx.dim}, field {args.field}",
            f"depth = {d}",
            f"Cohen-Macaulay: {'yes' if cm else 'no'}",
        ]
        if not cm:
            # Reisner's test runs only to certify the failure by a link
            link = is_cohen_macaulay(cx, args.field)
            report["violating_face"] = list(link.face)
            report["violating_index"] = link.index
            lines.append(
                f"violating link at face {list(link.face)} in homology degree {link.index}"
            )
        emit(args, report, lines)
        return 0
    ideal = obj
    d = depth_via_local_cohomology(ideal, args.field)
    rc = radical_complex(ideal)
    rad_depth = depth_stanley_reisner(rc, args.field)
    report = {
        "command": "depth",
        "kind": "ideal",
        "field": str(args.field),
        "depth": d,
        "radical_depth": rad_depth,
        "cohen_macaulay": d == rc.dim + 1,
    }
    lines = [
        f"monomial ideal in {ideal.n} variables, field {args.field}",
        f"depth = {d} (radical depth {rad_depth})",
    ]
    emit(args, report, lines)
    return 0


def cmd_rigid(args) -> int:
    cx = load(args.input, Complex)
    t = depth_stanley_reisner(cx, args.field)
    verdict = is_rigid_by_intersections(cx, t)
    report = {
        "command": "rigid",
        "field": str(args.field),
        "t": t,
        "rigid": bool(verdict),
    }
    lines = [f"depth = {t} over {args.field}", f"rigid: {'yes' if verdict else 'no'}"]
    if not verdict:
        facets = [list(cx.facets[i]) for i in verdict.facet_indices]
        report["violating_facets"] = facets
        report["intersection_size"] = verdict.intersection_size
        lines.append(
            f"facets {facets} intersect in {verdict.intersection_size} "
            f"< {t - len(facets) + 1} vertices"
        )
    emit(args, report, lines)
    return 0


def cmd_depth_equal_radical(args) -> int:
    dec = load(args.input, Decomposition)
    verdict = depth_equals_radical(dec, args.field)
    report = {
        "command": "depth-equal-radical",
        "field": str(args.field),
        "t": verdict.t,
        "equal": verdict.equal,
    }
    lines = [f"radical depth t = {verdict.t} over {args.field}"]
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
            f"{depth_stanley_reisner(verdict.witness_subcomplex, args.field)} < {verdict.t}"
        )
    emit(args, report, lines)
    return 0


def cmd_cones(args) -> int:
    cx = load(args.input, Complex)
    union = cones_mod.generate_cone_union(cx, args.field)
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
    emit(args, union.to_json_dict(), lines)
    return 0


def cmd_delta_a(args) -> int:
    dec = load(args.input, Decomposition)
    a = parse_vector(args.a, dec.n)
    if any(x < 0 for x in a):
        raise CliError("delta-a needs a nonnegative degree vector")
    cx = degree_complex_unmixed(dec, a)
    emit(args, cx.to_json_dict(), [f"degree {list(a)} selects {cx!r}"])
    return 0


def _class_range(x: int, upper: int) -> str:
    """One coordinate of a breakpoint class: <0, one value or [x,upper)."""
    return "<0" if x < 0 else str(x) if upper == x + 1 else f"[{x},{upper})"


def cmd_local_cohomology(args) -> int:
    ideal = load(args.input, MonomialIdeal)
    table = local_cohomology_table(ideal, args.field)
    # the table lists every nonzero piece by increasing index, so its first
    # index is the depth
    depth = table[0].index
    report = {
        "command": "local-cohomology",
        "field": str(args.field),
        "depth": depth,
        "cells": [
            {"i": c.index, "degree": list(c.degree), "upper": list(c.upper),
             "degrees": c.degrees, "dim": c.dimension}
            for c in table
        ],
    }
    lines = [f"depth = {depth} over {args.field}; {len(table)} nonzero class cells"]
    for c in table:
        region = ", ".join(map(_class_range, c.degree, c.upper))
        lines.append(f"H^{c.index} at ({region}): dim {c.dimension}, degrees {c.degrees}")
    emit(args, report, lines)
    return 0


# -- audit -----------------------------------------------------------------------


def _audit_complex(cx: Complex, problems: list[str]) -> None:
    if cx.kind != ORDINARY:
        return
    fields = (RATIONALS, prime_field(2))
    mats = [boundary_matrix(cx, i) for i in range(cx.dim + 1)]
    # boundary composition and Euler characteristic
    for i in range(1, cx.dim + 1):
        d_i, d_prev = mats[i], mats[i - 1]
        for col in range(len(d_i[0]) if d_i else 0):
            vec = [row[col] for row in d_i]
            for r in range(len(d_prev)):
                s = sum(d_prev[r][k] * vec[k] for k in range(len(vec)))
                if s != 0:
                    problems.append(f"boundary composition nonzero at index {i}")
                    return
    for k in fields:
        # the sparse rank kernels against dense elimination
        for i, d_i in enumerate(mats):
            if _rank(cx, i, k) != matrix_rank(d_i, k):
                problems.append(f"boundary rank mismatch at index {i} over {k}")
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
    if cx.is_pure and len(cx.facet_masks) <= DEFAULT_FACET_CAP:
        for k in fields:
            t = depth_stanley_reisner(cx, k)
            f = bool(is_rigid_by_intersections(cx, t))
            dv = bool(is_rigid_by_subcomplex_depths(cx, k))
            ev = bool(is_rigid_by_skeleton_cm(cx, k))
            if not f == dv == ev:
                problems.append(f"rigidity routes disagree over {k}")
        t = depth_stanley_reisner(cx, RATIONALS)
        if is_rigid_by_intersections(cx, t):
            mismatches = sample_depth_stability(cx, RATIONALS, exponent_bound=2, trials=5)
            if mismatches:
                problems.append(f"rigid complex has a depth-{mismatches[0][2]} sample")


def _audit_ideal(ideal: MonomialIdeal, problems: list[str]) -> None:
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


def _audit_decomposition(dec: Decomposition, problems: list[str]) -> None:
    inter = dec.intersection()
    if inter.radical() != stanley_reisner_ideal(dec.delta):
        problems.append("radical of the intersection differs from the facet primes")
    for k in (RATIONALS, prime_field(2)):
        verdict = depth_equals_radical(dec, k)
        d = depth_via_local_cohomology(inter, k)
        if verdict.equal != (d == verdict.t):
            problems.append(f"depth-equality verdict contradicts the computed depth over {k}")


_AUDITS = {
    Decomposition: _audit_decomposition,
    Complex: _audit_complex,
    MonomialIdeal: _audit_ideal,
}


def cmd_audit(args) -> int:
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
            obj = load(str(path), *_AUDITS, data=data)
            _AUDITS[type(obj)](obj, problems)
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

_FIELD = ("--field", dict(default="q", help="coefficient field: q or fp:<prime>"))
_FORMAT = ("--format", dict(default="text", choices=("text", "json")))
_DEGREE = ("--a", dict(required=True, help="comma-separated degree vector"))

_COMMANDS = (
    ("depth", cmd_depth, "depth of a complex or monomial ideal", (_FIELD, _FORMAT)),
    ("rigid", cmd_rigid, "rigid-depth verdict for a pure complex", (_FIELD, _FORMAT)),
    ("depth-equal-radical", cmd_depth_equal_radical,
     "depth(S/I) vs depth of the radical", (_FIELD, _FORMAT)),
    ("cones", cmd_cones, "exponent cone union for a pure complex", (_FIELD, _FORMAT)),
    ("delta-a", cmd_delta_a, "facet selection at a degree vector", (_DEGREE, _FORMAT)),
    ("local-cohomology", cmd_local_cohomology, "graded local cohomology table",
     (_FIELD, _FORMAT)),
    ("audit", cmd_audit, "run invariant suites over a fixture directory", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdepth",
        description="Exact depth verdicts for monomial ideals and simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "field" in args:
            args.field = parse_field(args.field)
        return args.handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
