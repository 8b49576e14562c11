"""Command-line front end: batch verdicts over JSON inputs.

Commands and the options each one reads
---------------------------------------
depth                 depth/CM verdict for a complex or a monomial ideal
                      (--field, --format)
rigid                 rigidity verdict with certificate for a complex
                      (--field, --format)
depth-equal-radical   depth(S/I) vs depth(S/sqrt I) for a decomposition
                      (--field, --format)
cones                 exponent cone union for a complex
                      (--field, --format)
audit                 invariant suites over a directory of JSON fixtures, each
                      fixture checked over Q and F_2 (no options)

Any other option is refused with exit code 2.  A command whose reader closes
standard output stops quietly with exit code 141.  Facet-selection enumeration
(cone generation and the rigidity audits) is capped at 20 facets,
simplicial.DEFAULT_FACET_CAP.  All vertices and variables are 1-based in
file formats.  --format json emits machine-readable verdicts; text and json
report identical content.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import cones as cones_mod
from .criteria import (
    degree_complex_unmixed,
    depth_equals_radical,
    depth_via_koszul,
    depth_via_local_cohomology,
)
from .homology import (
    FieldSpec,
    RATIONALS,
    _hochster,
    _selections,
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
    sample_depth_stability,
)
from .simplicial import Complex, DEFAULT_FACET_CAP, ORDINARY, _selection_indices, mask_vertices


def parse_field(spec: str) -> FieldSpec:
    if spec == "q":
        return RATIONALS
    if spec.startswith("fp:") and re.fullmatch("[0-9]+", spec[3:]):
        try:
            return prime_field(int(spec[3:]))
        except ValueError as exc:
            raise ValueError(f"bad field {spec!r}: {exc}") from exc
    raise ValueError(f"bad field {spec!r}: expected 'q' or 'fp:<prime>'")


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
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # a repeated key, bytes that are not UTF-8, or nesting too deep to parse
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {data!r}")
    return data


# the key that marks each input kind in a JSON file
_KIND_KEYS = {Decomposition: "components", Complex: "facets", MonomialIdeal: "generators"}


def load(path: str, *kinds: type, data: dict | None = None):
    """The JSON input at path as the one of kinds whose key it has, refusing the
    keys of two kinds; data is the file's content when already read."""
    if data is None:
        data = load_json(path)
    marked = [repr(key) for key in _KIND_KEYS.values() if key in data]
    if len(marked) > 1:
        raise ValueError(f"{path}: keys {' and '.join(marked)} mark different kinds of input")
    for kind in kinds:
        if _KIND_KEYS[kind] in data:
            try:
                return kind.from_json_dict(data)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    keys = " or ".join(repr(_KIND_KEYS[kind]) for kind in kinds)
    raise ValueError(f"{path}: expected an input with {keys}")


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
        d, face_mask, index = _hochster(cx, args.field)
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
            # Hochster's formula certifies the depth, |face| + 1 + index, by
            # H~_index(lk face) != 0: for a pure complex a Reisner violation,
            # for one that is not pure maybe a small facet at index -1
            face = list(mask_vertices(face_mask))
            report["violating_face"] = face
            report["violating_index"] = index
            lines.append(f"violating link at face {face} in homology degree {index}")
        emit(args, report, lines)
        return 0
    ideal = obj
    d = depth_via_local_cohomology(ideal, args.field)
    rc = radical_complex(ideal)
    rad_depth = depth_stanley_reisner(rc, args.field)
    cm = d == rc.dim + 1
    report = {
        "command": "depth",
        "kind": "ideal",
        "field": str(args.field),
        "depth": d,
        "radical_depth": rad_depth,
        "cohen_macaulay": cm,
    }
    lines = [
        f"monomial ideal in {ideal.n} variables, field {args.field}",
        f"depth = {d} (radical depth {rad_depth})",
        f"Cohen-Macaulay: {'yes' if cm else 'no'}",
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
        facets = [list(mask_vertices(cx.facet_masks[i])) for i in verdict.facet_indices]
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
        witness = verdict.witness_subcomplex
        report["witness_degree"] = list(verdict.witness_degree)
        report["witness_subcomplex"] = witness.to_json_dict()
        report["witness_depth"] = depth_stanley_reisner(witness, args.field)
        lines.append(f"witness degree a = {list(verdict.witness_degree)}")
        lines.append(
            f"selected subcomplex {report['witness_subcomplex']['facets']} has depth "
            f"{report['witness_depth']} < {verdict.t}"
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

    if union.is_trivially_true:
        lines.append("trivially true: every exponent choice gives depth equality")
    for idx, d in enumerate(union.disjuncts, start=1):
        comps = " and ".join(
            f"{sym_name(left)} >= {sym_name(right)}" for left, right in sorted(d)
        )
        lines.append(f"cone {idx}: {comps if comps else '(no constraints)'}")
    emit(args, union.to_json_dict(), lines)
    return 0


# -- audit -----------------------------------------------------------------------


def _audit_complex(cx: Complex, problems: list[str]) -> None:
    if cx.kind != ORDINARY:
        return
    fields = (RATIONALS, prime_field(2))
    mats = [boundary_matrix(cx, i) for i in range(cx.dim + 1)]
    # boundary composition
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
        # every Betti number, through the sparse kernels and the shortcuts,
        # against f_i - R_i - R_(i+1) from dense ranks; the last entry,
        # R_(dim+1) = 0, is read as R_(-1) too, and f_(-1) = 1
        ranks = [matrix_rank(d_i, k) for d_i in mats] + [0]
        for i in range(-1, cx.dim + 1):
            dense = len(cx.face_masks_of_dim(i)) - ranks[i] - ranks[i + 1]
            if reduced_betti(cx, i, k) != dense:
                problems.append(f"Betti number mismatch at index {i} over {k}")
        d = depth_stanley_reisner(cx, k)
        if (d == cx.dim + 1) != bool(is_cohen_macaulay(cx, k)):
            problems.append(f"depth/CM inconsistency over {k}")
        # a second route below dim + 1: the depth is 1 + the largest i whose
        # i-skeleton is Cohen-Macaulay; at i = dim this is the check above
        elif d != 1 + next(i for i in range(cx.dim, -1, -1)
                           if is_cohen_macaulay(cx.skeleton(i), k)):
            problems.append(f"depth and skeleton depth disagree over {k}")
    if len(cx.facet_masks) <= DEFAULT_FACET_CAP:
        masks = cx.facet_masks
        for k in fields:
            sels = _selections(cx, k)
            t = sels.t
            # every proper selection built once, by index bitmask: the
            # subcomplex-depth route is rigid iff none falls below t, and
            # the walk must store exactly these as True
            built = {
                sum(1 << i for i in idx) for idx in _selection_indices(len(masks))
                if depth_stanley_reisner(Complex._from_masks(cx.n, [masks[i] for i in idx]), k) < t
            }
            rigid = bool(is_rigid_by_intersections(cx, t))
            if not rigid == (not built) == bool(is_rigid_by_skeleton_cm(cx, k)):
                problems.append(f"rigidity routes disagree over {k}")
            for _ in sels.walk(_selection_indices(len(masks))):
                pass  # every selection is stored, each covered one as True
            if {b for b, low in sels.answers.items() if low} != built:
                problems.append(f"low-depth selections disagree over {k}")
            if rigid and k is RATIONALS:
                mismatches = sample_depth_stability(cx, RATIONALS, exponent_bound=2, trials=5)
                if mismatches:
                    problems.append(f"rigid complex has a depth-{mismatches[0][2]} sample")


def _audit_ideal(ideal: MonomialIdeal, problems: list[str]) -> None:
    if not ideal.is_proper_nonzero:
        return
    rad = ideal.radical()
    if rad.radical() != rad:
        problems.append("radical is not idempotent")
    small = all(r <= 3 for r in ideal.max_exponents()) and ideal.n <= 5
    for k in (RATIONALS, prime_field(2)):
        a = depth_via_local_cohomology(ideal, k)
        # Herzog-Takayama-Terai: depth S/I <= depth S/sqrt(I)
        if a > depth_stanley_reisner(radical_complex(ideal), k):
            problems.append(f"depth exceeds the radical's depth over {k}")
        if small and a != (b := depth_via_koszul(ideal, k)):
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
        if verdict.equal:
            continue
        # a missing witness differs too; only one that is its degree
        # complex has its depth read
        w, a = verdict.witness_subcomplex, verdict.witness_degree
        if w is None or a is None or w != degree_complex_unmixed(dec, a):
            problems.append(f"witness subcomplex differs from its degree complex over {k}")
        elif depth_stanley_reisner(w, k) >= verdict.t:
            problems.append(f"witness subcomplex is not below the radical depth over {k}")


_AUDITS = {
    Decomposition: _audit_decomposition,
    Complex: _audit_complex,
    MonomialIdeal: _audit_ideal,
}


def cmd_audit(args) -> int:
    root = args.input
    if not os.path.isdir(root):
        raise ValueError(f"{root}: not a directory")
    try:
        names = sorted(name for name in os.listdir(root) if name.endswith(".json"))
    except OSError:
        names = []  # an unreadable directory lists no fixtures
    if not names:
        raise ValueError(f"{root}: no JSON fixtures found")
    failures = 0
    for name in names:
        path = os.path.normpath(os.path.join(root, name))
        problems: list[str] = []
        data = None
        try:
            data = load_json(path)
            obj = load(path, *_AUDITS, data=data)
            _AUDITS[type(obj)](obj, problems)
        except ValueError as exc:
            problems.append(str(exc))
        status = "ok" if not problems else "FAIL"
        print(f"{name}: {status}")
        for p in problems:
            print(f"  - {p}")
        if problems:
            print(f"  instance: {json.dumps(data, sort_keys=True)}")
            failures += 1
    print(f"{len(names) - failures}/{len(names)} fixtures passed")
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------------

_FIELD = ("--field", dict(default="q", help="coefficient field: q or fp:<prime>"))
_FORMAT = ("--format", dict(default="text", choices=("text", "json")))

_COMMANDS = (
    ("depth", cmd_depth, "depth of a complex or monomial ideal", (_FIELD, _FORMAT)),
    ("rigid", cmd_rigid, "rigid-depth verdict for a complex", (_FIELD, _FORMAT)),
    ("depth-equal-radical", cmd_depth_equal_radical,
     "depth(S/I) vs depth of the radical", (_FIELD, _FORMAT)),
    ("cones", cmd_cones, "exponent cone union for a complex", (_FIELD, _FORMAT)),
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "field" in args:
            args.field = parse_field(args.field)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed standard output: stop quietly, with the shell's
        # code for SIGPIPE, and point the descriptor at devnull so that the
        # interpreter's last flush finds somewhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
