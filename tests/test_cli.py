import argparse
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import find, given, settings, strategies as st

from srdepth import cli, homology
from srdepth.cli import build_parser, main, parse_field
from srdepth.cones import generate_cone_union
from srdepth.criteria import (
    DepthEqualsRadicalVerdict,
    degree_complex_unmixed,
    depth_via_koszul,
    depth_via_local_cohomology,
)
from srdepth.homology import RATIONALS, CMResult, depth_stanley_reisner
from srdepth.ideals import Decomposition, MonomialIdeal
from srdepth.rigid import RigidVerdict
from srdepth.simplicial import VOID, Complex
from tests.conftest import FIXTURES, walked_below


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_parse_field():
    assert parse_field("q") == RATIONALS
    assert parse_field("fp:5").p == 5
    with pytest.raises(Exception):
        parse_field("fp:4")


# the grammar is exactly `q` or `fp:` and ASCII digits: no case folding,
# stripping or aliases of `q`
@pytest.mark.parametrize("spec", [
    "fp: 1_1", "fp:1_1", "fp: 11", "fp:+3", "fp:\u0663", "fp:",
    "Q", " q", "qq", "rationals", "0", "FP:5",
])
def test_field_suffix_must_be_ascii_digits(capsys, spec):
    code, out, err = run(capsys, "depth", fixture("fourcycle.json"), "--field", spec)
    assert code == 2 and out == ""
    assert err == f"error: bad field {spec!r}: expected 'q' or 'fp:<prime>'\n"


# -- depth ---------------------------------------------------------------------

def test_depth_complex_text(capsys):
    code, out, _ = run(capsys, "depth", fixture("fourcycle.json"))
    assert code == 0
    assert "depth = 2" in out
    assert "Cohen-Macaulay: yes" in out


def test_depth_complex_json_fields_agree(capsys):
    code, text_out, _ = run(capsys, "depth", fixture("fourcycle.json"))
    code2, json_out, _ = run(
        capsys, "depth", fixture("fourcycle.json"), "--format", "json"
    )
    assert code == code2 == 0
    data = json.loads(json_out)
    assert data["depth"] == 2
    assert data["cohen_macaulay"] is True


def test_depth_projective_plane_f2(capsys):
    code, out, _ = run(
        capsys, "depth", fixture("projective_plane_6.json"), "--field", "fp:2"
    )
    assert code == 0
    assert "Cohen-Macaulay: no" in out


def test_depth_ideal_with_oracle(capsys):
    # the Koszul oracle is run by the tests and `audit`, not by `depth`
    code, out, _ = run(capsys, "depth", fixture("sample_ideal.json"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    ideal = MonomialIdeal.from_json_dict(json.loads(Path(fixture("sample_ideal.json")).read_text()))
    assert data["depth"] == depth_via_koszul(ideal, RATIONALS) == 0
    assert "koszul_oracle" not in data


@pytest.mark.parametrize("gens, cm", [([[2, 0], [1, 1]], "no"), ([[2, 0]], "yes")])
def test_ideal_depth_reports_cohen_macaulay_in_text_and_json(tmp_path, capsys, gens, cm):
    # (x1^2, x1 x2) has an embedded m, so depth 0 below dim 1; (x1^2) has depth 1
    path = write_json(tmp_path, {"n": 2, "generators": gens})
    code, text, _ = run(capsys, "depth", path)
    code2, out, _ = run(capsys, "depth", path, "--format", "json")
    assert code == code2 == 0
    assert text.splitlines()[2] == f"Cohen-Macaulay: {cm}"
    assert json.loads(out)["cohen_macaulay"] is (cm == "yes")


def test_depth_has_no_oracle_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["depth", fixture("sample_ideal.json"), "--oracle"])
    assert exc.value.code == 2


#: an input that is both a complex and an ideal
TWO_KINDS = {"n": 2, "generators": [[1, 1]], "facets": [[1]]}


def write_json(tmp_path, data) -> str:
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    return str(p)


def chorded_cycle_edge_ideal(n: int = 20, chord: int = 5) -> dict:
    """Edge ideal of the n-cycle plus the chords x_i x_(i+chord), i odd."""
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, (i + chord - 1) % n + 1) for i in range(1, n + 1, 2)]
    return {"n": n, "generators": [[int(v in e) for v in range(1, n + 1)] for e in edges]}


@pytest.mark.parametrize("field", ["q", "fp:2", "fp:3"])
def test_depth_of_a_20_variable_edge_ideal(tmp_path, capsys, field):
    # the radical complex is the independence complex of the graph, whose
    # whole boundary matrices once stalled the dense elimination over Q
    ideal = chorded_cycle_edge_ideal()
    assert len(ideal["generators"]) == 30
    code, out, err = run(capsys, "depth", write_json(tmp_path, ideal), "--field", field)
    assert code == 0 and err == ""
    assert "depth = 5 (radical depth 5)" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_depth_m_primary_ideal(tmp_path, capsys, fmt):
    path = write_json(tmp_path, {"n": 2, "generators": [[2, 0], [0, 2]]})
    code, out, err = run(capsys, "depth", path, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        data = json.loads(out)
        assert data["depth"] == 0 and data["radical_depth"] == 0
        assert data["cohen_macaulay"] is True
    else:
        assert "depth = 0 (radical depth 0)" in out


def test_depth_irrelevant_complex(tmp_path, capsys):
    path = write_json(tmp_path, {"n": 2, "facets": [[]]})
    code, out, _ = run(capsys, "depth", path)
    assert code == 0
    assert "depth = 0" in out
    assert "Cohen-Macaulay: yes" in out


def test_depth_certifies_a_wide_cone(tmp_path, capsys):
    # two disjoint edges coned by 20 vertices: Reisner's walk peels the apex
    apex = list(range(5, 25))
    path = write_json(tmp_path, {"n": 24, "facets": [[1, 2, *apex], [3, 4, *apex]]})
    code, out, _ = run(capsys, "depth", path)
    assert code == 0
    assert out.splitlines()[1:] == [
        "depth = 21",
        "Cohen-Macaulay: no",
        f"violating link at face {apex} in homology degree 0",
    ]


@pytest.mark.parametrize(
    "data",
    [
        {"n": 4, "facets": 5},
        None,
        [1, 2],
        {"n": 3, "facets": []},
        {"n": 2, "generators": [[1.5, 0], [0, 2]]},
        {"n": "2", "generators": [[1, 0], [0, 2]]},
        {"n": 3, "facets": [[1, 2.5]]},
    ],
)
def test_depth_malformed_input(tmp_path, capsys, data):
    code, out, err = run(capsys, "depth", write_json(tmp_path, data))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


_WRONG_SCALAR = (
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)
)
_WRONG_ROW = _WRONG_SCALAR | st.integers(0, 6) | st.dictionaries(
    st.text(max_size=2), st.integers(0, 3), max_size=1
)


@st.composite
def _wrong_typed_input(draw):
    """A well-formed complex or ideal on n <= 6 with one value of the wrong type:
    n itself, the whole row list, one row, or one vertex or exponent."""
    key = draw(st.sampled_from(["facets", "generators"]))
    n = draw(st.integers(1, 6))
    if key == "facets":
        row = st.lists(st.integers(1, n), min_size=1, max_size=n)
    else:
        row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    i = draw(st.integers(0, len(rows) - 1))
    where = draw(st.sampled_from(["n", "rows", "row", "entry"]))
    if where == "n":
        n = draw(_WRONG_SCALAR | st.lists(st.integers(1, 6), max_size=2))
    elif where == "rows":
        rows = draw(_WRONG_ROW)
    elif where == "row":
        rows[i] = draw(_WRONG_ROW)
    else:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_WRONG_SCALAR)
    return {"n": n, key: rows}


@settings(max_examples=150, deadline=None)
@given(_wrong_typed_input())
def test_depth_wrong_types_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["depth", str(path)])
    assert code == 2, data
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_depth_huge_exponent(tmp_path, capsys, fmt):
    # the depth scan visits breakpoint classes, not every exponent up to 10**17
    path = write_json(tmp_path, {"n": 3, "generators": [[10**17, 0, 1]]})
    code, out, err = run(capsys, "depth", path, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        data = json.loads(out)
        assert data["depth"] == 2 and data["radical_depth"] == 2
    else:
        assert "depth = 2 (radical depth 2)" in out


def test_depth_missing_file(capsys):
    code, _, err = run(capsys, "depth", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_depth_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 3, "facets": [[1, 2],')
    code, _, err = run(capsys, "depth", str(p))
    assert code == 2
    assert "line" in err


def test_depth_refuses_a_directory(capsys):
    code, out, err = run(capsys, "depth", str(FIXTURES))
    assert code == 2 and out == ""
    assert err == f"error: {FIXTURES}: Is a directory\n"


def test_depth_refuses_nesting_too_deep(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "depth", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_depth_names_the_path_of_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "facets": [[1], [2]], "note": "\xe9"}')
    code, out, err = run(capsys, "depth", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"n": 4, "n": 2, "facets": [[1, 2]]}', "n"),
        ('{"n": 2, "facets": [[1], [2]], "note": {"a": 1, "a": 1}}', "a"),
        ('{"complex": {"n": 2, "facets": [[1], [2]], "facets": [[1]]}, "components": []}',
         "facets"),
    ],
    ids=["top level", "nested", "inside a decomposition"],
)
def test_loader_refuses_a_duplicate_key(tmp_path, capsys, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    for command in ("depth", "depth-equal-radical"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: duplicate key {key!r}\n"


def test_depth_refuses_input_of_two_kinds(tmp_path, capsys):
    path = write_json(tmp_path, TWO_KINDS)
    code, out, err = run(capsys, "depth", path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: keys 'facets' and 'generators' mark different kinds of input\n"


@pytest.mark.parametrize("command", ["depth", "rigid", "cones"])
def test_complex_refuses_a_repeated_vertex(tmp_path, capsys, command):
    path = write_json(tmp_path, {"n": 4, "facets": [[1, 1, 2], [2, 3]]})
    assert run(capsys, command, path) == (2, "", f"error: {path}: vertex 1 listed twice\n")


@pytest.mark.parametrize("form", [{"power": 2}, {"generators": [[0, 1, 0], [0, 0, 1]]}])
def test_decomposition_refuses_a_repeated_vertex(tmp_path, capsys, form):
    components = [{"facet": [1, 1], **form}, {"facet": [2], "power": 2}]
    path = write_json(
        tmp_path, {"complex": {"n": 3, "facets": [[1], [2]]}, "components": components}
    )
    expected = (2, "", f"error: {path}: vertex 1 listed twice\n")
    assert run(capsys, "depth-equal-radical", path) == expected


@pytest.mark.parametrize("gens", [
    [[2] + [0] * 69, [0] * 69 + [1]],
    [[1, 1] + [0] * 68, [2] + [0] * 69, [0, 2] + [0] * 68],
], ids=["x1^2,x70", "x1x2,x1^2,x2^2"])
def test_ideal_in_more_than_64_variables_is_refused(tmp_path, capsys, gens):
    path = write_json(tmp_path, {"n": 70, "generators": gens})
    expected = f"error: {path}: ambient variable count must be at most 64, got 70\n"
    assert run(capsys, "depth", path) == (2, "", expected)


def test_refusals_print_the_library_text(tmp_path, capsys):
    """Void, zero and unit inputs: one error line with the text of the
    library's ValueError, behind the path where the loader refuses."""

    def refusal(call, *args):
        with pytest.raises(ValueError) as exc:
            call(*args)
        return str(exc.value)

    path = str(tmp_path / "input.json")
    void = {"n": 3, "facets": []}
    # rigid and cones compute the depth first, and the void complex has none
    no_depth = refusal(depth_stanley_reisner, Complex.from_json_dict(void), RATIONALS)
    no_decomposition = refusal(Decomposition, Complex.from_json_dict(void), {})
    cases = [
        ("rigid", void, no_depth),
        ("cones", void, no_depth),
        ("depth-equal-radical", {"complex": void, "components": []},
         f"{path}: {no_decomposition}"),
    ]
    for gens in ([], [[0, 0]]):
        data, ideal = {"n": 2, "generators": gens}, MonomialIdeal(2, gens)
        cases.append(("depth", data, refusal(depth_via_local_cohomology, ideal)))
    for command, data, text in cases:
        assert write_json(tmp_path, data) == path
        assert run(capsys, command, path) == (2, "", f"error: {text}\n"), (command, data)


# -- rigid ----------------------------------------------------------------------

def test_rigid_two_facets(capsys):
    code, out, _ = run(capsys, "rigid", fixture("two_facets_12345_12678.json"))
    assert code == 0
    assert "rigid: yes" in out
    # the homological routes run in `audit` and the tests, not here
    assert "audit" not in out


def test_rigid_projective_plane(capsys):
    code, out, _ = run(
        capsys, "rigid", fixture("projective_plane_6.json"), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["t"] == 3 and data["rigid"] is False
    assert data["intersection_size"] == 1
    audit_keys = {"subcomplex_depth_audit", "skeleton_cm_audit", "audit_subcomplex"}
    assert not audit_keys & set(data)


def test_rigid_cone_with_many_facets(tmp_path, capsys):
    # t = 10 and the facets meet in the apex {1..9}, so only single facets are
    # listed; every k-tuple up to k = 10 would be about 10^10 of them
    facets = [list(range(1, 10)) + [9 + i] for i in range(1, 51)]
    path = write_json(tmp_path, {"n": 59, "facets": facets})
    assert run(capsys, "rigid", path) == (0, "depth = 10 over Q\nrigid: yes\n", "")


# -- the irrelevant complex {()} ------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rigid_and_cones_on_the_irrelevant_complex(tmp_path, capsys, fmt):
    path = write_json(tmp_path, {"n": 2, "facets": [[]]})
    rigid = run(capsys, "rigid", path, "--format", fmt)
    cones = run(capsys, "cones", path, "--format", fmt)
    if fmt == "json":
        assert rigid[0] == cones[0] == 0
        assert json.loads(rigid[1]) == {"command": "rigid", "field": "Q", "t": 0, "rigid": True}
        assert json.loads(cones[1]) == {
            "n": 2, "facets": [[]], "disjuncts": [[]],
            "symbols": [{"facet": 1, "var": 1}, {"facet": 1, "var": 2}],
        }
    else:
        assert rigid == (0, "depth = 0 over Q\nrigid: yes\n", "")
        assert cones == (0, "2 exponent symbols, 1 cones\n"
                            "trivially true: every exponent choice gives depth equality\n"
                            "cone 1: (no constraints)\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "n,form",
    [(1, {"power": 3}), (1, {"irreducible": [2]}), (2, {"power": 2}), (2, {"irreducible": [2, 3]})],
)
def test_decompositions_over_the_irrelevant_complex(tmp_path, capsys, n, form, fmt):
    # the one component is m-primary, so the depth equals the radical's, 0
    data = {"complex": {"n": n, "facets": [[]]}, "components": [{"facet": [], **form}]}
    path = write_json(tmp_path, data)
    verdict = run(capsys, "depth-equal-radical", path, "--format", fmt)
    if fmt == "json":
        assert verdict[0] == 0
        assert json.loads(verdict[1]) == {
            "command": "depth-equal-radical", "field": "Q", "t": 0, "equal": True,
        }
    else:
        assert verdict == (0, "radical depth t = 0 over Q\n"
                              "depth(S/I) = depth(S/sqrt(I)): yes\n", "")
    # x^0 lies outside the component and x^(3,...,3) inside it; a negative
    # degree is refused
    dec = Decomposition.from_json_dict(data)
    assert degree_complex_unmixed(dec, [0] * n) == Complex(n, [()])
    assert degree_complex_unmixed(dec, [3] * n).kind == VOID
    with pytest.raises(ValueError):
        degree_complex_unmixed(dec, [-1] * n)


# -- depth-equal-radical -----------------------------------------------------------

@pytest.mark.parametrize(
    "name,expected",
    [
        ("fourcycle_decomposition_a.json", True),
        ("fourcycle_decomposition_a2.json", True),
        ("fourcycle_decomposition_b.json", False),
    ],
)
def test_depth_equal_radical(capsys, name, expected):
    code, out, _ = run(capsys, "depth-equal-radical", fixture(name), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is expected
    assert data["t"] == 2
    if not expected:
        assert "witness_degree" in data
        cx = Complex.from_json_dict(data["witness_subcomplex"])
        assert set(cx.facets) in ({(1, 2), (3, 4)}, {(2, 3), (1, 4)})
        assert data["witness_depth"] == depth_stanley_reisner(cx, RATIONALS) == 1


@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_unequal_verdict_reports_the_witness_depth_in_text_and_json(capsys, field):
    path = fixture("fourcycle_decomposition_b.json")
    _, text, _ = run(capsys, "depth-equal-radical", path, "--field", field)
    _, out, _ = run(capsys, "depth-equal-radical", path, "--field", field, "--format", "json")
    data = json.loads(out)
    facets = data["witness_subcomplex"]["facets"]
    assert text.splitlines()[-1] == (
        f"selected subcomplex {facets} has depth {data['witness_depth']} < {data['t']}"
    )


def test_depth_equal_radical_huge_exponent(tmp_path, capsys):
    # 10**17 and 20 both exceed every other exponent of x_3, so the verdicts
    # agree and the witnesses differ at most in that one coordinate
    def decomposition(e):
        return {
            "complex": json.loads(Path(fixture("fourcycle.json")).read_text()),
            "components": [
                {"facet": [3, 4], "irreducible": [2, 4]},
                {"facet": [2, 3], "irreducible": [1, 2]},
                {"facet": [1, 4], "irreducible": [6, e]},
                {"facet": [1, 2], "irreducible": [9, 5]},
            ],
        }

    verdicts = []
    for e in (10**17, 20):
        path = write_json(tmp_path, decomposition(e))
        code, out, err = run(capsys, "depth-equal-radical", path, "--format", "json")
        assert code == 0 and err == ""
        verdicts.append(json.loads(out))
    huge, small = verdicts
    assert huge["equal"] is small["equal"] is False
    assert huge["witness_subcomplex"] == small["witness_subcomplex"]
    stand_in = {10**17: 20}
    assert [stand_in.get(v, v) for v in huge["witness_degree"]] == small["witness_degree"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_depth_equal_radical_huge_power_of_one_variable(tmp_path, capsys, fmt):
    # P_F^m in one complement variable is the pure power x_j^m, however
    # large m is, and reads the same as its irreducible form
    outputs = []
    for form in ({"power": 10**30}, {"irreducible": [10**30]}):
        data = {
            "complex": {"n": 2, "facets": [[1], [2]]},
            "components": [{"facet": [1], **form}, {"facet": [2], "power": 1}],
        }
        path = write_json(tmp_path, data)
        outputs.append(run(capsys, "depth-equal-radical", path, "--format", fmt))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


def test_depth_equal_radical_refuses_two_components_for_one_facet(tmp_path, capsys):
    facets = [[1, 2], [2, 3], [3, 4], [1, 4]]
    components = [{"facet": [1, 2], "power": 2}] + [{"facet": f, "power": 5} for f in facets]
    path = write_json(tmp_path, {"complex": {"n": 4, "facets": facets}, "components": components})
    code, out, err = run(capsys, "depth-equal-radical", path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: facet [1, 2] has more than one component\n"


def test_decomposition_refuses_component_of_two_forms(tmp_path, capsys):
    components = [{"facet": [1], "power": 1, "irreducible": [2]}, {"facet": [2], "power": 1}]
    path = write_json(tmp_path, {"complex": {"n": 2, "facets": [[1], [2]]}, "components": components})
    code, out, err = run(capsys, "depth-equal-radical", path)
    assert code == 2 and out == ""
    assert err == (
        f"error: {path}: component for facet [1] needs exactly one of 'generators', "
        "'power' or 'irreducible', got 'power' and 'irreducible'\n"
    )


# -- cones ---------------------------------------------------------------------------

def test_cones_json_round_trip(capsys):
    # cone unions are only written: the JSON is the library union's own
    code, out, _ = run(capsys, "cones", fixture("fourcycle.json"), "--format", "json")
    assert code == 0
    cx = Complex.from_json_dict(json.loads(Path(fixture("fourcycle.json")).read_text()))
    assert json.loads(out) == generate_cone_union(cx).to_json_dict()


@pytest.mark.parametrize("name", ["6-cycle", "projective_plane_6"])
def test_cones_refuses_oversized_union(tmp_path, capsys, name):
    if name == "6-cycle":
        path = write_json(tmp_path, {"n": 6, "facets": [[i, i % 6 + 1] for i in range(1, 7)]})
    else:
        path = fixture("projective_plane_6.json")
    code, out, err = run(capsys, "cones", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "candidate conjunctions" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_depth_reads_an_exponent_past_the_prime_power_cap(tmp_path, capsys, fmt):
    # MAX_PRIME_POWER_GENERATORS caps only prime powers, not the exponents of an ideal
    path = write_json(tmp_path, {"n": 2, "generators": [[10**30, 0], [0, 1]]})
    code, out, err = run(capsys, "depth", path, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["depth"] == 0
    else:
        assert out.splitlines()[1] == "depth = 0 (radical depth 0)"


def test_prime_power_too_many_generators(tmp_path, capsys):
    path = write_json(
        tmp_path,
        {
            "complex": {"n": 5, "facets": [[1, 2]]},
            "components": [{"facet": [1, 2], "power": 100000}],
        },
    )
    code, out, err = run(capsys, "depth-equal-radical", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "5000150001 generators" in err


def test_polarize_is_not_a_command(capsys):
    # squarefree polarization answers none of the depth questions
    with pytest.raises(SystemExit) as exc:
        main(["polarize", fixture("sample_ideal.json")])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'polarize'" in capsys.readouterr().err


def test_rigid_cap_skips_audits(capsys):
    # `rigid` runs no audits, so it has no cap to set
    with pytest.raises(SystemExit) as exc:
        main(["rigid", fixture("two_facets_12345_12678.json"), "--cap", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


# -- audit -------------------------------------------------------------------------------

def test_audit_fixture_directory(capsys):
    code, out, _ = run(capsys, "audit", str(FIXTURES))
    assert code == 0
    assert "fixtures passed" in out
    assert "FAIL" not in out


def test_audit_catches_bad_fixture(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(
        json.dumps({"complex": {"n": 2, "facets": [[1], [2]]}, "components": [
            {"facet": [1], "generators": [[1, 0]]},
            {"facet": [2], "generators": [[0, 1]]},
        ]})
    )
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 1
    assert "FAIL" in out


@pytest.fixture
def fresh_homology_caches():
    """Clears homology's value caches before and after the test, so that
    answers computed from a broken kernel reach no other test."""
    caches = (homology.min_nonzero_betti, homology.depth_stanley_reisner, homology._selections)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def audit_one(tmp_path, capsys, name: str) -> tuple[int, str]:
    """The audit of a directory holding only the named fixture."""
    (tmp_path / name).write_text((FIXTURES / name).read_text())
    code, out, _ = run(capsys, "audit", str(tmp_path))
    return code, out


def test_audit_checks_production_ranks_against_dense_elimination(
    tmp_path, capsys, monkeypatch, fresh_homology_caches
):
    # the 4-cycle is no cone, so reduced_betti reads the production ranks
    monkeypatch.setattr(homology, "_rank", lambda cx, i, field: 0)
    code, out = audit_one(tmp_path, capsys, "fourcycle.json")
    assert code == 1
    assert "Betti number mismatch at index -1 over Q" in out
    assert "Betti number mismatch at index 1 over F_2" in out


@pytest.mark.parametrize("index", [0, 1])
def test_audit_catches_one_rank_off_by_a_constant(
    index, tmp_path, capsys, monkeypatch, fresh_homology_caches
):
    # ranks off by a constant cancel in the Euler characteristic; the
    # Betti numbers at the index and below it move
    rank = homology._rank
    monkeypatch.setattr(
        homology, "_rank", lambda cx, i, field: rank(cx, i, field) + (i == index))
    code, out = audit_one(tmp_path, capsys, "fourcycle.json")
    assert code == 1
    for field in ("Q", "F_2"):
        assert f"Betti number mismatch at index {index - 1} over {field}" in out
        assert f"Betti number mismatch at index {index} over {field}" in out


def test_audit_catches_disagreeing_rigidity_routes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_rigid_by_skeleton_cm", lambda cx, field: RigidVerdict(False, 0))
    code, out = audit_one(tmp_path, capsys, "two_facets_12345_12678.json")
    assert code == 1
    assert "rigidity routes disagree over Q" in out
    assert "rigidity routes disagree over F_2" in out


def test_audit_catches_a_walk_that_differs_from_the_built_selections(
    tmp_path, capsys, monkeypatch, fresh_homology_caches
):
    # a rigid complex has no selection below t, and its walk must store
    # none as True; this one stores the first selection as covered
    name = "two_facets_12345_12678.json"
    cx = Complex.from_json_dict(json.loads((FIXTURES / name).read_text()))

    def fresh():
        return homology._Selections(cx.n, cx.facet_masks, depth_stanley_reisner(cx, RATIONALS),
                                    RATIONALS)

    assert walked_below(fresh()) == []
    walk = homology._Selections.walk

    def covering_the_first(self, selections):
        self.answers[0b1] = True
        return walk(self, selections)

    monkeypatch.setattr(homology._Selections, "walk", covering_the_first)
    assert walked_below(fresh()) == [(0,)]
    code, out = audit_one(tmp_path, capsys, name)
    assert code == 1
    assert "low-depth selections disagree over Q" in out
    assert "low-depth selections disagree over F_2" in out
    assert "rigidity routes" not in out


def test_audit_catches_a_rigid_complex_with_a_low_depth_sample(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_depth_stability",
                        lambda cx, field, **options: [("irreducible", ((1,), (1,)), 2)])
    code, out = audit_one(tmp_path, capsys, "two_facets_12345_12678.json")
    assert code == 1
    assert "rigid complex has a depth-2 sample" in out


def test_audit_checks_decompositions_over_both_fields(tmp_path, capsys, monkeypatch):
    # a decision that errs only over F_2 is caught with no option set
    name = "fourcycle_decomposition_a.json"
    (tmp_path / name).write_text((FIXTURES / name).read_text())
    decide = cli.depth_equals_radical

    def flipped_over_f2(dec, field):
        verdict = decide(dec, field)
        if field.is_rationals:
            return verdict
        return DepthEqualsRadicalVerdict(
            not verdict.equal, verdict.t, verdict.witness_degree, verdict.witness_subcomplex
        )

    monkeypatch.setattr(cli, "depth_equals_radical", flipped_over_f2)
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 1
    assert f"{name}: FAIL\n" in out
    assert "depth-equality verdict contradicts the computed depth over F_2" in out
    assert "over Q" not in out


def problem_lines(out: str) -> list[str]:
    """The problem lines an audit printed, without their bullet."""
    return [line[4:] for line in out.splitlines() if line.startswith("  - ")]


def test_audit_catches_a_boundary_composition_that_is_not_zero(tmp_path, capsys, monkeypatch):
    # one flipped sign in d_1: the edge {1, 2} maps to v_1 + v_2, which d_0 sends to 2
    boundary = cli.boundary_matrix

    def flipped(cx, i):
        mat = [row[:] for row in boundary(cx, i)]
        if i == 1:
            mat[0][0] = -mat[0][0]
        return mat

    monkeypatch.setattr(cli, "boundary_matrix", flipped)
    code, out = audit_one(tmp_path, capsys, "cm_four_triangles.json")
    assert code == 1
    # the suite stops at the composition check: no Betti line follows
    assert problem_lines(out) == ["boundary composition nonzero at index 1"]


def test_audit_catches_a_cm_verdict_that_contradicts_the_depth(tmp_path, capsys, monkeypatch):
    # two triangles on one vertex have depth 1 < 3 over every field
    monkeypatch.setattr(cli, "is_cohen_macaulay", lambda cx, field: CMResult(True))
    code, out = audit_one(tmp_path, capsys, "two_triangles_vertex.json")
    assert code == 1
    assert problem_lines(out) == [
        "depth/CM inconsistency over Q", "depth/CM inconsistency over F_2"]


def test_audit_catches_a_depth_off_the_skeleton_route(tmp_path, capsys, monkeypatch):
    # two 4-simplices on an edge have depth 3 < dim + 1 = 5: one more is
    # still below dim + 1, which the CM check cannot see, but the 3-skeleton
    # is not Cohen-Macaulay
    cx = Complex(8, [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8)])
    depth = cli.depth_stanley_reisner
    monkeypatch.setattr(
        cli, "depth_stanley_reisner", lambda c, field: depth(c, field) + (c == cx))
    code, out = audit_one(tmp_path, capsys, "two_facets_12345_12678.json")
    assert code == 1
    assert problem_lines(out) == [
        "depth and skeleton depth disagree over Q", "depth and skeleton depth disagree over F_2"]


def test_audit_catches_disagreeing_depth_oracles(tmp_path, capsys, monkeypatch):
    # S/(x_1^2, x_1 x_2, x_3) has depth 0: m is an embedded prime
    koszul = cli.depth_via_koszul
    monkeypatch.setattr(cli, "depth_via_koszul", lambda ideal, field: koszul(ideal, field) + 1)
    code, out = audit_one(tmp_path, capsys, "sample_ideal.json")
    assert code == 1
    assert problem_lines(out) == [
        "depth oracles disagree over Q: 0 vs 1", "depth oracles disagree over F_2: 0 vs 1"]


def test_audit_catches_a_depth_above_the_radical_depth(tmp_path, capsys, monkeypatch):
    # S/(x_1^2, x_1 x_2, x_3) has depth 0 and its radical depth 1; a radical
    # depth read as -1 is below it
    monkeypatch.setattr(cli, "depth_stanley_reisner", lambda cx, field: -1)
    code, out = audit_one(tmp_path, capsys, "sample_ideal.json")
    assert code == 1
    assert problem_lines(out) == [
        "depth exceeds the radical's depth over Q", "depth exceeds the radical's depth over F_2"]


def test_audit_catches_a_radical_that_is_not_idempotent(tmp_path, capsys, monkeypatch):
    # doubling every exponent changes the ideal at each application
    monkeypatch.setattr(
        MonomialIdeal, "radical",
        lambda self: MonomialIdeal(self.n, [tuple(2 * e for e in g) for g in self.gens]))
    code, out = audit_one(tmp_path, capsys, "sample_ideal.json")
    assert code == 1
    assert problem_lines(out) == ["radical is not idempotent"]


def test_audit_catches_an_intersection_off_the_facet_primes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "stanley_reisner_ideal", lambda cx: MonomialIdeal(cx.n, [(1,) * cx.n]))
    code, out = audit_one(tmp_path, capsys, "fourcycle_decomposition_a.json")
    assert code == 1
    assert problem_lines(out) == ["radical of the intersection differs from the facet primes"]


def test_audit_catches_a_witness_off_its_degree_complex(tmp_path, capsys, monkeypatch):
    # the witness of decomposition b is the opposite edges {2,3}, {1,4} at
    # (0, 4, 9, 0); the other opposite pair has depth 1 < 2 too, but the
    # degree complex there is not it
    decide = cli.depth_equals_radical

    def swapped(dec, field):
        v = decide(dec, field)
        return DepthEqualsRadicalVerdict(
            v.equal, v.t, v.witness_degree, Complex(4, [(1, 2), (3, 4)]))

    monkeypatch.setattr(cli, "depth_equals_radical", swapped)
    code, out = audit_one(tmp_path, capsys, "fourcycle_decomposition_b.json")
    assert code == 1
    assert problem_lines(out) == [
        "witness subcomplex differs from its degree complex over Q",
        "witness subcomplex differs from its degree complex over F_2"]


def test_audit_catches_a_witness_that_is_not_below_t(tmp_path, capsys, monkeypatch):
    # the degree 0 selects the whole 4-cycle, of depth t = 2: the verdict
    # stays unequal and its witness its degree complex, but not below t
    decide = cli.depth_equals_radical

    def at_zero(dec, field):
        v = decide(dec, field)
        return DepthEqualsRadicalVerdict(v.equal, v.t, (0,) * dec.n, dec.delta)

    monkeypatch.setattr(cli, "depth_equals_radical", at_zero)
    code, out = audit_one(tmp_path, capsys, "fourcycle_decomposition_b.json")
    assert code == 1
    assert problem_lines(out) == [
        "witness subcomplex is not below the radical depth over Q",
        "witness subcomplex is not below the radical depth over F_2"]


def test_audit_rejects_empty_dir(tmp_path, capsys):
    code, _, err = run(capsys, "audit", str(tmp_path))
    assert code == 2


def test_audit_lists_json_names_in_order_and_refuses_an_unlisted_dir(
    tmp_path, capsys, monkeypatch
):
    # every name ending in .json, hidden or not, in code-point order
    cx = json.dumps({"n": 2, "facets": [[1], [2]]})
    for name in ("b.json", "B.json", ".h.json", "a.JSON", "c.json.txt"):
        (tmp_path / name).write_text(cx)
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
        ".h.json", "B.json", "b.json",
    ]

    # a failing fixture is named by its normalized path
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.json").write_text("[]")
    monkeypatch.chdir(tmp_path)
    for spelled in ("sub", "./sub/", "sub//"):
        code, out, _ = run(capsys, "audit", spelled)
        assert code == 1
        assert out.splitlines()[1] == "  - sub/bad.json: expected a JSON object, got []"

    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli.os, "listdir", unreadable)
    code, _, err = run(capsys, "audit", str(tmp_path))
    assert (code, err) == (2, f"error: {tmp_path}: no JSON fixtures found\n")


def test_audit_reports_unreadable_fixture(tmp_path, capsys):
    # an unreadable file is reported as a failure and the audit goes on
    (tmp_path / "a.json").write_text('{"n": 3, "facets": [[1, 2],')
    (tmp_path / "b.json").write_text(json.dumps({"n": 2, "facets": [[1], [2]]}))
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 1
    assert "a.json: FAIL" in out and "b.json: ok" in out
    assert "1/2 fixtures passed" in out


def test_audit_reports_a_directory_named_like_a_fixture(tmp_path, capsys):
    # like an unreadable file, it fails on its own and the audit goes on
    (tmp_path / "a.json").mkdir()
    (tmp_path / "b.json").write_text(json.dumps({"n": 2, "facets": [[1], [2]]}))
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 1
    assert f"a.json: FAIL\n  - {tmp_path / 'a.json'}: Is a directory\n" in out
    assert "b.json: ok" in out and "1/2 fixtures passed" in out


def test_audit_refuses_input_of_two_kinds(tmp_path, capsys):
    # like any malformed fixture, it fails on its own and the audit goes on
    (tmp_path / "two.json").write_text(json.dumps(TWO_KINDS))
    code, out, _ = run(capsys, "audit", str(tmp_path))
    assert code == 1
    assert "two.json: FAIL" in out and "mark different kinds of input" in out


# -- options per command ------------------------------------------------------------

OPTIONS = {
    "depth": {"--field", "--format"},
    "rigid": {"--field", "--format"},
    "depth-equal-radical": {"--field", "--format"},
    "cones": {"--field", "--format"},
    "audit": set(),
}

INPUTS = {
    "depth": fixture("fourcycle.json"),
    "rigid": fixture("fourcycle.json"),
    "depth-equal-radical": fixture("fourcycle_decomposition_a.json"),
    "cones": fixture("fourcycle.json"),
    "audit": str(FIXTURES),
}


def test_parser_options_per_command():
    parser = build_parser()
    (commands,) = [
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands) == set(OPTIONS)
    for name, sub in commands.items():
        flags = {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
        assert flags == OPTIONS[name], name
    assert sum(map(len, OPTIONS.values())) == 8


@pytest.mark.parametrize(
    "command,flag,value",
    [
        (command, flag, value)
        for command in OPTIONS
        for flag, value in (
            ("--field", "fp:2"), ("--format", "json"), ("--cap", "1"), ("--seed", "9"),
            ("--max-index", "1"),
        )
        if flag not in OPTIONS[command]
    ],
)
def test_removed_flag_exits_2(capsys, command, flag, value):
    argv = [command, INPUTS[command]]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# -- wrong-typed input through every command that reads JSON ------------------------------

@st.composite
def _wrong_typed_decomposition(draw):
    """A valid decomposition on n <= 5 with one value of the wrong type: in
    the complex (itself, n, the facet list, a facet or a vertex) or in the
    components (the list, one component, its facet or a vertex of it, or its
    generators, power or irreducible exponents: the whole value, a row or an
    entry)."""
    n = draw(st.integers(2, 5))
    size = draw(st.integers(1, n - 1))
    facet = st.sets(st.integers(1, n), min_size=size, max_size=size).map(sorted)
    facets = draw(st.lists(facet, min_size=1, max_size=3, unique_by=tuple))
    components = []
    for f in facets:
        outside = [j for j in range(1, n + 1) if j not in f]
        form = draw(st.sampled_from(["generators", "power", "irreducible"]))
        if form == "generators":
            # one pure power of each variable outside the facet
            value = [
                [draw(st.integers(1, 3)) if k == j else 0 for k in range(1, n + 1)]
                for j in outside
            ]
        elif form == "power":
            value = draw(st.integers(1, 3))
        else:
            value = draw(st.lists(st.integers(1, 3), min_size=len(outside), max_size=len(outside)))
        components.append({"facet": list(f), form: value})
    cx = {"n": n, "facets": facets}
    doc = {"complex": cx, "components": components}
    i = draw(st.integers(0, len(facets) - 1))
    comp = components[i]
    form = next(k for k in comp if k != "facet")
    value = comp[form]
    where = draw(st.sampled_from([
        "complex", "n", "facets", "facet", "vertex", "components", "component",
        "component facet", "component vertex", "form",
        *{"power": [], "irreducible": ["form row"]}.get(form, ["form row", "form entry"]),
    ]))
    if where == "complex":
        doc["complex"] = draw(_WRONG_ROW)
    elif where == "n":
        cx["n"] = draw(_WRONG_SCALAR | st.lists(st.integers(1, 6), max_size=2))
    elif where == "facets":
        cx["facets"] = draw(_WRONG_ROW)
    elif where == "facet":
        facets[i] = draw(_WRONG_ROW)
    elif where == "vertex":
        facets[i][draw(st.integers(0, size - 1))] = draw(_WRONG_SCALAR)
    elif where == "components":
        doc["components"] = draw(_WRONG_ROW)
    elif where == "component":
        components[i] = draw(_WRONG_ROW)
    elif where == "component facet":
        comp["facet"] = draw(_WRONG_ROW)
    elif where == "component vertex":
        comp["facet"][draw(st.integers(0, size - 1))] = draw(_WRONG_SCALAR)
    elif where == "form":
        comp[form] = draw(_WRONG_SCALAR if form == "power" else _WRONG_ROW)
    elif where == "form row":
        row = draw(st.integers(0, len(value) - 1))
        value[row] = draw(_WRONG_ROW if form == "generators" else _WRONG_SCALAR)
    else:
        value[draw(st.integers(0, len(value) - 1))][draw(st.integers(0, n - 1))] = draw(
            _WRONG_SCALAR
        )
    return doc


# the input kinds (by their key) that each JSON-reading command accepts
_COMMAND_INPUTS = {
    "depth": ("facets", "generators"),
    "rigid": ("facets",),
    "depth-equal-radical": ("components",),
    "cones": ("facets",),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wrong_types_fuzz_every_command(command, data):
    key = data.draw(st.sampled_from(_COMMAND_INPUTS[command]))
    if key == "components":
        doc = data.draw(_wrong_typed_decomposition())
    else:
        doc = data.draw(_wrong_typed_input().filter(lambda d: key in d))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code == 2, (command, doc)
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()


# -- arbitrary JSON through every command that reads JSON ----------------------------------

_KEYS = ["n", "facets", "generators", "complex", "components", "facet", "power", "irreducible"]
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _near_valid_document(draw, key):
    """A complex ("facets"), ideal ("generators") or decomposition
    ("components", in all three component forms) on n <= 5 with random
    facets and values.  Some documents keep every value in range, with
    facets of one size or an antichain of mixed sizes, so pure and non-pure
    complexes and decompositions; in the others n, vertices, exponents,
    powers and lengths may be off, zero or negative, and components may be
    missing or repeated."""
    valid = draw(st.integers(0, 2)) == 0
    low = 1 if valid else draw(st.integers(-1, 0))  # least vertex and exponent
    n = draw(st.integers(low, 5))
    width, more = max(n, 1), int(not valid)
    value = st.integers(low, 3)
    top = width - (key == "components")  # a component's facet misses a vertex
    if valid and width > 2 and draw(st.booleans()):  # the maximal faces drawn, of mixed sizes
        face = st.frozensets(st.integers(1, width), min_size=1, max_size=top)
        facets = draw(st.lists(face, min_size=2, max_size=4, unique=True).map(
            lambda drawn: [sorted(f) for f in drawn if not any(f < g for g in drawn)]
        ).filter(lambda facets: len({len(f) for f in facets}) > 1))
    elif valid or draw(st.booleans()):  # one facet size, as a pure complex has
        size = draw(st.integers(0, top))
        face = st.sets(st.integers(1, width), min_size=size, max_size=size).map(sorted)
        facets = draw(st.lists(face, min_size=int(valid), max_size=4, unique_by=tuple))
    else:
        facets = draw(st.lists(st.lists(st.integers(low, width + 1), max_size=width), max_size=4))
    if key == "facets":
        return {"n": n, "facets": facets}
    if key == "generators":
        row = st.lists(st.integers(low - 1, 3), min_size=width, max_size=width + more)
        return {"n": n, "generators": draw(st.lists(row, min_size=int(valid), max_size=4))}
    components = []
    for f in facets if valid or not facets else draw(st.lists(st.sampled_from(facets))):
        outside = [j for j in range(1, width + 1) if j not in f]
        form = draw(st.sampled_from(["generators", "power", "irreducible"]))
        if form == "generators":  # pure powers of the outside variables
            exps = [[draw(value) if k == j else 0 for k in range(1, width + 1)] for j in outside]
        elif form == "power":
            exps = draw(value)
        else:
            exps = draw(st.lists(value, min_size=len(outside), max_size=len(outside) + more))
        components.append({"facet": f, form: exps})
    return {"complex": {"n": n, "facets": facets}, "components": components}


@pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_arbitrary_json_fuzz_every_command(command, data):
    key = data.draw(st.sampled_from(_COMMAND_INPUTS[command]))
    doc = data.draw(_near_valid_document(key) | _ANY_JSON)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (command, doc)
    if code == 2:
        assert out.getvalue() == "", (command, doc)
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("key", ["facets", "components"])
def test_the_fuzz_draws_valid_non_pure_documents(key):
    # rigid, cones, depth and depth-equal-radical answer non-pure complexes
    # and decompositions, so the fuzz must send them some
    def valid_non_pure(doc):
        try:
            cx = (Complex.from_json_dict(doc) if key == "facets"
                  else Decomposition.from_json_dict(doc).delta)
        except ValueError:
            return False
        return len({len(f) for f in cx.facets}) > 1

    find(_near_valid_document(key), valid_non_pure,
         settings=settings(database=None, derandomize=True))


# -- production commands run no oracle -------------------------------------------------

ORACLES = {
    "criteria": ("depth_via_koszul", "degree_selecting_witness", "degree_complex_facet_form"),
    "rigid": ("is_rigid_by_subcomplex_depths", "is_rigid_by_skeleton_cm", "sample_depth_stability"),
}


def test_production_commands_run_no_oracle(monkeypatch, capsys):
    # every srdepth module that binds an oracle gets a stand-in that fails
    loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "srdepth"]
    for mod_name, names in ORACLES.items():
        for name in names:
            original = getattr(importlib.import_module(f"srdepth.{mod_name}"), name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran")

            for mod in loaded:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, refuse)
    run_every_production_command(capsys)


def test_production_commands_build_complexes_from_antichains(antichain_contract, capsys):
    run_every_production_command(capsys)
    assert antichain_contract


def run_every_production_command(capsys):
    """Every fixture through every verdict command; each ends in an answer
    or a clean refusal."""
    for path in sorted(FIXTURES.glob("*.json")):
        for command in ("depth", "rigid", "depth-equal-radical", "cones"):
            assert run(capsys, command, str(path))[0] in (0, 2), (command, path.name)


# -- python -m srdepth ---------------------------------------------------------------------

def child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def python_m_srdepth(*argv, timeout=60):
    """`python -m srdepth` in a child process, killed after timeout seconds."""
    return subprocess.run(
        [sys.executable, "-m", "srdepth", *argv],
        capture_output=True, text=True, env=child_env(), timeout=timeout,
    )


def test_python_m_srdepth():
    proc = python_m_srdepth("depth", fixture("fourcycle.json"))
    assert proc.returncode == 0, proc.stderr
    assert "depth = 2" in proc.stdout
    bad = python_m_srdepth("depth", "no_such_file.json")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")


def test_reader_closing_after_one_line_ends_quietly(tmp_path):
    # the 5-cycle's text union is about 170 kB, more than a pipe holds, so
    # the child is still writing when the reader goes
    path = write_json(tmp_path, {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
    with subprocess.Popen(
        [sys.executable, "-m", "srdepth", "cones", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (first, code, err) == (b"15 exponent symbols, 464 cones\n", 141, b"")


def test_reader_gone_before_the_last_flush_ends_quietly():
    # block-buffered output meets the closed pipe only when it is flushed
    # at the end of the command
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "srdepth", "audit", str(FIXTURES)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_large_characteristic_answers_or_is_refused_at_once(tmp_path):
    # Miller-Rabin decides a prime near 10**18 at once and refuses one past its bound
    path = write_json(tmp_path, {"n": 1, "facets": [[1]]})
    proc = python_m_srdepth("depth", path, "--field", "fp:1000000000000000003", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == [
        "complex on 1 vertices, dim 0, field F_1000000000000000003", "depth = 1",
    ]
    big = 318665857834031151167461
    proc = python_m_srdepth("depth", path, "--field", f"fp:{big}", timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: bad field 'fp:{big}': characteristic {big} is too large, the bound is {big}\n"
    )


def test_cli_imports_no_heavy_standard_modules():
    # every CLI call pays for its import, and no command needs these modules;
    # -S keeps the site module's own imports out of the set
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import srdepth.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
