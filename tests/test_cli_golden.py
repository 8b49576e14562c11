"""Golden CLI sweep: stdout and exit code of every verdict command on every
fixture, over Q and F_2, in text and JSON, plus `audit` of the fixture
directory.  The same calls also check that text and JSON output report
identical verdicts.

The expected output sits in tests/golden/cli_sweep.json.  A refactor that
keeps behaviour leaves every byte of it unchanged; a deliberate change of
output is recorded anew with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and the new file is reviewed as part of the change.
"""
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_sweep.json"

VERDICT_COMMANDS = ("depth", "rigid", "depth-equal-radical", "cones")
FIELDS = ("q", "fp:2")
FORMATS = ("text", "json")
AUDITS = (["audit", "fixtures/"],)


def sweep_calls() -> list[list[str]]:
    """Every argv of the sweep, fixture paths relative to the repository."""
    calls = []
    for path in sorted(FIXTURES.glob("*.json")):
        name = f"fixtures/{path.name}"
        for command in VERDICT_COMMANDS:
            for field in FIELDS:
                for fmt in FORMATS:
                    calls.append([command, name, "--field", field, "--format", fmt])
    return calls + [list(argv) for argv in AUDITS]


def run_call(argv: list[str]) -> dict:
    """Exit code and stdout of one CLI call, run in process from the repository root."""
    from srdepth.cli import main

    out = io.StringIO()
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", sweep_calls(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    key = " ".join(argv)
    expected = _expected()
    assert key in expected, f"no recorded output for {key!r}"
    assert run_call(argv) == expected[key]


def test_golden_covers_exactly_the_sweep():
    assert sorted(_expected()) == sorted(" ".join(a) for a in sweep_calls())


def test_the_sweep_runs_every_command():
    # a command left out of VERDICT_COMMANDS would escape the golden file
    from srdepth.cli import _COMMANDS

    assert {name for name, *_ in _COMMANDS} == {*VERDICT_COMMANDS, "audit"}


#: the text lines of each verdict command but `cones`; a named group holds
#: the JSON field of its name, printed as a number, a list, yes/no or a word
TEXT_LINES = {
    "depth": (
        r"(?P<kind>complex) on \d+ vertices, dim (?P<dim>\d+), field (?P<field>\S+)",
        r"monomial (?P<kind>ideal) in \d+ variables, field (?P<field>\S+)",
        r"depth = (?P<depth>\d+)( \(radical depth (?P<radical_depth>\d+)\))?",
        r"Cohen-Macaulay: (?P<cohen_macaulay>yes|no)",
        r"violating link at face (?P<violating_face>\[.*\]) "
        r"in homology degree (?P<violating_index>-?\d+)",
    ),
    "rigid": (
        r"depth = (?P<t>\d+) over (?P<field>\S+)",
        r"rigid: (?P<rigid>yes|no)",
        r"facets (?P<violating_facets>\[.*\]) intersect in (?P<intersection_size>\d+) "
        r"< \d+ vertices",
    ),
    "depth-equal-radical": (
        r"radical depth t = (?P<t>\d+) over (?P<field>\S+)",
        r"depth\(S/I\) = depth\(S/sqrt\(I\)\): (?P<equal>yes|no)",
        r"witness degree a = (?P<witness_degree>\[.*\])",
        r"selected subcomplex (?P<witness_subcomplex>\[.*\]) "
        r"has depth (?P<witness_depth>\d+) < \d+",
    ),
}


def _value(word: str):
    if word in ("yes", "no"):
        return word == "yes"
    if re.fullmatch(r"-?\d+", word):
        return int(word)
    return json.loads(word) if word.startswith("[") else word


def text_verdict(command: str, lines: list[str]) -> dict:
    """The JSON fields that the text lines of command state; every line must
    match exactly one pattern and state each field once."""
    verdict = {}
    for line in lines:
        matches = [m for m in (re.fullmatch(p, line) for p in TEXT_LINES[command]) if m]
        assert len(matches) == 1, f"{line!r} matches {len(matches)} patterns"
        for key, word in matches[0].groupdict().items():
            if word is not None:
                assert key not in verdict, f"{key} stated twice"
                verdict[key] = _value(word)
    return verdict


def cones_text(union: dict) -> list[str]:
    """The text lines of `cones`, rendered from its JSON output alone."""
    names = [
        f"a[{'.'.join(map(str, union['facets'][s['facet'] - 1]))};x{s['var']}]"
        for s in union["symbols"]
    ]
    lines = [f"{len(names)} exponent symbols, {len(union['disjuncts'])} cones"]
    if any(not d for d in union["disjuncts"]):
        lines.append("trivially true: every exponent choice gives depth equality")
    for k, d in enumerate(union["disjuncts"], start=1):
        atoms = " and ".join(f"{names[c['left']]} {c['rel']} {names[c['right']]}" for c in d)
        lines.append(f"cone {k}: {atoms or '(no constraints)'}")
    return lines


#: the sweep's calls of the verdict commands, each to run in both formats
PARITY_CALLS = [argv[:4] for argv in sweep_calls() if argv[-1] == "text"]


@pytest.mark.parametrize("argv", PARITY_CALLS, ids=" ".join)
def test_text_and_json_report_identical_verdicts(argv):
    text = run_call([*argv, "--format", "text"])
    data = run_call([*argv, "--format", "json"])
    assert text["exit"] == data["exit"]
    if data["exit"]:
        assert text["stdout"] == data["stdout"] == ""
        return
    report = json.loads(data["stdout"])
    lines = text["stdout"].splitlines()
    if argv[0] == "cones":
        assert lines == cones_text(report)
        return
    del report["command"]
    if "witness_subcomplex" in report:
        report["witness_subcomplex"] = report["witness_subcomplex"]["facets"]
    assert text_verdict(argv[0], lines) == report


#: the sweep's calls of the commands the CLI no longer has: `polarize`
#: (squarefree polarization), `delta-a` (one degree complex) and
#: `local-cohomology` (the table of graded pieces); none of the depth
#: questions is answered by them
REMOVED_CALLS = [
    argv
    for path in sorted(FIXTURES.glob("*.json"))
    for fmt in FORMATS
    for argv in (
        ["polarize", f"fixtures/{path.name}", "--format", fmt],
        ["delta-a", f"fixtures/{path.name}", "--a", "0,0,0,0", "--format", fmt],
        *(["local-cohomology", f"fixtures/{path.name}", "--field", field, "--format", fmt]
          for field in FIELDS),
    )
]


@pytest.mark.parametrize("argv", REMOVED_CALLS, ids=" ".join)
def test_removed_commands_are_refused(argv):
    from srdepth.cli import main

    out, err = io.StringIO(), io.StringIO()
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert f"argument command: invalid choice: {argv[0]!r}" in err.getvalue()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {" ".join(argv): run_call(argv) for argv in sweep_calls()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} calls in {GOLDEN.relative_to(ROOT)}")
