"""Golden CLI sweep: stdout and exit code of every verdict command on every
fixture, over Q and F_2, in text and JSON, plus `delta-a` and `audit` of the
fixture directory.

The expected output sits in tests/golden/cli_sweep.json.  A refactor that
keeps behaviour leaves every byte of it unchanged; a deliberate change of
output is recorded anew with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and the new file is reviewed as part of the change.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_sweep.json"

VERDICT_COMMANDS = ("depth", "rigid", "depth-equal-radical", "cones", "local-cohomology")
FIELDS = ("q", "fp:2")
FORMATS = ("text", "json")
#: degree vectors for delta-a; the fixtures' decompositions live in 4 variables
DEGREES = ("0,0,0,0", "1,0,2,0", "1,2,0,3", "2,4,1,3", "3,5,2,4")
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
        for fmt in FORMATS:
            for a in DEGREES:
                calls.append(["delta-a", name, "--a", a, "--format", fmt])
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


#: the sweep's calls of `polarize`, a command that squarefree polarization no
#: longer has: none of the depth questions is answered by it
POLARIZE_CALLS = [
    ["polarize", f"fixtures/{path.name}", "--format", fmt]
    for path in sorted(FIXTURES.glob("*.json"))
    for fmt in FORMATS
]


@pytest.mark.parametrize("argv", POLARIZE_CALLS, ids=" ".join)
def test_polarize_calls_are_refused(argv):
    from srdepth.cli import main

    out, err = io.StringIO(), io.StringIO()
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert "argument command: invalid choice: 'polarize'" in err.getvalue()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {" ".join(argv): run_call(argv) for argv in sweep_calls()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} calls in {GOLDEN.relative_to(ROOT)}")
