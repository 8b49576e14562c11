"""Every function the library defines is reached.  The golden CLI sweep,
audits included, runs under a call tracer on a fresh import (so no cache
hides a call), and a function it never enters must be a dunder, a benchmark
tracer target, a `pkg.<module>.<name>` chain of the benchmark scripts, or a
method the benchmark's checks call on objects.  Anything else is code no
command runs: delete it or move it to the tests as an oracle."""
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

from bench.tracer import TARGETS
from tests.test_tracer_targets import BENCH_CHAINS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "srdepth"

#: methods that the checks of bench/run.py call on objects, not by a chain
BENCH_METHODS = ("cones.ConeUnion.evaluate", "ideals.Decomposition.max_exponents")

SWEEP = """
import json
import sys
from pathlib import Path
from tests.test_cli_golden import run_call, sweep_calls

codes = set()

def on_call(frame, event, arg):
    codes.add(frame.f_code)

sys.settrace(on_call)
for argv in sweep_calls():
    run_call(argv)
sys.settrace(None)
src = Path(sys.argv[1])
print(json.dumps([
    f"{Path(code.co_filename).stem}.{code.co_qualname}"
    for code in codes if Path(code.co_filename).parent == src
]))
"""


def defined_functions() -> set[str]:
    """`module.qualname` of every named function in the library's source."""
    names = set()
    for path in SRC.glob("*.py"):
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            for const in codes.pop().co_consts:
                if isinstance(const, types.CodeType):
                    codes.append(const)
                    if not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


def function_name(chain: str):
    """`module.qualname` of the function a `module.name...` chain resolves
    to, wherever it is defined, or None for a name that is no function."""
    module, *parts = chain.split(".")
    obj = importlib.import_module(f"srdepth.{module}")
    for part in parts:
        obj = getattr(obj, part)
    obj = inspect.unwrap(getattr(obj, "__func__", obj))
    if not isinstance(obj, types.FunctionType):
        return None
    return f"{Path(obj.__code__.co_filename).stem}.{obj.__code__.co_qualname}"


def test_every_library_function_is_reached():
    out = subprocess.run(
        [sys.executable, "-c", SWEEP, str(SRC)], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"}, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    entered = set(json.loads(out.stdout))
    chains = [f"{module}.{path}" for module, path, _, _ in TARGETS]
    allowed = {function_name(c) for c in (*chains, *BENCH_CHAINS, *BENCH_METHODS)}
    unreached = sorted(
        name for name in defined_functions() - entered - allowed
        if not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__"))
    )
    assert not unreached, f"library functions no command or benchmark reaches: {unreached}"
