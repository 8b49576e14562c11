"""Names looked up at run time must resolve.  The benchmark tracer
(`bench/tracer.py`) finds its targets by name, so a renamed or removed target
would break `bench/run.py --trace 1`; a deleted function must not linger in
the package's re-export list."""
import subprocess
import sys
from pathlib import Path

import srdepth

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import importlib
import srdepth
from bench.tracer import TARGETS, Tracer

missing = []
for mod_name, path, name, _ in TARGETS:
    obj = importlib.import_module(f"srdepth.{mod_name}")
    for part in path.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(name)
assert not missing, f"tracer targets gone: {missing}"

tracer = Tracer()
tracer.install(srdepth)
try:
    srdepth.criteria.depth_via_local_cohomology(
        srdepth.ideals.MonomialIdeal(3, [(2, 1, 0), (0, 1, 1)]))
finally:
    tracer.uninstall()
for name in ("criteria.depth_via_local_cohomology", "criteria.degree_complex",
             "ideals.radical_complex", "homology.min_nonzero_betti"):
    assert tracer.calls.get(name), (name, tracer.calls)
"""


def test_every_tracer_target_resolves_on_a_fresh_import():
    out = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"}, timeout=60,
    )
    assert out.returncode == 0, out.stderr


def test_every_reexported_name_resolves():
    missing = [name for name in srdepth.__all__ if not hasattr(srdepth, name)]
    assert not missing, f"__all__ names gone: {missing}"
