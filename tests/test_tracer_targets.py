"""Names looked up at run time must resolve.  The benchmark tracer
(`bench/tracer.py`) finds its targets by name, and `bench/run.py` and
`bench/reference.py` reach the library through `pkg.<module>.<name>`
attribute chains, so a renamed or removed name would break the benchmark
only when it runs; a deleted function must not linger in the package's
re-export list, and a new public name is a deliberate choice."""
import re
import subprocess
import sys
from pathlib import Path

import srdepth

ROOT = Path(__file__).resolve().parent.parent

#: every `pkg.<module>.<name>...` chain in the benchmark scripts
BENCH_CHAINS = sorted({
    m.group(1)
    for script in ("run.py", "reference.py")
    for m in re.finditer(r"\bpkg\.(\w+(?:\.\w+)+)", (ROOT / "bench" / script).read_text())
})

CHECK = """
import importlib
import sys
import srdepth
from bench.tracer import TARGETS, Tracer

gone = []
for chain in sys.argv[1:]:
    obj = srdepth
    for part in chain.split("."):
        obj = getattr(obj, part, gone)
    if obj is gone:
        gone.append(chain)
assert not gone, f"benchmark chains gone: {gone}"

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
    ideal = srdepth.ideals.MonomialIdeal(3, [(2, 1, 0), (0, 1, 1)])
    srdepth.criteria.depth_via_local_cohomology(ideal)
    srdepth.homology.reduced_betti(srdepth.criteria.degree_complex(ideal, (1, 0, 0)), 0)
    srdepth.ideals.radical_complex(ideal)
finally:
    tracer.uninstall()
for name in ("criteria.depth_via_local_cohomology", "criteria.degree_complex",
             "homology.depth_stanley_reisner", "homology.reduced_betti",
             "ideals.radical_complex"):
    assert tracer.calls.get(name), (name, tracer.calls)
"""


def test_every_tracer_target_resolves_on_a_fresh_import():
    assert "criteria.depth_via_koszul" in BENCH_CHAINS
    assert "ideals.Decomposition.from_json_dict" in BENCH_CHAINS
    out = subprocess.run(
        [sys.executable, "-c", CHECK, *BENCH_CHAINS], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"}, timeout=60,
    )
    assert out.returncode == 0, out.stderr


def test_every_reexported_name_resolves():
    missing = [name for name in srdepth.__all__ if not hasattr(srdepth, name)]
    assert not missing, f"__all__ names gone: {missing}"


def test_library_surface_is_pinned():
    assert sorted(srdepth.__all__) == sorted([
        "Complex", "VOID", "IRRELEVANT", "ORDINARY",
        "FieldSpec", "RATIONALS", "prime_field", "depth_stanley_reisner",
        "MonomialIdeal", "Decomposition", "irreducible_ideal",
        "prime_power_ideal", "stanley_reisner_ideal", "radical_complex",
        "depth_via_local_cohomology", "DepthEqualsRadicalVerdict",
        "depth_equals_radical",
        "RigidVerdict", "is_rigid_by_intersections", "ConeUnion", "generate_cone_union",
    ])
