"""Per-layer tracing from outside the program.

The tracer replaces public srdepth functions and methods with timing
wrappers, in the module that defines them and wherever they were imported
under the same name (``from .homology import depth_stanley_reisner`` in
criteria, rigid and cones, and the package namespace).  Every wrapped call
is counted and timed; a call's self time is its duration minus the time of
the wrapped calls made inside it.  Calls of the targets that are not hot are
also kept as spans (name, start, end, parent span) in memory, up to a cap;
a hot call's children hang on its nearest recorded ancestor.
"""
from __future__ import annotations

import sys
from time import perf_counter

#: (module, attribute path, trace name, hot).  Hot targets run so often that
#: they are counted and timed but kept out of the span list.
TARGETS = (
    ("ideals", "MonomialIdeal.contains", "ideals.contains", True),
    ("ideals", "radical_complex", "ideals.radical_complex", False),
    ("criteria", "degree_complex_facet_form", "criteria.degree_complex_facet_form", True),
    ("criteria", "degree_complex", "criteria.degree_complex", True),
    ("criteria", "degree_complex_unmixed", "criteria.degree_complex_unmixed", True),
    ("criteria", "degree_selecting_witness", "criteria.degree_selecting_witness", False),
    ("criteria", "depth_equals_radical", "criteria.depth_equals_radical", False),
    ("criteria", "depth_via_local_cohomology", "criteria.depth_via_local_cohomology", False),
    ("homology", "min_nonzero_betti", "homology.min_nonzero_betti", True),
    ("homology", "reduced_betti", "homology.reduced_betti", True),
    ("homology", "rank_fraction_free", "homology.rank_fraction_free", False),
    ("homology", "rank_mod_p", "homology.rank_mod_p", False),
    ("homology", "boundary_matrix", "homology.boundary_matrix", True),
    ("homology", "is_cohen_macaulay", "homology.is_cohen_macaulay", False),
    ("homology", "depth_stanley_reisner", "homology.depth_stanley_reisner", True),
    ("simplicial", "Complex.link", "simplicial.link", True),
    ("simplicial", "Complex.skeleton", "simplicial.skeleton", True),
    ("simplicial", "Complex.face_masks_of_dim", "simplicial.face_masks_of_dim", True),
    ("rigid", "is_rigid_by_intersections", "rigid.is_rigid_by_intersections", False),
    ("cones", "generate_cone_union", "cones.generate_cone_union", False),
)

#: rank kernels also count the entries of the matrices they are given
ENTRY_COUNTERS = {
    "homology.rank_fraction_free": "homology.rank_q_entries",
    "homology.rank_mod_p": "homology.rank_fp_entries",
}

SPAN_CAP = 200_000


class Tracer:
    """Counts, total and self time per trace name, plus a capped span list."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span id of self or nearest ancestor, child time]
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def call(self, name: str, record: bool, fn, *args, **kwargs):
        """Run fn as one traced call of `name`."""
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        slot = parent
        if record:
            if len(self.spans) < SPAN_CAP:
                slot = len(self.spans)
                self.spans.append(None)
            else:
                self.spans_dropped += 1
        frame = [slot, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            d = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + d
            self.self_time[name] = self.self_time.get(name, 0.0) + d - frame[1]
            if stack:
                stack[-1][1] += d
            if slot != parent:
                self.spans[slot] = (name, t0, t1, parent)

    def _wrap(self, name: str, fn, hot: bool):
        call = self.call
        record = not hot
        entries = ENTRY_COUNTERS.get(name)
        if entries is None:
            def wrapper(*args, **kwargs):
                return call(name, record, fn, *args, **kwargs)
        else:
            counters = self.counters

            def wrapper(rows, *args, **kwargs):
                counters[entries] = counters.get(entries, 0) + (
                    len(rows) * len(rows[0]) if rows else 0
                )
                return call(name, record, fn, rows, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every target of a freshly imported srdepth package."""
        prefix = package.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for mod_name, path, name, hot in TARGETS:
            mod = sys.modules[f"{prefix}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, original, hot))
            else:
                original = getattr(mod, path)
                wrapper = self._wrap(name, original, hot)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)
            self.originals[name] = original

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def spans_json(self) -> list:
        return [list(s) for s in self.spans if s is not None]
