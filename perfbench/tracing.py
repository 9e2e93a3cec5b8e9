"""Spans around the public functions of each fracctrl layer.

`Tracer` wraps every plain function named in the `__all__` of the layer
modules and rebinds the wrapper wherever a fracctrl module looks the name up
(its own globals and every `from .x import name` copy), so calls between
layers are seen as well as the benchmark's own calls.  Spans (name, start,
end, parent) are kept in memory and written out at the end.

A layer metric is the self time (span duration minus the time covered by
its child spans) summed over a list of qualified names.  Spans use the
wall clock, as the untraced operation times do.  A name that the
program no longer exports is reported as missing and counts as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("mesh", "fracops", "fem", "mittag", "solver", "control", "harness")

# metric -> functions whose self times it sums
SELF_TIMES = {
    "solver.adjoint_s": ["solver.apply_adjoint"],
    "solver.forward_s": ["solver.apply_forward"],
    "solver.sources_s": ["solver.state_source", "solver.adjoint_source"],
    "control.loads_s": ["control.control_loads"],
    "control.project_s": ["control.project_admissible"],
    "control.cost_s": ["control.evaluate_cost"],
    "control.solve_self_s": ["control.fixed_point_solve"],
    "fracops.assemble_s": ["fracops.assemble_coupling", "fracops.source_moments"],
    "fem.pwl_diff_s": ["fem.pwl_l2_diff_sq"],
    "mesh.merge_s": ["mesh.merge_breakpoints"],
    "harness.error_s": ["harness.error_l2l2"],
    "harness.spectral_s": ["harness.forward_single_mode_error", "mittag.spectral_state"],
    "mittag.ml_s": ["mittag.ml"],
}

# metric -> functions whose calls it counts
CALL_COUNTS = {
    "fem.pwl_diff_calls": ["fem.pwl_l2_diff_sq"],
    "mesh.merge_calls": ["mesh.merge_breakpoints"],
    "mittag.ml_calls": ["mittag.ml"],
}


def _slabs(field) -> int:
    return int(field.values.shape[0])


def _kinks(U) -> int:
    """Breakpoints of a control beyond its element nodes."""
    return sum(len(xs) for xs, _ in U.pieces) - len(U.pieces) * (U.xgrid.n + 1)


class Tracer:
    """Install with `with Tracer() as tr:`; spans are recorded only while
    `tr.active` is true, so set-up and output checks stay outside."""

    def __init__(self):
        self.names: list[str] = []      # span name table
        self.spans: list[tuple] = []    # (name index, start, end, parent span)
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"fracctrl.{name}") for name in LAYERS}
        wanted = {q for qs in (*SELF_TIMES.values(), *CALL_COUNTS.values()) for q in qs}
        wanted |= {"solver.apply_forward", "solver.apply_adjoint", "control.fixed_point_solve"}
        wrapped = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        present = {w.__qualname__ for _, w in wrapped.values()}
        self.missing = sorted(wanted - present)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "fracctrl" or modname.startswith("fracctrl.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append((idx, 0.0, 0.0, parent))  # open: only the name is final
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)
            self._count(qualname, out, parent)
            return out

        wrapper.__qualname__ = qualname
        return wrapper

    def _count(self, qualname: str, out, parent: int) -> None:
        c = self.counts
        if qualname in ("solver.apply_forward", "solver.apply_adjoint"):
            c["solver.slab_solves"] = c.get("solver.slab_solves", 0) + _slabs(out)
        elif qualname == "control.fixed_point_solve":
            U, _, _, report = out
            c["control.iterations"] = c.get("control.iterations", 0) + report.iterations
            c["control.kinks"] = c.get("control.kinks", 0) + _kinks(U)
            if parent >= 0 and self.names[self.spans[parent][0]].startswith("harness."):
                c["harness.solves"] = c.get("harness.solves", 0) + 1

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per qualified name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (idx, t0, t1, _), c in zip(self.spans, child):
            name = self.names[idx]
            out[name] = out.get(name, 0.0) + (t1 - t0 - c)
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for idx, *_ in self.spans:
            name = self.names[idx]
            out[name] = out.get(name, 0) + 1
        return out

    def metrics(self) -> dict[str, float]:
        """Every layer metric over the recorded spans."""
        st, calls = self.self_times(), self.calls()
        out = {m: sum(st.get(q, 0.0) for q in qs) for m, qs in SELF_TIMES.items()}
        out.update({m: sum(calls.get(q, 0) for q in qs) for m, qs in CALL_COUNTS.items()})
        for m in ("solver.slab_solves", "control.iterations", "control.kinks", "harness.solves"):
            out[m] = self.counts.get(m, 0)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t_first = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing, "counts": self.counts}) + "\n")
            for i, (idx, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[idx], "start": t0 - t_first,
                                     "end": t1 - t_first, "parent": parent}) + "\n")
