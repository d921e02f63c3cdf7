"""Span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: `Tracer.install` replaces
public functions of the `steklov` modules with timing wrappers, at every
module attribute through which a caller looks the name up (`experiments` and
`cli` bind `steklov_spectrum`, `build_dtn` and `build_glued_mesh` by name at
import, so wrapping `steklov.dtn` alone would miss their calls).  Nothing
under `src/` changes; `Tracer.uninstall` puts the original objects back.

A layer's self time is its span's duration minus the time its child spans
cover.  The sum of all self times equals the time covered by root spans, so
`run_s - covered` is the time spent outside every traced layer.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# span name -> the (module, attribute) bindings it wraps
SPAN_SITES = {
    "meshes.build": [("meshes", "build_disk_mesh"), ("meshes", "build_spec_mesh"),
                     ("meshes", "build_mobius_mesh"), ("gluing", "build_spec_mesh"),
                     ("experiments", "build_disk_mesh"), ("experiments", "build_spec_mesh")],
    "meshes.assemble": [("meshes", "assemble_mesh"), ("gluing", "assemble_mesh")],
    "gluing.neck": [("gluing", "build_glued_mesh"), ("experiments", "build_glued_mesh")],
    "dtn.stiffness": [("dtn", "assemble_stiffness"), ("experiments", "assemble_stiffness")],
    "dtn.schur": [("dtn", "schur_dtn")],
    "dtn.factor": [("dtn", "splu")],
    "dtn.other": [("dtn", "build_dtn"), ("dtn", "steklov_spectrum"),
                  ("experiments", "build_dtn"), ("experiments", "steklov_spectrum"),
                  ("cli", "steklov_spectrum")],
    "closed_form": [("closed_form", "cylinder_spectrum"), ("closed_form", "mobius_spectrum"),
                    ("closed_form", "disk_spectrum")],
    "experiments.sweep": [("experiments", "glue_sweep"), ("experiments", "interior_glue_sweep"),
                          ("experiments", "touching_disks_sharpness")],
    "experiments.report": [("experiments", "write_report")],
    "cli": [("cli", "main")],
}

MIB = float(1 << 20)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0


class _TimedLU:
    """Proxy for a SuperLU factor whose `solve` is recorded as `dtn.rhs_solve`."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        sp = self._tracer._open("dtn.rhs_solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer._close(sp)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records nested spans and per-layer counts for one benchmark process."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[_Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> _Span:
        parent = self._stack[-1] if self._stack else None
        sp = _Span(name, time.perf_counter(), parent)
        self._stack.append(sp)
        return sp

    def _close(self, sp: _Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if sp.parent is not None:
            sp.parent.child_time += sp.end - sp.start
        self.spans.append(sp)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += (sp.end - sp.start) - sp.child_time
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start
        return out

    # -- wrapping ----------------------------------------------------------

    def install(self, steklov_modules: dict) -> None:
        """Wrap every site in SPAN_SITES plus `DtnOperator.spectrum`."""
        for name, sites in SPAN_SITES.items():
            for mod_name, attr in sites:
                module = steklov_modules[mod_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        op_cls = steklov_modules["dtn"].DtnOperator
        original = op_cls.spectrum
        self._saved.append((op_cls, "spectrum", original))
        setattr(op_cls, "spectrum", self._wrap("dtn.eigensolve", original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            tracer._count(name, args, result)
            if name == "dtn.factor":
                return _TimedLU(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result) -> None:
        if name == "meshes.assemble":
            self.counts["meshes.vertices"] += result.n_logical
        elif name == "dtn.stiffness":
            self.counts["dtn.stiffness_nnz"] += result.nnz
        elif name == "dtn.schur":
            n = args[0].shape[0]
            n_boundary = len(args[1])
            n_interior = n - n_boundary
            self.counts["dtn.boundary_dofs"] += n_boundary
            self.counts["dtn.interior_dofs"] += n_interior
            # computed, not measured: bytes of the dense A_ib right-hand side
            rhs_mb = n_interior * n_boundary * 8 / MIB
            self.maxima["dtn.dense_rhs_mb"] = max(self.maxima["dtn.dense_rhs_mb"], rhs_mb)
        elif name == "dtn.eigensolve":
            self.counts["dtn.solves"] += 1
        elif name == "experiments.report":
            self.counts["experiments.report_bytes"] += sum(
                os.path.getsize(path) for path in result.values())

