"""In-memory span tracing for the benchmark, from outside the package.

A span has a name, a start, an end, a parent and the id of the operation it
belongs to.  Spans are kept in memory and written out once, when the
benchmark ends.  Layer spans come from wrappers installed by replacing module
attributes: every binding of a wrapped function in the precessflow package
(including names copied in by ``from .x import y``) is replaced, so calls the
package makes internally are seen as well as calls from the benchmark.
Nothing under ``src/`` is edited.

Spans are recorded only while an operation is open, so work the benchmark
does between operations (its correctness gates) never counts as layer time.
"""

from __future__ import annotations

import functools
import gzip
from array import array
import json
import sys
import time

# Spans the benchmark opens itself; every other span is a layer span.
BENCH_SPANS = ("op", "run", "setup", "spectral")

# The Gram contraction in basis.py, traced through a stand-in for basis.np.
GRAM_SUBSCRIPTS = "icm,mn,jcn->ij"


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per field, so spans create no objects for the garbage
        # collector to walk; parent -1 marks a root span
        self.op = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end_time = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.op.append(-1 if self.op_id is None else self.op_id)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_time.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.end_time[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    # -- patches ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap owner.attr and every precessflow module binding of the same object."""
        orig = getattr(owner, attr)
        traced = self.wrap(name, orig)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "precessflow" or mod_name.startswith("precessflow.")):
                continue
            targets += [(mod, a) for a, v in vars(mod).items()
                        if v is orig and (mod, a) != (owner, attr)]
        for obj, a in targets:
            setattr(obj, a, traced)
            self._patches.append((obj, a, orig))

    def patch_gram_contraction(self, basis_module) -> None:
        """Trace the Gram einsums of basis.py by giving it a numpy stand-in."""
        real_np = basis_module.np
        real_einsum = real_np.einsum
        tracer = self

        def einsum(subscripts, *operands, **kwargs):
            if subscripts != GRAM_SUBSCRIPTS or tracer.op_id is None:
                return real_einsum(subscripts, *operands, **kwargs)
            idx = tracer.begin("basis.gram_contraction")
            try:
                return real_einsum(subscripts, *operands, **kwargs)
            finally:
                tracer.end(idx)

        basis_module.np = _ModuleView(real_np, einsum=einsum)
        self._patches.append((basis_module, "np", real_np))

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: a name table and one row per span."""
        doc = {"names": self.names, "op": self.op.tolist(), "name": self.name.tolist(),
               "start_s": self.start.tolist(), "end_s": self.end_time.tolist(),
               "parent": self.parent.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self.idx

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


class _ModuleView:
    """A module with some attributes overridden; everything else is forwarded."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module."""
    import scipy.linalg

    from precessflow import (basis, diagnostics, geometry, monomials, operators,
                             polynomials, spectral, timestepper)

    for owner, attr, name in (
        (basis, "build_basis", "basis.build_basis"),
        (basis, "project", "basis.project"),
        (monomials, "gram", "monomials.gram"),
        (monomials, "triple_product_table", "monomials.triple_product_table"),
        (polynomials.VectorField, "divergence", "polynomials.divergence"),
        (polynomials.VectorField, "tangency_remainder", "polynomials.tangency_remainder"),
        (geometry, "surface_rule", "geometry.surface_rule"),
        (operators, "assemble", "operators.assemble"),
        (operators, "advection_term", "operators.advection_term"),
        (timestepper, "step", "timestepper.step"),
        (scipy.linalg, "lu_solve", "scipy.linalg.lu_solve"),
        (scipy.linalg, "lu_factor", "scipy.linalg.lu_factor"),
        (diagnostics.DiagnosticsContext, "__init__", "diagnostics.context"),
        (diagnostics, "record", "diagnostics.record"),
        (diagnostics, "constraint_projection", "diagnostics.constraint_projection"),
        (diagnostics.TimeSeries, "to_csv", "diagnostics.to_csv"),
        (spectral, "viscous_kernel", "spectral.viscous_kernel"),
        (spectral, "coercivity_constant", "spectral.coercivity_constant"),
    ):
        tracer.patch(owner, attr, name)
    tracer.patch_gram_contraction(basis)


def install_phase_probe(tracer: Tracer) -> None:
    """The only probe of an untraced run: record calls mark set-up and integration."""
    from precessflow import diagnostics

    tracer.patch(diagnostics, "record", "diagnostics.record")


# ---------------------------------------------------------------------------
# per-operation summaries

class OpView:
    """The spans of one operation: totals and counts by name, and its phases."""

    def __init__(self, tracer: Tracer, first: int):
        last = len(tracer)
        names = [tracer.names[n] for n in tracer.name[first:last]]
        starts = tracer.start[first:last]
        ends = tracer.end_time[first:last]
        parents = [names[p - first] if p >= first else None for p in tracer.parent[first:last]]
        self.wall = ends[0] - starts[0]
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.child_totals: dict[tuple[str, str | None], float] = {}
        covered = 0.0
        for name, parent, t0, t1 in zip(names, parents, starts, ends):
            dur = t1 - t0
            self.totals[name] = self.totals.get(name, 0.0) + dur
            self.counts[name] = self.counts.get(name, 0) + 1
            key = (name, parent)
            self.child_totals[key] = self.child_totals.get(key, 0.0) + dur
            if name not in BENCH_SPANS and parent in BENCH_SPANS:
                covered += dur
        # share of the wall time covered by outermost layer spans
        self.top_level_share = covered / self.wall
        self.setup, self.integration = self._phases(names, starts, ends)

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def child_total(self, name: str, parent: str) -> float:
        return self.child_totals.get((name, parent), 0.0)

    def _phases(self, names, starts, ends) -> tuple[float, float]:
        """(set-up, integration) seconds.

        A "run" span starts set-up, which ends where the run's first
        diagnostics record begins; integration lasts until the end of its last
        record.  Operations without runs time their "setup" and "spectral"
        spans instead.
        """
        if "run" not in self.counts:
            return self.total("setup"), self.total("spectral")
        setup = integration = 0.0
        records = [i for i, n in enumerate(names) if n == "diagnostics.record"]
        for r in (i for i, n in enumerate(names) if n == "run"):
            inside = [i for i in records if starts[r] <= starts[i] <= ends[r]]
            if not inside:      # the run failed before its first record
                continue
            setup += starts[inside[0]] - starts[r]
            integration += ends[inside[-1]] - starts[inside[0]]
        return setup, integration
