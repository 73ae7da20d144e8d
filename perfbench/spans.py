"""Tracing from outside the library: spans around the names it resolves at
call time, and the per-layer metrics computed from them.

`install(tracer)` replaces module attributes and class methods of
`specbound` with timing wrappers and returns an `Installation` whose
`remove()` puts every original object back.  Nothing in the library is
edited.  Spans stay in memory and are summarised, and written out, when
the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import time

import specbound.cli as cli
import specbound.convergence as convergence
import specbound.geometry as geometry
import specbound.uncertainty as uncertainty

EIGENSOLVE = "eigensolve.smallest_eigenpairs"
MATVEC = "eigensolve.matvec"


@dataclasses.dataclass
class Span:
    """One call: `parent` indexes the enclosing span in `Tracer.spans`."""

    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    info: dict


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, info_of=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; `info_of(result)` may
        attach counts to it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.pass_id, {})
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if info_of is not None:
            span.info = info_of(result, args, kwargs)
        return result


class MatrixProxy:
    """Stands in for `OperatorMatrix.matrix`: times and counts `@`, forwards
    every other attribute, and returns the wrapped matrix's own results."""

    def __init__(self, matrix, tracer: Tracer):
        self._matrix = matrix
        self._tracer = tracer
        n = matrix.shape[0]
        # computed, not measured: CSR values and column indices (8 + 4 bytes
        # per stored entry), row pointers, one read of x and one write of y
        self._info = {"bytes": 12 * matrix.nnz + 4 * (n + 1) + 16 * n}

    def _product(self, left, right):
        return left @ right

    def __matmul__(self, other):
        return self._tracer.call(
            MATVEC, self._product, self._matrix, other, info_of=self._count
        )

    def __rmatmul__(self, other):
        return self._tracer.call(
            MATVEC, self._product, other, self._matrix, info_of=self._count
        )

    def _count(self, result, args, kwargs):
        return self._info

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def _grid_info(grid, args, kwargs):
    return {"lattice": math.prod(grid.shape), "interior": grid.point_count}


def _points_info(result, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": len(points)}


def _nnz_info(op, args, kwargs):
    return {"nnz": int(op.matrix.nnz)}


def _study_info(study, args, kwargs):
    return {"observed_order": study.observed_order}


class Installation:
    """The wrappers in place; `remove()` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.originals = []  # (owner, attribute, original object)
        self.last_proxy = None  # kept for the proxy's forwarding self-check

    def patch(self, owner, attr, name, info_of=None, wrap_result=None):
        original = vars(owner)[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, info_of=info_of, **kwargs)
            return wrap_result(result) if wrap_result else result

        setattr(owner, attr, wrapper)
        self.originals.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)

    def leftovers(self) -> list:
        """Attributes that do not hold their original object (should be
        empty after `remove()`)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.originals
            if vars(owner)[attr] is not original
        ]


def _domain_classes():
    pending, found = [geometry.Domain], []
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> Installation:
    """Wrap the names the library resolves at call time."""
    inst = Installation(tracer)
    solve_signature = inspect.signature(convergence.smallest_eigenpairs)

    def solve_info(spectrum, args, kwargs):
        bound = solve_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        lam = float(spectrum.eigenvalues[0])
        return {"residual_ratio": float(spectrum.residuals[0]) / (bound.arguments["tol"] * lam)}

    def proxied(op):
        inst.last_proxy = MatrixProxy(op.matrix, tracer)
        return dataclasses.replace(op, matrix=inst.last_proxy)

    inst.patch(cli, "refine", "convergence.refine", info_of=_study_info)
    inst.patch(cli, "certify_bounds", "uncertainty.certify_bounds")
    inst.patch(cli, "_write_artifact", "format.write_artifact")
    inst.patch(convergence, "build_grid", "discretize.build_grid", info_of=_grid_info)
    inst.patch(convergence, "assemble", "discretize.assemble", info_of=_nnz_info,
               wrap_result=proxied)
    inst.patch(convergence, "smallest_eigenpairs", EIGENSOLVE, info_of=solve_info)
    # reached only by a re-solve inside certify_bounds
    inst.patch(uncertainty, "smallest_eigenpairs", EIGENSOLVE, info_of=solve_info)
    inst.patch(uncertainty, "first_zero", "specfun.first_zero")
    inst.patch(geometry.Domain, "membership", "geometry.membership", info_of=_points_info)
    for cls in _domain_classes():
        method = vars(cls).get("metrics")
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            inst.patch(cls, "metrics", "geometry.metrics")
    inst.patch(uncertainty.UncertaintyReport, "to_json", "format.to_json")
    inst.patch(uncertainty.UncertaintyReport, "to_csv", "format.to_csv")
    return inst


# ---------------------------------------------------------- summarising


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over `spans` (one traced pass).

    A layer's time is the summed duration of its outermost spans; self time
    is duration minus the time covered by direct children, which nest
    strictly in this single-threaded process.  A call that raised has no
    counts and adds 0 to them.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def outermost(name):
        out = []
        for i, s in enumerate(spans):
            if s.name != name:
                continue
            p = s.parent
            while p is not None and spans[p].name != name:
                p = spans[p].parent
            if p is None:
                out.append(i)
        return out

    def total(name):
        return sum(dur(i) for i in outermost(name))

    solves = outermost(EIGENSOLVE)
    matvecs = [c for i in solves for c in children[i] if spans[c].name == MATVEC]
    refines = outermost("convergence.refine")
    finest = []
    for r in refines:
        level_solves = [c for c in children[r] if spans[c].name == EIGENSOLVE]
        if level_solves:
            finest.append(level_solves[-1])
    finest_matvecs = [c for i in finest for c in children[i] if spans[c].name == MATVEC]
    grids = outermost("discretize.build_grid")
    lattice = sum(spans[i].info.get("lattice", 0) for i in grids)
    interior = sum(spans[i].info.get("interior", 0) for i in grids)
    assembles = outermost("discretize.assemble")
    nnz = sum(spans[i].info.get("nnz", 0) for i in assembles)
    solve_s = total(EIGENSOLVE)
    matvec_s = sum(dur(i) for i in matvecs)
    zeros = outermost("specfun.first_zero")
    certifies = outermost("uncertainty.certify_bounds")
    mains = outermost("cli.main")
    return {
        "eigensolve.solve_s": (solve_s, "s"),
        "eigensolve.solve_s.finest": (sum(dur(i) for i in finest), "s"),
        "eigensolve.matvecs": (len(matvecs), "count"),
        "eigensolve.matvecs.finest": (len(finest_matvecs), "count"),
        "eigensolve.matvec_s": (matvec_s, "s"),
        "eigensolve.self_s": (solve_s - matvec_s, "s"),
        "eigensolve.bytes_moved_computed": (
            sum(spans[i].info.get("bytes", 0) for i in matvecs), "B"),
        "eigensolve.calls": (len(solves), "count"),
        "eigensolve.calls_per_domain": (len(solves) / max(len(refines), 1), "count"),
        "eigensolve.residual_ratio": (
            max((spans[i].info.get("residual_ratio", 0.0) for i in solves), default=0.0), "ratio"),
        "geometry.metrics_s": (total("geometry.metrics"), "s"),
        "geometry.membership_s": (total("geometry.membership"), "s"),
        "geometry.membership_points": (
            sum(spans[i].info.get("points", 0) for i in outermost("geometry.membership")), "count"),
        "discretize.build_grid_s": (total("discretize.build_grid"), "s"),
        "discretize.lattice_points": (lattice, "count"),
        "discretize.interior_points": (interior, "count"),
        "discretize.interior_share": (interior / lattice if lattice else 0.0, "ratio"),
        "discretize.assemble_s": (total("discretize.assemble"), "s"),
        "discretize.nnz": (nnz, "count"),
        "convergence.refine_s": (total("convergence.refine"), "s"),
        "convergence.self_s": (sum(self_time(i) for i in refines), "s"),
        "convergence.observed_order": (
            min((spans[i].info["observed_order"] for i in refines if spans[i].info), default=0.0), "ratio"),
        "uncertainty.certify_bounds_s": (total("uncertainty.certify_bounds"), "s"),
        "uncertainty.self_s": (sum(self_time(i) for i in certifies), "s"),
        "specfun.first_zero_calls": (len(zeros), "count"),
        "specfun.first_zero_s": (sum(dur(i) for i in zeros), "s"),
        "cli.self_s": (sum(self_time(i) for i in mains), "s"),
        "format.serialize_s": (
            total("format.to_json") + total("format.to_csv") + total("format.write_artifact"), "s"),
        "trace.spans": (len(spans), "count"),
    }
