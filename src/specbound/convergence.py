"""Grid-refinement studies: observed convergence order and extrapolation.

Spacings are halved between levels.  The observed order p is fitted by
least squares on log|lambda1(h) - lambda1(h/2)| against log h; each
consecutive level pair then yields a Richardson extrapolant with that
order, and the error estimate is the gap between the last two extrapolants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import (
    Grid,
    OperatorMatrix,
    _lattice_shape,
    _prolong,
    assemble,
    build_grid,
)
from .eigensolve import DEFAULT_TOL, Spectrum, _v_cycle, smallest_eigenpairs
from .geometry import Domain
from ._format import csv_text

__all__ = ["ConvergenceStudy", "refine"]

# lattice points per level, as build_grid allocates them; it also keeps the
# stencil's (2*dim+1)*N entries below 2**31, so assemble's indices are int32
_POINT_CAP = 20_000_000

_ORDER_RANGE = (0.05, 10.0)  # clamp for fits degraded by pre-asymptotic noise


@dataclass(frozen=True)
class ConvergenceStudy:
    """lambda1 against spacing, with fitted order and extrapolated limit."""

    spacings: np.ndarray
    lambda1_values: np.ndarray
    observed_order: float
    extrapolated: float
    error_estimate: float
    extrapolants: np.ndarray
    monotone: bool
    finest_grid: Grid = field(repr=False)
    finest_matrix: OperatorMatrix = field(repr=False)
    finest_spectrum: Spectrum = field(repr=False)

    def to_csv(self) -> str:
        """Rows (h, lambda1, diff, extrapolant); diff and extrapolant are
        empty on the first row."""
        lams = self.lambda1_values
        rows = [{"h": h, "lambda1": lam} for h, lam in zip(self.spacings, lams)]
        for i in range(1, len(rows)):
            rows[i].update(diff=lams[i] - lams[i - 1], extrapolant=self.extrapolants[i - 1])
        return csv_text(("h", "lambda1", "diff", "extrapolant"), rows)


def refine(
    domain: Domain,
    h_start: float,
    levels: int,
    tol: float = DEFAULT_TOL,
) -> ConvergenceStudy:
    """Compute lambda1 at h_start, h_start/2, ... and extrapolate to h -> 0.

    Level 0 starts the eigensolve from the solver's default, the constant
    vector; each finer level starts from the coarser level's ground state,
    interpolated onto its lattice (nested iteration).  Every level is
    preconditioned by one V-cycle over the levels built so far, which on
    level 0 is conjugate gradients on its own operator.

    Raises GridError/SolverConvergenceError if a level cannot be built or
    solved, and ValueError when a level's bounding-box lattice, which
    build_grid allocates in full, would exceed 20,000,000 points.  Every
    level is checked before the first one is built, and the check stops at
    the first oversized level.  A non-monotone lambda1 sequence is reported
    via the study's `monotone` flag, not raised.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 refinement levels, got {levels}")
    spacings = []
    for i in range(levels):
        h = h_start * 0.5**i
        lattice = math.prod(_lattice_shape(domain, h))
        if lattice > _POINT_CAP:
            raise ValueError(
                f"level h={h} has {lattice} lattice points, above the cap {_POINT_CAP}"
            )
        spacings.append(h)
    lams, grids, matrices = [], [], []
    v0 = None
    for h in spacings:
        grid = build_grid(domain, h)
        matrix = assemble(grid)
        grids.append(grid)
        matrices.append(matrix)
        # the level's memory peak is the eigensolve (cube at h = 1/64, traced:
        # 52.5 MB, against 39.7 MB during assembly); the start vector is
        # prolonged after assembly, so it does not add to the latter
        if len(grids) > 1:
            v0 = _prolong(grids[-2], spectrum.eigenvectors[:, 0], grid)
        precondition = functools.partial(_v_cycle, grids[:], matrices[:])
        spectrum = smallest_eigenpairs(matrix, tol=tol, v0=v0, precondition=precondition)
        lams.append(float(spectrum.eigenvalues[0]))
    lams = np.array(lams)
    hs = np.array(spacings)

    diffs = np.diff(lams)
    usable = np.abs(diffs) > 0
    if int(usable.sum()) >= 2:
        slope = np.polyfit(np.log(hs[:-1][usable]), np.log(np.abs(diffs[usable])), 1)[0]
        order = float(min(max(slope, _ORDER_RANGE[0]), _ORDER_RANGE[1]))
    else:
        order = 2.0  # sequence already converged; order is unobservable
    factor = 2.0**order - 1.0
    extrapolants = lams[1:] + diffs / factor
    extrapolated = float(extrapolants[-1])
    error_estimate = float(abs(extrapolants[-1] - extrapolants[-2]))
    if error_estimate <= 1e-9 * max(1.0, abs(extrapolated)):
        # with three levels the fitted order reproduces both extrapolants
        # exactly and their gap is pure roundoff; fall back to the size of
        # the last Richardson correction as a conservative estimate
        error_estimate = float(abs(extrapolants[-1] - lams[-1]))
    signs = np.sign(diffs)
    monotone = bool(np.all(signs >= 0) or np.all(signs <= 0))

    # grid, matrix and spectrum still hold the finest level
    return ConvergenceStudy(
        spacings=hs,
        lambda1_values=lams,
        observed_order=order,
        extrapolated=extrapolated,
        error_estimate=error_estimate,
        extrapolants=np.asarray(extrapolants),
        monotone=monotone,
        finest_grid=grid,
        finest_matrix=matrix,
        finest_spectrum=spectrum,
    )
