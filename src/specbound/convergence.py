"""Grid-refinement studies: observed convergence order and extrapolation.

`refine` solves lambda1 at spacings halved from level to level; `_extrapolate`
alone makes the estimate.  The order p is the least-squares slope of
log|lambda1(h) - lambda1(h/2)| against log h over the nonzero differences,
clamped to `_ORDER_RANGE`, or 2 if fewer than two are nonzero.  Each level
pair yields a Richardson extrapolant of order p; the estimate is the last, its
error the gap to the one before or, if that gap is roundoff, the last correction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .discretize import (
    Grid,
    OperatorMatrix,
    _is_integer,
    _nested_windows,
    _prolong,
    assemble,
    build_grid,
)
from .eigensolve import DEFAULT_TOL, Spectrum, _add_level, smallest_eigenpairs
from .geometry import Domain
from ._format import csv_text, to_json

_ORDER_RANGE = (0.05, 10.0)  # clamp for fits degraded by pre-asymptotic noise


@dataclass(frozen=True)
class ConvergenceStudy:
    """lambda1 against spacing, with fitted order and extrapolated limit, at
    the solver tolerance `tol`."""

    tol: float
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

    def to_json(self) -> str:
        """The study as the `lambda1` subcommand's JSON artifact."""
        return to_json({
            "domain": self.finest_grid.domain.to_spec(),
            "h_start": self.spacings[0],
            "levels": len(self.spacings),
            "tol": self.tol,
            "spacings": list(self.spacings),
            "lambda1_values": list(self.lambda1_values),
            "observed_order": self.observed_order,
            "lambda1": self.extrapolated,
            "lambda1_error": self.error_estimate,
            "monotone": self.monotone,
        }) + "\n"

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
    interpolated onto its lattice (nested iteration).  The levels form the
    multigrid hierarchy that preconditions each solve (see `eigensolve`).

    Level k is `build_grid(domain, h_start, k)`, whose window
    `_nested_windows` decides.  Raises ValueError unless `levels` is an
    integer of at least 3, GridError or SolverConvergenceError if a level
    cannot be built or solved, and GridError before any level is built if
    one's window would exceed 20,000,000 lattice points.  A non-monotone
    lambda1 sequence sets the study's `monotone` flag; it is not raised.
    """
    if not (_is_integer(levels) and levels >= 3):
        raise ValueError(f"levels must be an integer of at least 3, got {levels!r}")
    hs = np.array([h for h, _ in itertools.islice(_nested_windows(domain, h_start), levels)])
    lams, hierarchy, coarse = [], [], None
    for level in range(levels):
        grid = build_grid(domain, h_start, level)
        matrix = assemble(grid)
        precondition = _add_level(hierarchy, grid, matrix)
        # the level's memory peak is the eigensolve (cube at h = 1/64, traced:
        # 50.0 MB, against 28.4 MB during assembly); the start vector is
        # prolonged after assembly, so it does not add to the latter
        v0 = None if coarse is None else _prolong(coarse, spectrum.eigenvectors[:, 0], grid)
        spectrum = smallest_eigenpairs(matrix, tol=tol, v0=v0, precondition=precondition)
        lams.append(float(spectrum.eigenvalues[0]))
        coarse = grid
    lams = np.array(lams)
    # grid, matrix and spectrum still hold the finest level
    return ConvergenceStudy(
        tol=tol,
        spacings=hs,
        lambda1_values=lams,
        finest_grid=grid,
        finest_matrix=matrix,
        finest_spectrum=spectrum,
        **_extrapolate(hs, lams),
    )


def _extrapolate(spacings: np.ndarray, values: np.ndarray) -> dict:
    """A study's estimate fields from lambda1 `values` at `spacings`, by the module's rule."""
    diffs = np.diff(values)
    usable = np.abs(diffs) > 0
    if int(usable.sum()) >= 2:
        slope = np.polyfit(np.log(spacings[:-1][usable]), np.log(np.abs(diffs[usable])), 1)[0]
        order = float(min(max(slope, _ORDER_RANGE[0]), _ORDER_RANGE[1]))
    else:
        order = 2.0  # sequence already converged; order is unobservable
    extrapolants = values[1:] + diffs / (2.0**order - 1.0)
    error_estimate = float(abs(extrapolants[-1] - extrapolants[-2]))
    if error_estimate <= 1e-9 * abs(extrapolants[-1]):
        # with three levels the fitted order reproduces both extrapolants exactly and
        # their gap is pure roundoff; the size of the last Richardson correction is a
        # conservative estimate; the test is relative, so scale changes no decision
        error_estimate = float(abs(extrapolants[-1] - values[-1]))
    signs = np.sign(diffs)
    return dict(
        observed_order=order,
        extrapolated=float(extrapolants[-1]),
        error_estimate=error_estimate,
        extrapolants=extrapolants,
        monotone=bool(np.all(signs >= 0) or np.all(signs <= 0)),
    )
