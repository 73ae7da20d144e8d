"""Smallest eigenpairs of the discrete -Laplacian, with residual certificates.

The solver is factorization-free: inverse power iteration with deflation
against already-converged eigenvectors, using a matrix-free conjugate
gradient inner solve.  Starting vectors come from a fixed, documented seed
unless the caller passes `v0`; a refinement study seeds only its coarsest
level and starts each finer one from the interpolated coarser ground state,
so iteration counts and returned vectors are reproducible either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import Grid, OperatorMatrix

__all__ = [
    "DEFAULT_SEED",
    "Spectrum",
    "SolverConvergenceError",
    "WaveField",
    "rayleigh_quotient",
    "smallest_eigenpairs",
]

DEFAULT_SEED = 137  # starting-vector seed; fixed for reproducibility
DEFAULT_TOL = 1e-10


class SolverConvergenceError(RuntimeError):
    """Iteration cap reached before the residual target."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class WaveField:
    """A real-valued state sampled on the interior points of a grid."""

    values: np.ndarray
    grid: Grid
    normalized: bool = False

    def __post_init__(self):
        if self.values.shape != (self.grid.point_count,):
            raise ValueError(
                f"field length {self.values.shape} does not match grid size "
                f"{self.grid.point_count}"
            )

    @property
    def weight(self) -> float:
        """Discrete volume element h^n."""
        return self.grid.spacing**self.grid.dim

    def norm_squared(self) -> float:
        return self.weight * float(self.values @ self.values)

    def normalize(self) -> "WaveField":
        """Rescale to h^n-weighted unit norm."""
        nrm = math.sqrt(self.norm_squared())
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero field")
        return WaveField(self.values / nrm, self.grid, normalized=True)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with h^n-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # (N, k)
    residuals: np.ndarray
    inner_product_weight: float

    def wavefield(self, grid: Grid, index: int = 0) -> WaveField:
        """The index-th eigenvector as a normalized WaveField on `grid`."""
        return WaveField(self.eigenvectors[:, index].copy(), grid, normalized=True)


def rayleigh_quotient(matrix: OperatorMatrix, psi: "WaveField | np.ndarray") -> float:
    """(psi^T A psi) / (psi^T psi); the h^n weight cancels."""
    values = psi.values if isinstance(psi, WaveField) else np.asarray(psi, float)
    denom = float(values @ values)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(values @ (matrix.matrix @ values)) / denom


def _deflate(v, basis):
    for q in basis:
        v -= (q @ v) * q
    return v


def _projected_cg(matrix, shift, basis, b, x0, rel_tol, max_iter):
    # conjugate gradient on P (A - shift I) P restricted to the complement
    # of the deflation basis; SPD there as long as shift stays below the
    # smallest non-deflated eigenvalue.  Bails out on nonpositive curvature
    # (shift overshoot), returning the current iterate and whether any
    # progress was made before the bail.
    def apply(v):
        w = matrix @ v
        if shift != 0.0:
            w = w - shift * v
        return _deflate(w, basis)

    b = _deflate(b.copy(), basis)
    x = _deflate(x0.copy(), basis)
    r = b - apply(x)
    p = r.copy()
    rs = float(r @ r)
    stop = rel_tol * rel_tol * float(b @ b)
    progressed = False
    for _ in range(max_iter):
        if rs <= stop:
            break
        ap = apply(p)
        curvature = float(p @ ap)
        if curvature <= 0.0:
            return x, progressed
        alpha = rs / curvature
        x += alpha * p
        r -= alpha * ap
        progressed = True
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, progressed


def smallest_eigenpairs(
    matrix: OperatorMatrix,
    k: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    v0: np.ndarray | None = None,
) -> Spectrum:
    """Compute the k smallest eigenpairs of an SPD operator matrix.

    Each eigenpair satisfies ||A v - lambda v|| <= tol * lambda.  Raises
    SolverConvergenceError when the outer-iteration cap (50 * sqrt(N)) is
    reached first.  `v0` optionally seeds the first eigenvector's iteration.
    """
    a = matrix.matrix
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rng = np.random.default_rng(seed)
    cap = int(50 * math.sqrt(n)) + 1
    cg_cap = max(1000, 60 * int(math.sqrt(n)) + 1)
    values = []
    vectors = []
    residuals = []
    for j in range(k):
        if j == 0 and v0 is not None:
            v = np.asarray(v0, dtype=float).copy()
        else:
            v = rng.standard_normal(n)
        v = _deflate(v, vectors)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            v = rng.standard_normal(n)
            nrm = float(np.linalg.norm(v))
        v /= nrm
        lam = float(v @ (a @ v))
        res = float(np.linalg.norm(a @ v - lam * v))
        best = res
        outer = 0
        trust = 3.0  # shift safety distance in units of the residual
        while res > tol * lam:
            if outer >= cap:
                raise SolverConvergenceError(
                    f"eigenpair {j} did not reach residual {tol * lam:.3e} "
                    f"within {cap} iterations (best {best:.3e})",
                    best_residual=best,
                )
            shift = 0.0
            if outer >= 1 and trust * res < 0.25 * lam:
                # residual-certified shift: some eigenvalue lies within res
                # of lam, so lam - trust*res sits below it; `trust` grows
                # whenever the shifted system turns out indefinite (the
                # nearby eigenvalue was not the smallest remaining one)
                shift = max(lam - trust * res, 0.0)
            inner_tol = min(0.1, max(0.1 * res / lam, 0.05 * tol))
            w, progressed = _projected_cg(
                a, shift, vectors, v, v / max(lam - shift, tol * lam), inner_tol, cg_cap
            )
            if not progressed and shift > 0.0:
                trust *= 2.0
                outer += 1
                continue
            w = _deflate(w, vectors)
            nrm = float(np.linalg.norm(w))
            if nrm == 0.0:
                w = _deflate(rng.standard_normal(n), vectors)
                nrm = float(np.linalg.norm(w))
            v = w / nrm
            lam = float(v @ (a @ v))
            res_prev = res
            res = float(np.linalg.norm(a @ v - lam * v))
            if shift > 0.0 and res > 0.9 * res_prev:
                # shifted step stalled: the shift was keyed to an eigenvalue
                # that is not the smallest remaining one; widen its margin
                trust *= 2.0
            best = min(best, res)
            outer += 1
        values.append(lam)
        vectors.append(v)
        residuals.append(res)

    order = np.argsort(values, kind="stable")
    eigenvalues = np.array([values[i] for i in order])
    euclid = np.stack([vectors[i] for i in order], axis=1)
    # ||A v - lambda v|| / ||v||; scale-invariant, so valid for the
    # h^n-normalized vectors returned below
    resid = np.array([residuals[i] for i in order])

    # sign conventions: ground state gets a positive mean, the rest get a
    # positive entry of largest magnitude
    if euclid[:, 0].sum() < 0:
        euclid[:, 0] = -euclid[:, 0]
    for i in range(1, euclid.shape[1]):
        lead = int(np.argmax(np.abs(euclid[:, i])))
        if euclid[lead, i] < 0:
            euclid[:, i] = -euclid[:, i]

    weight = matrix.spacing**matrix.dim
    return Spectrum(
        eigenvalues=eigenvalues,
        eigenvectors=euclid / math.sqrt(weight),
        residuals=resid,
        inner_product_weight=weight,
    )
