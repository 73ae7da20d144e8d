"""The smallest eigenpair of the discrete -Laplacian, with a residual certificate.

The solver touches the operator only through products `A @ v`.  The ground
state comes from a single-vector LOBPCG loop (Knyazev 2001, SIAM J. Sci.
Comput. 23(2)) and is certified by a residual from a fresh product.  It
starts from the caller's `v0` or else from the constant vector, which is not
orthogonal to the one-signed ground state.  No start is random, so iteration
counts and vectors are reproducible.  On the finer levels of a refinement
the search direction is preconditioned by one geometric multigrid V-cycle
over the coarser levels (`_v_cycle`), which also acts on each level's
operator only through products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import Grid, OperatorMatrix, _prolong, _restrict

__all__ = [
    "Spectrum",
    "SolverConvergenceError",
    "WaveField",
    "rayleigh_quotient",
    "smallest_eigenpairs",
]

DEFAULT_TOL = 1e-10
_DROPPED = 1e-12  # Gram eigenvalue share below which a direction is roundoff
_IDLE = 64  # fewest iterations without a new best that can end a solve


class SolverConvergenceError(RuntimeError):
    """Residual target not reached: the iteration cap was hit, or a fresh
    residual check failed without improving on the previous failed one or
    after a long stall.

    `best_residual` is the smallest ||A v - lambda v|| seen in any
    iteration.  Most are computed from the carried product A v, which near
    the roundoff floor can read below the fresh residual that failed.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class WaveField:
    """A real-valued state sampled on the interior points of a grid."""

    values: np.ndarray
    grid: Grid

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
        return WaveField(self.values / nrm, self.grid)


@dataclass(frozen=True)
class Spectrum:
    """The ground state: length-1 `eigenvalues` and `residuals` and an
    (N, 1) `eigenvectors` of h^n-weighted unit norm and positive mean."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # (N, 1)
    residuals: np.ndarray
    inner_product_weight: float

    def wavefield(self, grid: Grid) -> WaveField:
        """The ground state as a normalized WaveField on `grid`."""
        return WaveField(self.eigenvectors[:, 0].copy(), grid)


def rayleigh_quotient(matrix: OperatorMatrix, psi: "WaveField | np.ndarray") -> float:
    """(psi^T A psi) / (psi^T psi); the h^n weight cancels."""
    values = psi.values if isinstance(psi, WaveField) else np.asarray(psi, float)
    denom = float(values @ values)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(values @ (matrix.matrix @ values)) / denom


def _coarse_solve(a, b):
    # conjugate gradients from zero to a relative residual of 1e-2; a zero
    # right-hand side returns zero
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = r @ r
    target = 1e-4 * rr
    for _ in range(b.shape[0]):
        if rr <= target:
            break
        ap = a @ p
        alpha = rr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr, previous = r @ r, rr
        p *= rr / previous
        p += r
    return x


def _v_cycle(grids: list, matrices: list, b: np.ndarray) -> np.ndarray:
    """One geometric V-cycle for A x = b, A the last of `matrices`, over the
    levels of a refinement, each grid at half the spacing of the one
    before: an approximation T b to A^-1 b that serves as a preconditioner.

    Each level above the first smooths with two damped Jacobi sweeps before
    and two after the coarse-level correction; the residual goes down by
    full weighting, 2^-dim times the transpose of `_prolong`, onto the
    coarser level's own operator.  The first level is solved by conjugate
    gradients to a relative residual of 1e-2.
    """
    a = matrices[-1].matrix
    if len(matrices) == 1:
        return _coarse_solve(a, b)
    grid, coarse = grids[-1], grids[-2]
    # omega = 2 dim / (2 dim + 1) over the constant diagonal 2 dim / h^2
    c = grid.spacing**2 / (2 * grid.dim + 1)
    x = c * b
    x += c * (b - a @ x)
    r = 2.0**-grid.dim * _restrict(grid, b - a @ x, coarse)
    x += _prolong(coarse, _v_cycle(grids[:-1], matrices[:-1], r), grid)
    for _ in range(2):
        x += c * (b - a @ x)
    return x


def _lobpcg(a, start, tol, precondition):
    # the smallest eigenpair by Rayleigh-Ritz on span{x, T r, p}.  The rows
    # of `work` hold the iterate x, its (preconditioned) residual r and the
    # previous step p, then A x, A r and A p; A x and A p are carried
    # through the Ritz coefficients, so a step makes one product, A r.  p
    # starts at zero, a direction that the Gram rule below drops.
    work = np.empty((6, a.shape[0]))
    basis = work[:3]
    x, r, p, ax, ar, ap = work
    x[:] = start
    norm = math.sqrt(x @ x)
    if not 0.0 < norm < math.inf:
        raise ValueError("the start vector must be finite and not zero")
    x /= norm
    ax[:] = a @ x
    p[:] = ap[:] = 0.0
    matvecs, fresh, failed = 1, True, math.inf
    best, lowest, improved = math.inf, math.inf, 0
    for step in range(4 * a.shape[0] + 100):
        lam = float(x @ ax)
        np.multiply(x, lam, out=r)
        np.subtract(ax, r, out=r)
        res = math.sqrt(r @ r)
        if res < best or lam < lowest:
            best, lowest, improved = min(best, res), min(lowest, lam), step
        # no new best residual or lambda in the latter half of the run.  A
        # converging solve, even a cold 1-D one whose residual rises for
        # hundreds of steps, keeps lowering lambda
        stalled = step - improved >= max(_IDLE, step / 2)
        if res <= tol * lam and fresh:
            return lam, x, res
        if fresh and step > 0:
            # a fresh check failed.  Below the roundoff floor the carried
            # residual keeps passing while the fresh ones stop improving,
            # or it stalls above the target and passes no more
            if res >= failed or stalled:
                break
            failed = res
        elif res <= tol * lam or stalled:
            # the carried A x drifts by roundoff; check from a fresh product
            ax[:] = a @ x
            matvecs, fresh = matvecs + 1, True
            continue
        fresh = False
        if precondition is not None:
            r[:] = precondition(r)
        ar[:] = a @ r
        matvecs += 1
        # one (3, 6) product gives the Gram and the Ritz matrix; it is much
        # faster than basis @ basis.T, which numpy routes to BLAS syrk
        products = basis @ work.T
        norms2 = products.diagonal()
        scale = np.where(norms2 > 0, norms2, 1.0) ** -0.5
        outer = scale[:, None] * scale
        gram = products[:, :3] * outer
        stiff = (products[:, 3:] + products[:, 3:].T) * (0.5 * outer)
        # orthonormalize the scaled basis, dropping directions lost to roundoff
        mu, u = np.linalg.eigh(gram)
        keep = mu > _DROPPED * mu[-1]
        t = u[:, keep] / np.sqrt(mu[keep])
        c = scale * (t @ np.linalg.eigh(t.T @ stiff @ t)[1][:, 0])
        # r and A r are recomputed next step, so they can be scaled in place
        r *= c[1]
        p *= c[2]
        p += r
        ar *= c[1]
        ap *= c[2]
        ap += ar
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
        norm = math.sqrt(x @ x)
        x /= norm
        ax /= norm
    raise SolverConvergenceError(
        f"eigenpair 0 did not reach residual {tol * lam:.3e} "
        f"within {step + 1} iterations ({matvecs} matvecs, best {best:.3e})",
        best_residual=best,
    )


def smallest_eigenpairs(
    matrix: OperatorMatrix,
    tol: float = DEFAULT_TOL,
    v0: np.ndarray | None = None,
    precondition=None,
) -> Spectrum:
    """Compute the ground state, the smallest eigenpair of an SPD operator matrix.

    The pair satisfies ||A v - lambda v|| <= tol * lambda, checked with a
    fresh product A v; `tol` must lie in (0, 1).  The iteration starts from
    `v0`, which must be finite and not zero (else ValueError), or else from
    the constant vector.  The returned vector has a positive mean.

    `precondition`, if given, maps a residual r to T r with T an
    approximation of A^-1, and each step searches along T r in place of r.
    It changes how fast the residual falls, not the test it must pass.
    `refine` passes one multigrid V-cycle over its coarser levels, which
    holds the count near a dozen iterations however fine the lattice.

    Raises SolverConvergenceError after 4 N + 100 iterations, or when a
    fresh residual check fails without improving on the previous failed
    one, or when it fails after the latter half of the iterations (and at
    least 64) set no new best residual or lambda: signs that `tol` is below
    the roundoff floor.  Without a preconditioner, as on the first level of
    a refinement, the iteration count grows with the lattice's diameter in
    steps, which is N on a 1-D or path-like lattice: a cold start on the
    unit interval at N = 2047 takes about 2.4 N.  Fat 2-D and 3-D lattices
    need far fewer.
    """
    a = matrix.matrix
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    start = np.ones(a.shape[0]) if v0 is None else v0
    lam, x, res = _lobpcg(a, start, tol, precondition)
    if x.sum() < 0:
        x = -x
    # ||A v - lambda v|| / ||v|| is scale-invariant, so it certifies the
    # h^n-normalized vector too
    weight = matrix.spacing**matrix.dim
    return Spectrum(
        eigenvalues=np.array([lam]),
        eigenvectors=(x / math.sqrt(weight))[:, None],
        residuals=np.array([res]),
        inner_product_weight=weight,
    )
