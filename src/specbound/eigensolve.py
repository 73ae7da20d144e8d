"""The smallest eigenpair of the discrete -Laplacian, with a residual certificate.

The solver touches the operator only through products `A @ v`.  The ground
state comes from a single-vector LOBPCG loop (Knyazev 2001, SIAM J. Sci.
Comput. 23(2)) whose every step tests a residual from a fresh product.  It
starts from the caller's `v0` or else from the constant vector, which is not
orthogonal to the one-signed ground state.  No start is random, so iteration
counts and vectors are reproducible.

The search direction is always preconditioned, over a hierarchy of levels
at halved spacings that `_add_level` grows.  A refinement's first level,
and every level of at most 128 points, starts a new hierarchy and is
solved on its own: up to 128 points by its dense inverse, built once from
the products of its operator with the unit vectors, else by conjugate
gradients on its operator.  Every other level takes one geometric
multigrid V-cycle down to the level that started its hierarchy
(`_v_cycle`).  A lone operator is a one-level hierarchy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import Grid, OperatorMatrix, _prolong, _restrict

DEFAULT_TOL = 1e-10
_DROPPED = 1e-12  # Gram eigenvalue share below which a direction is roundoff
_IDLE = 64  # fewest iterations without progress that can end a solve
# a step counts as progress when its residual is below half the best so far
# or lambda falls by more than 1e-12 relative.  Any new minimum let roundoff
# at the floor count: four solves below their floor (2:1 rectangle and unit
# square at h = 1/8, two disks) ran 521, 92, 125, 209 steps, now 79, 76, 76, 78
_RESIDUAL_FACTOR = 0.5
_LAMBDA_MARGIN = 1e-12
# a backstop for a solve that keeps making progress; the stall rule ended
# every failing solve seen by step 79, and a converging one takes tens
_CAP = 2000
# a level with at most this many points is preconditioned by its dense
# inverse, built once.  At 1 BLAS thread inv takes 0.43 ms at N = 121,
# 3.1 ms at 251, 6.6 ms at 343 and 50 ms at 793 (the disk's first level).
# On the benchmark this cap cut the mask sweep's wall time by 20-28%; 256
# was no faster, and 1024 slowed the 2-D solves by 40%
_DIRECT_POINTS = 128
# columns per block of `_lobpcg`'s vector work.  Nine float64 rows of a
# block (2.25 MiB) stay in a 4 MiB L2, where OpenBLAS's dgemm on the
# (3, N) x (N, 6) Rayleigh-Ritz shape runs about ten times faster than once
# its rows spill (0.13 ms at N = 51,429 but 1.44 ms at 137,059); a level
# of at most this many points is one block
_BLOCK = 1 << 15


class SolverConvergenceError(RuntimeError):
    """Residual target not reached: the solve stalled or hit its iteration cap.

    `best_residual` is the smallest fresh residual ||A v - lambda v|| of any
    iteration, each of which failed its own target `tol * lambda`.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class WaveField:
    """A real state on the interior points of a grid, in the h^n-weighted norm."""

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


@dataclass(frozen=True)
class Spectrum:
    """The ground state: length-1 `eigenvalues` and `residuals` and an
    (N, 1) `eigenvectors` of unit 2-norm and positive mean, which knows no
    grid; `wavefield` applies the h^n weight."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # (N, 1)
    residuals: np.ndarray

    def wavefield(self, grid: Grid) -> WaveField:
        """The ground state as a WaveField on `grid`, divided by
        sqrt(h^n) to unit h^n-weighted norm."""
        return WaveField(self.eigenvectors[:, 0] / math.sqrt(grid.spacing**grid.dim), grid)


def _coarse_solve(a, b, x):
    # conjugate gradients from zero to a relative residual of 1e-2, in x; a
    # zero right-hand side gives zero
    x[...] = 0.0
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


def _add_level(levels: list, grid: Grid | None, matrix: OperatorMatrix):
    """Add a level to the hierarchy `levels` (module docstring), a list of
    (grid, matrix, solve) with `solve(b, out)`, which writes T b into out,
    on the first level only, and return the level's preconditioner.  A
    restart drops the levels below; a lone operator may come with no grid."""
    a = matrix.matrix
    n = a.shape[0]
    if n <= _DIRECT_POINTS:
        levels.clear()
        levels.append((grid, matrix, functools.partial(np.matmul, np.linalg.inv(a @ np.eye(n)))))
    elif not levels:
        levels.append((grid, matrix, functools.partial(_coarse_solve, a)))
    else:
        levels.append((grid, matrix, None))
    return functools.partial(_v_cycle, tuple(levels))


def _residual(a, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # b - A x, formed in the buffer that the product returns
    r = a @ x
    np.subtract(b, r, out=r)
    return r


def _smooth(a, b: np.ndarray, x: np.ndarray, c: float) -> None:
    # one damped Jacobi sweep in place, x += c (b - A x)
    r = _residual(a, b, x)
    r *= c
    x += r


def _v_cycle(levels: tuple, b: np.ndarray, x: np.ndarray) -> None:
    """One geometric V-cycle for A x = b, A the operator of the last of
    `levels`: writes into x an approximation T b to A^-1 b that serves as a
    preconditioner.

    Each level above the first smooths with two damped Jacobi sweeps before
    and two after the coarse-level correction; the residual goes down by
    full weighting, 2^-dim times the transpose of `_prolong`, onto the
    coarser level's own operator.  The first level applies its own solver.
    Beside x, which the caller holds, a level holds one transient fine
    vector at a time: each sweep forms c (b - A x) in the array that the
    product A x returns, the restriction's 2^-dim scales `_restrict`'s
    coarse result in place, and the transfers hold one slab's boxes only
    while they run.
    """
    grid, matrix, solve = levels[-1]
    if len(levels) == 1:
        solve(b, x)
        return
    a, coarse = matrix.matrix, levels[-2][0]
    # omega = 2 dim / (2 dim + 1) over the constant diagonal 2 dim / h^2
    c = grid.spacing**2 / (2 * grid.dim + 1)
    np.multiply(c, b, out=x)
    _smooth(a, b, x, c)
    r = _restrict(grid, _residual(a, b, x), coarse)
    r *= 2.0**-grid.dim
    e = np.empty_like(r)
    _v_cycle(levels[:-1], r, e)
    x += _prolong(coarse, e, grid)
    for _ in range(2):
        _smooth(a, b, x, c)


def _column_blocks(work: np.ndarray) -> list:
    # views of the rows of `work` over column blocks of _BLOCK, the whole
    # of it when it has at most _BLOCK columns
    return [work[:, i:i + _BLOCK] for i in range(0, work.shape[1], _BLOCK)]


def _products(blocks: list) -> np.ndarray:
    # the (3, 6) products of the first three rows with all six, summed
    # block by block; one block is basis @ work.T
    products = blocks[0][:3] @ blocks[0].T
    for block in blocks[1:]:
        products += block[:3] @ block.T
    return products


def _lobpcg(a, work, tol, precondition):
    # the smallest eigenpair by Rayleigh-Ritz on span{x, T r, p}.  The rows
    # of the (6, N) `work` hold the iterate x, its preconditioned residual
    # T r and the previous step p, then A x, A T r and A p; the caller puts
    # the start vector in row 0.  A x is formed fresh at the top of every
    # step, so the residual tested is the one certified; A p is carried
    # through the Ritz coefficients.  p starts at zero, a direction that the
    # Gram rule below drops.  The elementwise work runs over column blocks
    # that stay in cache (`_BLOCK`), each element with the same operations
    # in the same order; the sparse products and the norms run over whole
    # rows
    x, r, p, ax, ar, ap = work
    norm = math.sqrt(x @ x)
    if not 0.0 < norm < math.inf:
        raise ValueError("the start vector must be finite and not zero")
    x /= norm
    p[:] = ap[:] = 0.0
    blocks = _column_blocks(work)
    rows = [tuple(block) for block in blocks]
    best, lowest, improved = math.inf, math.inf, 0
    for step in range(_CAP):
        ax[:] = a @ x
        lam = float(x @ ax)
        for bx, br, _, bax, _, _ in rows:
            np.multiply(bx, lam, out=br)
            np.subtract(bax, br, out=br)
        res = math.sqrt(r @ r)
        if res <= tol * lam:
            return lam, x, res
        if res < _RESIDUAL_FACTOR * best or lam < lowest * (1.0 - _LAMBDA_MARGIN):
            improved = step
        best, lowest = min(best, res), min(lowest, lam)
        # no progress in the latter half of the run: tol is below the
        # roundoff floor.  A converging solve keeps lowering one
        if step - improved >= max(_IDLE, step / 2) or step + 1 == _CAP:
            break
        # A T r is dead until it is formed from T r, so its row takes T r
        precondition(r, ar)
        r[:] = ar
        ar[:] = a @ r
        # one (3, 6) product gives the Gram and the Ritz matrix; it is much
        # faster than basis @ basis.T, which numpy routes to BLAS syrk.  It
        # is summed over column blocks because dgemm slows about tenfold on
        # this shape once its nine rows outgrow L2 (`_BLOCK`)
        products = _products(blocks)
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
        # T r and A T r are recomputed next step, so they can be scaled in place
        for bx, br, bp, _, bar, bap in rows:
            br *= c[1]
            bp *= c[2]
            bp += br
            bar *= c[1]
            bap *= c[2]
            bap += bar
            bx *= c[0]
            bx += bp
        x /= math.sqrt(x @ x)
    raise SolverConvergenceError(
        f"eigenpair 0 did not reach residual {tol * lam:.3e} "
        f"within {step + 1} iterations ({2 * step + 1} matvecs, best {best:.3e})",
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
    `v0`, an array-like of N floats that are finite and not all zero (else
    ValueError), or else from the constant vector.  The returned vector has
    unit 2-norm and a positive mean; `Spectrum.wavefield` rescales it to
    the h^n-weighted norm.

    The solve's vectors live in one (6, N) work buffer allocated here; the
    start is copied into its first row and `v0` is not referenced after
    that, so a start passed inline is freed before the first step.

    `precondition(r, out)` writes T r into `out`, with T an approximation
    of A^-1, and each step searches along T r in place of r.  `out` is a
    row of the work buffer that the step does not need until T r is back
    (it overlaps no other argument), so a preconditioner can form T r in
    it and need no vector of its own for the result.  T changes how fast
    the residual falls, not the test it must pass.  The default is
    that of A as a one-level hierarchy, and `refine` passes that of its
    level (module docstring); each holds the count near a dozen iterations
    on the benchmark's shapes.

    Raises SolverConvergenceError when the latter half of the iterations
    (and at least 64) neither halve the best residual nor lower lambda by
    1e-12 relative (`tol` is below the roundoff floor), or after 2000 steps.
    """
    a = matrix.matrix
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    n = a.shape[0]
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), one value per point, got {v0.shape}")
    work = np.empty((6, n))
    work[0] = 1.0 if v0 is None else v0
    # refine passes the start inline and CPython (3.11 on) hands call
    # arguments to the callee's frame, so this name holds its last reference
    del v0
    if precondition is None:
        precondition = _add_level([], None, matrix)
    lam, x, res = _lobpcg(a, work, tol, precondition)
    # a fresh array: a view of x would keep the whole (6, N) work buffer alive
    sign = -1.0 if x.sum() < 0 else 1.0
    return Spectrum(
        eigenvalues=np.array([lam]),
        eigenvectors=sign * x[:, None],
        residuals=np.array([res]),
    )
