"""Uniform-lattice discretization of -Laplacian with Dirichlet conditions.

The lattice is anchored at the corner of the domain's bounding box.  A
lattice point becomes an unknown iff it lies strictly inside the domain;
omitted neighbors contribute nothing to the stencil, which imposes the
homogeneous Dirichlet condition.  A grid keeps only a window of the
lattice, a box of lattice indices that holds the domain's extent and ends
on exterior points, and all lattice work is done on the window: the
membership test, `assemble`'s index and the V-cycle transfers.  A grid is
addressed by the spacing a study starts at and its refinement level, and
`_nested_windows` alone decides each level's window.  Over a refinement
the windows nest (see `_nested_windows`), so a point and its neighbors are
those of the whole lattice and every result is the same bit for bit.
`assemble` finds the neighbors of the interior points by one gather per
stencil slot, at a fixed offset in the flat window index, through an
inverse index over the window that it builds and frees itself; no interior
point lies on a window face, so no offset leaves the window.

Interior points are numbered in row-major lattice order, so `assemble`
writes each stencil row straight into CSR in ascending column order: the
backward neighbors from the largest stride down, the point itself, then
the forward neighbors from the smallest stride up.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .geometry import Domain


class GridError(ValueError):
    """Raised when a grid cannot be built from the given spacing."""


@dataclass(frozen=True)
class Grid:
    """Interior lattice points of a domain at spacing h.

    The lattice has its index 0 at `origin`, the bounding-box corner; the
    grid's window is the box of lattice indices from `start` on, `shape`
    points per axis, and holds every interior point.  `interior_flat` holds
    flat window indices (row-major over `shape`) of the interior points in
    ascending order, so point i is the i-th interior point in lattice order.
    Nothing is stored per lattice point: a grid costs 8 bytes per interior
    point, whatever the size of the box.
    """

    domain: Domain
    spacing: float
    origin: np.ndarray
    start: tuple
    shape: tuple
    interior_flat: np.ndarray

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def point_count(self) -> int:
        return int(self.interior_flat.shape[0])


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse symmetric positive-definite discretization of -Laplacian."""

    matrix: sparse.csr_matrix = field(repr=False)


# lattice points per level's window, which build_grid, assemble's index and
# the transfers allocate; it also keeps the stencil's (2*dim+1)*N entries
# below 2**31, so assemble's indices are int32
_POINT_CAP = 20_000_000


def _nested_windows(domain: Domain, h_start: float):
    """Yield (h, window) for h = h_start, h_start/2, ...: the window kept of
    each level's lattice, one range of lattice indices per axis.

    The first window runs from the last lattice index at or below the
    domain's extent to the first at or past it, so its faces lie outside
    the domain.  Each later one is range(2*start, 2*stop - 1): its faces are
    the same points as those of the one before, and no interior point is
    ever on a face.  This is the nesting contract that the transfers rely on
    and do not check: the fine window starts at twice the coarse start and
    is 2n - 1 long where the coarse one is n, so coarse index k sits at fine
    index 2k.  Every pair the library transfers between is level k and
    level k + 1 of one study, so the contract holds by construction.
    Raises GridError as build_grid does, at h_start or at the first level
    whose window is over the cap.
    """
    if not h_start > 0:
        raise GridError(f"spacing must be positive, got {h_start}")
    origin, extent = domain.bounding_box[:, 0], domain.extent
    edges = domain.bounding_box[:, 1] - origin
    if h_start >= float(edges.min()) / 2.0:
        raise GridError(
            f"spacing {h_start} must be below half the shortest bounding-box edge "
            f"({float(edges.min()) / 2.0})"
        )
    # python floats, unlike numpy scalars, overflow to inf without a warning
    if not all(math.isfinite(float(e) / h_start) for e in edges):
        raise GridError(f"spacing {h_start} is too small to count lattice points")
    first = np.floor((extent[:, 0] - origin) / h_start)
    last = np.ceil((extent[:, 1] - origin) / h_start)
    window = tuple(range(int(f), int(l) + 1) for f, l in zip(first, last))
    for level in itertools.count():
        h = h_start * 0.5**level
        # stop - start, since len() raises OverflowError past a C ssize_t
        lattice = math.prod(r.stop - r.start for r in window)
        if lattice > _POINT_CAP:
            raise GridError(f"level h={h} has {lattice} lattice points, above the cap {_POINT_CAP}")
        yield h, window
        window = tuple(range(2 * w.start, 2 * w.stop - 1) for w in window)


def _interpolate(c: np.ndarray, out: np.ndarray) -> None:
    """The 1-D interpolation along axis 0 from n coarse points onto the
    2n - 1 fine ones of `out`: fine[2k] = c[k], fine[2k + 1] = (c[k] + c[k + 1]) / 2."""
    out[0::2] = c
    np.add(c[:-1], c[1:], out=out[1::2])
    out[1::2] *= 0.5


def _interpolate_transpose(f: np.ndarray, out: np.ndarray) -> None:
    """The transpose of `_interpolate`, from 2n - 1 fine points onto the n coarse ones of `out`."""
    out[...] = f[0::2]
    half = 0.5 * f[1::2]
    out[:-1] += half
    out[1:] += half


def _transfer(operator, source: Grid, values: np.ndarray, target: Grid) -> np.ndarray:
    """Carry a field on the interior points of `source` onto those of
    `target`, the next finer or coarser level of the same study, by a 1-D
    operator along each axis of the window in turn; the windows nest (see
    `_nested_windows`).  Omitted points hold zero, the Dirichlet value.

    The source box is a window-sized zeros array; each axis pass writes a
    fresh C-ordered box, through a view with that axis first, and frees the
    one before, so the last pass leaves the target's box, which the result
    gathers from without a copy."""
    box = np.zeros(source.shape)
    box.ravel()[source.interior_flat] = values  # a view: box is C-contiguous
    for axis, n in enumerate(target.shape):
        out = np.empty(box.shape[:axis] + (n,) + box.shape[axis + 1:])
        operator(box.swapaxes(0, axis), out.swapaxes(0, axis))
        box = out
    return box.ravel()[target.interior_flat]


# _prolong(coarse, values, fine) interpolates; _restrict(fine, values, coarse) is its transpose
_prolong = functools.partial(_transfer, _interpolate)
_restrict = functools.partial(_transfer, _interpolate_transpose)


def _is_integer(value) -> bool:  # the rule for levels: any integer, numpy's too, but no bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def build_grid(domain: Domain, h_start: float, level: int = 0) -> Grid:
    """Lay the lattice of refinement level `level` of a study started at
    h_start, spacing h_start * 2**-level from the bounding-box corner, and
    keep the points of that level's window strictly inside the domain.

    The window is the `level`-th one that `_nested_windows` yields, so
    `build_grid(domain, h_start, k)` is level k of `refine(domain,
    h_start, ...)`, level 0 is the window over the domain's extent, and
    level k nests in level k + 1 (see `_nested_windows`).  Raises GridError
    when `level` is not a non-negative integer, when h_start is not
    positive, too coarse relative to the bounding box, or so small that the
    lattice size overflows, when the window of any level up to `level`
    exceeds 20,000,000 lattice points, or when no point is interior.
    """
    if not (_is_integer(level) and level >= 0):
        raise GridError(f"level must be a non-negative integer, got {level!r}")
    h, window = next(itertools.islice(_nested_windows(domain, h_start), level, None))
    origin = domain.bounding_box[:, 0].copy()
    axes = [origin[a] + np.arange(r.start, r.stop) * h for a, r in enumerate(window)]
    inside = domain.lattice_membership(axes)
    interior_flat = np.flatnonzero(inside)
    if interior_flat.shape[0] == 0:
        raise GridError(f"no interior lattice point at spacing {h}; refine h")
    return Grid(
        domain=domain,
        spacing=float(h),
        origin=origin,
        start=tuple(r.start for r in window),
        shape=tuple(len(r) for r in window),
        interior_flat=interior_flat,
    )


def assemble(grid: Grid) -> OperatorMatrix:
    """Assemble the (2*dim+1)-point stencil matrix for -Laplacian.

    Diagonal entries are 2*dim/h^2; each pair of adjacent interior points
    contributes -1/h^2 symmetrically.  Omitted neighbors contribute nothing.
    """
    n, dim = grid.point_count, grid.dim
    h2 = grid.spacing * grid.spacing
    flat, shape = grid.interior_flat, grid.shape
    # the interior numbering of every window point, -1 where omitted
    number = np.full(math.prod(shape), -1, dtype=np.int32)
    number[flat] = np.arange(n)
    # one row per point in ascending column order (module docstring), one
    # gather per stencil slot; -1 marks an omitted neighbor.  No interior
    # point is on a window face, so every neighbor is in the window
    strides = [math.prod(shape[axis + 1:]) for axis in range(dim)]
    cols = np.empty((n, 2 * dim + 1), dtype=np.int32)
    for k, offset in enumerate([-s for s in strides] + [0] + strides[::-1]):
        cols[:, k] = number[flat + offset]
    # not held through the allocations below, where the peak is
    del number
    present = cols >= 0
    indices = cols[present]
    # each row's count of backward neighbours, then of entries, by column
    # adds over the int8 view of `present` (a row sum over its seven bytes
    # costs about as much as the rest of assemble), written straight into
    # `diagonal` and `indptr`; every row holds its own point.  `diagonal`
    # is the first column of `cols`, dead once `indices` is copied out: a
    # buffer of its own left a heap hole that raised the solve-3d peak by
    # 0.8 MiB.  No np.zeros: a calloc'd buffer cost about 210 more page
    # faults a call on the 1/64 cube
    counts = present.view(np.int8)
    diagonal = cols[:, 0]
    diagonal[...] = counts[:, 0]
    for k in range(1, dim):
        diagonal += counts[:, k]
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[0] = 0
    np.add(diagonal, 1, out=indptr[1:])
    for k in range(dim + 1, 2 * dim + 1):
        indptr[1:] += counts[:, k]
    np.cumsum(indptr[1:], out=indptr[1:])
    diagonal += indptr[:-1]
    del present, counts
    data = np.full(indices.shape[0], -1.0 / h2)
    data[diagonal] = 2.0 * dim / h2
    return OperatorMatrix(matrix=sparse.csr_matrix((data, indices, indptr), shape=(n, n)))
