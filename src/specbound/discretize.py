"""Uniform-lattice discretization of -Laplacian with Dirichlet conditions.

The lattice frame is anchored at the corner of the domain's bounding box.
A lattice point becomes an unknown iff it lies strictly inside the domain;
omitted neighbors contribute nothing to the stencil, which imposes the
homogeneous Dirichlet condition.  A grid keeps only a window of its frame,
a box of frame indices that holds the domain's extent, and all lattice
work is done on the window: the membership test, `assemble`'s index and
the V-cycle transfers.  Over a refinement the windows are nested, each
starting at twice the frame index of the one before, so a point and its
neighbors are those of the whole frame and every result is the same bit
for bit.  `assemble` finds adjacent interior points by one forward walk
per axis, through an inverse index over the window that it builds and
frees itself; the backward pairs are the forward ones with source and
target swapped.

Interior points are numbered in row-major lattice order, so `assemble`
writes each stencil row straight into CSR in ascending column order: the
backward neighbors from the largest stride down, the point itself, then
the forward neighbors from the smallest stride up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .geometry import Domain

__all__ = ["Grid", "GridError", "OperatorMatrix", "build_grid", "assemble"]


class GridError(ValueError):
    """Raised when a grid cannot be built from the given spacing."""


@dataclass(frozen=True)
class Grid:
    """Interior lattice points of a domain at spacing h.

    The lattice frame has its index 0 at `origin`, the bounding-box corner;
    the grid's window is the box of frame indices from `start` on, `shape`
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

    def points(self) -> np.ndarray:
        """Coordinates of the interior points, shape (N, dim)."""
        multi = np.array(np.unravel_index(self.interior_flat, self.shape)).T
        return self.origin + (multi + self.start) * self.spacing


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse symmetric positive-definite discretization of -Laplacian."""

    matrix: sparse.csr_matrix = field(repr=False)


def _lattice_shape(domain: Domain, h: float) -> tuple:
    """Points per axis of the spacing-h lattice over the bounding box,
    without allocating it; raises GridError as documented in build_grid."""
    if not h > 0:
        raise GridError(f"spacing must be positive, got {h}")
    box = domain.bounding_box
    edges = box[:, 1] - box[:, 0]
    if h >= float(edges.min()) / 2.0:
        raise GridError(
            f"spacing {h} must be below half the shortest bounding-box edge "
            f"({float(edges.min()) / 2.0})"
        )
    # python floats, unlike numpy scalars, overflow to inf without a warning
    counts = [float(e) / h for e in edges]
    if not np.all(np.isfinite(counts)):
        raise GridError(f"spacing {h} is too small to count lattice points")
    return tuple(int(np.floor(c + 1e-9)) + 1 for c in counts)


def _nested_windows(domain: Domain, h_start: float):
    """Yield (h, window) for h = h_start, h_start/2, ...: the window kept of
    each level's lattice frame, one range of frame indices per axis.

    The first window spans the domain's extent, from the last frame index
    at or below it to the first at or above it.  Each later one starts at
    twice the start of the one before and stops at twice its last index,
    or at the frame's end when the one before reached its frame's end.  So
    every window holds the extent, with no interior point on a face that
    is not the frame's, and coarse index k of a window sits at fine index
    2k of the next, which the transfers rely on.  Raises GridError as
    build_grid does, at the first level whose frame cannot be laid.
    """
    origin, extent = domain.bounding_box[:, 0], domain.extent
    window = previous = None
    for level in itertools.count():
        h = h_start * 0.5**level
        frame = _lattice_shape(domain, h)
        if window is None:
            first = np.floor((extent[:, 0] - origin) / h)
            last = np.ceil((extent[:, 1] - origin) / h)
            window = tuple(
                range(int(f), int(min(l, n - 1)) + 1) for f, l, n in zip(first, last, frame)
            )
        else:
            window = tuple(
                range(2 * w.start, n if w.stop == m else 2 * w.stop - 1)
                for w, m, n in zip(window, previous, frame)
            )
        yield h, window
        previous = frame


def _interpolate(c: np.ndarray, n: int) -> np.ndarray:
    """The 1-D interpolation along axis 0 onto `n` fine points:
    fine[m] = (c[m // 2] + c[(m + 1) // 2]) / 2, with an index past the end
    of `c` clipped to its last one."""
    out = np.empty((n,) + c.shape[1:])
    out[0::2] = c[: (n + 1) // 2]
    odd = out[1::2]
    # odd points between two coarse points, then at most one past the last
    k = min(n // 2, c.shape[0] - 1)
    odd[:k] = 0.5 * (c[:k] + c[1 : k + 1])
    odd[k:] = c[k : n // 2]
    return out


def _interpolate_transpose(f: np.ndarray, n: int) -> np.ndarray:
    """The transpose of `_interpolate(., f.shape[0])` from `n` coarse points."""
    out = np.zeros((n,) + f.shape[1:])
    even, odd = f[0::2], f[1::2]
    out[: even.shape[0]] = even
    k = min(odd.shape[0], n - 1)
    half = 0.5 * odd[:k]
    out[:k] += half
    out[1 : k + 1] += half
    out[k : odd.shape[0]] += odd[k:]
    return out


def _check_nested(coarse: Grid, fine: Grid):
    if fine.start != tuple(2 * s for s in coarse.start):
        raise GridError(
            f"fine window starts at {fine.start}, not at twice the coarse start {coarse.start}"
        )


def _transfer(operator, source: Grid, values: np.ndarray, target: Grid) -> np.ndarray:
    # apply a 1-D operator along each axis of the window, where omitted
    # points hold zero (the Dirichlet value)
    box = np.zeros(source.shape)
    box.ravel()[source.interior_flat] = values  # a view: box is C-contiguous
    for axis, n in enumerate(target.shape):
        box = operator(box.swapaxes(0, axis), n).swapaxes(0, axis)
    return box.ravel()[target.interior_flat]


def _prolong(coarse: Grid, values: np.ndarray, fine: Grid) -> np.ndarray:
    """Interpolate a field on the interior points of `coarse` onto those of
    `fine`, the same domain at half the spacing.

    Both frames start at the bounding-box corner and the fine window starts
    at twice the coarse start (GridError otherwise), so fine window index m
    sits at coarse window index m/2 on every axis, and the interpolation is
    1-D and linear along each axis in turn.  Omitted coarse points count as
    zero (the Dirichlet value).  Where the spacing does not divide a box
    edge, the last fine index can lie past the coarse lattice; it is
    clipped to the last coarse index.
    """
    _check_nested(coarse, fine)
    return _transfer(_interpolate, coarse, values, fine)


def _restrict(fine: Grid, values: np.ndarray, coarse: Grid) -> np.ndarray:
    """The transpose of `_prolong(coarse, ., fine)`: a field on the interior
    points of `fine` summed onto those of `coarse` with the interpolation
    weights."""
    _check_nested(coarse, fine)
    return _transfer(_interpolate_transpose, fine, values, coarse)


def build_grid(domain: Domain, h: float, window: tuple | None = None) -> Grid:
    """Lay a lattice of spacing h over the bounding box and keep the points
    of `window` strictly inside the domain.

    `window` holds one range of frame indices per axis, as refine takes it
    from `_nested_windows`, and must hold the domain's extent; by default
    it is the window over the extent alone.  Raises GridError when h is
    nonpositive, too coarse relative to the bounding box, so small that the
    lattice size overflows, or leaves no interior point.
    """
    if window is None:
        window = next(_nested_windows(domain, h))[1]
    origin = domain.bounding_box[:, 0].copy()
    axes = [origin[a] + np.arange(r.start, r.stop) * h for a, r in enumerate(window)]
    interior_flat = np.flatnonzero(domain.lattice_membership(axes))
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
    index = np.int32 if (2 * dim + 1) * n < 2**31 else np.int64  # scipy's choice
    flat, shape = grid.interior_flat, grid.shape
    # the interior numbering of every window point, -1 where omitted
    number = np.full(math.prod(shape), -1, dtype=index)
    number[flat] = np.arange(n)
    # one row per point in ascending column order (module docstring);
    # -1 marks an omitted neighbor
    cols = np.full((n, 2 * dim + 1), -1, dtype=index)
    cols[:, dim] = np.arange(n)
    for axis in range(dim):
        # row-major: a point's coordinate along `axis` is (flat // stride)
        # % shape[axis], and one cell forward adds stride to flat
        stride = math.prod(shape[axis + 1:])
        valid = (flat // stride) % shape[axis] + 1 < shape[axis]
        dst = number[flat[valid] + stride]
        src = np.nonzero(valid)[0][dst >= 0]
        dst = dst[dst >= 0]
        cols[dst, axis] = src
        cols[src, 2 * dim - axis] = dst
    # not held through the allocations below, where the peak is
    del number, valid, src, dst
    present = cols >= 0
    indices = cols[present]
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(present.sum(axis=1, dtype=index), out=indptr[1:])
    data = np.full(indices.shape[0], -1.0 / h2)
    data[indptr[:-1] + present[:, :dim].sum(axis=1, dtype=index)] = 2.0 * dim / h2
    return OperatorMatrix(matrix=sparse.csr_matrix((data, indices, indptr), shape=(n, n)))
