"""Uniform-lattice discretization of -Laplacian with Dirichlet conditions.

The lattice is anchored at the corner of the domain's bounding box.  A
lattice point becomes an unknown iff it lies strictly inside the domain;
omitted neighbors contribute nothing to the stencil, which imposes the
homogeneous Dirichlet condition.  Adjacent interior points are found by
one walk per axis, forward (`Grid.neighbor_pairs`); the backward pairs are
the forward ones with source and target swapped.

Interior points are numbered in row-major lattice order, so `assemble`
writes each stencil row straight into CSR in ascending column order: the
backward neighbors from the largest stride down, the point itself, then
the forward neighbors from the smallest stride up.
"""

from __future__ import annotations

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

    `interior_flat` holds flat lattice indices (row-major over `shape`) of
    the interior points in ascending order; `index_of` maps a flat lattice
    index to the 0..N-1 interior numbering, with -1 for omitted points.
    """

    domain: Domain
    spacing: float
    origin: np.ndarray
    shape: tuple
    interior_flat: np.ndarray
    index_of: np.ndarray

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def point_count(self) -> int:
        return int(self.interior_flat.shape[0])

    def points(self) -> np.ndarray:
        """Coordinates of the interior points, shape (N, dim)."""
        multi = np.array(np.unravel_index(self.interior_flat, self.shape)).T
        return self.origin + multi * self.spacing

    def neighbor_pairs(self, axis: int):
        """Interior-index pairs (src, dst) with dst one lattice cell past src
        along `axis`; pairs whose target is omitted are dropped.  The pairs
        one cell back are the same with src and dst swapped."""
        # row-major: a point's coordinate along `axis` is (flat // stride)
        # % shape[axis], and one cell forward adds stride to flat
        stride = math.prod(self.shape[axis + 1:])
        valid = (self.interior_flat // stride) % self.shape[axis] + 1 < self.shape[axis]
        dst = self.index_of[self.interior_flat[valid] + stride]
        src = np.nonzero(valid)[0][dst >= 0]
        return src, dst[dst >= 0]


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


def _transfer(operator, source: Grid, values: np.ndarray, target: Grid) -> np.ndarray:
    # apply a 1-D operator along each axis of the box lattice, where
    # omitted points hold zero (the Dirichlet value)
    box = np.zeros(source.shape)
    box.ravel()[source.interior_flat] = values  # a view: box is C-contiguous
    for axis, n in enumerate(target.shape):
        box = operator(box.swapaxes(0, axis), n).swapaxes(0, axis)
    return box.ravel()[target.interior_flat]


def _prolong(coarse: Grid, values: np.ndarray, fine: Grid) -> np.ndarray:
    """Interpolate a field on the interior points of `coarse` onto those of
    `fine`, the same domain at half the spacing.

    Both lattices start at the bounding-box corner, so fine index m sits at
    coarse index m/2 on every axis, and the interpolation is 1-D and linear
    along each axis in turn.  Omitted coarse points count as zero (the
    Dirichlet value).  Where the spacing does not divide a box edge, the
    last fine index can lie past the coarse lattice; it is clipped to the
    last coarse index.
    """
    return _transfer(_interpolate, coarse, values, fine)


def _restrict(fine: Grid, values: np.ndarray, coarse: Grid) -> np.ndarray:
    """The transpose of `_prolong(coarse, ., fine)`: a field on the interior
    points of `fine` summed onto those of `coarse` with the interpolation
    weights."""
    return _transfer(_interpolate_transpose, fine, values, coarse)


def build_grid(domain: Domain, h: float) -> Grid:
    """Lay a lattice of spacing h over the bounding box and keep the points
    strictly inside the domain.

    Raises GridError when h is nonpositive, too coarse relative to the
    bounding box, so small that the lattice size overflows, or leaves no
    interior point.
    """
    shape = _lattice_shape(domain, h)
    origin = domain.bounding_box[:, 0].copy()
    axes = [origin[a] + np.arange(shape[a]) * h for a in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    inside = domain.membership(points)
    interior_flat = np.nonzero(inside)[0].astype(np.int64)
    if interior_flat.shape[0] == 0:
        raise GridError(f"no interior lattice point at spacing {h}; refine h")
    index_of = np.full(points.shape[0], -1, dtype=np.int64)
    index_of[interior_flat] = np.arange(interior_flat.shape[0])
    return Grid(
        domain=domain,
        spacing=float(h),
        origin=origin,
        shape=shape,
        interior_flat=interior_flat,
        index_of=index_of,
    )


def assemble(grid: Grid) -> OperatorMatrix:
    """Assemble the (2*dim+1)-point stencil matrix for -Laplacian.

    Diagonal entries are 2*dim/h^2; each pair of adjacent interior points
    contributes -1/h^2 symmetrically.  Omitted neighbors contribute nothing.
    """
    n, dim = grid.point_count, grid.dim
    h2 = grid.spacing * grid.spacing
    index = np.int32 if (2 * dim + 1) * n < 2**31 else np.int64  # scipy's choice
    # one row per point in ascending column order (module docstring);
    # -1 marks an omitted neighbor
    cols = np.full((n, 2 * dim + 1), -1, dtype=index)
    cols[:, dim] = np.arange(n)
    for axis in range(dim):
        src, dst = grid.neighbor_pairs(axis)
        cols[dst, axis] = src
        cols[src, 2 * dim - axis] = dst
    del src, dst  # not held through the allocations below, where the peak is
    present = cols >= 0
    indices = cols[present]
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(present.sum(axis=1, dtype=index), out=indptr[1:])
    data = np.full(indices.shape[0], -1.0 / h2)
    data[indptr[:-1] + present[:, :dim].sum(axis=1, dtype=index)] = 2.0 * dim / h2
    return OperatorMatrix(matrix=sparse.csr_matrix((data, indices, indptr), shape=(n, n)))
