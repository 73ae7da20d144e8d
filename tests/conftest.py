import math

import numpy as np
import pytest

from specbound import Ball, Box, Ellipse, Grid, Interval, Polygon, RasterMask, WaveField

L_VERTICES = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]


def _block_mask(shape, block, cell, origin=None):
    mask = np.zeros(shape, dtype=int)
    mask[tuple(slice(lo, hi) for lo, hi in block)] = 1
    return RasterMask(mask, cell, origin)


# (mask, h_start) of masks whose lattice window is a part of the lattice: a
# 3-D block inside empty margins; a block that reaches the array's far
# corner, at an origin no spacing divides; and a block at the far corner at
# a spacing that divides neither the array nor the block, so every window
# ends on a point past the array
WINDOW_CASES = {
    "mask3-margins": (_block_mask((5, 6, 6), [(1, 3), (2, 5), (1, 4)], 0.25), 0.125),
    "far-edge": (_block_mask((4, 5), [(1, 4), (2, 5)], 0.25, [0.3, -0.7]), 0.125),
    "non-dividing": (_block_mask((3, 3), [(1, 3), (1, 3)], 0.25), 0.2),
}


def lattice_points(axes):
    """The points of the lattice axes[0] x axes[1] x ..., as an (M, dim)
    array in row-major order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def lattice_indices(grid):
    """Lattice multi-indices of the interior points, shape (N, dim)."""
    return np.array(np.unravel_index(grid.interior_flat, grid.shape)).T


def grid_points(grid):
    """Coordinates of the interior points of `grid`, shape (N, dim), from
    their window multi-indices: the coordinate oracle of the tests."""
    return grid.origin + (lattice_indices(grid) + grid.start) * grid.spacing


def full_frame_grid(domain, h, h_start=None):
    """The grid whose window is the whole bounding-box lattice of a study
    started at h_start (by default h), its interior found by testing every
    lattice point as one (M, dim) array: the reference that windowed grids
    must reproduce.  The study's first lattice ends on the first point at
    or past the far corner, and each finer one has a point between every
    two of the one before, so level k has 2**k * ceil(edge / h_start) + 1
    points per axis."""
    h_start = h if h_start is None else h_start
    level = round(math.log2(h_start / h))
    box = domain.bounding_box
    origin = box[:, 0].copy()
    shape = tuple(2**level * math.ceil((hi - lo) / h_start) + 1 for lo, hi in box)
    axes = [origin[a] + np.arange(shape[a]) * h for a in range(domain.dim)]
    inside = domain.membership(lattice_points(axes))
    return Grid(
        domain=domain,
        spacing=float(h),
        origin=origin,
        start=(0,) * domain.dim,
        shape=shape,
        interior_flat=np.nonzero(inside)[0],
    )


def rayleigh_quotient(matrix, v):
    """v^T A v / v^T v for an OperatorMatrix A; any h^n weight cancels."""
    return float(v @ (matrix.matrix @ v) / (v @ v))


def lattice_pairs(grid, axis, step=1):
    """Interior-index pairs (src, dst) with dst `step` lattice cells from
    src along `axis`, in ascending src; pairs whose target is omitted are
    dropped.  The shift is done on lattice multi-indices and the target is
    numbered through a map of its own, so no library walk is involved."""
    number = {int(flat): i for i, flat in enumerate(grid.interior_flat)}
    multi = lattice_indices(grid)
    multi[:, axis] += step
    on_lattice = (multi[:, axis] >= 0) & (multi[:, axis] < grid.shape[axis])
    target = np.full(grid.point_count, -1)
    flat = np.ravel_multi_index(tuple(multi[on_lattice].T), grid.shape)
    target[on_lattice] = [number.get(int(f), -1) for f in flat]
    src = np.nonzero(target >= 0)[0]
    return src, target[src]


def normalized(field):
    """`field` rescaled to unit h^n-weighted norm."""
    return WaveField(field.values / math.sqrt(field.norm_squared()), field.grid)


@pytest.fixture
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture
def unit_square():
    return Box([[0.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def unit_disk():
    return Ball([0.0, 0.0], 1.0)


@pytest.fixture
def unit_ball3():
    return Ball([0.0, 0.0, 0.0], 1.0)


@pytest.fixture
def l_polygon():
    return Polygon(L_VERTICES)


@pytest.fixture
def wide_ellipse():
    return Ellipse([0.0, 0.0], [1.0, 0.5])


@pytest.fixture
def block_mask():
    # solid 8x8 block of cells, side 2, anchored at the origin
    return RasterMask(np.ones((8, 8), dtype=int), cell_size=0.25)
