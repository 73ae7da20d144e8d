import math

import numpy as np
import pytest

from specbound import Ball, Box, Ellipse, Interval, Polygon, RasterMask, WaveField

L_VERTICES = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]


def rayleigh_quotient(matrix, v):
    """v^T A v / v^T v for an OperatorMatrix A; any h^n weight cancels."""
    return float(v @ (matrix.matrix @ v) / (v @ v))


def lattice_pairs(grid, axis, step=1):
    """Interior-index pairs (src, dst) with dst `step` lattice cells from
    src along `axis`, in ascending src; pairs whose target is omitted are
    dropped.  The shift is done on lattice multi-indices and the target is
    numbered through a map of its own, so no library walk is involved."""
    number = {int(flat): i for i, flat in enumerate(grid.interior_flat)}
    multi = np.array(np.unravel_index(grid.interior_flat, grid.shape)).T
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
