import math

import numpy as np
import pytest

from specbound import Ball, Box, Ellipse, Interval, Polygon, RasterMask, WaveField

L_VERTICES = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]


def rayleigh_quotient(matrix, v):
    """v^T A v / v^T v for an OperatorMatrix A; any h^n weight cancels."""
    return float(v @ (matrix.matrix @ v) / (v @ v))


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
