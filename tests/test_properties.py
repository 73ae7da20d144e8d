"""Property tests: spec round trips, the exact power-of-two scaling of the
discrete lambda1, its invariance under translation, its monotonicity under
inclusion, and the nesting of a refinement's lattice windows."""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from specbound import (  # noqa: E402
    Ball,
    Box,
    Ellipse,
    Interval,
    Polygon,
    RasterMask,
    assemble,
    build_grid,
    domain_from_spec,
    smallest_eigenpairs,
)
from specbound.eigensolve import DEFAULT_TOL  # noqa: E402

from conftest import L_VERTICES, full_frame_grid  # noqa: E402

CHEAP = settings(max_examples=40, deadline=None, derandomize=True, database=None)

coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
lengths = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 3))
    lows = [draw(coords) for _ in range(dim)]
    return Box([[lo, lo + draw(lengths)] for lo in lows])


@st.composite
def balls(draw):
    dim = draw(st.integers(1, 3))
    return Ball([draw(coords) for _ in range(dim)], draw(lengths))


@st.composite
def ellipses(draw):
    dim = draw(st.integers(1, 3))
    return Ellipse([draw(coords) for _ in range(dim)], [draw(lengths) for _ in range(dim)])


@st.composite
def polygons(draw):
    # star-shaped about the origin with increasing angles: simple and
    # counterclockwise
    m = draw(st.integers(3, 8))
    jitter = draw(st.lists(st.floats(0.0, 0.8), min_size=m, max_size=m))
    radii = draw(st.lists(lengths, min_size=m, max_size=m))
    angles = [2.0 * math.pi * (i + u) / m for i, u in enumerate(jitter)]
    return Polygon([[r * math.cos(t), r * math.sin(t)] for r, t in zip(radii, angles)])


@st.composite
def masks(draw):
    dim = draw(st.integers(2, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(dim))
    cells = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
    cells[0] = True
    origin = [draw(coords) for _ in range(dim)]
    return RasterMask(np.reshape(cells, shape), draw(lengths), origin)


intervals = st.builds(lambda a, w: Interval(a, a + w), coords, lengths)
domains = st.one_of(intervals, boxes(), balls(), ellipses(), polygons(), masks())


@CHEAP
@given(domains)
def test_spec_round_trip(domain):
    spec = domain.to_spec()
    again = domain_from_spec(json.loads(json.dumps(spec)))
    assert type(again) is type(domain)
    assert again.to_spec() == spec


SCALED = [
    (Interval(0.0, 1.0), 1.0 / 16),
    (Box([[0.0, 2.0], [0.0, 1.0]]), 1.0 / 8),
    (Ball([0.0, 0.0], 1.0), 1.0 / 8),
    (Ellipse([0.0, 0.0], [1.0, 0.5]), 1.0 / 8),
    (Polygon(L_VERTICES), 1.0 / 8),
    (RasterMask([[1, 1], [1, 0]], cell_size=0.5), 1.0 / 8),
    (Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 4),
]


def _scaled(domain, factor):
    params = domain.to_spec()["params"]
    spec = {
        "kind": domain.kind,
        "params": {
            key: value if key == "mask" else np.multiply(value, factor).tolist()
            for key, value in params.items()
        },
    }
    return domain_from_spec(spec)


def _lambda1(domain, h):
    return float(smallest_eigenpairs(assemble(build_grid(domain, h))).eigenvalues[0])


@settings(CHEAP, max_examples=20)
@given(st.sampled_from(SCALED), st.integers(-2, 3))
def test_lambda1_scales_exactly_under_power_of_two_dilation(case, k):
    # multiplying lengths and spacing by 2^k is exact in floating point, so
    # the lattice is the same and the operator is A / 4^k
    domain, h = case
    base = _lambda1(domain, h)
    scaled = _lambda1(_scaled(domain, 2.0**k), h * 2.0**k)
    assert scaled * 4.0**k == pytest.approx(base, rel=2 * DEFAULT_TOL)


def _translated(domain, shift):
    params = domain.to_spec()["params"]
    for key, value in params.items():
        if key in ("a", "b"):
            params[key] = value + shift[0]
        elif key == "bounds":
            params[key] = (np.asarray(value) + np.c_[shift]).tolist()
        elif key in ("center", "vertices", "origin"):
            params[key] = (np.asarray(value) + shift).tolist()
    return domain_from_spec({"kind": domain.kind, "params": params})


# hundredths are not dyadic, so adding one to a coordinate usually rounds
hundredths = st.integers(-300, 300).map(lambda k: k / 100)


@settings(CHEAP, max_examples=30)
@given(st.sampled_from(SCALED), st.lists(hundredths, min_size=3, max_size=3))
def test_lambda1_invariant_under_translation(case, shift):
    # the lattice is anchored at the bounding-box corner and moves with the
    # domain; only roundoff in the shifted coordinates differs, and it must
    # not move a boundary point in or out
    domain, h = case
    moved = _translated(domain, np.array(shift[: domain.dim]))
    assert build_grid(moved, h).point_count == build_grid(domain, h).point_count
    assert _lambda1(moved, h) == pytest.approx(_lambda1(domain, h), rel=2 * DEFAULT_TOL)


@st.composite
def nested_masks(draw):
    dim = draw(st.integers(2, 3))
    shape = tuple(draw(st.integers(2, 4)) for _ in range(dim))
    size = math.prod(shape)
    outer = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)), shape)
    keep = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)), shape)
    outer.flat[0] = keep.flat[0] = True
    origin = [draw(coords) for _ in range(dim)]
    cell = draw(lengths)
    inner = RasterMask(outer & keep, cell, origin)
    return inner, RasterMask(outer, cell, origin), cell / 4.0


L_CHAIN = (Box([[0.0, 1.0], [0.0, 1.0]]), Polygon(L_VERTICES), Box([[0.0, 2.0], [0.0, 2.0]]))


def _assert_monotone(smaller, larger, h):
    assert _lambda1(smaller, h) >= _lambda1(larger, h) * (1.0 - 2 * DEFAULT_TOL)


@CHEAP
@given(nested_masks())
def test_lambda1_monotone_under_inclusion_of_masks(masks):
    # same shape, origin and cell size give the same lattice, on which the
    # smaller mask's interior points are a subset of the larger one's
    _assert_monotone(*masks)


@settings(CHEAP, max_examples=10)
@given(st.integers(3, 16))
def test_lambda1_monotone_along_box_l_square_chain(per_unit):
    # the three domains share the corner (0, 0), so their lattices coincide
    h = 1.0 / per_unit
    for smaller, larger in zip(L_CHAIN, L_CHAIN[1:]):
        _assert_monotone(smaller, larger, h)


@st.composite
def windowed_studies(draw):
    """A 2-D or 3-D box, ball, ellipse or mask at a random place, and a
    starting spacing that in general divides none of its edges."""
    dim = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["box", "ball", "ellipse", "mask"]))
    corner = [draw(coords) for _ in range(dim)]
    sides = [draw(st.floats(0.5, 2.0)) for _ in range(dim)]
    fraction = draw(st.floats(0.15, 0.45))
    if kind == "mask":
        shape = tuple(draw(st.integers(1, 4)) for _ in range(dim))
        cells = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
        cells[0] = True
        # a fraction of the cell, so that a single cell holds a lattice point
        return RasterMask(np.reshape(cells, shape), sides[0], corner), fraction * sides[0]
    domain = {
        "box": lambda: Box([[c, c + s] for c, s in zip(corner, sides)]),
        "ball": lambda: Ball(corner, sides[0]),
        "ellipse": lambda: Ellipse(corner, sides),
    }[kind]()
    edges = domain.bounding_box[:, 1] - domain.bounding_box[:, 0]
    return domain, fraction * float(edges.min())


@CHEAP
@given(windowed_studies())
def test_nested_windows_end_on_exterior_points(study):
    # every window of a refinement ends on points outside the domain, nests
    # in the next as the coarse points of it, and holds the interior of the
    # whole bounding-box lattice
    domain, h_start = study
    coarse = None
    for level in range(3):
        grid = build_grid(domain, h_start, level)
        local = np.array(np.unravel_index(grid.interior_flat, grid.shape)).T
        assert np.all(local.min(axis=0) > 0)
        assert np.all(local.max(axis=0) < np.array(grid.shape) - 1)
        if coarse is not None:
            assert grid.start == tuple(2 * s for s in coarse.start)
            assert grid.shape == tuple(2 * n - 1 for n in coarse.shape)
        full = full_frame_grid(domain, grid.spacing, h_start)
        flat = np.ravel_multi_index(tuple((local + grid.start).T), full.shape)
        assert np.array_equal(flat, full.interior_flat)
        coarse = grid
