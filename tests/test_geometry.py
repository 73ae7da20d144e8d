import itertools
import math

import numpy as np
import pytest
from scipy.ndimage import binary_fill_holes

from specbound import (
    Ball,
    Box,
    DomainError,
    Ellipse,
    Interval,
    Polygon,
    RasterMask,
    domain_from_spec,
    unit_ball_volume,
)
from specbound._format import to_json
from specbound.geometry import _agm_ellipse_perimeter

from conftest import L_VERTICES


def contains(domain, point):
    """Whether a single point lies strictly inside."""
    return bool(domain.membership(np.atleast_2d(point))[0])


class TestUnitBallVolume:
    def test_known_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)

    def test_rejects_dimensions_above_three(self):
        # no Domain has dim > 3, so C_n is known in closed form only to 3
        with pytest.raises(ValueError):
            unit_ball_volume(4)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestContains:
    def test_disk_center_and_boundary(self, unit_disk):
        assert contains(unit_disk, [0.0, 0.0])
        assert not contains(unit_disk, [1.0, 0.0])  # the boundary is outside
        assert not contains(unit_disk, [1.0001, 0.0])

    def test_l_polygon_removed_quadrant(self, l_polygon):
        assert not contains(l_polygon, [1.5, 1.5])
        assert contains(l_polygon, [0.5, 0.5])
        assert not contains(l_polygon, [1.0, 1.0])  # reentrant corner is boundary

    def test_polygon_edges_are_inclusive(self, l_polygon):
        # every point up to an edge is inside; the edge itself is not
        assert contains(l_polygon, [1.0 - 1e-9, 1.5])
        assert not contains(l_polygon, [1.0, 1.5])
        assert not contains(l_polygon, [0.0, 0.0])

    def test_dimension_mismatch_raises(self, unit_disk):
        with pytest.raises(DomainError):
            unit_disk.membership(np.atleast_2d([0.0, 0.0, 0.0]))

    def test_interval_endpoints(self, unit_interval):
        assert not contains(unit_interval, [0.0])
        assert not contains(unit_interval, [1.0])
        assert contains(unit_interval, [0.001])
        assert not contains(unit_interval, [-0.001])

    def test_mask_strict_interior_excludes_outer_faces(self, block_mask):
        assert not contains(block_mask, [0.0, 0.0])
        assert not contains(block_mask, [2.0, 1.0])
        # interior cell face shared by two occupied cells stays interior
        assert contains(block_mask, [0.25, 0.25])
        assert contains(block_mask, [0.3, 0.9])
        # a face or corner that touches an empty cell inside the array is out
        notched = RasterMask([[1, 1], [1, 0]], 0.5)
        assert contains(notched, [0.25, 0.5])
        assert not contains(notched, [0.75, 0.5])
        assert not contains(notched, [0.5, 0.5])


class TestMetrics:
    def test_ball3_closed_forms(self, unit_ball3):
        met = unit_ball3.metrics()
        assert met.volume == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        assert met.diameter == 2.0
        assert met.perimeter is None

    def test_unit_square(self, unit_square):
        met = unit_square.metrics()
        assert met.volume == 1.0
        assert met.diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert met.perimeter == 4.0
        assert met.perimeter**2 >= 4.0 * math.pi * met.volume

    def test_l_polygon(self, l_polygon):
        met = l_polygon.metrics()
        assert met.volume == pytest.approx(3.0, abs=1e-14)
        assert met.diameter == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert met.perimeter == pytest.approx(8.0, abs=1e-14)

    def test_ball_scaling_law(self):
        for dim in (1, 2, 3):
            for radius in (0.5, 1.0, 2.5):
                met = Ball([0.0] * dim, radius).metrics()
                assert met.volume == pytest.approx(
                    unit_ball_volume(dim) * radius**dim, rel=1e-14
                )
                assert met.diameter == 2.0 * radius

    def test_volume_within_bounding_box(self, wide_ellipse, l_polygon):
        for dom in (wide_ellipse, l_polygon):
            met = dom.metrics()
            box = dom.bounding_box
            box_volume = float(np.prod(box[:, 1] - box[:, 0]))
            assert 0.0 < met.volume <= box_volume
            assert met.diameter <= float(np.linalg.norm(box[:, 1] - box[:, 0])) + 1e-12

    def test_isoperimetric_inequality(self, unit_square, l_polygon, wide_ellipse):
        for dom in (unit_square, l_polygon, wide_ellipse):
            met = dom.metrics()
            assert met.perimeter**2 - 4.0 * math.pi * met.volume >= 0.0

    def test_disk_attains_isoperimetric_equality(self, unit_disk):
        met = unit_disk.metrics()
        assert met.perimeter**2 == pytest.approx(4.0 * math.pi * met.volume, rel=1e-10)

    def test_ellipsoid_diameter_uses_largest_axis(self):
        met = Ellipse([0.0, 0.0, 0.0], [0.5, 2.0, 1.0]).metrics()
        assert met.diameter == 4.0
        assert met.volume == pytest.approx(
            4.0 * math.pi / 3.0 * 0.5 * 2.0 * 1.0, rel=1e-14
        )

    def test_ellipse_perimeter_against_quadrature(self):
        # arc-length quadrature of a trigonometric integrand; the composite
        # trapezoid rule on a periodic function converges spectrally
        for a, b in [(1.0, 0.5), (2.0, 1.0), (1.0, 1.0), (3.0, 0.25)]:
            t = np.linspace(0.0, 2.0 * math.pi, 8193)
            integrand = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
            reference = np.trapezoid(integrand, t)
            assert _agm_ellipse_perimeter(a, b) == pytest.approx(reference, rel=1e-10)

    def test_circle_perimeter_closed_form(self):
        assert _agm_ellipse_perimeter(1.0, 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )


class TestRasterMask:
    def test_volume_is_occupied_cell_count_times_cell_area(self, block_mask):
        # 8x8 block of cells of side 1/4: the closed union has area 4 exactly
        assert block_mask.metrics().volume == 4.0

    def test_block_diameter_and_perimeter(self, block_mask):
        met = block_mask.metrics()
        assert met.diameter == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert met.perimeter == pytest.approx(8.0, rel=1e-14)

    def test_mask_volume_converges_to_disk_volume(self, unit_disk):
        # rasterize the disk at shrinking cell size; the cell-count volume
        # must approach pi within the area of the occupied cells that have
        # an unoccupied axis neighbor (one boundary layer)
        for cells in (16, 32, 64):
            c = 2.0 / cells
            centers = -1.0 + (np.arange(cells) + 0.5) * c
            xx, yy = np.meshgrid(centers, centers, indexing="ij")
            occ = (xx**2 + yy**2) <= 1.0
            pad = np.pad(occ, 1)
            inner = pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
            layer = int(np.sum(occ & ~inner)) * c * c
            met = RasterMask(occ.astype(int), c, origin=[-1.0, -1.0]).metrics()
            assert abs(met.volume - math.pi) <= layer

    def test_hole_detection(self):
        ring = np.ones((5, 5), dtype=int)
        ring[2, 2] = 0
        assert RasterMask(ring, 0.5).has_holes()
        notch = np.ones((5, 5), dtype=int)
        notch[0, 2] = 0
        assert not RasterMask(notch, 0.5).has_holes()

    @pytest.mark.parametrize("shape", [(7, 9), (5, 6, 4)], ids=["2d", "3d"])
    def test_hole_detection_matches_fill_holes(self, shape):
        # scipy fills every free cell that face-connected free cells do not
        # join to the outside, which is what has_holes looks for
        rng = np.random.default_rng(13)
        holes = 0
        for _ in range(300):
            occ = rng.random(shape) < rng.uniform(0.3, 0.9)
            if not occ.any():
                continue
            expected = bool(np.any(binary_fill_holes(occ) & ~occ))
            assert RasterMask(occ.astype(int), 0.5).has_holes() == expected
            holes += expected
        assert 0 < holes < 300

    def test_empty_mask_rejected(self):
        with pytest.raises(DomainError):
            RasterMask(np.zeros((4, 4), dtype=int), 0.5)


def corner_diameter(occ, cell, origin):
    """Largest distance between two corners of occupied cells, by brute force."""
    corners = {
        tuple(int(i) + d for i, d in zip(cell_index, offset))
        for cell_index in np.argwhere(occ)
        for offset in itertools.product((0, 1), repeat=occ.ndim)
    }
    pts = origin + np.array(sorted(corners), dtype=float) * cell
    diff = pts[:, None, :] - pts[None, :, :]
    return math.sqrt(float(np.max(np.sum(diff**2, axis=-1))))


def inside_by_rule(occ, cell, origin, point):
    """Whether every cell whose closure touches `point` (within 1e-9 of a
    cell) lies in the array and is occupied.  A point that is not finite
    touches no cell and is outside, and so is one whose cell index
    overflows."""
    if not all(math.isfinite(x) for x in point):
        return False
    with np.errstate(over="ignore"):
        u = (np.asarray(point) - origin) / cell
    if not np.all(np.isfinite(u)):
        return False
    touching = [range(math.floor(x - 1e-9), math.floor(x + 1e-9) + 1) for x in u]
    for index in itertools.product(*touching):
        if not all(0 <= i < n for i, n in zip(index, occ.shape)) or not occ[index]:
            return False
    return True


def random_masks(seed, count):
    """(occupancy, cell size, origin) of random 2-D and 3-D masks."""
    rng = np.random.default_rng(seed)
    masks = []
    while len(masks) < count:
        dim = 2 + len(masks) % 2
        occ = rng.random(tuple(rng.integers(1, 8, dim))) < rng.uniform(0.1, 0.9)
        if occ.any():
            masks.append((occ, float(rng.uniform(0.01, 2.0)), rng.uniform(-5.0, 5.0, dim)))
    return masks


def _checkerboard():
    return np.indices((6, 5)).sum(axis=0) % 2 == 0, 0.25, np.array([0.0, 0.0])


def _two_components():
    occ = np.zeros((9, 4), dtype=bool)
    occ[0:2, 0:2] = occ[6:9, 2:4] = True
    return occ, 0.3, np.array([-1.5, 2.25])


def _single_cell():
    return np.ones((1, 1, 1), dtype=bool), 0.7, np.array([0.1, -0.2, 3.0])


class TestRasterMaskOracles:
    @pytest.mark.parametrize(
        "make",
        [_checkerboard, _two_components, _single_cell],
        ids=["checkerboard", "two-components", "single-cell"],
    )
    def test_diameter_equals_corner_brute_force(self, make):
        occ, cell, origin = make()
        mask = RasterMask(occ.astype(int), cell, origin)
        assert mask.metrics().diameter == corner_diameter(occ, cell, origin)

    def test_random_mask_diameters_equal_corner_brute_force(self):
        for occ, cell, origin in random_masks(7, 120):
            mask = RasterMask(occ.astype(int), cell, origin)
            assert mask.metrics().diameter == corner_diameter(occ, cell, origin)

    def test_membership_follows_the_cell_rule(self):
        cases = random_masks(11, 16) + [_checkerboard(), _two_components(), _single_cell()]
        far = [1.7e308, -1.7e308, 1e300, -1e300, 1e18, -1e18, math.inf, math.nan]
        for occ, cell, origin in cases:
            mask = RasterMask(occ.astype(int), cell, origin)
            points = []
            for parts in (2, 3):  # lattices at h = cell/2 and cell/3, past the box
                axes = [origin[a] + np.arange(-2, n * parts + 3) * (cell / parts)
                        for a, n in enumerate(occ.shape)]
                points += list(itertools.product(*axes))
            inner = [origin + 0.5 * cell] * len(far)
            points += [np.where(np.arange(occ.ndim) == a, x, p)
                       for a in range(occ.ndim) for x, p in zip(far, inner)]
            points += [[x] * occ.ndim for x in far]
            points = np.array(points, dtype=float)
            got = mask.membership(points)
            expected = [inside_by_rule(occ, cell, origin, p) for p in points]
            assert got.tolist() == expected


class TestValidation:
    def test_polygon_must_be_counterclockwise(self):
        with pytest.raises(DomainError):
            Polygon(list(reversed(L_VERTICES)))

    def test_polygon_must_be_simple(self):
        bowtie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(DomainError):
            Polygon(bowtie)

    def test_interval_needs_positive_length(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)

    def test_ball_needs_positive_radius(self):
        with pytest.raises(DomainError):
            Ball([0.0, 0.0], 0.0)

    def test_dim_limited_to_three(self):
        with pytest.raises(DomainError):
            Box([[0, 1]] * 4)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Interval(0.0, 1.0),
            lambda: Box([[0.0, 2.0], [0.0, 1.0]]),
            lambda: Ball([0.5, 0.5, 0.5], 0.5),
            lambda: Ellipse([0.0, 0.0], [1.0, 0.5]),
            lambda: Polygon(L_VERTICES),
            lambda: RasterMask(np.ones((3, 4), dtype=int), 0.25, origin=[1.0, -1.0]),
        ],
    )
    def test_to_spec_from_spec_identity(self, make):
        dom = make()
        again = domain_from_spec(dom.to_spec())
        assert again.to_spec() == dom.to_spec()

    @pytest.mark.parametrize(
        "make, text",
        [
            (
                lambda: Interval(-0.5, 2.0),
                '{"kind": "interval", "dim": 1, "params": {"a": -0.5, "b": 2}}',
            ),
            (
                lambda: Box([[0, 2], [0, 1], [-1, 0.5]]),
                '{"kind": "box", "dim": 3, "params": {"bounds": [[0, 2], [0, 1], [-1, 0.5]]}}',
            ),
            (
                lambda: Ball([0.5, -0.5], 0.75),
                '{"kind": "ball", "dim": 2, "params": {"center": [0.5, -0.5], "radius": 0.75}}',
            ),
            (
                lambda: Ellipse([0, 0, 1], [1, 0.5, 0.25]),
                '{"kind": "ellipse", "dim": 3, "params": '
                '{"center": [0, 0, 1], "semi_axes": [1, 0.5, 0.25]}}',
            ),
            (
                lambda: Polygon(L_VERTICES),
                '{"kind": "polygon", "dim": 2, "params": '
                '{"vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}}',
            ),
            (
                lambda: RasterMask([[1, 1], [1, 0]], 0.5),
                '{"kind": "raster-mask", "dim": 2, "params": '
                '{"mask": [[1, 1], [1, 0]], "cell_size": 0.5, "origin": [0, 0]}}',
            ),
        ],
        ids=["interval", "box", "ball", "ellipse", "polygon", "raster-mask"],
    )
    def test_spec_bytes(self, make, text):
        # the key order comes from the constructor's signature; artifacts
        # embed these bytes, so a reordered parameter must fail here
        assert to_json(make().to_spec()) == text

    def test_missing_kind_names_field(self):
        with pytest.raises(DomainError, match="kind"):
            domain_from_spec({"dim": 1, "params": {"a": 0, "b": 1}})

    def test_missing_param_names_field(self):
        with pytest.raises(DomainError, match="radius"):
            domain_from_spec({"kind": "ball", "dim": 2, "params": {"center": [0, 0]}})

    @pytest.mark.parametrize(
        "kind, name, params",
        [
            ("raster-mask", "mask", {"mask": [["0", "0"], ["1", "0"]], "cell_size": 0.5}),
            ("raster-mask", "mask", {"mask": [[True, False], [1, 0]], "cell_size": 0.5}),
            ("ball", "radius", {"center": [0, 0], "radius": True}),
        ],
        ids=["string-cell", "bool-cell", "bool-radius"],
    )
    def test_string_or_boolean_param_names_field(self, kind, name, params):
        with pytest.raises(DomainError, match=f"param '{name}'"):
            domain_from_spec({"kind": kind, "dim": 2, "params": params})

    @pytest.mark.parametrize(
        "mask, offender",
        [
            ([[1, [True]], [["x"], 2], "late"], "'late'"),
            ([[1, [[0]], [True]], [["x"], 2]], "True"),
            ([[0, [[1, "deep"]]], [1, [False]]], "False"),
        ],
        ids=["shallowest-wins", "first-in-level", "ragged-depths"],
    )
    def test_first_offender_is_breadth_first(self, mask, offender):
        # the walk goes level by level, so the offender named is the
        # shallowest one, and the first of its level
        spec = {"kind": "raster-mask", "dim": 2, "params": {"mask": mask, "cell_size": 0.5}}
        with pytest.raises(DomainError) as err:
            domain_from_spec(spec)
        assert str(err.value) == (
            f"domain spec param 'mask' must hold only JSON numbers, got {offender}"
        )

    def test_mask_entries_must_be_zero_or_one(self):
        with pytest.raises(DomainError, match="0 or 1"):
            RasterMask([[1, 2], [1, 0]], 0.5)

    def test_wrong_dim_rejected(self):
        with pytest.raises(DomainError, match="dim"):
            domain_from_spec(
                {"kind": "ball", "dim": 3, "params": {"center": [0, 0], "radius": 1}}
            )


class TestMembershipFrequency:
    def test_sampled_frequency_matches_volume_fraction(self, unit_disk, l_polygon):
        # fixed-seed statistical check: empirical hit rate inside the
        # bounding box approaches volume / box volume (4-sigma band)
        rng = np.random.default_rng(20260810)
        for dom in (unit_disk, l_polygon):
            box = dom.bounding_box
            met = dom.metrics()
            samples = 40000
            pts = rng.uniform(box[:, 0], box[:, 1], size=(samples, dom.dim))
            hits = float(np.mean(dom.membership(pts)))
            expected = met.volume / float(np.prod(box[:, 1] - box[:, 0]))
            sigma = math.sqrt(expected * (1.0 - expected) / samples)
            assert abs(hits - expected) <= 4.0 * sigma
