import json
import math
import tracemalloc

import numpy as np
import pytest

from specbound import (
    Ball,
    DomainMetrics,
    Interval,
    Polygon,
    RasterMask,
    WaveField,
    assemble,
    build_grid,
    certify_bounds,
    krahn_ratio,
    momentum_stddev,
    position_stddev,
    refine,
    smallest_eigenpairs,
)

from conftest import L_VERTICES, grid_points, normalized, rayleigh_quotient

J01 = 2.404825557695773


def ground_state(domain, h):
    grid = build_grid(domain, h)
    matrix = assemble(grid)
    spectrum = smallest_eigenpairs(matrix)
    return grid, matrix, spectrum, spectrum.wavefield(grid)


class TestMomentumStddev:
    def test_quadratic_form_identity(self, l_polygon):
        # sigma_p^2 must equal hbar^2 * Rayleigh quotient to roundoff for
        # every normalized field
        grid = build_grid(l_polygon, 0.125)
        matrix = assemble(grid)
        rng = np.random.default_rng(11)
        for _ in range(25):
            field = normalized(WaveField(rng.standard_normal(grid.point_count), grid))
            sigma = momentum_stddev(matrix, field)
            quotient = rayleigh_quotient(matrix, field.values)
            assert sigma**2 == pytest.approx(quotient, rel=1e-13)

    def test_interval_ground_state_approaches_pi(self, unit_interval):
        _, matrix, _, field = ground_state(unit_interval, 1.0 / 64)
        sigma = momentum_stddev(matrix, field)
        assert sigma == pytest.approx(math.pi, rel=1e-3)

    def test_square_ground_state(self, unit_square):
        _, matrix, _, field = ground_state(unit_square, 1.0 / 32)
        sigma = momentum_stddev(matrix, field)
        assert sigma**2 == pytest.approx(2.0 * math.pi**2, rel=2e-3)

    def test_disk_ground_state_approaches_bessel_zero(self, unit_disk):
        _, matrix, _, field = ground_state(unit_disk, 1.0 / 32)
        sigma = momentum_stddev(matrix, field)
        assert sigma == pytest.approx(J01, rel=2e-2)

    def test_requires_normalization(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        matrix = assemble(grid)
        with pytest.raises(ValueError):
            momentum_stddev(matrix, WaveField(np.ones(3), grid))
        with pytest.raises(ValueError):
            momentum_stddev(matrix, WaveField(np.zeros(3), grid))

    def test_hbar_scaling_is_exact_at_two(self, unit_interval):
        _, matrix, _, field = ground_state(unit_interval, 1.0 / 16)
        base = momentum_stddev(matrix, field, 1.0)
        doubled = momentum_stddev(matrix, field, 2.0)
        assert doubled == 2.0 * base


class TestPositionStddev:
    def test_interval_ground_state_against_quadrature(self, unit_interval):
        # quadrature oracle for the continuum value, then the grid value
        x = np.linspace(0.0, 1.0, 200001)
        density = 2.0 * np.sin(math.pi * x) ** 2
        mean = np.trapezoid(x * density, x)
        var = np.trapezoid((x - mean) ** 2 * density, x)
        closed_form = math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2))
        assert math.sqrt(var) == pytest.approx(closed_form, abs=1e-9)

        grid, _, _, field = ground_state(unit_interval, 1.0 / 64)
        assert position_stddev(field) == pytest.approx(closed_form, rel=1e-3)

    def test_point_mass_has_zero_spread(self):
        from specbound import RasterMask

        mask = np.zeros((3, 3), dtype=int)
        mask[1, 1] = 1
        grid = build_grid(RasterMask(mask, cell_size=1.0 / 3.0), 0.25)
        field = WaveField(np.array([4.0]), grid)
        assert position_stddev(field) == 0.0

    @pytest.mark.parametrize(
        "domain, h",
        [
            (Ball([0.3, -0.2], 1.3), 1.0 / 16),
            (Ball([0.1, 0.2, -0.3], 1.3), 0.1),
            (Polygon(L_VERTICES), 1.0 / 16),
            (RasterMask(np.array([[0, 0, 0], [0, 1, 1], [1, 1, 0]]), 0.25, [0.3, -1.0]), 1.0 / 32),
        ],
        ids=["disk", "ball3", "L-shape", "mask"],
    )
    def test_matches_the_point_array_form(self, domain, h):
        # the oracle forms every coordinate at once with grid_points; the
        # mask's window starts away from the lattice's index 0
        grid = build_grid(domain, h)
        rng = np.random.default_rng(5)
        field = normalized(WaveField(rng.random(grid.point_count) + 0.1, grid))
        prob = field.weight * field.values**2
        points = grid_points(grid)
        spread = math.sqrt(float(prob @ np.sum((points - prob @ points) ** 2, axis=1)))
        assert position_stddev(field) == pytest.approx(spread, rel=1e-14)

    def test_kennard_product_on_interval(self, unit_interval):
        grid, matrix, _, field = ground_state(unit_interval, 1.0 / 64)
        sigma_p = momentum_stddev(matrix, field)
        sigma_x = position_stddev(field)
        product = sigma_p * sigma_x
        assert product >= 0.5
        assert product == pytest.approx(0.5678658, rel=2e-3)


class TestKrahnRatio:
    def test_disk_equality_case(self, unit_disk):
        metrics = unit_disk.metrics()
        assert krahn_ratio(J01**2, metrics, 2) == pytest.approx(1.0, rel=1e-12)

    def test_two_dimensional_rephrasing(self, unit_disk):
        # lambda1 >= pi * j01^2 / A gives the same ratio through C_2 = pi
        metrics = unit_disk.metrics()
        lam = 7.0
        direct = lam / (math.pi * J01**2 / metrics.volume)
        assert krahn_ratio(lam, metrics, 2) == pytest.approx(direct, rel=1e-12)

    def test_unit_square_ratio(self, unit_square):
        ratio = krahn_ratio(2.0 * math.pi**2, unit_square.metrics(), 2)
        assert ratio == pytest.approx(2.0 * math.pi / J01**2, rel=1e-12)
        assert ratio == pytest.approx(1.0864574, abs=1e-6)

    def test_interval_is_the_one_dimensional_ball(self, unit_interval):
        assert krahn_ratio(math.pi**2, unit_interval.metrics(), 1) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_rejects_bad_inputs(self, unit_disk):
        metrics = unit_disk.metrics()
        with pytest.raises(ValueError):
            krahn_ratio(-1.0, metrics, 2)
        with pytest.raises(ValueError):
            krahn_ratio(1.0, metrics, 4)

    @pytest.mark.parametrize("volume", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_volume(self, volume):
        with pytest.raises(ValueError, match="metrics.volume must be positive"):
            krahn_ratio(1.0, DomainMetrics(volume=volume, diameter=1.0), 2)


@pytest.fixture(scope="module")
def interval_report():
    return certify_bounds(refine(Interval(0.0, 1.0), 1.0 / 8, 4))


class TestCertifyBounds:
    def test_spectral_margin_is_identity_tight(self, interval_report):
        assert abs(interval_report.margins["eq7"]) <= 1e-12

    def test_diameter_product_near_pi(self, interval_report):
        assert interval_report.diameter_product == pytest.approx(math.pi, rel=1e-3)
        assert interval_report.margins["eq10"] >= 0.0
        assert interval_report.equality_flags["eq10"]

    def test_krahn_flags_interval_as_ball(self, interval_report):
        assert interval_report.krahn_ratio == pytest.approx(1.0, abs=1e-6)
        assert interval_report.equality_flags["krahn"]

    def test_kennard_margin_positive_not_equality(self, interval_report):
        assert interval_report.margins["kennard"] > 0.1
        assert not interval_report.equality_flags["kennard"]

    def test_no_violations(self, interval_report):
        assert interval_report.violations() == []

    def test_json_schema(self, interval_report):
        payload = json.loads(interval_report.to_json())
        for key in (
            "lambda1",
            "lambda1_error",
            "sigma_p",
            "sigma_x",
            "krahn_ratio",
            "diameter_product",
            "margins",
            "equality_flags",
        ):
            assert key in payload
        assert set(payload["margins"]) == {"eq7", "eq10", "kennard"}
        assert payload["domain"]["kind"] == "interval"

    def test_csv_row_matches_header(self, interval_report):
        header, row = interval_report.to_csv().rstrip("\n").split("\n")
        assert header.startswith("domain_kind,n,hbar,lambda1")
        assert len(header.split(",")) == len(row.split(",")) == 22

    def test_serialization_deterministic(self, interval_report):
        assert interval_report.to_json() == interval_report.to_json()
        assert interval_report.to_csv() == interval_report.to_csv()

    def test_transient_memory_is_a_few_vectors(self, unit_ball3):
        # sigma_x sums each axis's marginal masses against one buffer of
        # window indices, not the (N, 3) point array: the 3-ball at h = 1/16
        # (N = 17,071) peaks near 3 vectors of N doubles, where the point
        # array made 12 and one coordinate axis at a time 5.5
        study = refine(unit_ball3, 0.25, 3)
        n = study.finest_grid.point_count
        certify_bounds(study)
        tracemalloc.start()
        try:
            certify_bounds(study)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 8 * n

    def test_hbar_covariance_leaves_ratios_unchanged(self, unit_interval):
        study = refine(unit_interval, 1.0 / 8, 3)
        reports = {hbar: certify_bounds(study, hbar) for hbar in (1.0, 2.0)}
        assert reports[2.0].sigma_p == 2.0 * reports[1.0].sigma_p
        for key in ("eq7", "eq10", "kennard"):
            assert reports[2.0].margins[key] == reports[1.0].margins[key]
        assert reports[2.0].krahn_ratio == reports[1.0].krahn_ratio
        assert reports[2.0].diameter_product == reports[1.0].diameter_product

    def test_rejects_nonpositive_or_nonfinite_hbar(self, unit_interval):
        study = refine(unit_interval, 1.0 / 8, 3)
        for hbar in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="hbar"):
                certify_bounds(study, hbar)

    def test_ball_diameter_bound_equality(self):
        report = certify_bounds(refine(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 4, 3))
        # sigma_p * d -> 2 pi hbar for the unit ball
        assert report.diameter_product == pytest.approx(2.0 * math.pi, rel=1e-2)
