import json
import math

import numpy as np
import pytest

from specbound import (
    Ball,
    Interval,
    PhysicalConstants,
    WaveField,
    assemble,
    build_grid,
    certify_bounds,
    krahn_ratio,
    mean_momentum,
    momentum_stddev,
    position_stddev,
    rayleigh_quotient,
    refine,
    smallest_eigenpairs,
)

J01 = 2.404825557695773
HBAR = PhysicalConstants()


def ground_state(domain, h):
    grid = build_grid(domain, h)
    matrix = assemble(grid)
    spectrum = smallest_eigenpairs(matrix, k=1)
    return grid, matrix, spectrum, spectrum.wavefield(grid, 0)


class TestMomentumStddev:
    def test_quadratic_form_identity(self, l_polygon):
        # sigma_p^2 must equal hbar^2 * Rayleigh quotient to roundoff for
        # every normalized field
        grid = build_grid(l_polygon, 0.125)
        matrix = assemble(grid)
        rng = np.random.default_rng(11)
        for _ in range(25):
            field = WaveField(rng.standard_normal(grid.point_count), grid).normalize()
            sigma = momentum_stddev(matrix, field, HBAR)
            quotient = rayleigh_quotient(matrix, field)
            assert sigma**2 == pytest.approx(quotient, rel=1e-13)

    def test_interval_ground_state_approaches_pi(self, unit_interval):
        _, matrix, _, field = ground_state(unit_interval, 1.0 / 64)
        sigma = momentum_stddev(matrix, field, HBAR)
        assert sigma == pytest.approx(math.pi, rel=1e-3)

    def test_square_ground_state(self, unit_square):
        _, matrix, _, field = ground_state(unit_square, 1.0 / 32)
        sigma = momentum_stddev(matrix, field, HBAR)
        assert sigma**2 == pytest.approx(2.0 * math.pi**2, rel=2e-3)

    def test_disk_ground_state_approaches_bessel_zero(self, unit_disk):
        _, matrix, _, field = ground_state(unit_disk, 1.0 / 32)
        sigma = momentum_stddev(matrix, field, HBAR)
        assert sigma == pytest.approx(J01, rel=2e-2)

    def test_requires_normalization(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        matrix = assemble(grid)
        with pytest.raises(ValueError):
            momentum_stddev(matrix, WaveField(np.ones(3), grid), HBAR)
        with pytest.raises(ValueError):
            momentum_stddev(matrix, WaveField(np.zeros(3), grid, True), HBAR)

    def test_hbar_scaling_is_exact_at_two(self, unit_interval):
        _, matrix, _, field = ground_state(unit_interval, 1.0 / 16)
        base = momentum_stddev(matrix, field, PhysicalConstants(1.0))
        doubled = momentum_stddev(matrix, field, PhysicalConstants(2.0))
        assert doubled == 2.0 * base


class TestMeanMomentum:
    def test_eigenvector_fields_vanish(self, unit_disk, l_polygon):
        for dom, h in ((unit_disk, 0.125), (l_polygon, 0.125)):
            grid, _, spectrum, field = ground_state(dom, h)
            mean = mean_momentum(grid, field)
            assert np.all(np.abs(mean) <= 1e-10 / grid.spacing)

    def test_symmetric_interval_field_is_exactly_zero(self, unit_interval):
        grid = build_grid(unit_interval, 0.125)
        x = grid.points()[:, 0]
        field = WaveField(np.sin(math.pi * x), grid).normalize()
        assert mean_momentum(grid, field).tolist() == [0.0]

    def test_single_point_field(self):
        mask = np.zeros((3, 3), dtype=int)
        mask[1, 1] = 1
        from specbound import RasterMask

        grid = build_grid(RasterMask(mask, cell_size=1.0 / 3.0), 0.25)
        field = WaveField(np.array([4.0]), grid, normalized=True)
        assert mean_momentum(grid, field).tolist() == [0.0, 0.0]

    def test_random_fields_stay_below_bound(self, unit_square):
        grid = build_grid(unit_square, 1.0 / 16)
        rng = np.random.default_rng(3)
        for _ in range(50):
            field = WaveField(rng.standard_normal(grid.point_count), grid).normalize()
            mean = mean_momentum(grid, field)
            assert np.all(np.abs(mean) <= 1e-10 / grid.spacing)


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
        assert position_stddev(grid, field) == pytest.approx(closed_form, rel=1e-3)

    def test_point_mass_has_zero_spread(self):
        from specbound import RasterMask

        mask = np.zeros((3, 3), dtype=int)
        mask[1, 1] = 1
        grid = build_grid(RasterMask(mask, cell_size=1.0 / 3.0), 0.25)
        field = WaveField(np.array([4.0]), grid, normalized=True)
        assert position_stddev(grid, field) == 0.0

    def test_kennard_product_on_interval(self, unit_interval):
        grid, matrix, _, field = ground_state(unit_interval, 1.0 / 64)
        sigma_p = momentum_stddev(matrix, field, HBAR)
        sigma_x = position_stddev(grid, field)
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
        direct = lam / (math.pi * J01**2 / metrics.area)
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


@pytest.fixture(scope="module")
def interval_report():
    domain = Interval(0.0, 1.0)
    study = refine(domain, 1.0 / 8, 4)
    field = study.finest_spectrum.wavefield(study.finest_grid, 0)
    return certify_bounds(
        domain,
        study.extrapolated,
        study.error_estimate,
        field,
        HBAR,
        matrix=study.finest_matrix,
        lambda1_discrete=float(study.finest_spectrum.eigenvalues[0]),
    )


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

    def test_hbar_covariance_leaves_ratios_unchanged(self, unit_interval):
        study = refine(unit_interval, 1.0 / 8, 3)
        field = study.finest_spectrum.wavefield(study.finest_grid, 0)
        reports = {}
        for hbar in (1.0, 2.0):
            reports[hbar] = certify_bounds(
                unit_interval,
                study.extrapolated,
                study.error_estimate,
                field,
                PhysicalConstants(hbar),
                matrix=study.finest_matrix,
                lambda1_discrete=float(study.finest_spectrum.eigenvalues[0]),
            )
        assert reports[2.0].sigma_p == 2.0 * reports[1.0].sigma_p
        for key in ("eq7", "eq10", "kennard"):
            assert reports[2.0].margins[key] == reports[1.0].margins[key]
        assert reports[2.0].krahn_ratio == reports[1.0].krahn_ratio
        assert reports[2.0].diameter_product == reports[1.0].diameter_product

    def test_ball_diameter_bound_equality(self):
        domain = Ball([0.0, 0.0, 0.0], 1.0)
        study = refine(domain, 1.0 / 4, 3)
        field = study.finest_spectrum.wavefield(study.finest_grid, 0)
        report = certify_bounds(
            domain,
            study.extrapolated,
            study.error_estimate,
            field,
            HBAR,
            matrix=study.finest_matrix,
            lambda1_discrete=float(study.finest_spectrum.eigenvalues[0]),
        )
        # sigma_p * d -> 2 pi hbar for the unit ball
        assert report.diameter_product == pytest.approx(2.0 * math.pi, rel=1e-2)
