import math

import numpy as np
import pytest

from specbound import (
    Ball,
    Box,
    Interval,
    Polygon,
    RasterMask,
    assemble,
    build_grid,
    refine,
    smallest_eigenpairs,
)
from specbound import convergence
from specbound.eigensolve import DEFAULT_TOL

from conftest import L_VERTICES
from test_discretize import interval_eigenvalues


@pytest.fixture
def no_grid(monkeypatch):
    """Make building any level fail the test."""

    def forbidden(domain, h):
        raise AssertionError(f"build_grid called at h={h}")

    monkeypatch.setattr(convergence, "build_grid", forbidden)


@pytest.fixture(scope="module")
def interval_study():
    return refine(Interval(0.0, 1.0), 1.0 / 8, 4)


@pytest.fixture(scope="module")
def disk_study():
    return refine(Ball([0.0, 0.0], 1.0), 1.0 / 8, 4)


class TestRefineBoxes:
    def test_interval_extrapolates_to_pi_squared(self, interval_study):
        assert interval_study.extrapolated == pytest.approx(math.pi**2, rel=1e-5)

    def test_interval_observed_order_is_two(self, interval_study):
        assert interval_study.observed_order == pytest.approx(2.0, abs=0.1)

    def test_interval_levels_match_closed_form(self, interval_study):
        for h, lam in zip(interval_study.spacings, interval_study.lambda1_values):
            n_points = round(1.0 / h) - 1
            expected = interval_eigenvalues(n_points, h)[0]
            assert lam == pytest.approx(expected, rel=1e-9)

    def test_interval_sequence_monotone(self, interval_study):
        assert interval_study.monotone

    def test_square_extrapolates_to_two_pi_squared(self):
        study = refine(Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 8, 4)
        assert study.extrapolated == pytest.approx(2.0 * math.pi**2, rel=1e-4)
        assert study.observed_order == pytest.approx(2.0, abs=0.1)

    def test_extrapolation_insensitive_to_h_start(self):
        a = refine(Interval(0.0, 1.0), 1.0 / 8, 4)
        b = refine(Interval(0.0, 1.0), 1.0 / 6, 4)
        assert abs(a.extrapolated - b.extrapolated) <= max(
            a.error_estimate, b.error_estimate
        )


class TestRefineDisk:
    def test_disk_extrapolates_to_bessel_zero_squared(self, disk_study):
        assert disk_study.extrapolated == pytest.approx(2.404825557695773**2, rel=1e-2)

    def test_disk_order_reported_below_two(self, disk_study):
        # point-omission boundaries on curved domains degrade the order;
        # the study reports what it observed instead of asserting 2
        assert 0.3 <= disk_study.observed_order <= 2.0

    def test_error_estimate_nonnegative(self, disk_study):
        assert disk_study.error_estimate >= 0.0


@pytest.mark.parametrize(
    "domain", [Ball([0.0, 0.0], 1.0), Polygon(L_VERTICES)], ids=["disk", "l-shape"]
)
def test_warm_start_keeps_each_level(domain):
    study = refine(domain, 1.0 / 8, 3)
    for h, lam in zip(study.spacings, study.lambda1_values):
        cold = smallest_eigenpairs(assemble(build_grid(domain, h)))
        assert lam == pytest.approx(cold.eigenvalues[0], rel=1e-12)
    finest = study.finest_spectrum
    assert finest.residuals[0] <= DEFAULT_TOL * finest.eigenvalues[0]


@pytest.mark.parametrize(
    "domain, h_start, levels",
    [
        (Ball([0.0, 0.0], 1.0), 1.0 / 16, 4),
        (RasterMask([[1, 1, 1], [1, 0, 1], [1, 1, 1]], cell_size=0.25), 1.0 / 8, 4),
        (Ball([0.0, 0.0, 0.0], 1.0), 0.25, 3),
    ],
    ids=["disk", "mask-with-hole", "ball3"],
)
def test_every_level_is_preconditioned(monkeypatch, domain, h_start, levels):
    # every level, the first included, gets a V-cycle, applies it a number of
    # times that does not grow as h halves, and reaches the eigenvalue that
    # the default-preconditioned solver finds from the same start
    solves = []

    def counting(matrix, tol, v0, precondition):
        assert precondition is not None
        calls = []

        def counted(r):
            calls.append(1)
            return precondition(r)

        spectrum = smallest_eigenpairs(matrix, tol=tol, v0=v0, precondition=counted)
        solves.append((matrix, tol, v0, len(calls), spectrum))
        return spectrum

    monkeypatch.setattr(convergence, "smallest_eigenpairs", counting)
    refine(domain, h_start, levels)
    assert len(solves) == levels
    assert solves[0][2] is None
    for matrix, tol, v0, calls, spectrum in solves:
        # only a start that is already the ground state needs no step: the
        # constant vector on the ring's first level, a 16-point cycle
        exact = v0 is None and np.ptp(matrix.matrix @ np.ones(matrix.shape[0])) == 0
        assert calls <= 25 and (calls == 0) == exact
        lam = spectrum.eigenvalues[0]
        default = smallest_eigenpairs(matrix, tol, v0)
        assert abs(lam - default.eigenvalues[0]) <= tol * lam


class TestStudyShape:
    def test_spacings_strictly_decreasing(self):
        study = refine(Interval(0.0, 1.0), 1.0 / 8, 4)
        assert np.all(np.diff(study.spacings) < 0)
        assert study.spacings.shape[0] == 4

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            refine(Interval(0.0, 1.0), 1.0 / 8, 2)

    def test_point_cap_enforced(self, no_grid):
        # 2**25 + 1 lattice points at the first level
        with pytest.raises(ValueError, match="33554433 lattice points, above the cap 20000000"):
            refine(Interval(0.0, 1.0), 2.0**-25, 3)

    def test_point_cap_checked_before_any_level_is_built(self, no_grid):
        # lattices of 2**22 + 1 to 2**25 + 1 points: only the finest is over
        # the cap
        with pytest.raises(ValueError, match=r"h=2\.98\d*e-08 .*cap"):
            refine(Interval(0.0, 1.0), 2.0**-22, 4)

    def test_many_levels_stop_at_first_oversized_level(self, no_grid):
        # 2**1100 overflows a float; level 22 (h = 2**-25) is over the cap
        with pytest.raises(ValueError, match=r"h=2\.98\d*e-08 .*cap"):
            refine(Interval(0.0, 1.0), 1.0 / 8, 1100)

    def test_finest_level_artifacts_kept(self):
        study = refine(Interval(0.0, 1.0), 1.0 / 8, 3)
        assert study.finest_grid is not None
        assert study.finest_grid.spacing == pytest.approx(1.0 / 32)
        assert study.finest_spectrum.eigenvalues[0] == pytest.approx(
            study.lambda1_values[-1]
        )

    def test_csv_layout(self):
        study = refine(Interval(0.0, 1.0), 1.0 / 8, 3)
        lines = study.to_csv().strip().split("\n")
        assert lines[0] == "h,lambda1,diff,extrapolant"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[2] == "" and first[3] == ""
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(study.extrapolated)

    def test_deterministic_repeat(self):
        for domain in (Interval(0.0, 1.0), Ball([0.0, 0.0], 1.0)):
            a = refine(domain, 1.0 / 8, 3)
            b = refine(domain, 1.0 / 8, 3)
            assert a.to_csv() == b.to_csv()
            assert np.array_equal(a.lambda1_values, b.lambda1_values)
