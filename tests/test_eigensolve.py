import dataclasses
import math
import re

import numpy as np
import pytest

from specbound import (
    Ball,
    Box,
    Interval,
    Polygon,
    RasterMask,
    SolverConvergenceError,
    WaveField,
    assemble,
    build_grid,
    rayleigh_quotient,
    smallest_eigenpairs,
)

from specbound.discretize import _prolong
from specbound.eigensolve import _v_cycle

from conftest import L_VERTICES


def small_matrices():
    """Assembled operators with N <= 200 across shapes and dimensions."""
    cases = [
        (Interval(0.0, 1.0), 1.0 / 8),
        (Interval(0.0, 1.0), 1.0 / 32),
        (Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 3),
        (Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 12),
        (Box([[0.0, 2.0], [0.0, 1.0]]), 1.0 / 8),
        (Ball([0.0, 0.0], 1.0), 0.5),
        (Ball([0.0, 0.0], 1.0), 1.0 / 7),
        (Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 3),
        (Polygon(L_VERTICES), 0.25),
    ]
    for domain, h in cases:
        grid = build_grid(domain, h)
        assert grid.point_count <= 200
        yield grid, assemble(grid)


class TestSmallestEigenpairs:
    def test_interval_three_point_closed_form(self):
        grid = build_grid(Interval(0.0, 1.0), 0.25)
        spectrum = smallest_eigenpairs(assemble(grid))
        assert spectrum.eigenvalues[0] == pytest.approx(
            32.0 - 16.0 * math.sqrt(2.0), rel=1e-12
        )

    def test_scalar_matrix(self):
        mask = np.zeros((3, 3), dtype=int)
        mask[1, 1] = 1
        grid = build_grid(RasterMask(mask, cell_size=1.0 / 3.0), 0.25)
        assert grid.point_count == 1
        matrix = assemble(grid)
        spectrum = smallest_eigenpairs(matrix)
        assert spectrum.eigenvalues[0] == pytest.approx(64.0, rel=1e-13)
        # h^n-weighted normalization: |v| = h^(-n/2) = 1/h for n = 2
        assert abs(spectrum.eigenvectors[0, 0]) == pytest.approx(4.0, rel=1e-13)

    def test_dense_oracle_equivalence(self):
        for grid, matrix in small_matrices():
            spectrum = smallest_eigenpairs(matrix)
            dense = np.linalg.eigvalsh(matrix.matrix.toarray())[0]
            assert spectrum.eigenvalues[0] == pytest.approx(dense, rel=1e-8)

    def test_residual_certificates(self, unit_disk):
        grid = build_grid(unit_disk, 0.125)
        matrix = assemble(grid)
        spectrum = smallest_eigenpairs(matrix, tol=1e-10)
        v = spectrum.eigenvectors[:, 0]
        lam = spectrum.eigenvalues[0]
        recomputed = np.linalg.norm(matrix.matrix @ v - lam * v) / np.linalg.norm(v)
        assert recomputed <= 1e-10 * lam * 1.01
        assert abs(recomputed - spectrum.residuals[0]) <= 1e-12 * lam

    def test_unit_norm_in_weighted_inner_product(self, unit_disk):
        grid = build_grid(unit_disk, 0.125)
        spectrum = smallest_eigenpairs(assemble(grid))
        assert spectrum.eigenvectors.shape == (grid.point_count, 1)
        v = spectrum.eigenvectors[:, 0]
        assert spectrum.inner_product_weight * (v @ v) == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_positive_after_sign_fix(self, unit_disk, l_polygon):
        for dom, h in ((unit_disk, 0.125), (l_polygon, 0.125)):
            grid = build_grid(dom, h)
            spectrum = smallest_eigenpairs(assemble(grid))
            v = spectrum.eigenvectors[:, 0]
            assert v.sum() > 0
            assert np.min(v) > -1e-10 * np.max(v)

    def test_deterministic_repeat(self, unit_disk):
        grid = build_grid(unit_disk, 0.125)
        matrix = assemble(grid)
        s1 = smallest_eigenpairs(matrix)
        s2 = smallest_eigenpairs(matrix)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_prolonged_start_matches_seeded_start(self, unit_disk):
        coarse = build_grid(unit_disk, 0.125)
        fine = build_grid(unit_disk, 0.0625)
        ground = smallest_eigenpairs(assemble(coarse)).eigenvectors[:, 0]
        matrix = assemble(fine)
        warm = smallest_eigenpairs(matrix, v0=_prolong(coarse, ground, fine))
        cold = smallest_eigenpairs(matrix)
        assert warm.eigenvalues[0] == pytest.approx(cold.eigenvalues[0], rel=1e-12)
        assert warm.residuals[0] <= 1e-10 * warm.eigenvalues[0]

    def test_v_cycle_maps_zero_to_zero(self, unit_disk, unit_ball3):
        # the coarsest level's conjugate gradients must not divide 0 by 0
        for domain in (unit_disk, unit_ball3):
            grids = [build_grid(domain, h) for h in (0.25, 0.125, 0.0625)]
            zero = np.zeros(grids[-1].point_count)
            assert np.array_equal(_v_cycle(grids, [assemble(g) for g in grids], zero), zero)

    def test_zero_or_nonfinite_start_rejected(self, unit_interval):
        matrix = assemble(build_grid(unit_interval, 0.25))
        for v0 in (np.zeros(3), np.array([1.0, np.nan, 1.0])):
            with pytest.raises(ValueError):
                smallest_eigenpairs(matrix, v0=v0)

    def test_nonconvergence_reports_best_residual(self, unit_interval):
        h = 0.125
        matrix = assemble(build_grid(unit_interval, h))
        with pytest.raises(SolverConvergenceError) as info:
            smallest_eigenpairs(matrix, tol=1e-30)
        lam = (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        assert 0.0 < info.value.best_residual <= 1e-8 * lam
        message = str(info.value)
        assert "iterations" in message and "matvecs" in message
        assert f"{info.value.best_residual:.3e}" in message

    def test_tol_outside_unit_interval_rejected(self, unit_interval):
        matrix = assemble(build_grid(unit_interval, 0.25))
        for tol in (0.0, -1e-10, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                smallest_eigenpairs(matrix, tol=tol)

    @pytest.mark.parametrize(
        "domain, h, tol",
        [
            (Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 8, 1e-16),
            (Ball([0.0, 0.0], 1.0), 1.0 / 16, 1e-14),
            (Ball([0.0, 0.0], 1.0), 1.0 / 8, 1e-15),
        ],
        ids=["square", "disk", "disk-below-carried-floor"],
    )
    def test_tol_below_roundoff_floor_stops_early(self, domain, h, tol):
        # no fresh residual can reach tol * lambda (the square's floor is
        # about 1.6e-14): the solve must stop once the residual stalls, well
        # before the 2000-iteration cap, and report a best residual that
        # missed the target
        matrix = assemble(build_grid(domain, h))
        lam = np.linalg.eigvalsh(matrix.matrix.toarray())[0]
        with pytest.raises(SolverConvergenceError) as info:
            smallest_eigenpairs(matrix, tol=tol)
        iterations = int(re.search(r"within (\d+) iterations", str(info.value))[1])
        assert iterations < 2000 / 2
        assert info.value.best_residual > tol * lam

    def test_cold_start_on_fine_1d_lattice(self, unit_interval):
        # the slowest case for an unpreconditioned solver, whose iteration
        # count grows like 1/h
        h = 1.0 / 2048
        matrix = assemble(build_grid(unit_interval, h))
        spectrum = smallest_eigenpairs(matrix)
        lam = spectrum.eigenvalues[0]
        assert lam == pytest.approx((4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2, rel=1e-11)
        assert spectrum.residuals[0] <= 1e-10 * lam

    def test_uses_matrix_only_through_matmul(self, unit_disk):
        # the benchmark's tracer substitutes a proxy that counts `@`
        class MatmulOnly:
            __slots__ = ("shape", "_matrix")

            def __init__(self, matrix):
                self.shape = matrix.shape
                self._matrix = matrix

            def __matmul__(self, other):
                return self._matrix @ other

        matrix = assemble(build_grid(unit_disk, 0.125))
        wrapped = dataclasses.replace(matrix, matrix=MatmulOnly(matrix.matrix))
        plain = smallest_eigenpairs(matrix)
        proxied = smallest_eigenpairs(wrapped)
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(plain, name), getattr(proxied, name))
        assert plain.inner_product_weight == proxied.inner_product_weight

    def test_monotone_under_domain_restriction(self):
        # nested rasters at the same spacing: shrinking the domain can only
        # raise the smallest eigenvalue
        full = np.ones((8, 8), dtype=int)
        bitten = full.copy()
        bitten[:3, :3] = 0
        h = 1.0 / 16.0
        lam = {}
        for name, mask in (("full", full), ("bitten", bitten)):
            domain = RasterMask(mask, cell_size=0.25)
            spectrum = smallest_eigenpairs(assemble(build_grid(domain, h)))
            lam[name] = spectrum.eigenvalues[0]
        assert lam["bitten"] >= lam["full"] - 1e-10


class TestRayleighQuotient:
    def test_all_ones_on_interval(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        matrix = assemble(grid)
        field = WaveField(np.ones(3), grid)
        assert rayleigh_quotient(matrix, field) == pytest.approx(32.0 / 3.0, rel=1e-14)

    def test_eigenvector_stationarity(self, unit_disk):
        grid = build_grid(unit_disk, 0.25)
        matrix = assemble(grid)
        spectrum = smallest_eigenpairs(matrix)
        quotient = rayleigh_quotient(matrix, spectrum.wavefield(grid))
        assert quotient == pytest.approx(spectrum.eigenvalues[0], rel=1e-10)

    def test_dominates_smallest_eigenvalue(self, l_polygon):
        grid = build_grid(l_polygon, 0.25)
        matrix = assemble(grid)
        lam1 = smallest_eigenpairs(matrix).eigenvalues[0]
        rng = np.random.default_rng(42)
        for _ in range(1000):
            psi = rng.standard_normal(grid.point_count)
            assert rayleigh_quotient(matrix, psi) >= lam1 * (1.0 - 1e-8)

    def test_zero_vector_rejected(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        matrix = assemble(grid)
        with pytest.raises(ValueError):
            rayleigh_quotient(matrix, np.zeros(3))


class TestWaveField:
    def test_normalization(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        field = WaveField(np.array([1.0, 2.0, 2.0]), grid).normalize()
        assert field.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        with pytest.raises(ValueError):
            WaveField(np.ones(5), grid)

    def test_zero_field_cannot_normalize(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        with pytest.raises(ValueError):
            WaveField(np.zeros(3), grid).normalize()
