"""End-to-end acceptance checks, one test per criterion.

Each criterion prints a single PASS/FAIL line (visible with pytest -s);
heavy refinement studies are shared through module-scoped fixtures.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sparse

from specbound import (
    Ball,
    Box,
    Ellipse,
    Interval,
    Polygon,
    RasterMask,
    WaveField,
    assemble,
    build_grid,
    certify_bounds,
    first_zero,
    momentum_stddev,
    refine,
    smallest_eigenpairs,
)
from specbound.cli import main as cli_main

from conftest import L_VERTICES, lattice_pairs, normalized, rayleigh_quotient
from test_discretize import interval_eigenvalues

J01 = 2.40482555769
PI = math.pi


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


def l_mask():
    cells = np.ones((8, 8), dtype=int)
    cells[4:, 4:] = 0
    return RasterMask(cells, cell_size=0.25)


@pytest.fixture(scope="module")
def core_studies():
    """Criterion-3 studies with their wall time."""
    start = time.perf_counter()
    studies = {
        "interval": refine(Interval(0.0, 1.0), 1.0 / 8, 4),
        "square": refine(Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 8, 4),
        "cube": refine(Box([[0.0, 1.0]] * 3), 1.0 / 8, 3),
        "disk": refine(Ball([0.0, 0.0], 1.0), 1.0 / 8, 5),
    }
    return studies, time.perf_counter() - start


@pytest.fixture(scope="module")
def extra_studies():
    return {
        "rect2": refine(Box([[0.0, 2.0], [0.0, 1.0]]), 1.0 / 8, 4),
        "rect4": refine(Box([[0.0, 4.0], [0.0, 1.0]]), 1.0 / 8, 4),
        "ellipse2": refine(Ellipse([0.0, 0.0], [1.0, 0.5]), 1.0 / 16, 4),
        "lshape": refine(Polygon(L_VERTICES), 1.0 / 8, 4),
        "ball": refine(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 4, 4),
        "disk4": refine(Ball([0.0, 0.0], 1.0), 1.0 / 8, 4),
        "disk4b": refine(Ball([0.0, 0.0], 1.0), 1.0 / 12, 4),
    }


@pytest.fixture(scope="module")
def suite_reports(core_studies, extra_studies):
    studies = {**core_studies[0], **extra_studies}
    names = ("disk", "square", "rect2", "rect4", "ellipse2", "lshape", "ball", "interval")
    return {name: certify_bounds(studies[name]) for name in names}


def test_criterion_1_bessel_constants():
    with criterion(1, "first Bessel zeros at their sharp values"):
        start = time.perf_counter()
        assert abs(first_zero(0) - 2.40482555769) <= 1e-9
        assert first_zero(-0.5) == PI / 2.0
        assert first_zero(0.5) == PI
        assert time.perf_counter() - start < 1.0


def test_criterion_2_proposition_constants(tmp_path):
    with criterion(2, "diameter-bound constants pi, 4.80965, 2*pi"):
        start = time.perf_counter()
        out_path = tmp_path / "zeros.json"
        assert cli_main(["bessel-zeros", "--out", str(out_path)]) == 0
        rows = json.loads(out_path.read_text())["rows"]
        two = {row["n"]: row["two_zero"] for row in rows}
        assert two[1] == pytest.approx(PI, abs=1e-10)
        assert two[2] == pytest.approx(4.80965111539, abs=1e-6)
        assert two[2] >= 4.8
        assert two[3] == pytest.approx(2.0 * PI, abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_analytic_eigenvalues(core_studies):
    with criterion(3, "extrapolated lambda1 against analytic values"):
        studies, elapsed = core_studies
        assert studies["interval"].extrapolated == pytest.approx(PI**2, rel=1e-3)
        assert studies["square"].extrapolated == pytest.approx(2 * PI**2, rel=1e-3)
        assert studies["cube"].extrapolated == pytest.approx(3 * PI**2, rel=5e-3)
        assert studies["disk"].extrapolated == pytest.approx(J01**2, rel=5e-3)
        assert elapsed < 60.0


def test_criterion_4_krahn_certification(suite_reports):
    with criterion(4, "isoperimetric ratio >= 1 across the shape suite"):
        for name in ("disk", "square", "rect2", "rect4", "ellipse2", "lshape", "ball"):
            report = suite_reports[name]
            assert report.krahn_ratio >= 1.0 - report.tolerance_band, name
        assert suite_reports["disk"].krahn_ratio == pytest.approx(1.0, abs=1e-2)
        assert suite_reports["ball"].krahn_ratio == pytest.approx(1.0, abs=1e-2)
        derived_square = 2.0 * PI / first_zero(0) ** 2
        assert suite_reports["square"].krahn_ratio == pytest.approx(
            derived_square, rel=1e-2
        )


def test_criterion_5_spectral_bound(suite_reports):
    with criterion(5, "sigma_p >= hbar*sqrt(discrete lambda1), zero violations"):
        rng = np.random.default_rng(20260810)
        for name, report in suite_reports.items():
            domain_spec = report.domain_spec
            # modest grids keep 100 draws per domain cheap
            from specbound import domain_from_spec

            domain = domain_from_spec(domain_spec)
            h = 1.0 / 8 if domain.dim == 3 else 1.0 / 16
            grid = build_grid(domain, h)
            matrix = assemble(grid)
            spectrum = smallest_eigenpairs(matrix)
            lam = float(spectrum.eigenvalues[0])
            floor = math.sqrt(lam)
            violations = 0
            for _ in range(100):
                field = normalized(
                    WaveField(rng.standard_normal(grid.point_count), grid)
                )
                if momentum_stddev(matrix, field) < floor:
                    violations += 1
            assert violations == 0, name
            ground = spectrum.wavefield(grid)
            margin = momentum_stddev(matrix, ground) / floor - 1.0
            assert margin <= 1e-8, name


def test_criterion_6_diameter_bounds(core_studies, extra_studies, suite_reports):
    with criterion(6, "sigma_p*d against pi, 2*j01, 2*pi with ball equality"):
        two_j01 = 2.0 * first_zero(0)
        # n = 1: grid-exact boundary, 0.1 percent
        interval = suite_reports["interval"]
        assert interval.diameter_product == pytest.approx(PI, rel=1e-3)
        assert interval.margins["eq10"] >= 0.0
        # n = 2: within 1 percent, approached from above under refinement
        disk5 = suite_reports["disk"]
        assert disk5.diameter_product == pytest.approx(two_j01, rel=1e-2)
        disk4 = certify_bounds(extra_studies["disk4"])
        assert disk4.diameter_product >= disk5.diameter_product >= two_j01
        # n = 3: within 1 percent, from above
        ball = suite_reports["ball"]
        assert ball.diameter_product == pytest.approx(2.0 * PI, rel=1e-2)
        assert ball.margins["eq10"] >= 0.0
        # non-ball stays clear of the bound
        square = suite_reports["square"]
        assert square.diameter_product >= two_j01 * 1.05


def test_criterion_7_solver_oracle_equivalence():
    with criterion(7, "iterative lambda1 matches dense oracle at N <= 200"):
        shapes = [
            (Interval(0.0, 1.0), 1.0 / 8),
            (Interval(0.0, 1.0), 1.0 / 64),
            (Box([[0.0, 1.0], [0.0, 1.0]]), 1.0 / 12),
            (Box([[0.0, 2.0], [0.0, 1.0]]), 1.0 / 8),
            (Ball([0.0, 0.0], 1.0), 1.0 / 7),
            (Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 3),
            (Polygon(L_VERTICES), 1.0 / 4),
            (l_mask(), 1.0 / 8),
        ]
        for domain, h in shapes:
            grid = build_grid(domain, h)
            assert grid.point_count <= 200
            matrix = assemble(grid)
            spectrum = smallest_eigenpairs(matrix)
            dense = np.linalg.eigvalsh(matrix.matrix.toarray())[0]
            assert spectrum.eigenvalues[0] == pytest.approx(dense, rel=1e-8)
        # interval matrices against the closed-form spectrum
        for n_points in (7, 15, 31, 63):
            h = 1.0 / (n_points + 1)
            grid = build_grid(Interval(0.0, 1.0), h)
            matrix = assemble(grid)
            spectrum = smallest_eigenpairs(matrix)
            expected = interval_eigenvalues(n_points, h)[0]
            assert spectrum.eigenvalues[0] == pytest.approx(expected, rel=1e-10)


def test_criterion_8_property_suites(tmp_path, capsys):
    with criterion(8, "variational, unit norm, positivity, covariance"):
        rng = np.random.default_rng(4391)
        for domain, h in (
            (Ball([0.0, 0.0], 1.0), 1.0 / 8),
            (Polygon(L_VERTICES), 1.0 / 8),
            (Interval(0.0, 1.0), 1.0 / 32),
        ):
            grid = build_grid(domain, h)
            matrix = assemble(grid)
            spectrum = smallest_eigenpairs(matrix)
            lam1 = float(spectrum.eigenvalues[0])
            # Rayleigh domination, 1000 seeded vectors, zero violations
            violations = 0
            for _ in range(1000):
                psi = rng.standard_normal(grid.point_count)
                if rayleigh_quotient(matrix, psi) < lam1 * (1.0 - 1e-8):
                    violations += 1
            assert violations == 0
            # discrete unit norm at 1e-8
            ground = spectrum.eigenvectors[:, 0]
            assert abs(spectrum.wavefield(grid).norm_squared() - 1.0) <= 1e-8
            # ground-state positivity after sign normalization
            assert np.min(ground) > -1e-10 * np.max(ground)
            # mean momentum vanishes per axis: h^n psi^T D psi for the
            # antisymmetric central difference D built from the lattice
            field = spectrum.wavefield(grid)
            psi, n = field.values, grid.point_count
            for axis in range(grid.dim):
                src, dst = lattice_pairs(grid, axis)
                signs = np.concatenate([np.ones(len(src)), -np.ones(len(src))])
                d = sparse.csr_matrix(
                    (signs, (np.concatenate([src, dst]), np.concatenate([dst, src]))), shape=(n, n)
                ) / (2.0 * grid.spacing)
                assert abs(field.weight * float(psi @ (d @ psi))) <= 1e-10 / grid.spacing
            # hbar covariance is exact at c = 2
            sigma_1 = momentum_stddev(matrix, field, 1.0)
            sigma_2 = momentum_stddev(matrix, field, 2.0)
            assert sigma_2 == 2.0 * sigma_1
        # byte-identical artifacts across two runs of the same config
        spec = '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":1}}'
        blobs = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            code = cli_main(
                [
                    "certify",
                    "--domain",
                    spec,
                    "--h-start",
                    "0.25",
                    "--levels",
                    "3",
                    "--out",
                    str(path),
                ]
            )
            capsys.readouterr()
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_9_convergence_orders(core_studies, extra_studies):
    with criterion(9, "box order 2.0 +/- 0.1; curved/mask studies consistent"):
        studies, _ = core_studies
        assert studies["interval"].observed_order == pytest.approx(2.0, abs=0.1)
        assert studies["square"].observed_order == pytest.approx(2.0, abs=0.1)
        assert studies["cube"].observed_order == pytest.approx(2.0, abs=0.1)
        # curved boundary: order reported, two h_start values agree within
        # the larger error estimate
        a, b = extra_studies["disk4"], extra_studies["disk4b"]
        assert 0.0 < a.observed_order <= 2.5
        assert abs(a.extrapolated - b.extrapolated) <= max(
            a.error_estimate, b.error_estimate
        )
        # lattice-aligned rectangular mask behaves like a box and stays
        # consistent; the reentrant L mask is excluded here because its
        # corner singularity defeats power-law extrapolation at this depth
        block = RasterMask(np.ones((8, 4), dtype=int), cell_size=0.25)
        mask_a = refine(block, 1.0 / 8, 4)
        mask_b = refine(block, 1.0 / 12, 4)
        assert mask_a.observed_order == pytest.approx(2.0, abs=0.1)
        assert abs(mask_a.extrapolated - mask_b.extrapolated) <= max(
            mask_a.error_estimate, mask_b.error_estimate
        )
