import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from specbound import (
    Ball,
    Box,
    GridError,
    Interval,
    Polygon,
    RasterMask,
    assemble,
    build_grid,
)
from specbound.discretize import _prolong, _restrict

from conftest import (
    L_VERTICES,
    WINDOW_CASES,
    full_frame_grid,
    grid_points,
    lattice_indices,
    lattice_pairs,
)

# (domain, coarse spacing); the 3-ball's 0.3 divides no box edge, so its
# windows end on points past the box
TRANSFER_CASES = [
    (Ball([0.0, 0.0], 1.0), 0.125),
    (Polygon(L_VERTICES), 0.125),
    (Ball([0.0, 0.0, 0.0], 1.0), 0.3),
]
TRANSFER_IDS = ["disk", "l-shape", "ball3-non-dividing"]


def interval_eigenvalues(n_points, h):
    """Closed-form spectrum of the 1-D Dirichlet stencil on (0, (n+1)h)."""
    k = np.arange(1, n_points + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * math.pi / (n_points + 1)))


class TestBuildGrid:
    def test_interval_interior_points(self, unit_interval):
        grid = build_grid(unit_interval, 0.25)
        assert grid.point_count == 3
        assert grid_points(grid)[:, 0].tolist() == [0.25, 0.5, 0.75]

    def test_unit_square_two_by_two(self, unit_square):
        grid = build_grid(unit_square, 1.0 / 3.0)
        assert grid.point_count == 4

    def test_unit_disk_enumeration_oracle(self, unit_disk):
        # independent oracle: enumerate the 5x5 lattice over [-1,1]^2 and
        # keep points strictly inside the disk
        expected = 0
        for i in range(5):
            for j in range(5):
                x, y = -1.0 + 0.5 * i, -1.0 + 0.5 * j
                if x * x + y * y < 1.0:
                    expected += 1
        grid = build_grid(unit_disk, 0.5)
        assert expected == 9
        assert grid.point_count == expected

    def test_lattice_anchored_at_bounding_box_corner(self, unit_disk):
        grid = build_grid(unit_disk, 0.5)
        assert grid.origin.tolist() == [-1.0, -1.0]
        pts = grid_points(grid)
        assert [0.0, 0.0] in pts.tolist()

    def test_every_grid_point_is_inside(self, l_polygon):
        grid = build_grid(l_polygon, 0.125)
        assert bool(np.all(l_polygon.membership(grid_points(grid))))

    def test_indices_are_bijective(self, unit_disk):
        # point i is the i-th interior point in lattice order, the numbering
        # that assemble's stencil gathers and CSR rows rely on
        grid = build_grid(unit_disk, 0.25)
        assert grid.point_count > 1
        assert np.all(np.diff(grid.interior_flat) > 0)

    def test_grid_storage_is_proportional_to_points(self):
        # a sparse 3-D mask: 64 of 32^3 cells, so the box has 65^3 lattice
        # points, and the window over the occupied cells 9^3, for 7^3
        # interior ones
        mask = np.zeros((32, 32, 32), dtype=int)
        mask[:4, :4, :4] = 1
        grid = build_grid(RasterMask(mask, cell_size=1.0 / 32), 1.0 / 64)
        arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert (grid.shape, grid.point_count) == ((9, 9, 9), 343)
        assert sum(a.nbytes for a in arrays) <= 8 * grid.point_count + 8 * grid.dim

    @pytest.mark.parametrize(
        "domain, h",
        [
            (Box([[0.0, 1.0]] * 3), 1.0 / 64),
            (Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 32),
            (RasterMask(np.pad(np.ones((11, 12, 8), dtype=int), [(2, 3), (3, 1), (1, 7)]), 1.0 / 16), 1.0 / 64),
        ],
        ids=["cube", "ball3", "mask3"],
    )
    def test_build_peak_is_bounded_per_window_point(self, domain, h):
        # beyond the grid's own arrays, at most 16 bytes per window point:
        # room for a float64 sum and a boolean, not for a meshgrid and a
        # stacked (lattice, dim) point array, which took 49-166 here
        build_grid(domain, h)  # first-call allocations are not the build's
        tracemalloc.start()
        try:
            grid = build_grid(domain, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
        assert peak - own <= 16 * math.prod(grid.shape)

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("h_start", [0.0, -0.1, math.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_spacing_rejected(self, unit_interval, h_start, level):
        # h_start is checked whatever level is asked for
        with pytest.raises(GridError, match="spacing must be positive"):
            build_grid(unit_interval, h_start, level)

    @pytest.mark.parametrize("level", [-1, 1.5, True])
    def test_bad_level_rejected(self, unit_interval, level):
        with pytest.raises(GridError, match=f"level must be a non-negative integer, got {level}"):
            build_grid(unit_interval, 0.1, level)

    def test_numpy_integer_level_accepted(self, unit_interval):
        grid, same = build_grid(unit_interval, 0.1, np.int64(1)), build_grid(unit_interval, 0.1, 1)
        assert (grid.start, grid.shape, grid.spacing) == (same.start, same.shape, same.spacing)
        assert grid.interior_flat.tobytes() == same.interior_flat.tobytes()

    def test_underflowing_spacing_rejected(self, unit_interval):
        # 1 / 5e-324 is inf: no lattice size to predict or allocate
        with pytest.raises(GridError, match="too small"):
            build_grid(unit_interval, 5e-324)

    def test_window_over_the_cap_rejected_before_allocating(self):
        # a 278^3 window, 21,484,952 points: a build took 181 MiB before
        # build_grid checked the cap
        tracemalloc.start()
        try:
            with pytest.raises(GridError, match="21484952 lattice points, above the cap 20000000"):
                build_grid(Box([[0.0, 1.0]] * 3), 1 / 277)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_too_coarse_spacing_rejected(self, unit_interval):
        with pytest.raises(GridError):
            build_grid(unit_interval, 0.5)

    def test_empty_grid_rejected(self):
        # single occupied cell in a 4x4 mask: bounding box [0,1]^2 but no
        # lattice point of spacing 0.3 lands strictly inside [0, 0.25]^2
        mask = np.zeros((4, 4), dtype=int)
        mask[0, 0] = 1
        sliver = RasterMask(mask, cell_size=0.25)
        with pytest.raises(GridError):
            build_grid(sliver, 0.3)


class TestAssemble:
    @pytest.mark.parametrize(
        "domain, h",
        TRANSFER_CASES + [
            (Interval(0.0, 1.0), 0.125),
            (RasterMask([[0, 0, 0], [0, 1, 0], [0, 0, 0]], 1.0 / 3), 0.25),
            (Box([[0.0, 1.0]] * 3), 0.125),
        ],
        ids=TRANSFER_IDS + ["interval", "one-point", "cube"],
    )
    def test_matches_summed_reference(self, domain, h):
        # the stencil as the sum of an off-diagonal and a diagonal matrix
        grid = build_grid(domain, h)
        n, h2 = grid.point_count, h * h
        pairs = []
        for axis in range(grid.dim):
            pairs += [lattice_pairs(grid, axis, 1), lattice_pairs(grid, axis, -1)]
        rows = np.concatenate([src for src, _ in pairs])
        cols = np.concatenate([dst for _, dst in pairs])
        off = sparse.coo_matrix((np.full(rows.shape[0], -1.0 / h2), (rows, cols)), shape=(n, n))
        diag = sparse.dia_matrix((np.full(n, 2.0 * grid.dim / h2)[None, :], [0]), shape=(n, n))
        reference = (off + diag).tocsr()
        reference.sort_indices()
        matrix = assemble(grid).matrix
        for name in ("indptr", "indices", "data"):
            assert getattr(matrix, name).dtype == getattr(reference, name).dtype
            assert np.array_equal(getattr(matrix, name), getattr(reference, name))

    def test_canonical_int32_csr(self, unit_disk, unit_ball3):
        for dom in (unit_disk, unit_ball3):
            matrix = assemble(build_grid(dom, 0.125)).matrix
            assert matrix.has_canonical_format and matrix.has_sorted_indices
            assert matrix.indices.dtype == matrix.indptr.dtype == np.int32

    @pytest.mark.parametrize("dim, h", [(3, 1.0 / 16), (2, 1.0 / 64)], ids=["ball3", "disk"])
    def test_transient_storage_is_bounded(self, dim, h):
        # a triplet build with a COO-to-CSR conversion on top peaks near 4x
        # the matrix; writing the CSR arrays directly stays below 2x
        grid = build_grid(Ball([0.0] * dim, 1.0), h)
        tracemalloc.start()
        try:
            matrix = assemble(grid).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 2 * stored

    def test_interval_tridiagonal(self, unit_interval):
        matrix = assemble(build_grid(unit_interval, 0.25))
        dense = matrix.matrix.toarray()
        expected = np.array(
            [[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]]
        )
        assert np.array_equal(dense, expected)

    def test_single_point_grid(self):
        # one interior point in 2-D: all four neighbors omitted
        mask = np.zeros((3, 3), dtype=int)
        mask[1, 1] = 1
        center_cell = RasterMask(mask, cell_size=1.0 / 3.0)
        grid = build_grid(center_cell, 0.25)
        assert grid.point_count == 1
        dense = assemble(grid).matrix.toarray()
        assert dense.shape == (1, 1)
        assert dense[0, 0] == 4.0 / 0.25**2

    def test_square_four_point_spectrum(self, unit_square):
        matrix = assemble(build_grid(unit_square, 1.0 / 3.0))
        dense = matrix.matrix.toarray()
        assert dense.shape == (4, 4)
        assert np.all(np.diag(dense) == 36.0)
        off = dense - np.diag(np.diag(dense))
        assert sorted(np.count_nonzero(off, axis=1).tolist()) == [2, 2, 2, 2]
        assert np.all(off[off != 0] == -9.0)
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues == pytest.approx([18.0, 36.0, 36.0, 54.0], abs=1e-10)

    def test_symmetry_is_exact(self, unit_disk):
        matrix = assemble(build_grid(unit_disk, 0.125)).matrix
        delta = (matrix - matrix.T).tocoo()
        assert delta.nnz == 0

    def test_interval_closed_form_spectrum(self, unit_interval):
        for n_points in (7, 15, 31, 63):
            h = 1.0 / (n_points + 1)
            dense = assemble(build_grid(unit_interval, h)).matrix.toarray()
            computed = np.linalg.eigvalsh(dense)
            expected = interval_eigenvalues(n_points, h)
            assert computed == pytest.approx(expected, rel=1e-10)

    def test_matvec_against_dense_reference(self, l_polygon):
        matrix = assemble(build_grid(l_polygon, 0.125))
        dense = matrix.matrix.toarray()
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(matrix.matrix.shape[0])
            sparse_result = matrix.matrix @ x
            dense_result = dense @ x
            scale = float(np.linalg.norm(dense_result))
            assert np.linalg.norm(sparse_result - dense_result) <= 1e-13 * scale

    def test_offdiagonal_count_bound(self, unit_disk, unit_ball3):
        for dom in (unit_disk, unit_ball3):
            grid = build_grid(dom, 0.25)
            matrix = assemble(grid)
            off_entries = matrix.matrix.nnz - grid.point_count
            assert off_entries <= 2 * grid.dim * grid.point_count

    def test_row_sums_nonnegative_and_boundary_rows_positive(self, unit_disk):
        grid = build_grid(unit_disk, 0.25)
        matrix = assemble(grid)
        row_sums = np.asarray(matrix.matrix.sum(axis=1)).ravel()
        assert np.all(row_sums >= -1e-9)
        # points adjacent to an omitted neighbor have a strictly positive row sum
        degree = np.asarray((matrix.matrix != 0).sum(axis=1)).ravel() - 1
        clipped = degree < 2 * grid.dim
        assert np.all(row_sums[clipped] > 0)
        assert np.allclose(row_sums[~clipped], 0.0, atol=1e-9)

    def test_diagonal_entries(self, unit_ball3):
        grid = build_grid(unit_ball3, 0.25)
        matrix = assemble(grid)
        diag = matrix.matrix.diagonal()
        assert np.all(diag == 2.0 * 3 / 0.25**2)


class TestProlong:
    @pytest.mark.parametrize(
        "domain",
        [Box([[0.0, 2.0], [0.0, 1.0]]), Box([[0.0, 1.0], [0.0, 1.0], [0.0, 0.5]])],
        ids=["2d", "3d"],
    )
    def test_multilinear_field_exact_away_from_boundary(self, domain):
        coarse, fine = build_grid(domain, 0.125), build_grid(domain, 0.125, 1)

        def field(idx):
            # affine plus cross terms: multilinear in lattice coordinates
            cross = 0.5 * np.prod(idx, axis=1) + idx[:, 0] * idx[:, -1]
            return 1.0 + idx.sum(axis=1) + cross

        out = _prolong(coarse, field(lattice_indices(coarse).astype(float)), fine)
        m = lattice_indices(fine)
        # both coarse neighbours interior on every axis: 1 <= m//2, (m+1)//2 <= shape-2
        away = np.all((m >= 2) & (m <= 2 * (np.array(coarse.shape) - 2)), axis=1)
        assert away.sum() > 0
        assert np.allclose(out[away], field(m[away] / 2.0), rtol=1e-14, atol=0.0)

    def test_coincident_points_keep_coarse_value(self, unit_disk):
        coarse, fine = build_grid(unit_disk, 0.125), build_grid(unit_disk, 0.125, 1)
        values = np.random.default_rng(5).standard_normal(coarse.point_count)
        out = _prolong(coarse, values, fine)
        m = lattice_indices(fine)
        even = np.all(m % 2 == 0, axis=1)
        flat = np.ravel_multi_index(tuple((m[even] // 2).T), coarse.shape)
        assert even.sum() > 0
        at = np.searchsorted(coarse.interior_flat, flat)
        assert np.array_equal(coarse.interior_flat[at], flat)
        assert np.array_equal(out[even], values[at])

    @pytest.mark.parametrize(
        "domain, h", TRANSFER_CASES + [(Box([[0.0, 0.7], [0.0, 1.3]]), 0.1)],
        ids=TRANSFER_IDS + ["box-non-dividing"],
    )
    def test_matches_take_reference(self, domain, h):
        def reference(coarse, values, fine):
            # the interpolation as two gathers per axis
            box = np.zeros(coarse.shape)
            box.flat[coarse.interior_flat] = values
            for axis, n in enumerate(fine.shape):
                m = np.arange(n)
                last = coarse.shape[axis] - 1
                lo = np.minimum(m // 2, last)
                hi = np.minimum((m + 1) // 2, last)
                box = 0.5 * (np.take(box, lo, axis=axis) + np.take(box, hi, axis=axis))
            return box.ravel()[fine.interior_flat]

        coarse, fine = build_grid(domain, h), build_grid(domain, h, 1)
        values = np.random.default_rng(3).standard_normal(coarse.point_count)
        assert np.array_equal(_prolong(coarse, values, fine), reference(coarse, values, fine))

    @pytest.mark.parametrize("domain, h", TRANSFER_CASES, ids=TRANSFER_IDS)
    def test_restrict_is_adjoint(self, domain, h):
        coarse, fine = build_grid(domain, h), build_grid(domain, h, 1)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(coarse.point_count)
            w = rng.standard_normal(fine.point_count)
            restricted = _restrict(fine, w, coarse)
            assert restricted.shape == (coarse.point_count,)
            left, right = _prolong(coarse, v, fine) @ w, v @ restricted
            assert left == pytest.approx(right, rel=1e-12)

    def test_non_dividing_spacing(self, unit_ball3):
        coarse, fine = build_grid(unit_ball3, 0.3), build_grid(unit_ball3, 0.3, 1)
        assert coarse.shape == (8, 8, 8) and fine.shape == (15, 15, 15)
        out = _prolong(coarse, np.ones(coarse.point_count), fine)
        assert out.shape == (fine.point_count,)
        assert np.all(np.isfinite(out))


class TestWindows:
    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_nested_windows_keep_the_full_frame_interior(self, name):
        domain, h_start = WINDOW_CASES[name]
        coarse, full_lattice, window_lattice = None, 0, 0
        for level in range(3):
            grid = build_grid(domain, h_start, level)
            full = full_frame_grid(domain, grid.spacing, h_start)
            local = lattice_indices(grid)
            lattice_index = local + grid.start
            # the same interior points in the same order, at the same bits
            flat = np.ravel_multi_index(tuple(lattice_index.T), full.shape)
            assert np.array_equal(flat, full.interior_flat)
            assert grid_points(grid).tobytes() == grid_points(full).tobytes()
            # no interior point on a window face
            assert np.all(local.min(axis=0) > 0)
            assert np.all(local.max(axis=0) < np.array(grid.shape) - 1)
            if coarse is not None:
                assert grid.start == tuple(2 * s for s in coarse.start)
            coarse = grid
            full_lattice += math.prod(full.shape)
            window_lattice += math.prod(grid.shape)
        assert window_lattice < full_lattice

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_transfers_on_windows_equal_full_frame(self, name):
        domain, h = WINDOW_CASES[name]
        coarse, fine = build_grid(domain, h), build_grid(domain, h, 1)
        full_coarse, full_fine = full_frame_grid(domain, h), full_frame_grid(domain, h / 2, h)
        rng = np.random.default_rng(19)
        v = rng.standard_normal(coarse.point_count)
        w = rng.standard_normal(fine.point_count)
        assert np.array_equal(_prolong(coarse, v, fine), _prolong(full_coarse, v, full_fine))
        assert np.array_equal(_restrict(fine, w, coarse), _restrict(full_fine, w, full_coarse))

    def test_grids_built_alone_need_not_nest(self):
        # the transfers take levels k and k + 1 of one study and do not
        # check that they nest; two grids each built at level 0 may not.
        # Occupied cells from 0.4: the window at h = 0.25 starts at lattice
        # index 1 and its next level at 2, the one built alone at h = 0.125
        # at 3
        mask = np.zeros((8, 8), dtype=int)
        mask[4:7, 4:7] = 1
        domain = RasterMask(mask, 0.1)
        coarse, fine, alone = build_grid(domain, 0.25), build_grid(domain, 0.25, 1), build_grid(domain, 0.125)
        assert (coarse.start, fine.start, alone.start) == ((1, 1), (2, 2), (3, 3))
        # built alone at h = 0.15, the unit square's window ends on the
        # first point past 1, not on the coarse one's faces
        square = Box([[0.0, 1.0]] * 2)
        coarse, fine, alone = build_grid(square, 0.3), build_grid(square, 0.3, 1), build_grid(square, 0.15)
        assert (coarse.shape, fine.shape, alone.shape) == ((5, 5), (9, 9), (8, 8))
