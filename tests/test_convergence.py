import math

import numpy as np
import pytest

from specbound import (
    Ball,
    Box,
    DomainError,
    Ellipse,
    Interval,
    Polygon,
    RasterMask,
    assemble,
    build_grid,
    refine,
    smallest_eigenpairs,
)
from specbound import convergence, eigensolve
from specbound.eigensolve import _DIRECT_POINTS, DEFAULT_TOL

from conftest import L_VERTICES, WINDOW_CASES, full_frame_grid
from test_discretize import interval_eigenvalues


@pytest.fixture
def no_grid(monkeypatch):
    """Make building any level fail the test."""

    def forbidden(*args):
        raise AssertionError(f"build_grid called at {args[1:]}")

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
        exact = v0 is None and np.ptp(matrix.matrix @ np.ones(matrix.matrix.shape[0])) == 0
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

    @pytest.mark.parametrize("levels", [3.5, True], ids=["float", "bool"])
    def test_levels_must_be_an_integer(self, no_grid, levels):
        # build_grid's rule for a level: an integral that is not a bool
        with pytest.raises(ValueError, match=f"levels must be an integer of at least 3, got {levels}"):
            refine(Interval(0.0, 1.0), 1.0 / 8, levels)

    def test_numpy_integer_levels(self):
        study = refine(Interval(0.0, 1.0), 1.0 / 8, np.int64(3))
        assert study.to_csv() == refine(Interval(0.0, 1.0), 1.0 / 8, 3).to_csv()

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

    def test_point_cap_counts_the_window(self):
        # one occupied cell of a 32^3 array: at h = 1/16 the lattice over
        # the array has 513^3 points, over the cap, and its window 17^3
        mask = np.zeros((32, 32, 32), dtype=int)
        mask[5, 17, 30] = 1
        study = refine(RasterMask(mask, 1.0), 0.25, 3)
        alone = refine(RasterMask([[[1]]], 1.0), 0.25, 3)
        assert study.finest_grid.shape == (17, 17, 17)
        assert study.lambda1_values.tobytes() == alone.lambda1_values.tobytes()

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

    # the bytes of `specbound lambda1 --levels 3 --format json`, captured
    # before the study laid out its own JSON
    @pytest.mark.parametrize(
        "domain, text",
        [
            (
                Interval(0.0, 1.0),
                '{"domain": {"kind": "interval", "dim": 1, "params": {"a": 0, "b": 1}}, '
                '"h_start": 0.125, "levels": 3, "tol": 1e-10, '
                '"spacings": [0.125, 0.0625, 0.03125], '
                '"lambda1_values": [9.74341983856, 9.83793643355, 9.86167977534], '
                '"observed_order": 1.99304465271, "lambda1": 9.86964530263, '
                '"lambda1_error": 0.00796552728785, "monotone": true}\n',
            ),
            (
                RasterMask([[1, 1], [1, 0]], 0.5),
                '{"domain": {"kind": "raster-mask", "dim": 2, "params": '
                '{"mask": [[1, 1], [1, 0]], "cell_size": 0.5, "origin": [0, 0]}}, '
                '"h_start": 0.125, "levels": 3, "tol": 1e-10, '
                '"spacings": [0.125, 0.0625, 0.03125], '
                '"lambda1_values": [38.5657018438, 38.7726488542, 38.6940259041], '
                '"observed_order": 1.39623900497, "lambda1": 38.6458543589, '
                '"lambda1_error": 0.253588990571, "monotone": false}\n',
            ),
        ],
        ids=["interval", "mask"],
    )
    def test_json_layout(self, domain, text):
        assert refine(domain, 0.125, 3).to_json() == text

    def test_deterministic_repeat(self):
        for domain in (Interval(0.0, 1.0), Ball([0.0, 0.0], 1.0)):
            a = refine(domain, 1.0 / 8, 3)
            b = refine(domain, 1.0 / 8, 3)
            assert a.to_csv() == b.to_csv()
            assert np.array_equal(a.lambda1_values, b.lambda1_values)


# (h_start, lambda1 values, observed_order, extrapolants, error_estimate,
# monotone) of the estimate rule, pinned bit for bit so that any change to
# the rule shows here as a reviewed change of expected values; spacings
# halve from h_start, and the estimate is the last extrapolant
EXTRAPOLATIONS = {
    # the box 1 x 0.7 at the defaults, h = 1/8 ... 1/64: the fit clamps at
    # the bottom of _ORDER_RANGE
    "box-1x0.7": (
        0.125,
        [26.89216815414715, 27.283913373543044, 28.93686229293539, 29.82292303874754],
        0.05,
        [38.39254985204424, 75.8091858183554, 54.94876053658731],
        20.860425281768094,
        True,
    ),
    # the plus mask of cell 1/3 from h = 1/6, three levels: rising
    # differences, so the fit clamps at the bottom, far from the reference
    # 59.6943
    "plus-mask": (
        1 / 6,
        [63.50155281000759, 62.90843208638555, 61.26476545601434],
        0.05,
        [46.08943295030613, 14.655657840626773],
        31.43377510967936,
        True,
    ),
    # the L-shape from h = 1/16, four levels: a fitted order
    "l-shape": (
        0.0625,
        [9.673506476037202, 9.656201820147158, 9.647022927736533, 9.642809564170076],
        1.0190579691448554,
        [9.639345462947198, 9.638081825980066, 9.638705353040956],
        6.235270608900834e-4,
        True,
    ),
    # the aligned 2 x 1 box from h = 1/8, three levels: both extrapolants
    # agree, so the error is the last Richardson correction
    "box-2x1-fallback": (
        0.125,
        [12.202903946941795, 12.303356377381206, 12.328585467147722],
        1.9933524086345618,
        [12.33704702927396, 12.33704702927396],
        0.00846156212623761,
        True,
    ),
    # a gap of one ulp between the extrapolants is roundoff as well
    "roundoff-gap": (
        0.125,
        [1.0, 1.5, 1.7],
        1.3219280948873617,
        [1.8333333333333335, 1.8333333333333333],
        0.1333333333333333,
        True,
    ),
    # no nonzero difference: the order is 2 and the error 0
    "constant": (0.125, [5.0, 5.0, 5.0], 2.0, [5.0, 5.0], 0.0, True),
    # differences shrinking by 2**-12 per level: the fit clamps at the top
    "clamp-top": (
        0.125,
        [1.0, 2.0, 2.0 + 2.0**-12, 2.0 + 2.0**-12 + 2.0**-24],
        10.0,
        [2.0009775171065494, 2.0002443792766376, 2.0002442002879093],
        1.7898872828325807e-07,
        True,
    ),
    "non-monotone": (0.125, [10.0, 9.0, 9.5, 9.25], 1.0000000000000004, [8.0, 10.0, 9.0], 1.0, False),
}


@pytest.mark.parametrize("name", sorted(EXTRAPOLATIONS))
def test_extrapolate_literal_sequence(name, no_grid):
    h_start, values, order, extrapolants, error, monotone = EXTRAPOLATIONS[name]
    spacings = h_start * 0.5 ** np.arange(len(values))
    fields = convergence._extrapolate(spacings, np.array(values))
    assert fields["observed_order"] == order
    assert fields["extrapolants"].tolist() == extrapolants
    assert fields["extrapolated"] == extrapolants[-1]
    assert fields["error_estimate"] == error
    assert fields["monotone"] is monotone


def test_study_estimate_is_extrapolate_of_its_levels(disk_study):
    fields = convergence._extrapolate(disk_study.spacings, disk_study.lambda1_values)
    assert set(fields) == {"observed_order", "extrapolated", "error_estimate", "extrapolants", "monotone"}
    for name, value in fields.items():
        assert np.asarray(getattr(disk_study, name)).tobytes() == np.asarray(value).tobytes(), name


# each kind of domain scaled by s; at a power of two every lattice
# coordinate and matrix entry scales exactly
SCALED = {
    "interval": lambda s: Interval(0.0, s),
    "box": lambda s: Box([[0.0, 2.0 * s], [0.0, s]]),
    "disk": lambda s: Ball([0.0, 0.0], s),
    "ellipse": lambda s: Ellipse([0.0, 0.0], [s, 0.5 * s]),
    "polygon": lambda s: Polygon(np.array(L_VERTICES) * s),
    "mask": lambda s: RasterMask([[1, 1, 1], [1, 0, 1], [1, 1, 1]], 0.5 * s),
}


@pytest.mark.parametrize("kind", sorted(SCALED))
def test_study_is_scale_covariant(kind):
    # lambda1 scales as s^-2, and so must its error estimate: no tolerance
    # or fallback may depend on the absolute size of the domain
    unit = refine(SCALED[kind](1.0), 1.0 / 8, 4)
    for s in (2.0**-20, 2.0**10):
        study = refine(SCALED[kind](s), s / 8, 4)
        assert study.lambda1_values * s * s == pytest.approx(unit.lambda1_values, rel=1e-9)
        assert study.extrapolated * s * s == pytest.approx(unit.extrapolated, rel=1e-9)
        assert study.error_estimate * s * s == pytest.approx(unit.error_estimate, rel=1e-9)


@pytest.mark.parametrize("s", [1e-8, 1.0])
def test_figure_eight_rejected_at_every_scale(s):
    figure_eight = np.array([[0, 0], [4, 0], [0, 2], [1, -1], [0.5, -1.5]]) * s
    with pytest.raises(DomainError, match="simple"):
        Polygon(figure_eight)


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_windowed_study_equals_full_frame(name, monkeypatch):
    # the windows change what is allocated, never a bit of the answer
    domain, h_start = WINDOW_CASES[name]
    study = refine(domain, h_start, 3)
    monkeypatch.setattr(
        convergence, "build_grid",
        lambda domain, start, level: full_frame_grid(domain, start * 0.5**level, start),
    )
    reference = refine(domain, h_start, 3)
    assert study.lambda1_values.tobytes() == reference.lambda1_values.tobytes()
    assert study.finest_spectrum.eigenvectors.tobytes() == reference.finest_spectrum.eigenvectors.tobytes()
    assert math.prod(study.finest_grid.shape) < math.prod(reference.finest_grid.shape)


@pytest.mark.parametrize("name", sorted(WINDOW_CASES) + ["disk"])
def test_build_grid_level_is_refine_level(name):
    # build_grid(domain, h_start, k) is the grid of refine's level k
    domain, h_start = WINDOW_CASES.get(name, (Ball([0.0, 0.0], 1.0), 1.0 / 16))
    finest = refine(domain, h_start, 3).finest_grid
    grid = build_grid(domain, h_start, 2)
    assert (grid.start, grid.shape, grid.spacing) == (finest.start, finest.shape, finest.spacing)
    assert grid.interior_flat.tobytes() == finest.interior_flat.tobytes()


# (domain, h_start, levels) of studies whose transfers are recorded: the
# windowed masks, the disk, the 3-ball, and the unit square, whose levels of
# 9 and 49 points each start a new hierarchy
TRANSFER_STUDIES = {
    **{name: (domain, h_start, 3) for name, (domain, h_start) in WINDOW_CASES.items()},
    "disk": (Ball([0.0, 0.0], 1.0), 1.0 / 16, 3),
    "ball3": (Ball([0.0, 0.0, 0.0], 1.0), 0.25, 3),
    "square": (Box([[0.0, 1.0]] * 2), 0.25, 4),
}


@pytest.mark.parametrize("name", sorted(TRANSFER_STUDIES))
def test_every_transfer_pair_nests(name, monkeypatch):
    # the transfers do not check their grids: every pair that refine and
    # the V-cycle hand them must be levels k and k + 1 of the study, whose
    # windows nest (the fine one starts at twice the coarse start and is
    # 2n - 1 long)
    domain, h_start, levels = TRANSFER_STUDIES[name]
    pairs = {"refine": [], "v-cycle": []}

    def record(module, attr, caller):
        transfer = getattr(module, attr)

        def recorder(source, values, target):
            assert values.shape == (source.point_count,)
            coarse, fine = (source, target) if attr == "_prolong" else (target, source)
            assert fine.domain is coarse.domain is domain
            assert fine.spacing == coarse.spacing / 2
            assert fine.start == tuple(2 * s for s in coarse.start)
            assert fine.shape == tuple(2 * n - 1 for n in coarse.shape)
            pairs[caller].append((attr, coarse.spacing, fine.spacing))
            return transfer(source, values, target)

        monkeypatch.setattr(module, attr, recorder)

    record(convergence, "_prolong", "refine")
    record(eigensolve, "_prolong", "v-cycle")
    record(eigensolve, "_restrict", "v-cycle")
    study = refine(domain, h_start, levels)
    hs = list(study.spacings)
    # refine prolongs each level's ground state onto the next
    assert pairs["refine"] == [("_prolong", h, h / 2) for h in hs[:-1]]
    # a V-cycle descends from each level of more than _DIRECT_POINTS points
    # to the level below, where a hierarchy of smaller levels restarts
    descents = {hs[k] for k in range(1, levels) if build_grid(domain, h_start, k).point_count > _DIRECT_POINTS}
    for attr in ("_prolong", "_restrict"):
        assert {fine for a, _, fine in pairs["v-cycle"] if a == attr} == descents
