"""The package's public names: `specbound.__all__` is their only list."""

import specbound

PUBLIC = [
    "Ball", "Box", "ConvergenceStudy", "Domain", "DomainError", "DomainMetrics",
    "Ellipse", "Grid", "GridError", "Interval", "OperatorMatrix", "Polygon",
    "RasterMask", "SolverConvergenceError", "Spectrum", "UncertaintyReport",
    "WaveField", "assemble", "build_grid", "certify_bounds", "domain_from_spec",
    "first_zero", "krahn_ratio", "momentum_stddev", "position_stddev", "refine",
    "smallest_eigenpairs", "unit_ball_volume",
]


def test_public_names_are_listed_once_and_resolve():
    assert sorted(specbound.__all__) == PUBLIC
    for name in specbound.__all__:
        assert getattr(specbound, name) is not None
