"""First Dirichlet eigenvalues of the Laplacian on compact domains and the
momentum-uncertainty bounds they certify."""

from .convergence import ConvergenceStudy, refine
from .discretize import Grid, GridError, OperatorMatrix, assemble, build_grid
from .eigensolve import (
    SolverConvergenceError,
    Spectrum,
    WaveField,
    smallest_eigenpairs,
)
from .geometry import (
    Ball,
    Box,
    Domain,
    DomainError,
    DomainMetrics,
    Ellipse,
    Interval,
    Polygon,
    RasterMask,
    domain_from_spec,
    unit_ball_volume,
)
from .uncertainty import (
    UncertaintyReport,
    certify_bounds,
    first_zero,
    krahn_ratio,
    momentum_stddev,
    position_stddev,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "ConvergenceStudy",
    "Domain",
    "DomainError",
    "DomainMetrics",
    "Ellipse",
    "Grid",
    "GridError",
    "Interval",
    "OperatorMatrix",
    "Polygon",
    "RasterMask",
    "SolverConvergenceError",
    "Spectrum",
    "UncertaintyReport",
    "WaveField",
    "assemble",
    "build_grid",
    "certify_bounds",
    "domain_from_spec",
    "first_zero",
    "krahn_ratio",
    "momentum_stddev",
    "position_stddev",
    "refine",
    "smallest_eigenpairs",
    "unit_ball_volume",
]
