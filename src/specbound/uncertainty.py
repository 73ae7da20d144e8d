"""Momentum-spread bounds certified from computed spectra.

The momentum standard deviation of a real normalized state is realized
through the operator quadratic form, sigma_p^2 = hbar^2 * h^n * psi^T A psi,
which makes sigma_p^2 equal to hbar^2 times the Rayleigh quotient exactly.
The certified inequalities are

  sigma_p >= sqrt(lambda1) * hbar                       (spectral bound)
  lambda1 >= (C_n / |D|)^(2/n) * j_{n/2-1,1}^2          (isoperimetric bound)
  sigma_p * d >= 2 * j_{n/2-1,1} * hbar                 (diameter bound)
  sigma_p * sigma_x >= hbar / 2                          (ensemble cross-check)

Bound statements about the continuum use the extrapolated lambda1 from a
refinement study; the spectral bound is checked against the same-grid
discrete lambda1, for which it holds with zero numerical slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import csv_text, format_float, to_json
from .discretize import Grid, OperatorMatrix
from .eigensolve import WaveField

# Unused here; kept because the benchmark's tracer (perfbench/spans.py)
# patches uncertainty.smallest_eigenpairs by name.
from .eigensolve import smallest_eigenpairs  # noqa: F401
from .geometry import Domain, DomainMetrics, unit_ball_volume
from .specfun import first_zero

__all__ = [
    "BoundCheck",
    "PhysicalConstants",
    "UncertaintyReport",
    "certify_bounds",
    "krahn_ratio",
    "mean_momentum",
    "momentum_stddev",
    "position_stddev",
]

_NORMALIZATION_TOL = 1e-10
_IDENTITY_TOL = 1e-8  # slack for the exact-by-construction spectral bound

# key, label, statement of each certified bound, in report order
_BOUNDS = (
    ("eq7", "spectral bound", "sigma_p >= sqrt(lambda1)*hbar"),
    ("eq10", "diameter bound", "sigma_p*d >= 2*j*hbar"),
    ("kennard", "ensemble bound", "sigma_p*sigma_x >= hbar/2"),
    ("krahn", "isoperimetric", "lambda1*(|D|/C_n)^(2/n)/j^2 >= 1"),
)


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system; natural units hbar = 1 by default."""

    hbar: float = 1.0

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")


def _require_normalized(field: WaveField):
    if field.values.shape[0] == 0 or not np.any(field.values):
        raise ValueError("field is zero")
    drift = abs(field.norm_squared() - 1.0)
    if drift > _NORMALIZATION_TOL:
        raise ValueError(
            f"field must be h^n-normalized (|norm^2 - 1| = {drift:.2e})"
        )


def momentum_stddev(
    matrix: OperatorMatrix, field: WaveField, consts: PhysicalConstants
) -> float:
    """sigma_p of a normalized real state via the operator quadratic form.

    Returns hbar * sqrt(h^n * psi^T A psi); for normalized psi this equals
    hbar * sqrt(Rayleigh quotient) exactly.
    """
    _require_normalized(field)
    quad = field.weight * matrix.quadratic_form(field.values)
    return consts.hbar * math.sqrt(quad)


def mean_momentum(
    grid: Grid, field: WaveField, consts: PhysicalConstants = PhysicalConstants()
) -> np.ndarray:
    """Per-axis central-difference momentum expectation of a real field.

    For real fields the expectation vanishes up to summation roundoff; the
    returned vector is the magnitude coefficient of the (imaginary)
    expectation per axis.
    """
    psi = field.values
    h = grid.spacing
    weight = field.weight
    out = np.zeros(grid.dim)
    for axis in range(grid.dim):
        src_p, dst_p = grid.neighbor_pairs(axis, +1)
        src_m, dst_m = grid.neighbor_pairs(axis, -1)
        forward = float(psi[src_p] @ psi[dst_p])
        backward = float(psi[src_m] @ psi[dst_m])
        out[axis] = consts.hbar * weight * (forward - backward) / (2.0 * h)
    return out


def position_stddev(grid: Grid, field: WaveField) -> float:
    """Total position spread sqrt(sum_i h^n psi_i^2 ||x_i - mean||^2)."""
    _require_normalized(field)
    prob = field.weight * field.values**2
    points = grid.points()
    mean = prob @ points
    centered = points - mean
    return math.sqrt(float(prob @ np.sum(centered**2, axis=1)))


def krahn_ratio(lambda1: float, metrics: DomainMetrics, n: int) -> float:
    """lambda1 over its isoperimetric lower bound (C_n/|D|)^(2/n) j^2.

    The ratio is >= 1 for converged lambda1 and equals 1 exactly for balls.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"supported dimensions are 1, 2, 3; got {n}")
    if not lambda1 > 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if not metrics.volume > 0:
        raise ValueError("metrics.volume must be positive")
    zero = first_zero(n / 2.0 - 1.0)
    bound = (unit_ball_volume(n) / metrics.volume) ** (2.0 / n) * zero.value**2
    return lambda1 / bound


class BoundCheck(NamedTuple):
    """The verdict on one bound.  `value` is its relative margin (the bound
    holds at >= 0) or, for `krahn`, the ratio (holds at >= 1)."""

    key: str
    label: str
    statement: str
    value: float
    slack: float
    passed: bool
    equality: bool

    @property
    def quantity(self) -> str:
        return "ratio" if self.key == "krahn" else "margin"


@dataclass(frozen=True)
class UncertaintyReport:
    """All certified quantities for one domain and ground state.

    `margins` holds relative slack per bound (negative means violated):
    the spectral-bound margin is measured against the same-grid discrete
    lambda1 and is zero by construction for the ground state, while the
    diameter-bound margin and `krahn_ratio` are continuum statements using
    the extrapolated lambda1.  `tolerance_band` is five times the relative
    extrapolation error estimate.  `checks()` turns these into verdicts.
    """

    domain_spec: dict
    n: int
    hbar: float
    lambda1: float
    lambda1_error: float
    lambda1_discrete: float
    sigma_p: float
    sigma_x: float
    mean_p: np.ndarray
    metrics: DomainMetrics
    bessel_zero: float
    krahn_ratio: float
    diameter_product: float
    diameter_product_discrete: float
    margins: dict
    tolerance_band: float

    def checks(self) -> list:
        """One BoundCheck per bound from the stored margins, ratio and band,
        recomputed on every call.  The spectral bound, an identity on the
        discrete spectrum, gets slack `_IDENTITY_TOL`; the continuum bounds
        get `max(tolerance_band, _IDENTITY_TOL)`.  A bound passes if it holds
        to within its slack and is an equality if it is met to within it."""
        band = max(self.tolerance_band, _IDENTITY_TOL)
        out = []
        for key, label, statement in _BOUNDS:
            if key == "krahn":
                value, slack = self.krahn_ratio, band
                passed = value >= 1.0 - slack
                equality = abs(value - 1.0) <= slack
            else:
                value = self.margins[key]
                slack = _IDENTITY_TOL if key == "eq7" else band
                passed = value >= -slack
                equality = abs(value) <= slack
            out.append(BoundCheck(key, label, statement, value, slack, passed, equality))
        return out

    @property
    def equality_flags(self) -> dict:
        return {c.key: c.equality for c in self.checks()}

    def violations(self) -> list:
        """Bounds that fail their check; empty means PASS."""
        return [
            f"{c.label} {c.quantity} {format_float(c.value)}"
            for c in self.checks()
            if not c.passed
        ]

    def to_json_dict(self) -> dict:
        met = self.metrics
        return {
            "domain": self.domain_spec,
            "n": self.n,
            "hbar": self.hbar,
            "lambda1": self.lambda1,
            "lambda1_error": self.lambda1_error,
            "lambda1_discrete": self.lambda1_discrete,
            "sigma_p": self.sigma_p,
            "sigma_x": self.sigma_x,
            "mean_p": [float(v) for v in self.mean_p],
            "metrics": {
                "volume": met.volume,
                "diameter": met.diameter,
                "perimeter": met.perimeter,
                "area": met.volume if self.n == 2 else None,
            },
            "bessel_zero": self.bessel_zero,
            "unit_ball_volume": unit_ball_volume(self.n),
            "krahn_ratio": self.krahn_ratio,
            "diameter_product": self.diameter_product,
            "diameter_product_discrete": self.diameter_product_discrete,
            "margins": dict(self.margins),
            "equality_flags": self.equality_flags,
            "tolerance_band": self.tolerance_band,
        }

    def to_json(self) -> str:
        return to_json(self.to_json_dict()) + "\n"

    def csv_cells(self) -> dict:
        """The report's CSV columns, in order, mapped to their values."""
        met = self.metrics
        return {
            "domain_kind": self.domain_spec.get("kind", ""),
            "n": self.n,
            "hbar": self.hbar,
            "lambda1": self.lambda1,
            "lambda1_error": self.lambda1_error,
            "lambda1_discrete": self.lambda1_discrete,
            "sigma_p": self.sigma_p,
            "sigma_x": self.sigma_x,
            "mean_p_max": np.max(np.abs(self.mean_p)),
            "volume": met.volume,
            "diameter": met.diameter,
            "perimeter": met.perimeter,
            "krahn_ratio": self.krahn_ratio,
            "diameter_product": self.diameter_product,
            "diameter_product_discrete": self.diameter_product_discrete,
            "margin_eq7": self.margins["eq7"],
            "margin_eq10": self.margins["eq10"],
            "margin_kennard": self.margins["kennard"],
            **{f"equality_{c.key}": c.equality for c in self.checks()},
        }

    def to_csv(self) -> str:
        cells = self.csv_cells()
        return csv_text(cells, [cells])


def certify_bounds(
    domain: Domain,
    lambda1: float,
    lambda1_error: float,
    field: WaveField,
    consts: PhysicalConstants = PhysicalConstants(),
    *,
    matrix: OperatorMatrix,
    lambda1_discrete: float,
) -> UncertaintyReport:
    """Populate an UncertaintyReport for a domain and its ground state.

    `lambda1` is the extrapolated continuum estimate with absolute error
    `lambda1_error`; `field` is the normalized ground state on the finest
    grid, `matrix` that grid's operator and `lambda1_discrete` its smallest
    eigenvalue, both as the caller's refinement study computed them.
    """
    _require_normalized(field)
    grid = field.grid
    n = grid.dim
    metrics = domain.metrics()
    zero = first_zero(n / 2.0 - 1.0)

    sigma_p = momentum_stddev(matrix, field, consts)
    sigma_x = position_stddev(grid, field)
    mean_p = mean_momentum(grid, field, consts)

    band = 5.0 * (lambda1_error / lambda1) if lambda1 > 0 else math.inf
    sqrt_lambda = math.sqrt(lambda1)
    diameter_product = sqrt_lambda * metrics.diameter
    diameter_product_discrete = (
        sigma_p * metrics.diameter / consts.hbar
    )

    margins = {
        "eq7": sigma_p / (consts.hbar * math.sqrt(lambda1_discrete)) - 1.0,
        "eq10": diameter_product / (2.0 * zero.value) - 1.0,
        "kennard": sigma_p * sigma_x / (consts.hbar / 2.0) - 1.0,
    }
    ratio = krahn_ratio(lambda1, metrics, n)

    return UncertaintyReport(
        domain_spec=domain.to_spec(),
        n=n,
        hbar=consts.hbar,
        lambda1=float(lambda1),
        lambda1_error=float(lambda1_error),
        lambda1_discrete=float(lambda1_discrete),
        sigma_p=sigma_p,
        sigma_x=sigma_x,
        mean_p=mean_p,
        metrics=metrics,
        bessel_zero=zero.value,
        krahn_ratio=ratio,
        diameter_product=diameter_product,
        diameter_product_discrete=diameter_product_discrete,
        margins=margins,
        tolerance_band=band,
    )
