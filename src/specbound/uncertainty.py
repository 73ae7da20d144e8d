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
discrete lambda1, for which it holds with zero numerical slack.  The mean
momentum of a real state is exactly 0 and is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import csv_text, format_float, to_json
from .convergence import ConvergenceStudy
from .discretize import OperatorMatrix
from .eigensolve import WaveField

# Unused here; kept because the benchmark's tracer (perfbench/spans.py)
# patches uncertainty.smallest_eigenpairs by name.
from .eigensolve import smallest_eigenpairs  # noqa: F401
from .geometry import DomainMetrics, unit_ball_volume

# j_{n/2-1,1}, the first positive zero of J_{n/2-1}, for n = 1, 2, 3,
# correctly rounded; the tests check them against scipy.special
_FIRST_ZEROS = {-0.5: math.pi / 2, 0.0: 2.404825557695773, 0.5: math.pi}

_NORMALIZATION_TOL = 1e-10
_IDENTITY_TOL = 1e-8  # slack for the exact-by-construction spectral bound

# key, label, statement of each certified bound, in report order
_BOUNDS = (
    ("eq7", "spectral bound", "sigma_p >= sqrt(lambda1)*hbar"),
    ("eq10", "diameter bound", "sigma_p*d >= 2*j*hbar"),
    ("kennard", "ensemble bound", "sigma_p*sigma_x >= hbar/2"),
    ("krahn", "isoperimetric", "lambda1*(|D|/C_n)^(2/n)/j^2 >= 1"),
)


def _require_normalized(field: WaveField):
    drift = abs(field.norm_squared() - 1.0)
    if drift > _NORMALIZATION_TOL:
        raise ValueError(
            f"field must be h^n-normalized (|norm^2 - 1| = {drift:.2e})"
        )


def first_zero(order: float) -> float:
    """The first positive zero of J_order for order n/2 - 1, n = 1, 2, 3;
    raises ValueError for any other order."""
    try:
        return _FIRST_ZEROS[order]
    except KeyError:
        raise ValueError(
            f"unsupported order {order}; supported: {sorted(_FIRST_ZEROS)}"
        ) from None


def momentum_stddev(matrix: OperatorMatrix, field: WaveField, hbar: float = 1.0) -> float:
    """sigma_p of a normalized real state via the operator quadratic form.

    Returns hbar * sqrt(h^n * psi^T A psi); for normalized psi this equals
    hbar * sqrt(Rayleigh quotient) exactly.
    """
    _require_normalized(field)
    psi = field.values
    quad = field.weight * float(psi @ (matrix.matrix @ psi))
    return hbar * math.sqrt(quad)


def position_stddev(field: WaveField) -> float:
    """Total position spread sqrt(sum_i h^n psi_i^2 ||x_i - mean||^2).

    The spread is the sum over axes of each axis's variance, which depends
    only on the marginal mass of each lattice index along that axis: one
    buffer of N window indices, and per axis a `bincount` of the
    probabilities against it, whose coordinates are origin + (start +
    window index) * h."""
    _require_normalized(field)
    grid = field.grid
    prob = field.weight * field.values**2
    index = np.empty_like(grid.interior_flat)
    variance = 0.0
    for axis, (start, n) in enumerate(zip(grid.start, grid.shape)):
        np.floor_divide(grid.interior_flat, math.prod(grid.shape[axis + 1:]), out=index)
        if axis:  # along the first axis the quotient is the index
            index %= n
        mass = np.bincount(index, weights=prob, minlength=n)
        x = np.arange(start, start + n) * grid.spacing + grid.origin[axis]
        x -= mass @ x
        variance += float(mass @ (x * x))
    return math.sqrt(variance)


def krahn_ratio(lambda1: float, metrics: DomainMetrics, n: int) -> float:
    """lambda1 over its isoperimetric lower bound (C_n/|D|)^(2/n) j^2, with
    j = j_{n/2-1,1} the tabulated constant of `first_zero`.

    The ratio is >= 1 for converged lambda1 and equals 1 exactly for balls.
    `unit_ball_volume` and `first_zero` raise ValueError unless n is 1, 2, 3.
    """
    if not lambda1 > 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if not metrics.volume > 0:
        raise ValueError("metrics.volume must be positive")
    zero = first_zero(n / 2.0 - 1.0)
    bound = (unit_ball_volume(n) / metrics.volume) ** (2.0 / n) * zero**2
    return lambda1 / bound


class BoundCheck(NamedTuple):
    """The verdict on one bound.  `value` is its relative margin (the bound
    holds at >= 0) or, for `krahn`, the ratio (holds at >= 1)."""

    key: str
    label: str
    statement: str
    value: float
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
            out.append(BoundCheck(key, label, statement, value, passed, equality))
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
            # a real state's <p> is 0: its central-difference form is antisymmetric
            "mean_p": [0.0] * self.n,
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
            "mean_p_max": 0.0,  # <p> = 0, as in to_json_dict
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


def certify_bounds(study: ConvergenceStudy, hbar: float = 1.0) -> UncertaintyReport:
    """Populate an UncertaintyReport from a refinement study.

    The continuum statements use the study's extrapolated lambda1 and its
    error estimate; sigma_p, sigma_x and the spectral bound use the ground
    state, operator and discrete lambda1 of its finest level.  Raises
    ValueError unless hbar is positive and finite and the extrapolated
    lambda1 is positive.
    """
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    grid = study.finest_grid
    spectrum = study.finest_spectrum
    field = spectrum.wavefield(grid)
    n = grid.dim
    metrics = grid.domain.metrics()
    zero = first_zero(n / 2.0 - 1.0)
    lambda1, lambda1_error = study.extrapolated, study.error_estimate
    # first: it refuses a lambda1 that is not positive, before any sqrt of it
    ratio = krahn_ratio(lambda1, metrics, n)
    lambda1_discrete = float(spectrum.eigenvalues[0])

    sigma_p = momentum_stddev(study.finest_matrix, field, hbar)
    sigma_x = position_stddev(field)

    band = 5.0 * (lambda1_error / lambda1)
    diameter_product = math.sqrt(lambda1) * metrics.diameter
    diameter_product_discrete = sigma_p * metrics.diameter / hbar

    margins = {
        "eq7": sigma_p / (hbar * math.sqrt(lambda1_discrete)) - 1.0,
        "eq10": diameter_product / (2.0 * zero) - 1.0,
        "kennard": sigma_p * sigma_x / (hbar / 2.0) - 1.0,
    }

    return UncertaintyReport(
        domain_spec=grid.domain.to_spec(),
        n=n,
        hbar=hbar,
        lambda1=lambda1,
        lambda1_error=lambda1_error,
        lambda1_discrete=lambda1_discrete,
        sigma_p=sigma_p,
        sigma_x=sigma_x,
        metrics=metrics,
        bessel_zero=zero,
        krahn_ratio=ratio,
        diameter_product=diameter_product,
        diameter_product_discrete=diameter_product_discrete,
        margins=margins,
        tolerance_band=band,
    )
