"""Bessel functions J_m of the first kind and their first positive zeros.

Supported are the orders n/2 - 1 for n = 1, 2, 3 that the sharp constants
j_{n/2-1,1} need: -1/2 and 1/2 (closed trigonometric forms) and 0 (the
ascending series, for 0 <= x <= 12).  First zeros are located by
sign-change bracketing followed by bisection, so every returned zero
carries a bracket certificate and a residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BesselZero", "bessel_j", "first_zero", "SUPPORTED_ORDERS"]

SUPPORTED_ORDERS = (-0.5, 0, 0.5)

_SERIES_CUTOFF = 12.0  # J_0 is evaluated by its series up to here
_SCAN_STEP = 0.1
_BISECT_WIDTH = 1e-14


@dataclass(frozen=True)
class BesselZero:
    """First positive zero of J_m with its bracket certificate."""

    order: float
    value: float
    residual: float
    bracket: tuple


def _check_order(order: float) -> float:
    order = float(order)
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported order {order}; supported: {sorted(SUPPORTED_ORDERS)}"
        )
    return order


def _j0_series(x: float) -> float:
    # ascending series sum_k (-1)^k (x/2)^(2k) / (k!)^2; converges for all
    # x, used only below the cutoff where cancellation stays harmless
    half = x / 2.0
    term = total = 1.0
    k = 0
    while abs(term) > 1e-18 * (abs(total) + 1.0) and k < 200:
        k += 1
        term *= -(half * half) / (k * k)
        total += term
    return total


def bessel_j(order: float, x: float) -> float:
    """Evaluate J_order(x) for x >= 0.

    Half-integer orders use their trigonometric closed forms.  Order 0 uses
    the ascending series, with absolute error below 1e-12, and raises
    ValueError for x > 12.
    """
    order = _check_order(order)
    x = float(x)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if order == -0.5:
        if x == 0.0:
            return math.inf
        return math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
    if order == 0.5:
        if x == 0.0:
            return 0.0
        return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    if x > _SERIES_CUTOFF:
        raise ValueError(f"J_0 is supported for x <= {_SERIES_CUTOFF}, got {x}")
    return _j0_series(x)


def first_zero(order: float) -> BesselZero:
    """Locate the smallest positive zero of J_order.

    Scans upward from 0 in steps of 0.1 for a sign change, then bisects the
    bracket down to width 1e-14.
    """
    order = _check_order(order)
    lo = _SCAN_STEP
    f_lo = bessel_j(order, lo)
    hi = lo
    while hi < _SERIES_CUTOFF:
        hi = hi + _SCAN_STEP
        f_hi = bessel_j(order, hi)
        if f_lo * f_hi < 0.0:
            break
        lo, f_lo = hi, f_hi
    else:
        raise ValueError(f"no sign change of J_{order} found in (0, {_SERIES_CUTOFF}]")

    bracket = (lo, hi)
    a, b = lo, hi
    f_a = bessel_j(order, a)
    while b - a > _BISECT_WIDTH:
        mid = 0.5 * (a + b)
        f_mid = bessel_j(order, mid)
        if f_mid == 0.0:
            a = b = mid
            break
        if f_a * f_mid < 0.0:
            b = mid
        else:
            a, f_a = mid, f_mid
    root = 0.5 * (a + b)
    return BesselZero(
        order=order,
        value=root,
        residual=abs(bessel_j(order, root)),
        bracket=bracket,
    )
