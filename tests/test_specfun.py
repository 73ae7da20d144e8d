import math

import numpy as np
import pytest
import scipy.special

from specbound import bessel_j, first_zero
from specbound.specfun import SUPPORTED_ORDERS

J01 = 2.40482555769  # first zero of J_0, to the digits asserted below


class TestBesselJ:
    def test_j0_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_half_order_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-15

    def test_j0_at_first_zero(self):
        assert abs(bessel_j(0, J01)) < 1e-10

    @pytest.mark.parametrize("order", [0])
    def test_integer_orders_against_scipy(self, order):
        # independent oracle over the whole range of the series
        for x in np.linspace(0.0, 12.0, 401):
            assert bessel_j(order, float(x)) == pytest.approx(
                float(scipy.special.jv(order, x)), abs=1e-12
            )

    def test_order_zero_beyond_series_range_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, 12.5)

    @pytest.mark.parametrize("order", [-0.5, 0.5])
    def test_half_orders_against_scipy(self, order):
        for x in np.linspace(0.05, 50.0, 400):
            assert bessel_j(order, float(x)) == pytest.approx(
                float(scipy.special.jv(order, x)), abs=1e-12
            )

    def test_half_order_closed_forms_match_series_samples(self):
        # the trigonometric forms against a generic half-order series,
        # evaluated at 20 fixed points
        xs = np.linspace(0.5, 10.0, 20)
        for x in xs:
            series_plus = _half_order_series(0.5, float(x))
            series_minus = _half_order_series(-0.5, float(x))
            assert bessel_j(0.5, float(x)) == pytest.approx(series_plus, abs=1e-12)
            assert bessel_j(-0.5, float(x)) == pytest.approx(series_minus, abs=1e-12)

    def test_unsupported_order_rejected(self):
        for order in (1.5, 1, 5, 6):
            with pytest.raises(ValueError):
                bessel_j(order, 1.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -0.1)


def _half_order_series(order, x, terms=60):
    # ascending series with Gamma(k + order + 1) built by recursion from
    # Gamma(1/2) = sqrt(pi); independent of the closed trigonometric form
    def gamma_half(z):
        value, base = math.sqrt(math.pi), 0.5
        while base < z - 0.25:
            value *= base
            base += 1.0
        return value

    total = 0.0
    for k in range(terms):
        total += (
            (-1) ** k
            * (x / 2.0) ** (2 * k + order)
            / (math.factorial(k) * gamma_half(k + order + 1.0))
        )
    return total


class TestFirstZero:
    def test_order_minus_half_is_half_pi(self):
        assert first_zero(-0.5).value == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_order_half_is_pi(self):
        assert first_zero(0.5).value == pytest.approx(math.pi, abs=1e-12)

    def test_order_zero(self):
        assert first_zero(0).value == pytest.approx(J01, abs=1e-9)

    def test_residual_certificate(self):
        for order in SUPPORTED_ORDERS:
            zero = first_zero(order)
            assert zero.residual <= 1e-12
            assert abs(bessel_j(order, zero.value)) == zero.residual

    def test_bracket_straddles_sign_change(self):
        for order in SUPPORTED_ORDERS:
            zero = first_zero(order)
            lo, hi = zero.bracket
            assert lo < zero.value < hi
            assert bessel_j(order, lo) * bessel_j(order, hi) < 0.0

    def test_zeros_increase_with_order(self):
        ordered = sorted(SUPPORTED_ORDERS)
        zeros = [first_zero(m).value for m in ordered]
        assert all(a < b for a, b in zip(zeros, zeros[1:]))

    def test_integer_zeros_against_scipy(self):
        assert first_zero(0).value == pytest.approx(
            float(scipy.special.jn_zeros(0, 1)[0]), abs=1e-11
        )

    def test_unsupported_order_rejected(self):
        for order in (2.5, 1):
            with pytest.raises(ValueError):
                first_zero(order)
