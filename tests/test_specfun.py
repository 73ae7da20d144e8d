"""The tabulated first Bessel zeros j_{n/2-1,1}, checked against scipy.special."""

import math

import pytest
import scipy.special

from specbound import first_zero


class TestFirstZero:
    def test_order_minus_half_is_half_pi(self):
        assert first_zero(-0.5) == math.pi / 2

    def test_order_half_is_pi(self):
        assert first_zero(0.5) == math.pi

    def test_order_zero(self):
        assert abs(float(scipy.special.j0(first_zero(0)))) < 1e-15

    def test_zeros_increase_with_order(self):
        zeros = [first_zero(m) for m in (-0.5, 0, 0.5)]
        assert all(a < b for a, b in zip(zeros, zeros[1:]))

    def test_integer_zeros_against_scipy(self):
        zero = first_zero(0)
        assert abs(zero - float(scipy.special.jn_zeros(0, 1)[0])) <= math.ulp(zero)

    def test_unsupported_order_rejected(self):
        for order in (2.5, 1, 1.0, math.nan):
            with pytest.raises(ValueError):
                first_zero(order)
