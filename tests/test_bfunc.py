import math

import numpy as np
import pytest

from struvebounds import (
    DomainError,
    OverflowRisk,
    b_asym,
    b_value,
    bfunc,
    bracket,
    get_bound,
    lv_value,
)
from struvebounds.special_core import recurrence_term


def csch_lower(x):
    return 0.5 * x / math.sinh(x)


def bound(bound_id, *args):
    return get_bound(bound_id).evaluate(*args)


class TestBEval:
    def test_minus_half_is_csch(self):
        for x in (0.2, 2.0, 15.0):
            assert abs(b_value(-0.5, x) / csch_lower(x) - 1.0) < 1e-13

    def test_limit_one_half(self):
        for nu in (-1.2, 0.0, 4.0):
            assert abs(b_value(nu, 1e-7) - 0.5) < 1e-7

    def test_large_x_against_decay_form(self):
        got = b_value(1.0, 5.0)
        approx = 5.0 ** 2.5 * math.exp(-5.0) / (2.0 ** 1.5 * math.gamma(2.5))
        assert 0.0 < got < 0.5
        assert abs(approx / got - 1.0) < 0.25

    def test_matches_definition(self):
        nu, x = 1.3, 4.0
        want = x * recurrence_term(nu, x) / (2.0 * lv_value(nu, x))
        assert abs(b_value(nu, x) / want - 1.0) < 1e-14

    def test_deep_decay_stays_positive(self):
        v = b_value(0.5, 590.0)
        assert 0.0 < v < 1e-200

    @pytest.mark.parametrize("nu,x", [(130.0, 600.0), (169.0, 300.0), (200.0, 500.0)])
    def test_large_orders(self, nu, x):
        # the power or Gamma(nu+3/2) leaves double range; b and a do not
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        a = (mpmath.mpf(x) / 2) ** nu / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu + 1.5))
        assert recurrence_term(nu, x) == pytest.approx(float(a), rel=1e-12)
        want = float(a * x / (2 * mpmath.mpf(lv_value(nu, x))))
        assert b_value(nu, x) == pytest.approx(want, rel=1e-12)

    def test_huge_order_underflow_is_domain_error(self):
        with pytest.raises(DomainError, match="underflow"):
            b_value(1e6, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            b_value(-1.5, 1.0)
        with pytest.raises(DomainError):
            b_value(0.0, 0.0)


class TestQuadraticUpper:
    def test_limit(self):
        assert abs(bound("eq12_upper", 0.0, 1e-9) - 0.5) < 1e-15

    def test_values_and_strictness(self):
        assert bound("eq12_upper", 0.0, 3.0) == pytest.approx(0.25)
        assert b_value(0.0, 3.0) < 0.25
        assert bound("eq12_upper", 1.5, 6.0) == pytest.approx(1.0 / 6.0)
        assert b_value(1.5, 6.0) < 1.0 / 6.0

    def test_dominates_kernel_on_grid(self):
        for nu in (-1.4, -0.5, 0.0, 2.5, 10.0):
            for x in np.logspace(-2, 2, 25):
                assert b_value(nu, float(x)) < bound("eq12_upper", nu, float(x))

    def test_domain(self):
        with pytest.raises(DomainError):
            bound("eq12_upper", -1.5, 1.0)


class TestCschBracket:
    def test_equality_at_minus_half(self):
        br = bracket("eq13_lower", "eq13_upper", -0.5, 2.0)
        assert br.lower_valid and br.upper_valid
        assert abs(b_value(-0.5, 2.0) - br.lower) < 1e-15

    def test_limits_near_zero(self):
        br = bracket("eq13_lower", "eq13_upper", 0.0, 1e-8)
        assert abs(br.lower - 0.5) < 1e-8
        assert abs(br.upper - 0.75) < 1e-8  # (2 nu + 3)/4 at nu = 0

    def test_strict_sandwich(self):
        br = bracket("eq13_lower", "eq13_upper", 1.0, 4.0)
        assert br.lower == pytest.approx(2.0 / math.sinh(4.0))
        assert br.upper == pytest.approx(1.0 / math.sinh(0.8))
        assert br.lower < b_value(1.0, 4.0) < br.upper

    def test_subnormal_argument_gives_the_limits(self):
        # x/2 and x/(2 nu+3) round to 0 at the smallest subnormal; the sides
        # are their x -> 0 limits 1/2 and (2 nu + 3)/4
        br = bracket("eq13_lower", "eq13_upper", 1.0, 5e-324)
        assert (br.lower, br.upper) == (0.5, 1.25)

    def test_no_overflow_past_sinh_range(self):
        # sinh overflows past about 710; the sides then decay like x e^(-z)
        # upper side at z = x/(2 nu+3) = 1500
        br = bracket("eq13_lower", "eq13_upper", -1.49, 30.0)
        assert br.lower == 15.0 / math.sinh(30.0)
        assert br.upper == 0.0
        # the lower side's z = x passes 710 only above X_MAX, where the
        # bracket is refused like the series; its helper still decays there
        assert bfunc._x_csch(0.5, 720.0, 1.0) == pytest.approx(
            math.exp(math.log(720.0) - 720.0), rel=1e-12)
        with pytest.raises(OverflowRisk, match="exceeds x_max"):
            bracket("eq13_lower", "eq13_upper", 0.0, 720.0)

    def test_validity_flags(self):
        assert not bracket("eq13_lower", "eq13_upper", -0.75, 1.0).lower_valid
        # the upper side fails on (-1, -1/2): b_{-3/4}(1) = 0.404775 > 0.348598
        assert not bracket("eq13_lower", "eq13_upper", -0.75, 1.0).upper_valid
        assert not get_bound("eq13_upper").valid_at(-0.75)
        assert bracket("eq13_lower", "eq13_upper", -0.5, 1.0).upper_valid
        assert not bracket("eq13_lower", "eq13_upper", -1.0, 1.0).upper_valid

    def test_lower_side_reverses_below_minus_half(self):
        # the hyperbolic lower bound flips direction on (-3/2, -1/2);
        # above -1/2 it holds as stated
        for x in (0.1, 1.0, 8.0):
            for nu in (-1.4, -1.0, -0.6):
                assert b_value(nu, x) < csch_lower(x)
            for nu in (-0.4, 0.0, 0.45):
                assert b_value(nu, x) > csch_lower(x)


class TestAsym:
    def test_small_matches_kernel(self):
        assert abs(b_asym(0.0, 0.1, "small") - b_value(0.0, 0.1)) < 1e-5
        assert b_asym(0.0, 0.1, "small") == pytest.approx(0.5 - 0.01 / 18.0)

    def test_large_matches_kernel(self):
        assert abs(b_asym(0.5, 30.0, "large") / b_value(0.5, 30.0) - 1.0) < 0.1

    def test_small_at_zero(self):
        assert b_asym(3.3, 0.0, "small") == 0.5

    def test_large_past_gamma_overflow(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        nu, x = 200.0, 300.0
        want = mpmath.mpf(x) ** (nu + 1.5) * mpmath.exp(-x) \
            / (2 ** (mpmath.mpf(nu) + 0.5) * mpmath.gamma(nu + 1.5))
        assert b_asym(nu, x, "large") == pytest.approx(float(want), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            b_asym(0.0, 1.0, "medium")
        with pytest.raises(DomainError):
            b_asym(-1.5, 1.0, "small")


class TestShapeInvariants:
    NUS = (-1.45, -1.0, -0.5, 0.0, 0.5, 1.5, 4.0, 10.0)

    def test_range(self):
        for nu in self.NUS:
            for x in np.logspace(-2, 2, 30):
                v = b_value(nu, float(x))
                assert 0.0 < v < 0.5

    def test_decreasing_in_x(self):
        xs = np.linspace(0.1, 50.0, 120)
        for nu in self.NUS:
            vals = [b_value(nu, float(x)) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_nu(self):
        nus = np.linspace(-1.4, 10.0, 120)
        for x in (0.5, 2.0, 20.0):
            vals = [b_value(float(nu), x) for nu in nus]
            assert all(a < b for a, b in zip(vals, vals[1:]))
