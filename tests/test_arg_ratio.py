import math

import numpy as np
import pytest

from struvebounds import (
    DomainError,
    UnknownBound,
    a_nu_constant,
    arg_ratio,
    a_nu_stirling_bracket,
    bessel_route_coefficient,
    bracket,
    coefficient_crossover_nu,
    exact_value,
    get_bound,
    lv_value,
    pointwise_bracket,
    special_core,
)

SQRT_PI = math.sqrt(math.pi)


def bound(bound_id, *args):
    return get_bound(bound_id).evaluate(*args)


def exact_ratio(nu, x, y):
    return exact_value("arg_ratio_L", nu, x, y)


class TestArgPair:
    """The pair (x, y) is checked where the Point is built."""

    def test_rejects_reversed(self):
        with pytest.raises(DomainError):
            exact_ratio(1.0, 2.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            exact_ratio(1.0, 0.0, 1.0)

    def test_degenerate_allowed(self):
        assert exact_ratio(1.0, 1.0, 1.0) == 1.0


class TestExactRatio:
    def test_identity(self):
        assert exact_ratio(3.2, 2.0, 2.0) == 1.0

    def test_half_order_closed_form(self):
        want = (math.cosh(1.0) - 1.0) * math.sqrt(2.0) / (math.cosh(2.0) - 1.0)
        assert exact_ratio(0.5, 1.0, 2.0) == pytest.approx(want, rel=1e-13)

    def test_below_power_bound(self):
        assert exact_ratio(1.0, 2.0, 7.0) < (2.0 / 7.0) ** 2

    def test_in_unit_interval(self):
        for nu in (-1.0, -0.5, 0.0, 5.0):
            for x, y in ((0.5, 1.0), (1.0, 10.0), (20.0, 60.0)):
                r = exact_ratio(nu, x, y)
                assert 0.0 < r < 1.0


class TestBesselBracket:
    def test_half_order_upper_closed_form(self):
        br = bracket("eq37_lower", "eq37_upper", 0.5, 1.0, 3.0)
        want = math.sinh(1.0) * math.sqrt(3.0) / math.sinh(3.0)
        assert br.upper == pytest.approx(want, rel=1e-13)
        assert exact_ratio(0.5, 1.0, 3.0) <= br.upper

    def test_sandwich(self):
        br = bracket("eq37_lower", "eq37_upper", 1.0, 0.5, 5.0)
        exact = exact_ratio(1.0, 0.5, 5.0)
        assert br.lower < exact < br.upper

    def test_flags_at_minus_half(self):
        br = bracket("eq37_lower", "eq37_upper", -0.5, 1.0, 2.0)
        assert br.lower_valid and not br.upper_valid


class TestExplicitBracket:
    def test_continuity_at_equal_arguments(self):
        br = bracket("eq38_lower", "eq38_upper", 0.5, 2.0, 2.0)
        assert br.lower == br.upper == 1.0

    def test_sandwich_on_grid(self):
        for nu in (-0.5, 0.0, 1.0, 5.0):
            for x, y in ((0.01, 1.0), (1.0, 3.0), (5.0, 50.0)):
                br = bracket("eq38_lower", "eq38_upper", nu, x, y)
                exact = exact_ratio(nu, x, y)
                assert br.lower < exact < br.upper

    def test_lower_has_correct_decay_order(self):
        # lower/exact stays bounded as y grows: both are O(y^(1/2) e^-y)
        nu = 0.0
        vals = []
        for y in (20.0, 35.0, 50.0):
            br = bracket("eq38_lower", "eq38_upper", nu, 1.0, y)
            vals.append(br.lower / exact_ratio(nu, 1.0, y))
        assert all(0.01 < v < 1.0 for v in vals)
        assert abs(vals[-1] / vals[-2] - 1.0) < 0.2

    def test_upper_is_one_power_of_y_high(self):
        # upper/exact grows linearly in y (the bound is O(y^(3/2) e^-y))
        nu = 1.0
        r35 = bracket("eq38_lower", "eq38_upper", nu, 1.0, 35.0).upper \
            / exact_ratio(nu, 1.0, 35.0)
        r50 = bracket("eq38_lower", "eq38_upper", nu, 1.0, 50.0).upper \
            / exact_ratio(nu, 1.0, 50.0)
        assert r50 / r35 == pytest.approx(50.0 / 35.0, rel=0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            bracket("eq38_lower", "eq38_upper", -0.6, 1.0, 2.0)


class TestPointwiseBracket:
    def test_reference_errors(self):
        up = pointwise_bracket(0.0, 5.0).upper
        assert abs(up / lv_value(0.0, 5.0) - 1.0) == pytest.approx(1.3722, abs=2e-4)
        up = pointwise_bracket(10.0, 0.5).upper
        assert abs(up / lv_value(10.0, 0.5) - 1.0) == pytest.approx(0.0005, abs=2e-4)

    def test_subnormal_argument(self):
        # x/2 underflows at the smallest subnormal: tanh(x/2) is taken as x/2
        for nu in (0.0, 1.0):
            br = pointwise_bracket(nu, 5e-324)
            assert 0.0 <= br.lower <= br.upper

    def test_sides_stay_in_order_near_zero(self):
        # below x = 1e-8 both sides share their (nu+1) log x term, which is
        # near -700 here; formed apart they disagreed by about 5e-14
        for nu in (-0.5, 0.0, 2.5):
            for x in (1e-310, 1e-300, 1e-200, 1e-9):
                br = pointwise_bracket(nu, x)
                assert br.lower <= br.upper * (1.0 + 1e-15)
        for nu in (0.0, 1.0, 10.0):
            for x, y in ((1e-300, 2e-300), (1e-300, 1e-7), (1e-300, 1.0), (1e-9, 1e-8)):
                br = bracket("eq38_lower", "eq38_upper", nu, x, y)
                assert br.lower <= br.upper * (1.0 + 1e-15)

    def test_tight_at_small_x(self):
        x = 1e-4
        br = pointwise_bracket(1.0, x)
        # the leading term of L_1, (x/2)^2 / (Gamma(3/2) Gamma(5/2)), times 1 + x^2/15
        lead = special_core._first_term(2.0, 1.5, 2.5, x) * (1.0 + x * x / 15.0)
        assert br.lower == pytest.approx(lead, rel=1e-6)
        assert br.upper == pytest.approx(lead, rel=1e-6)

    def test_sandwich_on_grid(self):
        for nu in (-0.5, 0.0, 2.5, 10.0):
            for x in (0.001, 0.5, 5.0, 50.0, 400.0):
                br = pointwise_bracket(nu, x)
                v = lv_value(nu, x)
                assert br.lower < v < br.upper

    def test_domain(self):
        with pytest.raises(DomainError, match="nu >= -1/2"):
            pointwise_bracket(-0.51, 1.0)


class TestPriorArgRatioBounds:
    def test_eq34_equality_at_half(self):
        got = bound("eq34_upper", 0.5, 1.0, 2.0)
        assert got == pytest.approx(exact_ratio(0.5, 1.0, 2.0), rel=1e-13)

    def test_eq33a_value_and_side(self):
        got = bound("eq33a_upper", 0.0, 1.0, 4.0)
        assert got == pytest.approx(0.25)
        assert got >= exact_ratio(0.0, 1.0, 4.0)

    def test_eq42_value_and_side(self):
        # e^(x-y) ((y+nu)/(x+nu))^nu (x/y)^(nu+1) sqrt((15+y^2)/(15+x^2))
        # with 3(2 nu+3) = 15 at order one
        want = math.exp(-2.0) * (4.0 / 2.0) * (1.0 / 3.0) ** 2 * math.sqrt(24.0 / 16.0)
        got = bound("eq42_lower", 1.0, 1.0, 3.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got <= exact_ratio(1.0, 1.0, 3.0)

    def test_hbv_lower_side(self):
        got = bound("eq40_lower", 0.0, 0.5, 2.0)
        assert got < exact_ratio(0.0, 0.5, 2.0)

    def test_variant_domains(self):
        with pytest.raises(DomainError):
            bound("eq33b_upper", 0.4, 1.0, 2.0)
        with pytest.raises(DomainError):
            bound("eq40_lower", -0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            bound("eq42_lower", -0.1, 1.0, 2.0)
        with pytest.raises(UnknownBound):
            get_bound("nope")


class TestPointwisePriorUppers:
    def test_eq46_reference_errors(self):
        got = bound("eq46_upper", 0.0, 0.5)
        assert got / lv_value(0.0, 0.5) - 1.0 == pytest.approx(5.3417, abs=2e-4)
        got = bound("eq46_upper", 2.5, 2.5)
        assert got / lv_value(2.5, 2.5) - 1.0 == pytest.approx(0.7309, abs=2e-4)

    def test_eq43_value_and_side(self):
        want = math.sqrt(9.0 / 10.0) * math.e / (SQRT_PI * math.gamma(1.5))
        got = bound("eq43_upper", 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got >= lv_value(0.0, 1.0)

    def test_eq45_matches_definition(self):
        from struvebounds import iv_value

        nu, x = 1.3, 4.0
        want = 2.0 * math.gamma(nu + 2.0) / (SQRT_PI * math.gamma(nu + 1.5)) \
            * iv_value(nu + 1.0, x)
        assert bound("eq45_upper", nu, x) == pytest.approx(want, rel=1e-13)
        assert want > lv_value(nu, x)

    def test_eq45_past_gamma_overflow(self):
        # Gamma(nu+2) alone overflows a double here; the ratio does not
        from struvebounds import iv_value

        nu, x = 200.0, 500.0
        ratio = math.exp(math.lgamma(nu + 2.0) - math.lgamma(nu + 1.5))
        want = 2.0 * ratio / SQRT_PI * iv_value(nu + 1.0, x)
        assert bound("eq45_upper", nu, x) == pytest.approx(want, rel=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            bound("eq43_upper", -0.1, 1.0)
        with pytest.raises(DomainError):
            bound("eq46_upper", -0.5, 1.0)


class TestDominance:
    def test_explicit_lower_beats_eq42(self):
        for nu in (0.0, 1.0, 5.0):
            for x, y in ((0.1, 1.0), (1.0, 3.0), (5.0, 50.0)):
                a = bracket("eq38_lower", "eq38_upper", nu, x, y).lower
                b = bound("eq42_lower", nu, x, y)
                assert a >= b * (1.0 - 1e-12)

    def test_explicit_upper_beats_eq43(self):
        for nu in (0.0, 1.0, 5.0):
            for x in (0.1, 1.0, 10.0, 100.0):
                a = pointwise_bracket(nu, x).upper
                b = bound("eq43_upper", nu, x)
                assert a <= b * (1.0 + 1e-12)

    def test_explicit_upper_beats_power_bound_at_low_orders(self):
        # the improvement over (x/y)^(nu+1) holds up to order ~3/2; above
        # that the power bound wins by a sliver at small arguments, and the
        # exponential variant wins again only from order 3/2 on at large y
        for nu in (-0.5, 0.0, 0.5, 1.0, 1.4):
            for x, y in ((0.01, 0.011), (0.1, 1.0), (1.0, 3.0), (5.0, 50.0)):
                a = bracket("eq38_lower", "eq38_upper", nu, x, y).upper
                b = bound("eq33a_upper", nu, x, y)
                assert a < b


class TestLargeXCoefficient:
    def test_inside_stirling_bracket(self):
        for nu in np.linspace(-0.49, 100.0, 500):
            nu = float(nu)
            lo, hi = a_nu_stirling_bracket(nu)
            assert lo < a_nu_constant(nu).value < hi

    def test_above_universal_floor(self):
        for nu in np.linspace(-0.49, 100.0, 200):
            assert a_nu_constant(float(nu)).value > 1.0 / math.sqrt(2.0 * math.pi)

    def test_crossover_order(self):
        star = coefficient_crossover_nu()
        assert star == pytest.approx(2.521, abs=5e-3)
        assert a_nu_constant(star).value == pytest.approx(
            bessel_route_coefficient(star), rel=1e-3)

    # without the check a NaN tol stops the bisection before its first step
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-4])
    def test_crossover_refuses_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be finite"):
            coefficient_crossover_nu(tol)

    def test_crossover_stops_at_adjacent_floats(self, monkeypatch):
        # a positive tol below the floats' spacing near 2.52 (about 4.4e-16)
        # once kept the bisection going forever; the cap on calls makes a
        # bisection that never ends fail instead of hang
        calls = []
        coefficient = arg_ratio.a_nu_constant

        def capped(nu):
            calls.append(nu)
            if len(calls) > 200:
                raise AssertionError("the bisection did not stop")
            return coefficient(nu)

        monkeypatch.setattr(arg_ratio, "a_nu_constant", capped)
        assert coefficient_crossover_nu(1e-300) == pytest.approx(2.521, abs=5e-3)

    def test_bracket_width_shrinks(self):
        lo1, hi1 = a_nu_stirling_bracket(1.0)
        lo2, hi2 = a_nu_stirling_bracket(50.0)
        assert hi2 - lo2 < hi1 - lo1

    def test_pointwise_upper_attains_coefficient(self):
        # (upper bound) * sqrt(x) e^-x approaches the coefficient like
        # e^(-(nu+1/2)^2/(2x)); at x = 400 the rate-corrected match is sharp
        x = 400.0
        for nu in (0.0, 1.0, 2.5, 5.0, 10.0):
            up = pointwise_bracket(nu, x).upper
            scaled = up * math.sqrt(x) * math.exp(-x)
            corrected = a_nu_constant(nu).value * math.exp(-(nu + 0.5) ** 2 / (2.0 * x))
            assert abs(scaled / corrected - 1.0) < 5e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            a_nu_constant(-0.5)
        with pytest.raises(DomainError):
            a_nu_stirling_bracket(-0.6)
