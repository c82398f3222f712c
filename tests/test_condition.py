import math

import numpy as np
import pytest

from struvebounds import (
    UnknownBound,
    b_value,
    bracket,
    exact_value,
    get_bound,
    tightest_bracket,
)
from struvebounds.condition import cond_upward_residual

PRIOR_IDS = ("prior_nup1", "prior_xminus", "prior_coth")
# the algebraic condition-number brackets as (lower id, upper id); "" is an open side
SQRT_BRACKETS = (("eq29_lower", "eq29_upper"), ("eq30_lower", "eq30_upper"),
                 ("eq31_lower", ""), ("", "eq27_upper"))


def CL(nu, x):
    return exact_value("cond_L", nu, x)


def bound(bound_id, *args):
    return get_bound(bound_id).evaluate(*args)


def best_prior(nu, x):
    """The tightest of the prior_* lower bounds valid at nu."""
    specs = [get_bound(i) for i in PRIOR_IDS]
    return tightest_bracket([(s, s.evaluate(nu, x)) for s in specs if s.valid_at(nu)],
                            "cond_L", nu)


class TestCondExact:
    def test_small_x_limit_is_order_plus_one(self):
        for nu in (-0.99, -0.3, 0.0, 2.0):
            assert CL(nu, 1e-6) == pytest.approx(nu + 1.0, abs=1e-9)

    def test_half_order_closed_form(self):
        for x in (0.4, 2.0, 11.0):
            want = x / math.tanh(0.5 * x) - 0.5
            assert CL(0.5, x) == pytest.approx(want, rel=1e-13)

    def test_upward_downward_consistency(self):
        assert cond_upward_residual(1.0, 5.0) < 1e-12
        for nu, x in [(0.0, 0.3), (2.5, 20.0), (-0.4, 1.0)]:
            assert cond_upward_residual(nu, x) < 1e-12

    def test_bessel_kind(self):
        # x I'_nu / I_nu at nu = 1/2 is x coth(x) - 1/2; C(I) is the bound eq28_lower
        x = 3.0
        want = x / math.tanh(x) - 0.5
        assert bound("eq28_lower", 0.5, x) == pytest.approx(want, rel=1e-13)

    def test_positive_for_L_above_minus_one(self):
        for nu in (-1.0, -0.5, 0.0, 5.0):
            for x in (1e-3, 1.0, 30.0):
                assert CL(nu, x) > 0.0

    def test_kind_validation(self):
        # the kind is the registry's target: an unknown one is refused by name
        with pytest.raises(UnknownBound, match="cond_K"):
            exact_value("cond_K", 1.0, 1.0)


class TestBracketViaBessel:
    def test_half_order_closed_forms(self):
        # C(I_1/2) = x coth(x) - 1/2 sandwiches C(L_1/2) from below
        x = 2.0
        br = bracket("eq28_lower", "eq28_upper", 0.5, x)
        assert br.lower == pytest.approx(x / math.tanh(x) - 0.5, rel=1e-13)
        assert br.lower < CL(0.5, x) < br.upper

    def test_flags_below_half(self):
        br = bracket("eq28_lower", "eq28_upper", -0.5, 1.0)
        assert not br.lower_valid and br.upper_valid
        assert CL(-0.5, 1.0) < br.upper

    def test_gap_closes_exponentially(self):
        br = bracket("eq28_lower", "eq28_upper", 1.0, 50.0)
        assert br.upper - br.lower == pytest.approx(2.0 * b_value(1.0, 50.0))
        assert br.upper - br.lower < 1e-15


class TestSqrtBrackets:
    def test_eq29_half_order_point(self):
        br = bracket("eq29_lower", "eq29_upper", 0.5, 3.0)
        assert br.lower == pytest.approx(2.5)
        assert br.lower < CL(0.5, 3.0) < br.upper

    def test_eq30_sandwich(self):
        for nu in (-1.0, -0.5, 0.0, 2.0):
            for x in (0.05, 1.0, 20.0):
                br = bracket("eq30_lower", "eq30_upper", nu, x)
                exact = CL(nu, x)
                assert br.lower < exact
                if br.upper_valid:
                    assert exact < br.upper

    def test_eq31_tight_at_zero(self):
        br = bracket("eq31_lower", "", 0.0, 1e-5)
        assert br.lower == pytest.approx(1.0, abs=1e-9)
        assert br.lower < CL(0.0, 1e-5)

    def test_apti_large_x_behaviour(self):
        # upper behaves like x + nu^2/(2x) for large x
        br = bracket("", "eq27_upper", 1.0, 50.0)
        assert br.upper == pytest.approx(50.0 + 1.0 / 100.0, abs=1e-4)
        assert CL(1.0, 50.0) < br.upper

    def test_apti_where_its_sum_cancels(self):
        # below nu = -1/2, x^2 + nu^2 + 2(2 nu+1) b cancels as b -> 1/2; the
        # bound keeps full precision and never drops below the true value
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60  # 1 - 2b is about x^2, so the reference needs 2 log10(1/x) digits
        for nu in (-1.4, -1.0, -0.75):
            for x in (1e-12, 1e-3, 0.5, 1.99, 2.0, 5.0):
                got = bound("eq27_upper", nu, x)
                X, NU = mpmath.mpf(x), mpmath.mpf(nu)
                b = (X / 2) ** (NU + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(NU + 1.5)
                                           * mpmath.struvel(NU, X))
                want = mpmath.sqrt(X ** 2 + NU ** 2 + 2 * (2 * NU + 1) * b)
                assert abs(float((got - want) / want)) < 1e-14, (nu, x)
        for x in (1e-300, 1e-12):  # at nu = -1 the bound is x sqrt(4/3) to O(x^3)
            assert bound("eq27_upper", -1.0, x) == pytest.approx(
                x * math.sqrt(4.0 / 3.0), rel=1e-15)

    def test_prior_variant_picks_max(self):
        br = best_prior(1.0, 0.1)
        # near zero the constant bound nu+1 beats both hyperbolic ones
        assert br.lower_id == "prior_nup1"
        br = best_prior(1.0, 10.0)
        assert br.lower_id == "prior_coth"

    def test_unknown_variant(self):
        with pytest.raises(UnknownBound):
            bracket("eq99_lower", "eq99_upper", 1.0, 1.0)


class TestPriorBounds:
    def test_values(self):
        assert bound("prior_nup1", 1.0, 2.0) == 2.0
        assert bound("prior_xminus", 1.0, 2.0) == 1.0
        assert bound("prior_coth", 0.5, 2.0) == pytest.approx(
            2.0 / math.tanh(1.0) - 0.5)

    def test_coth_limit_at_subnormal_argument(self):
        # x/2 underflows at the smallest subnormal; x coth(x/2) -> 2
        assert bound("prior_coth", 0.5, 5e-324) == 1.5

    def test_coth_equality_at_half(self):
        for x in (0.5, 3.0):
            assert bound("prior_coth", 0.5, x) == pytest.approx(
                CL(0.5, x), rel=1e-13)

    def test_coth_dominates_linear(self):
        for nu in (0.5, 1.0, 4.0):
            for x in (0.2, 2.0, 30.0):
                assert bound("prior_coth", nu, x) >= \
                    bound("prior_xminus", nu, x)

    def test_xminus_fails_below_half_order(self, outside_range):
        # the linear bound does not hold at order zero (and is registered
        # only from 1/2 up); order 0, x = 10 is a strict counterexample,
        # which the registry flags as outside the range
        assert CL(0.0, 10.0) < outside_range("prior_xminus", 0.0, 10.0) == 10.0

    def test_xminus_holds_from_half_up(self):
        # the true gap drops below double resolution at large x, hence the
        # certification-style rounding allowance
        for nu in (0.5, 1.0, 2.5, 10.0):
            for x in (0.01, 1.0, 10.0, 50.0):
                exact = CL(nu, x)
                assert bound("prior_xminus", nu, x) < exact + 1e-12 * abs(exact)


class TestOrderings:
    NUS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 5.0, 10.0)
    XS = np.logspace(-2, math.log10(50.0), 12)

    def test_eq31_dominates_eq30_lower(self):
        for nu in self.NUS:
            for x in self.XS:
                x = float(x)
                a = bound("eq31_lower", nu, x)
                b = bracket("eq30_lower", "eq30_upper", nu, x).lower
                assert a >= b - 1e-14 * abs(a)

    def test_eq30_upper_below_eq29_upper(self):
        for nu in self.NUS:
            if nu < -0.5:
                continue
            for x in self.XS:
                x = float(x)
                a = bracket("eq30_lower", "eq30_upper", nu, x).upper
                b = bracket("eq29_lower", "eq29_upper", nu, x).upper
                assert a <= b + 1e-14 * abs(b)

    def test_small_x_tightness(self):
        x = 1e-3
        for nu in (-0.5, 0.0, 1.0, 5.0):
            target = nu + 1.0
            for bound_id in ("eq30_lower", "eq30_upper", "eq31_lower", "eq27_upper"):
                assert abs(bound(bound_id, nu, x) - target) < 1e-3

    def test_large_x_leading_behaviour(self):
        x = 200.0
        for nu in (-0.5, 0.0, 1.0, 5.0):
            for ids in SQRT_BRACKETS:
                br = bracket(*ids, nu, x)
                for v, ok in ((br.lower, br.lower_valid), (br.upper, br.upper_valid)):
                    if ok:
                        assert abs(v / x - 1.0) < 0.01


class TestSingleCrossovers:
    def count_sign_changes(self, f, xs):
        signs = [math.copysign(1.0, f(float(x))) for x in xs]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def test_eq29_vs_eq31_lower(self):
        xs = np.linspace(0.01, 50.0, 300)
        for nu in (0.5, 1.0, 2.5):
            f = lambda x: (bracket("eq29_lower", "eq29_upper", nu, x).lower
                           - bound("eq31_lower", nu, x))
            assert self.count_sign_changes(f, xs) == 1

    def test_apti_vs_eq30_upper(self):
        xs = np.linspace(0.01, 50.0, 300)
        for nu in (-0.5, 0.0, 1.0, 2.5, 5.0):
            f = lambda x: (bound("eq27_upper", nu, x)
                           - bracket("eq30_lower", "eq30_upper", nu, x).upper)
            assert self.count_sign_changes(f, xs) == 1
