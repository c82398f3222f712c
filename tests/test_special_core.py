import math
import random

import numpy as np
import pytest
from scipy.special import iv as scipy_iv
from scipy.special import modstruve as scipy_modstruve

from struvebounds import special_core
from struvebounds import (
    ConvergenceError,
    DomainError,
    cond_exact,
    OverflowRisk,
    asym_large_x,
    bessel_i,
    gamma_pos,
    half_integer_closed,
    iv_value,
    lv_value,
    mv_value,
    quad_oracle_i,
    quad_oracle_l,
    ratio_succ_exact,
    recurrence_check,
    small_x_leading,
    struve_l,
    struve_m,
)

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a / b - 1.0)


class TestGamma:
    def test_sqrt_pi_over_two(self):
        assert rel(gamma_pos(1.5), SQRT_PI / 2.0) < 1e-15

    def test_one(self):
        assert gamma_pos(1.0) == 1.0

    def test_recurrence_oracle(self):
        # build Gamma(4.5) from Gamma(0.5) = sqrt(pi) by the recurrence
        expected = SQRT_PI
        for t in (0.5, 1.5, 2.5, 3.5):
            expected *= t
        assert rel(gamma_pos(4.5), expected) < 1e-13

    def test_recurrence_property(self):
        for a in (0.1, 0.9, 2.3, 7.7, 33.0):
            assert rel(gamma_pos(a + 1.0), a * gamma_pos(a)) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_pos(bad)


class TestBesselSeries:
    def test_half_order_closed_form(self):
        want = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0)
        assert rel(bessel_i(0.5, 2.0).value, want) < 1e-14

    def test_minus_half_order_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * math.cosh(1.0)
        assert rel(bessel_i(-0.5, 1.0).value, want) < 1e-14

    def test_against_quadrature(self):
        assert rel(bessel_i(1.0, 2.5).value, quad_oracle_i(1.0, 2.5).value) < 1e-10

    def test_against_scipy(self):
        for nu, x in [(0.0, 1.0), (2.3, 7.0), (5.0, 0.3), (0.7, 12.0)]:
            assert rel(iv_value(nu, x), float(scipy_iv(nu, x))) < 1e-9

    def test_negative_integer_order_reflection(self):
        assert iv_value(-1.0, 3.0) == iv_value(1.0, 3.0)

    def test_positive(self):
        for nu in (-0.99, -0.5, 0.0, 1.0, 7.5):
            for x in (1e-3, 0.5, 5.0, 40.0):
                assert iv_value(nu, x) > 0.0

    def test_metadata(self):
        out = bessel_i(1.0, 30.0)
        assert 0 < out.terms_used <= 500
        assert out.est_rel_error <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(-2.0, 1.0)
        with pytest.raises(DomainError):
            bessel_i(1.0, 0.0)
        with pytest.raises(OverflowRisk):
            bessel_i(1.0, 601.0)

    def test_convergence_cap(self, monkeypatch):
        # a series that reaches the term cap raises, and its failure is not
        # remembered: the same call under the real cap still succeeds
        want = bessel_i(1.0, 300.0)
        special_core._SERIES_MEMO.clear()
        monkeypatch.setattr(special_core, "MAX_TERMS", 50)
        with pytest.raises(ConvergenceError, match="50 terms"):
            bessel_i(1.0, 300.0)
        assert ("I", 1.0, 300.0) not in special_core._SERIES_MEMO
        monkeypatch.undo()
        assert bessel_i(1.0, 300.0) == want

    def test_no_series_reaches_the_cap_on_the_domain(self):
        # on orders [-2.49, 150] and x up to X_MAX every series stops on
        # REL_TOL, so the cap never decides a value; the most terms, 407,
        # are taken at the lowest order and the largest argument
        most = 0
        for kind in ("I", "L"):
            for nu in np.linspace(-2.49, 150.0, 61).tolist() + [-2.0, -1.5, -1.0]:
                for x in (1e-3, 1.0, 30.0, 150.0, 300.0, 450.0, 599.0, 600.0):
                    try:
                        _, terms, _ = special_core._series(kind, nu, x)
                    except DomainError:  # leading term underflows
                        continue
                    most = max(most, terms)
        assert 400 < most < special_core.MAX_TERMS

    def test_leading_term_overflow_is_domain_error(self):
        # at negative orders and tiny x the leading term (x/2)^nu / Gamma
        # itself leaves double range
        for fn, args in ((bessel_i, (-1.2, 1e-300)), (struve_m, (-1.2, 1e-300)),
                         (ratio_succ_exact, ("I", -0.2, 1e-300)),
                         (cond_exact, ("L", -1.2, 1e-300))):
            with pytest.raises(DomainError, match="overflows"):
                fn(*args)

    def test_leading_term_underflow_is_domain_error(self):
        # a zero or subnormal leading term is underflow, not non-convergence
        for fn, nu, x in ((bessel_i, 300.0, 1.0), (struve_l, 150.0, 1.0),
                          (struve_l, 1.0, 1e-320), (struve_l, 0.0, 5e-324)):
            with pytest.raises(DomainError, match="underflow"):
                fn(nu, x)


class TestSeriesRow:
    ORDERS = (-2.4, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 10.0, 60.0)

    @pytest.mark.parametrize("kind", ["I", "L"])
    def test_bit_identical_to_scalar(self, kind):
        # values only: the batch forms no error estimate
        xs = np.logspace(-3.0, math.log10(600.0), 200).tolist()
        for nu in self.ORDERS:
            got = special_core.fill_series_row(kind, nu, xs).tolist()
            assert got == [special_core._series(kind, nu, x)[0] for x in xs], nu

    def test_one_order_per_lane(self):
        # one pass over lanes of many orders gives what the scalar kernel does
        nus = [-2.4, -1.0, 0.5, 10.0, 60.0] * 40
        xs = np.logspace(-3.0, math.log10(600.0), 200).tolist()
        for kind in ("I", "L"):
            got = special_core.fill_series_row(kind, nus, xs).tolist()
            assert got == [special_core._series(kind, nu, x)[0] for nu, x in zip(nus, xs)]

    def test_out_of_domain_lanes_are_nan(self):
        got = special_core.fill_series_row("L", 1.0, [2.0, 0.0, -1.0, 700.0, math.nan, 1e-320, 2.0])
        assert got[0] == got[-1] == special_core._series("L", 1.0, 2.0)[0]
        assert np.isnan(got[1:-1]).all()  # the subnormal x underflows
        assert np.isnan(special_core.fill_series_row("L", [-3.0, math.nan], [1.0, 1.0])).all()

    def test_memo_is_cleared_when_full(self, monkeypatch):
        # only point lookups fill the memo, which calls _series on a miss
        special_core._SERIES_MEMO.clear()
        monkeypatch.setattr(special_core, "_SERIES_MEMO_MAX", 3)
        for x in (1.0, 2.0, 3.0, 4.0, 5.0):
            struve_l(1.0, x)
        assert list(special_core._SERIES_MEMO) == [("L", 1.0, 4.0), ("L", 1.0, 5.0)]

    def test_unconverged_lanes_are_not_stored(self, monkeypatch):
        monkeypatch.setattr(special_core, "MAX_TERMS", 50)
        got = special_core.fill_series_row("I", 1.0, [1.0, 300.0])
        assert got[0] == special_core._series("I", 1.0, 1.0)[0] and math.isnan(got[1])
        with pytest.raises(ConvergenceError):
            special_core._series("I", 1.0, 300.0)

    def test_fill_stores_nothing(self):
        special_core._SERIES_MEMO.clear()
        struve_l(1.0, 2.0)
        before = dict(special_core._SERIES_MEMO)
        for kind in ("I", "L"):
            special_core.fill_series_row(kind, [1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert special_core._SERIES_MEMO == before

    def test_empty_row_is_a_domain_error(self):
        # it once reached numpy's max of an empty array and raised ValueError
        with pytest.raises(DomainError, match="at least one lane"):
            special_core.Row(1.0, np.array([])).L(1.0)

    def test_row_sums_what_it_was_not_given(self):
        # a handed series is read as given; any other is summed by the row,
        # and a lane the batch cannot sum raises the scalar kernel's error
        xs = np.array([0.5, 2.0, 8.0])
        row = special_core.Row(1.0, xs)
        special_core.fill_rows([(row, "L", 1.0, False)])
        given = row.given["L", 1.0, False]
        assert row.L(1.0) is given
        assert row.I(1.0).tolist() == [special_core._series("I", 1.0, x)[0] for x in xs.tolist()]
        with pytest.raises(DomainError, match="underflow"):
            special_core.Row(300.0, np.array([1.0, 2.0])).I(300.0)

    def test_row_m_takes_the_stable_route_where_l_minus_i_cancels(self):
        xs = np.array([0.5, 5.0, 30.0, 200.0])
        got = special_core.Row(1.0, xs).M(1.0).tolist()
        assert got == [struve_m(1.0, x).value for x in xs.tolist()]
        assert [struve_m(1.0, x).cancellation for x in xs.tolist()] == [False, False, True, True]


class TestStruveSeries:
    def test_half_order_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * (math.cosh(1.0) - 1.0)
        assert rel(struve_l(0.5, 1.0).value, want) < 1e-14

    def test_minus_half_order_closed_form(self):
        want = math.sqrt(2.0 / (3.0 * math.pi)) * math.sinh(3.0)
        assert rel(struve_l(-0.5, 3.0).value, want) < 1e-14

    def test_against_quadrature(self):
        assert rel(struve_l(2.5, 5.0).value, quad_oracle_l(2.5, 5.0).value) < 1e-10

    def test_against_scipy(self):
        for nu, x in [(0.0, 1.0), (2.3, 7.0), (-1.0, 4.0), (5.0, 0.3)]:
            assert rel(lv_value(nu, x), float(scipy_modstruve(nu, x))) < 1e-9

    def test_positive(self):
        for nu in (-1.0, -0.5, 0.0, 2.5, 10.0):
            for x in (1e-3, 0.5, 5.0, 40.0):
                assert lv_value(nu, x) > 0.0

    def test_large_argument(self):
        # x near the overflow guard still converges inside the default cap
        out = struve_l(1.0, 600.0)
        assert out.terms_used < 500
        assert rel(out.value, asym_large_x("L", 1.0, 600.0)) < 1e-5


class TestClosedFormEquivalence:
    # series and elementary forms agree at every half-integer order we carry
    @pytest.mark.parametrize("kind,fn", [("I", iv_value), ("L", lv_value)])
    @pytest.mark.parametrize("nu", [-1.5, -0.5, 0.5])
    def test_grid(self, kind, fn, nu):
        for x in np.logspace(-1, math.log10(30.0), 40):
            closed = half_integer_closed(kind, nu, float(x))
            assert abs(fn(nu, float(x)) - closed) <= 1e-12 * abs(closed)


class TestHalfIntegerClosed:
    def test_struve_half(self):
        x = 1.7
        want = math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - 1.0)
        assert rel(half_integer_closed("L", 0.5, x), want) < 1e-14

    def test_bessel_minus_three_halves(self):
        x = 2.2
        want = math.sqrt(2.0 / (math.pi * x)) * (math.sinh(x) - math.cosh(x) / x)
        assert rel(half_integer_closed("I", -1.5, x), want) < 1e-13

    def test_struve_minus_half_small_x(self):
        # behaves as sqrt(2 x / pi) near zero
        x = 1e-8
        assert rel(half_integer_closed("L", -0.5, x), math.sqrt(2.0 * x / math.pi)) < 1e-8

    def test_unsupported(self):
        with pytest.raises(DomainError):
            half_integer_closed("L", 1.0, 2.0)
        with pytest.raises(DomainError):
            half_integer_closed("K", 0.5, 2.0)


class TestAsymptotics:
    def test_vanishing_correction_at_half(self):
        x = 7.0
        assert rel(asym_large_x("L", 0.5, x), math.exp(x) / math.sqrt(2 * math.pi * x)) < 1e-15

    def test_bessel_large(self):
        assert rel(asym_large_x("I", 1.0, 50.0), iv_value(1.0, 50.0)) < 1e-4

    def test_struve_large(self):
        assert rel(asym_large_x("L", 2.5, 100.0), lv_value(2.5, 100.0)) < 1e-4


class TestLargeOrderPrefactors:
    # past nu ~ 169 math.gamma overflows; these prefactors go through the
    # log-space route of the one (x/2)^p / Gamma routine instead
    NU = 200.0

    def test_small_x_leading(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = 100.0
        half = mpmath.mpf(x) / 2
        want_l = half ** (self.NU + 1) / (mpmath.gamma(1.5) * mpmath.gamma(self.NU + 1.5)) \
            * (1 + mpmath.mpf(x) ** 2 / (3 * (2 * self.NU + 3)))
        want_i = half ** self.NU / mpmath.gamma(self.NU + 1)
        assert rel(small_x_leading("L", self.NU, x), float(want_l)) < 1e-12
        assert rel(small_x_leading("I", self.NU, x), float(want_i)) < 1e-12
        # the leading term underflows at x = 1: its double value is 0
        assert small_x_leading("L", self.NU, 1.0) == 0.0

    def test_quad_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        x = 300.0
        assert rel(quad_oracle_i(self.NU, x).value, float(mpmath.besseli(self.NU, x))) < 1e-12
        assert rel(quad_oracle_l(self.NU, x).value, float(mpmath.struvel(self.NU, x))) < 1e-12

    @pytest.mark.parametrize("nu", [100.0, 150.0, 200.0])
    def test_estimate_covers_the_leading_factor(self, nu):
        # the leading (x/2)^p / Gamma factor carries rounding of about eps
        # times the logs it is formed from; the estimate must cover it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in (300.0, 500.0, 600.0):
            for fn, ref in ((bessel_i, mpmath.besseli), (struve_l, mpmath.struvel),
                            (quad_oracle_i, mpmath.besseli), (quad_oracle_l, mpmath.struvel)):
                out = fn(nu, x)
                want = ref(nu, x)
                err = abs(float((mpmath.mpf(out.value) - want) / want))
                assert err <= out.est_rel_error, (fn.__name__, nu, x, err, out.est_rel_error)


class TestSmallX:
    def test_struve_leading(self):
        x = 0.01
        want = x / (SQRT_PI * gamma_pos(1.5)) * (1.0 + x * x / 9.0)
        assert rel(small_x_leading("L", 0.0, x), want) < 1e-15
        assert rel(small_x_leading("L", 0.0, x), lv_value(0.0, x)) < 1e-8

    def test_bessel_leading_is_one(self):
        assert rel(small_x_leading("I", 0.0, 1e-8), 1.0) < 1e-15

    def test_struve_half_vs_closed(self):
        x = 0.1
        assert rel(small_x_leading("L", 0.5, x), half_integer_closed("L", 0.5, x)) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            small_x_leading("I", -1.0, 0.1)
        with pytest.raises(DomainError):
            small_x_leading("L", -1.5, 0.1)


class TestQuadratureOracle:
    def test_struve_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * (math.cosh(1.0) - 1.0)
        assert rel(quad_oracle_l(0.5, 1.0).value, want) < 1e-12

    def test_bessel_vs_series(self):
        assert rel(quad_oracle_i(0.0, 2.0).value, iv_value(0.0, 2.0)) < 1e-10

    def test_near_singular_weight(self):
        # -1/2 < nu < 1/2 makes the raw endpoint weight unbounded
        assert rel(quad_oracle_l(0.3, 0.5).value, lv_value(0.3, 0.5)) < 1e-10
        assert rel(quad_oracle_i(-0.3, 2.0).value, iv_value(-0.3, 2.0)) < 1e-10

    def test_independence_grid(self):
        for nu in (0.3, 1.0, 2.5, 5.0):
            for x in (0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
                assert rel(quad_oracle_l(nu, x).value, lv_value(nu, x)) < 1e-10
                assert rel(quad_oracle_i(nu, x).value, iv_value(nu, x)) < 1e-10

    def test_mpmath_sweep(self):
        # seeded points over the whole domain, orders down to 1e-9 above -1/2:
        # every error within its estimate, and within 1e-10 at the scale of
        # acceptance criterion 2 (nu <= 10, x <= 20)
        mpmath = pytest.importorskip("mpmath")
        pick = random.Random(1803)
        log_x = (math.log10(20.0), math.log10(600.0))
        points = [(-0.5 + 10.0 ** pick.uniform(-9.0, math.log10(10.5)),
                   10.0 ** pick.uniform(-3.0, log_x[0])) for _ in range(400)]
        points += [(pick.uniform(-0.5, 60.0), 10.0 ** pick.uniform(-3.0, log_x[1]))
                   for _ in range(700)]
        points += [(pick.uniform(60.0, 200.0), 10.0 ** pick.uniform(0.0, log_x[1]))
                   for _ in range(150)]
        checked = 0
        with mpmath.workdps(40):
            for nu, x in points:
                for fn, ref in ((quad_oracle_i, mpmath.besseli), (quad_oracle_l, mpmath.struvel)):
                    want = ref(nu, x)
                    if want < 1e-290:  # the double result has lost its precision
                        continue
                    out = fn(nu, x)
                    err = abs(float((mpmath.mpf(out.value) - want) / want))
                    assert err <= out.est_rel_error, (fn.__name__, nu, x, err, out.est_rel_error)
                    assert nu > 10.0 or x > 20.0 or err <= 1e-10, (fn.__name__, nu, x, err)
                    checked += 1
        assert checked >= 2000

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_oracle_l(-0.5, 1.0)
        with pytest.raises(OverflowRisk):
            quad_oracle_i(1.0, 601.0)


class TestStruveM:
    def test_minus_half_closed_form(self):
        want = -math.sqrt(1.0 / math.pi) * math.exp(-2.0)
        assert rel(struve_m(-0.5, 2.0).value, want) < 1e-13

    def test_half_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * (math.cosh(1.0) - 1.0 - math.sinh(1.0))
        assert rel(struve_m(0.5, 1.0).value, want) < 1e-12

    def test_large_x_asymptote(self):
        out = struve_m(1.0, 10.0)
        approx = -((10.0 / 2.0) ** 0.0) / (SQRT_PI * gamma_pos(1.5))
        assert out.value < 0.0
        assert abs(out.value / approx - 1.0) < 0.2

    def test_negative_for_nu_above_minus_half(self):
        for nu in (-0.5, 0.0, 1.0, 5.0):
            for x in (0.1, 1.0, 10.0, 30.0):
                assert mv_value(nu, x) < 0.0

    def test_cancellation_flag_and_stable_value(self):
        out = struve_m(1.0, 30.0)
        assert out.cancellation
        # stable route must agree with the exponentially small asymptote
        approx = -1.0 / (SQRT_PI * gamma_pos(1.5))
        assert abs(out.value / approx - 1.0) < 0.1

    def test_no_flag_at_small_x(self):
        assert not struve_m(1.0, 1.0).cancellation


class TestRatioExact:
    def test_struve_half_is_tanh(self):
        for x in (0.3, 2.0, 9.0):
            assert rel(ratio_succ_exact("L", 0.5, x), math.tanh(0.5 * x)) < 1e-13

    def test_bessel_three_halves(self):
        x = 2.0
        assert rel(ratio_succ_exact("I", 1.5, x), 1.0 / math.tanh(x) - 1.0 / x) < 1e-13

    def test_m_ratio_domain(self):
        with pytest.raises(DomainError):
            ratio_succ_exact("M", 0.25, 1.0)

    def test_m_ratio_positive(self):
        assert ratio_succ_exact("M", 1.0, 2.0) > 0.0


class TestRecurrence:
    @pytest.mark.parametrize("nu,x,tol", [(0.5, 1.0, 1e-13), (2.5, 10.0, 1e-12),
                                          (1.0, 0.01, 1e-13)])
    def test_examples(self, nu, x, tol):
        r1, r2 = recurrence_check(nu, x)
        assert r1 <= tol and r2 <= tol

    def test_grid(self):
        for nu in (-0.4, 0.0, 1.0, 4.0, 10.0):
            for x in (1e-3, 0.3, 3.0, 50.0):
                r1, r2 = recurrence_check(nu, x)
                assert max(r1, r2) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            recurrence_check(-0.5, 1.0)
