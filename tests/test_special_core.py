import math
import random

import numpy as np
import pytest
from scipy.special import iv as scipy_iv
from scipy.special import modstruve as scipy_modstruve

from struvebounds import rows, special_core
from struvebounds import (
    ConvergenceError,
    DomainError,
    OverflowRisk,
    StruveBoundsError,
    a_nu_constant,
    asym_large_x,
    bessel_i,
    bessel_route_coefficient,
    exact_value,
    get_bound,
    half_integer_closed,
    iv_value,
    lv_value,
    quad_oracle_i,
    quad_oracle_l,
    recurrence_check,
    struve_l,
    struve_m,
)

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a / b - 1.0)


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
        # a series that reaches the term cap raises, and the same call under
        # the real cap still succeeds
        want = bessel_i(1.0, 300.0)
        monkeypatch.setattr(special_core, "MAX_TERMS", 50)
        with pytest.raises(ConvergenceError, match="50 terms"):
            bessel_i(1.0, 300.0)
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
                         (get_bound("eq17_upper").evaluate, (-0.2, 1e-300)),
                         (exact_value, ("cond_L", -1.2, 1e-300))):
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
            got = rows.fill_series_row(kind, nu, xs).tolist()
            assert got == [special_core._series(kind, nu, x)[0] for x in xs], nu

    def test_one_order_per_lane(self):
        # one pass over lanes of many orders gives what the scalar kernel does
        nus = [-2.4, -1.0, 0.5, 10.0, 60.0] * 40
        xs = np.logspace(-3.0, math.log10(600.0), 200).tolist()
        for kind in ("I", "L"):
            got = rows.fill_series_row(kind, nus, xs).tolist()
            assert got == [special_core._series(kind, nu, x)[0] for nu, x in zip(nus, xs)]

    @staticmethod
    def _scalar(kind, nus, xs):
        # _series lane by lane; NaN where it raises, as the batch leaves such a lane
        got = []
        for nu, x in zip(nus, xs):
            try:
                got.append(special_core._series(kind, nu, x)[0])
            except DomainError:
                got.append(math.nan)
        return got

    def _assert_lanes_match(self, kind, nus, xs):
        got = rows.fill_series_row(kind, nus, xs).tolist()
        want = self._scalar(kind, nus, xs)
        assert [math.isnan(v) for v in got] == [math.isnan(v) for v in want], kind
        assert [v for v in got if not math.isnan(v)] == [v for v in want if not math.isnan(v)]
        return got

    def test_duplicate_lanes(self):
        # repeated (nu, x) lanes in one call are summed once and each gets the value
        nus = [0.5, 2.0, 0.5, 0.5, 2.0, 10.0, 0.5] * 3
        xs = [1.0, 1.0, 1.0, 30.0, 1.0, 30.0, 30.0] * 3
        for kind in ("I", "L"):
            got = self._assert_lanes_match(kind, nus, xs)
            assert got[0] == got[2] == got[7] and got[3] == got[6]

    def test_many_orders_over_one_x_set(self):
        orders = np.linspace(-2.4, 60.0, 53).tolist()
        xs = np.logspace(-3.0, math.log10(600.0), 60).tolist()
        nus = [nu for nu in orders for _ in xs]
        for kind in ("I", "L"):
            got = self._assert_lanes_match(kind, nus, xs * len(orders))
            assert not any(math.isnan(v) for v in got)

    def test_signed_zero_order(self):
        xs = np.logspace(-3.0, math.log10(600.0), 40).tolist()
        nus = [0.0, -0.0] * 20
        for kind in ("I", "L"):
            self._assert_lanes_match(kind, nus, xs)
            self._assert_lanes_match(kind, nus, [2.0] * 40)

    def test_orders_at_a_gamma_pole(self):
        # the leading index n0 > 0: the first terms' 1/Gamma vanish
        xs = np.logspace(-3.0, math.log10(600.0), 50).tolist()
        for kind, pole_orders in (("I", (-1.0, -1.0 + 1e-13, -2.0)), ("L", (-1.5, -1.5 + 1e-13))):
            for nu in pole_orders:
                assert special_core._series_setup(kind, nu)[3] > 0, (kind, nu)
            nus = [nu for nu in pole_orders for _ in xs]
            got = self._assert_lanes_match(kind, nus, xs * len(pole_orders))
            assert not any(math.isnan(v) for v in got)

    def test_orders_past_the_gamma_range(self):
        # from 169 up a gamma argument reaches GAMMA_ARG_MAX, the gamma product
        # is 0 and the leading term is formed in log space
        xs = np.linspace(100.0, 600.0, 41).tolist()
        orders = (169.0, 169.5, 175.0, 200.0)
        nus = [nu for nu in orders for _ in xs]
        for kind in ("I", "L"):
            got = self._assert_lanes_match(kind, nus, xs * len(orders))
            assert not any(math.isnan(v) for v in got)

    def test_underflowing_leading_terms(self):
        # lanes whose leading term underflows are NaN; _series raises there
        for kind, nu in (("I", 300.0), ("L", 150.0)):
            xs = [1.0, 0.5, 400.0, 1.0, 600.0]
            got = self._assert_lanes_match(kind, [nu] * 5, xs)
            assert [math.isnan(v) for v in got] == [True, True, False, True, False]

    def test_row_b_matches_kernel_b(self):
        # the direct branch, the overflowing power (nu = 130, x > 451) and,
        # at nu = 169, the gamma argument past GAMMA_ARG_MAX
        cases = [(nu, np.logspace(-3.0, math.log10(600.0), 200)) for nu in (-1.4, -0.5, 0.0, 10.0)]
        cases += [(nu, np.linspace(100.0, 600.0, 101)) for nu in (130.0, 169.0)]
        for nu, xs in cases:
            got = rows.Row(xs).b(nu).tolist()
            want = [special_core.kernel_b(nu, x, special_core._series("L", nu, x)[0])
                    for x in xs.tolist()]
            assert got == want, nu
        with pytest.raises(DomainError, match="nu > -3/2"):
            rows.Row(np.array([1.0, 2.0])).b(-1.5)

    def test_out_of_domain_lanes_are_nan(self):
        got = rows.fill_series_row("L", 1.0, [2.0, 0.0, -1.0, 700.0, math.nan, 1e-320, 2.0])
        assert got[0] == got[-1] == special_core._series("L", 1.0, 2.0)[0]
        assert np.isnan(got[1:-1]).all()  # the subnormal x underflows
        assert np.isnan(rows.fill_series_row("L", [-3.0, math.nan], [1.0, 1.0])).all()

    def test_unconverged_lanes_are_not_stored(self, monkeypatch):
        monkeypatch.setattr(special_core, "MAX_TERMS", 50)
        got = rows.fill_series_row("I", 1.0, [1.0, 300.0])
        assert got[0] == special_core._series("I", 1.0, 1.0)[0] and math.isnan(got[1])
        with pytest.raises(ConvergenceError):
            special_core._series("I", 1.0, 300.0)

    def test_empty_row_is_a_domain_error(self):
        # it once reached numpy's max of an empty array and raised ValueError
        with pytest.raises(DomainError, match="at least one lane"):
            rows.Row(np.array([])).L(1.0)

    def test_row_sums_what_it_was_not_given(self):
        # a handed series is read as given; any other is summed by the row,
        # and a lane the batch cannot sum raises the scalar kernel's error
        xs = np.array([0.5, 2.0, 8.0])
        row = rows.Row(xs)
        rows.fill_rows([(row, "L", 1.0, False)])
        given = row.given["L", 1.0, False]
        assert row.L(1.0) is given
        assert row.I(1.0).tolist() == [special_core._series("I", 1.0, x)[0] for x in xs.tolist()]
        with pytest.raises(DomainError, match="underflow"):
            rows.Row(np.array([1.0, 2.0])).I(300.0)

    def test_row_m_takes_the_stable_route_where_l_minus_i_cancels(self):
        xs = np.array([0.5, 5.0, 30.0, 200.0])
        got = rows.Row(xs).M(1.0).tolist()
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

    def test_where_two_over_pi_x_overflows(self):
        # below x of about 3.5e-309, 2/(pi x) overflows, but sqrt(2/(pi x))
        # does not; L at -3/2 and 1/2 (about x^(3/2)) underflow, as the
        # series' leading term does
        mpmath = pytest.importorskip("mpmath")
        for kind, nu, x in (("L", -0.5, 5e-324), ("I", 0.5, 1e-310), ("L", -0.5, 1e-310)):
            assert rel(half_integer_closed(kind, nu, x), float(mpmath.sqrt(2 * mpmath.mpf(x) / mpmath.pi))) < 1e-15
        want = float(mpmath.sqrt(2 / (mpmath.pi * mpmath.mpf(1e-310))))
        assert rel(half_integer_closed("I", -0.5, 1e-310), want) < 1e-15
        for nu in (-1.5, 0.5):
            with pytest.raises(DomainError, match="underflows"):
                half_integer_closed("L", nu, 1e-310)
        # from x = 1e-300 up the closed forms keep their bits
        x = 1e-300
        assert half_integer_closed("L", -0.5, x) == math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)

    @pytest.mark.parametrize("kind, summed", [("L", struve_l), ("I", bessel_i)], ids="LI")
    @pytest.mark.parametrize("nu", [-1.5, -0.5, 0.5])
    def test_closed_form_and_series_agree_down_to_the_smallest_x(self, nu, kind, summed):
        # x log-spaced by quarter decades from 1 to 1e-323, and 5e-324: the
        # two references of I or L either agree or raise the same typed error
        for x in [10.0 ** (-k / 4) for k in range(4 * 323 + 1)] + [5e-324]:
            got = []
            for f in (lambda: half_integer_closed(kind, nu, x), lambda: summed(nu, x).value):
                try:
                    got.append(f())
                except StruveBoundsError as exc:
                    got.append(type(exc))
            closed, series = got
            if isinstance(closed, float) and isinstance(series, float):
                assert rel(closed, series) <= 1e-13, (nu, x, closed, series)
            else:
                assert closed == series, (nu, x, closed, series)

    def test_finite_past_x_max(self):
        # the closed forms read no series, so X_MAX does not bound them
        for kind, nu in (("I", 0.5), ("L", -1.5), ("L", 0.5)):
            assert math.isfinite(half_integer_closed(kind, nu, 710.0))


class TestAsymptotics:
    def test_vanishing_correction_at_half(self):
        x = 7.0
        assert rel(asym_large_x("L", 0.5, x), math.exp(x) / math.sqrt(2 * math.pi * x)) < 1e-15

    def test_bessel_large(self):
        assert rel(asym_large_x("I", 1.0, 50.0), iv_value(1.0, 50.0)) < 1e-4

    def test_struve_large(self):
        assert rel(asym_large_x("L", 2.5, 100.0), lv_value(2.5, 100.0)) < 1e-4


@pytest.mark.parametrize("f, args", [
    (half_integer_closed, ("I", 0.5, 1000.0)),
    (half_integer_closed, ("L", -1.5, 1000.0)),
    (half_integer_closed, ("L", 0.5, 714.0)),
    (half_integer_closed, ("L", 0.5, 1000.0)),
    (half_integer_closed, ("L", 0.5, 1419.0)),
    (asym_large_x, ("I", 0.0, 1000.0)),
    (asym_large_x, ("L", 0.0, 1e-300)),  # x^2 underflows to 0
    (asym_large_x, ("L", 0.0, 1e-160)),
    (asym_large_x, ("L", 1e200, 1.0)),  # inf - inf in the correction
    (asym_large_x, ("L", 1e20, 600.0)),  # a finite correction times e^x / sqrt(2 pi x)
    (asym_large_x, ("L", 1e20, 1e-100)),
    (a_nu_constant, (1e308,)),
    (bessel_route_coefficient, (1e308,)),
], ids=["closed_I_half", "closed_L_minus_three_halves", "closed_L_half_714",
        "closed_L_half_1000", "closed_L_half_1419", "asym_large_x", "asym_large_x_tiny_x",
        "asym_large_x_small_x", "asym_large_x_huge_order", "asym_large_x_product",
        "asym_large_x_product_tiny_x", "a_nu_constant",
        "bessel_route_coefficient"])
def test_overflow_raises_overflow_risk(f, args):
    # never the raw OverflowError of math's sinh, cosh, exp or lgamma, nor the
    # inf of a product that overflows while its factors are still finite
    with pytest.raises(OverflowRisk, match="overflows"):
        f(*args)


@pytest.mark.parametrize("x", [1e-300, 1e-310],
                         ids=["closed_I_minus_three_halves_tiny_x",
                              "closed_I_minus_three_halves_subnormal_x"])
def test_tiny_x_overflow_raises_domain_error(x):
    # I's closed form at -3/2, about -(2/pi)^(1/2) x^(-3/2), leaves double
    # range where the series' leading term does, and raises the series' error
    with pytest.raises(DomainError, match="overflows"):
        half_integer_closed("I", -1.5, x)
    with pytest.raises(DomainError, match="overflows"):
        bessel_i(-1.5, x)


class TestLargeOrderPrefactors:
    # past nu ~ 169 math.gamma overflows; these prefactors go through the
    # log-space route of the one (x/2)^p / Gamma routine instead
    NU = 200.0

    def test_small_x_leading(self):
        # the leading terms of the L series (with its x^2 correction) and
        # of the I series, both from the one prefactor routine
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = 100.0
        half = mpmath.mpf(x) / 2
        want_l = half ** (self.NU + 1) / (mpmath.gamma(1.5) * mpmath.gamma(self.NU + 1.5)) \
            * (1 + mpmath.mpf(x) ** 2 / (3 * (2 * self.NU + 3)))
        want_i = half ** self.NU / mpmath.gamma(self.NU + 1)
        lead_l = special_core._first_term(self.NU + 1.0, 1.5, self.NU + 1.5, x) \
            * (1.0 + x * x / (3.0 * (2.0 * self.NU + 3.0)))
        assert rel(lead_l, float(want_l)) < 1e-12
        assert rel(special_core._first_term(self.NU, 1.0, self.NU + 1.0, x), float(want_i)) < 1e-12
        # the leading term underflows at x = 1: its double value is 0
        assert special_core._first_term(self.NU + 1.0, 1.5, self.NU + 1.5, 1.0) == 0.0

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
    # the leading term of the L series with its x^2 correction,
    # (x/2)^(nu+1) / (Gamma(3/2) Gamma(nu+3/2)) * (1 + x^2/(3(2 nu+3)))
    def test_struve_leading(self):
        x = 0.01
        want = x / (SQRT_PI * math.gamma(1.5)) * (1.0 + x * x / 9.0)
        lead = special_core._first_term(1.0, 1.5, 1.5, x) * (1.0 + x * x / 9.0)
        assert rel(lead, want) < 1e-15
        assert rel(lead, lv_value(0.0, x)) < 1e-8

    def test_bessel_leading_is_one(self):
        assert rel(iv_value(0.0, 1e-8), 1.0) < 1e-15

    def test_struve_half_vs_closed(self):
        x = 0.1
        lead = special_core._first_term(1.5, 1.5, 2.0, x) * (1.0 + x * x / 12.0)
        assert rel(lead, half_integer_closed("L", 0.5, x)) < 1e-4


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
        approx = -((10.0 / 2.0) ** 0.0) / (SQRT_PI * math.gamma(1.5))
        assert out.value < 0.0
        assert abs(out.value / approx - 1.0) < 0.2

    def test_negative_for_nu_above_minus_half(self):
        for nu in (-0.5, 0.0, 1.0, 5.0):
            for x in (0.1, 1.0, 10.0, 30.0):
                assert struve_m(nu, x).value < 0.0

    def test_cancellation_flag_and_stable_value(self):
        out = struve_m(1.0, 30.0)
        assert out.cancellation
        # stable route must agree with the exponentially small asymptote
        approx = -1.0 / (SQRT_PI * math.gamma(1.5))
        assert abs(out.value / approx - 1.0) < 0.1

    def test_no_flag_at_small_x(self):
        assert not struve_m(1.0, 1.0).cancellation


class TestPointStore:
    # a Point keeps I, L, M, a and b in one flat dict, keyed by the
    # primitive's name, the order and (for I and L) at_y
    def test_a_second_read_is_the_same_object_without_a_sum(self, series_calls):
        P = special_core.Point(2.0, 3.0)
        reads = [lambda: P.I(1.0), lambda: P.L(1.0), lambda: P.I(1.0, True),
                 lambda: P.L(1.0, True), lambda: P.M(1.0), lambda: P.a(1.0), lambda: P.b(1.0)]
        first = [read() for read in reads]
        summed = list(series_calls)
        assert sorted(summed) == [("I", 1.0, 2.0), ("I", 1.0, 3.0), ("L", 1.0, 2.0),
                                  ("L", 1.0, 3.0)]
        assert all(read() is value for read, value in zip(reads, first))
        assert series_calls == summed
        assert all(type(value) is float for value in P._got.values())  # one flat dict

    def test_keyword_and_positional_at_y_share_a_value(self):
        P = special_core.Point(2.0, 3.0)
        assert P.L(1.0, at_y=True) is P.L(1.0, True)
        assert P.I(1.0, at_y=True) is P.I(1.0, True)

    def test_a_lower_floor_lets_no_later_read_through(self):
        P = special_core.Point(2.0)
        assert P.L(-2.0, floor=special_core._L_FLOOR) > 0.0
        with pytest.raises(DomainError, match="below supported minimum"):
            P.L(-2.0)

    def test_a_row_keeps_its_own_compute_steps(self):
        R = rows.Row(np.array([2.0, 30.0]))
        assert R.M(1.0) is R.M(1.0) and R.b(1.0) is R.b(1.0)
        assert R.M(1.0).tolist() == [struve_m(1.0, 2.0).value, struve_m(1.0, 30.0).value]
        with pytest.raises(DomainError, match="kernel requires"):
            R.b(-1.5)


class TestRatioExact:
    # L_nu/L_{nu-1} is the target succ_ratio_L; I_nu/I_{nu-1} is the bound eq17_upper
    def test_struve_half_is_tanh(self):
        for x in (0.3, 2.0, 9.0):
            assert rel(exact_value("succ_ratio_L", 0.5, x), math.tanh(0.5 * x)) < 1e-13

    def test_bessel_three_halves(self):
        x = 2.0
        assert rel(get_bound("eq17_upper").evaluate(1.5, x), 1.0 / math.tanh(x) - 1.0 / x) < 1e-13

    def test_m_ratio_positive(self):
        assert struve_m(1.0, 2.0).value / struve_m(0.0, 2.0).value > 0.0


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
