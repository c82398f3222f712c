import math

import numpy as np
import pytest

from struvebounds import (
    Bracket,
    DomainError,
    InvalidBracket,
    NoValidBound,
    b_value,
    bessel_ratio_bounds,
    bessel_ratio_lower_tanh,
    best_bracket,
    bracket,
    evaluate_valid,
    exact_value,
    get_bound,
    half_integer_closed,
    ratio_refine_step,
)
from struvebounds.succ_ratio import transfer_lower


def h(nu, x):
    return exact_value("succ_ratio_L", nu, x)


def bound(bound_id, *args):
    return get_bound(bound_id).evaluate(*args)


class TestBesselRatioBounds:
    def test_half_order_upper_degenerates_to_one(self):
        for x in (0.5, 3.0, 20.0):
            br = bessel_ratio_bounds(0.5, x)
            assert br.upper == pytest.approx(1.0)
            assert math.tanh(x) <= br.upper

    def test_sandwich(self):
        br = bessel_ratio_bounds(1.0, 2.0)
        exact = bound("eq17_upper", 1.0, 2.0)
        assert br.lower < exact < br.upper

    def test_lower_at_zero_order(self):
        br = bessel_ratio_bounds(0.0, 1.0)
        assert br.lower == pytest.approx(1.0 / (-0.5 + math.sqrt(1.25)))
        assert br.lower < bound("eq17_upper", 0.0, 1.0)
        assert not br.upper_valid

    def test_tanh_lower(self):
        for nu, x in [(0.75, 0.5), (2.0, 3.0)]:
            assert bessel_ratio_lower_tanh(nu, x) < bound("eq17_upper", nu, x)
        with pytest.raises(DomainError):
            bessel_ratio_lower_tanh(0.5, 1.0)


class TestProductDifference:
    def test_half_order_closed_form(self):
        for x in (0.5, 5.0, 50.0):
            want = 2.0 / (math.pi * x) * (math.cosh(x) - 1.0)
            assert abs(exact_value("product_diff_L", 0.5, x) / want - 1.0) < 1e-12

    def test_minus_half_order_closed_form(self):
        for x in (0.5, 5.0, 50.0):
            assert abs(exact_value("product_diff_L", -0.5, x) / (2.0 / (math.pi * x)) - 1.0) < 1e-12

    def test_positive_and_capped(self):
        pd = exact_value("product_diff_L", 1.0, 2.0)
        assert 0.0 < pd < bound("eq15_upper", 1.0, 2.0)

    def test_positive_on_range(self):
        for nu in (0.5, 1.0, 2.5, 10.0):
            for x in (1e-3, 1.0, 20.0, 50.0):
                assert exact_value("product_diff_L", nu, x) > 0.0

    def test_second_cap(self, outside_range):
        for nu, x in [(1.5, 1.0), (3.0, 10.0)]:
            assert exact_value("product_diff_L", nu, x) < bound("eq16_upper", nu, x)
        outside_range("eq16_upper", 1.0, 1.0)


class TestBracketViaBessel:
    def test_lower_error_reference_point(self):
        br = bracket("eq17_lower", "eq17_upper", 1.0, 5.0)
        assert abs((1.0 - br.lower / h(1.0, 5.0)) - 0.0186) < 2e-4

    def test_upper_error_reference_point(self):
        br = bracket("eq17_lower", "eq17_upper", 0.5, 1.0)
        assert abs((br.upper / h(0.5, 1.0) - 1.0) - 0.6481) < 2e-4

    def test_upper_small_x_limit(self):
        # relative error of the upper side tends to 1/(2 nu)
        br = bracket("eq17_lower", "eq17_upper", 10.0, 1e-4)
        assert abs((br.upper / h(10.0, 1e-4) - 1.0) - 0.05) < 1e-4

    def test_flags(self):
        br = bracket("eq17_lower", "eq17_upper", 0.25, 1.0)
        assert br.lower_valid and not br.upper_valid


class TestBracketSeguraForm:
    def test_lower_error_reference_point(self):
        br = bracket("eq18_lower", "eq18_upper", 0.0, 1.0)
        assert abs((1.0 - br.lower / h(0.0, 1.0)) - 0.1973) < 2e-4

    def test_upper_error_reference_point(self):
        br = bracket("eq18_lower", "eq18_upper", 1.0, 2.5)
        assert abs((br.upper / h(1.0, 2.5) - 1.0) - 0.2417) < 2e-4

    def test_upper_blows_up_at_half_order(self):
        br = bracket("eq18_lower", "eq18_upper", 0.5, 1e-3)
        assert br.upper / h(0.5, 1e-3) - 1.0 > 100.0

    def test_sandwich_on_grid(self):
        for nu in (0.0, 0.5, 1.0, 5.0):
            for x in (0.01, 1.0, 10.0, 50.0):
                br = bracket("eq18_lower", "eq18_upper", nu, x)
                exact = h(nu, x)
                assert br.lower <= exact * (1.0 + 1e-12)
                if br.upper_valid:
                    assert exact <= br.upper * (1.0 + 1e-12)


class TestTanhBounds:
    def test_lower_tanh_below_exact(self):
        assert bound("eq19_lower", 1.0, 2.0) < h(1.0, 2.0)

    def test_lower_tanh_tends_to_one(self):
        assert bound("eq19_lower", 0.75, 40.0) == pytest.approx(1.0, abs=0.05)

    def test_improved_by_tanh_half(self):
        # the tanh(x/2) variant dominates the tanh(x) one
        assert bound("eq19_lower", 2.0, 0.5) < bound("eq22_lower", 2.0, 0.5)

    def test_upper_tanh_half_equality(self):
        assert bound("eq20_upper", 0.5, 3.0) == pytest.approx(h(0.5, 3.0), rel=1e-13)

    def test_upper_tanh_half_strict(self):
        assert bound("eq20_upper", 1.0, 1.0) > h(1.0, 1.0)

    def test_upper_crossover_near_published_point(self):
        # the two upper bounds exchange dominance between x = 2.16 and 2.20
        lo = bound("eq20_upper", 1.0, 2.16) - bracket("eq18_lower", "eq18_upper", 1.0, 2.16).upper
        hi = bound("eq20_upper", 1.0, 2.20) - bracket("eq18_lower", "eq18_upper", 1.0, 2.20).upper
        assert lo < 0.0 < hi

    def test_domains(self, outside_range):
        # eq19_lower is left out at its strict edge, and its formula keeps the
        # guard of the Bessel tanh bound it transfers, which is public
        assert not get_bound("eq19_lower").valid_at(0.5)
        assert "eq19_lower" not in [s.bound_id for s, _ in evaluate_valid("succ_ratio_L", 0.5, 1.0)]
        with pytest.raises(DomainError, match="tanh lower bound requires nu > 1/2"):
            bound("eq19_lower", 0.5, 1.0)
        outside_range("eq20_upper", 0.49, 1.0)
        outside_range("eq22_lower", 0.4, 1.0)


class TestTuranLower:
    def test_valid_at_minus_half(self):
        # exact ratio from the closed forms, fully independent of the series
        x = 1.0
        exact = half_integer_closed("L", -0.5, x) / half_integer_closed("L", -1.5, x)
        assert bound("eq21_lower", -0.5, x) < exact

    def test_dominated_by_algebraic_lower(self):
        got = bound("eq21_lower", 0.0, 2.0)
        assert got < h(0.0, 2.0)
        assert got < bracket("eq18_lower", "eq18_upper", 0.0, 2.0).lower

    def test_small_x_limit(self):
        # b -> 1/2 turns the denominator into 2(nu + 1/2)
        x = 1e-5
        assert bound("eq21_lower", 0.5, x) == pytest.approx(x / 2.0, rel=1e-4)
        assert h(0.5, x) == pytest.approx(x / 2.0, rel=1e-4)

    def test_domain(self, outside_range):
        outside_range("eq21_lower", -0.51, 1.0)


class TestTanhHalfLower:
    def test_equality_case(self):
        assert bound("eq22_lower", 0.5, 4.0) == pytest.approx(math.tanh(2.0), rel=1e-13)

    def test_between_tanh_lower_and_exact(self):
        lo = bound("eq19_lower", 1.0, 2.0)
        mid = bound("eq22_lower", 1.0, 2.0)
        assert lo < mid < h(1.0, 2.0)

    def test_below_exact_with_frozen_gap(self):
        got = bound("eq22_lower", 2.5, 10.0)
        exact = h(2.5, 10.0)
        assert got < exact
        assert 1.0 - got / exact == pytest.approx(0.1199, abs=1e-3)


class TestRefinedUpper:
    def test_small_x_error_vanishes(self):
        assert bound("eq24_upper", 0.0, 1e-4) / h(0.0, 1e-4) - 1.0 < 1e-3

    def test_crossover_with_algebraic_upper(self):
        # dominance exchange sits near x = 4.907 at order one
        lo = bound("eq24_upper", 1.0, 4.85) - bracket("eq18_lower", "eq18_upper", 1.0, 4.85).upper
        hi = bound("eq24_upper", 1.0, 4.95) - bracket("eq18_lower", "eq18_upper", 1.0, 4.95).upper
        assert lo < 0.0 < hi

    def test_large_order_crossover_scale(self):
        # exchange point approaches 2 sqrt(nu (2 nu + 1)) as the order grows
        target = 2.0 * math.sqrt(5.0 * 11.0)
        lo, hi = (bound("eq24_upper", 5.0, x) - bracket("eq18_lower", "eq18_upper", 5.0, x).upper
                  for x in (target - 0.8, target + 0.8))
        assert lo < 0.0 < hi

    def test_is_upper_bound(self):
        for nu in (0.0, 1.0, 5.0):
            for x in (0.1, 2.0, 20.0):
                assert bound("eq24_upper", nu, x) > h(nu, x)


class TestRefineStep:
    def test_recovers_algebraic_lower(self):
        nu, x = 1.5, 3.0
        up = bracket("eq18_lower", "eq18_upper", nu + 1.0, x).upper
        refined = ratio_refine_step(nu, x, Bracket(0.0, up, False, True, "", "eq18_upper"))
        assert refined.lower == pytest.approx(
            bracket("eq18_lower", "eq18_upper", nu, x).lower, rel=1e-14)

    def test_recovers_refined_upper(self):
        nu, x = 0.75, 2.0
        lo = bound("eq21_lower", nu + 1.0, x)
        refined = ratio_refine_step(nu, x, Bracket(lo, 1.0, True, False, "eq21_lower", ""))
        assert refined.upper == pytest.approx(bound("eq24_upper", nu, x), rel=1e-14)

    def test_degenerate_bracket_maps_to_exact(self):
        nu, x = 2.0, 1.3
        nxt = h(nu + 1.0, x)
        refined = ratio_refine_step(nu, x, Bracket(nxt, nxt, True, True))
        assert refined.lower == pytest.approx(h(nu, x), rel=1e-13)
        assert refined.upper == pytest.approx(h(nu, x), rel=1e-13)

    def test_side_roles_swap(self):
        refined = ratio_refine_step(1.0, 2.0, Bracket(0.1, 0.9, True, False))
        assert refined.upper_valid and not refined.lower_valid

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracket):
            ratio_refine_step(1.0, 2.0, Bracket(0.9, 0.1, False, False))

    def test_takes_sides_met_within_an_ulp(self):
        # at x = 46 eq17_lower rounds one ulp above eq17_upper; best_bracket
        # returns that bracket, so the step must take it too
        nxt = best_bracket(1.0, 46.0)
        assert 0.0 < nxt.lower - nxt.upper <= 1e-15
        refined = ratio_refine_step(0.0, 46.0, nxt)
        assert refined.lower == pytest.approx(h(0.0, 46.0), rel=1e-15)
        assert refined.upper == pytest.approx(h(0.0, 46.0), rel=1e-15)


class TestTransfer:
    """eq17 and eq19 lower are one map applied to a Bessel-side lower bound
    r; eq18 lower and eq24 upper are the same map and the recurrence step
    (on eq21 at nu + 1) written out, within a few ulps."""

    GRID = [(nu, x) for nu in (0.0, 0.25, 0.75, 1.0, 2.5, 7.5, 10.0)
            for x in (1e-3, 0.1, 1.0, 4.0, 16.6, 50.0)]

    def test_bounds_are_the_transfer_of_bessel_bounds(self):
        for nu, x in self.GRID:
            r = bound("eq17_upper", nu, x)
            assert bracket("eq17_lower", "eq17_upper", nu, x).lower == transfer_lower(nu, x, r)
            if nu > 0.5:
                r = bessel_ratio_lower_tanh(nu, x)
                assert bound("eq19_lower", nu, x) == transfer_lower(nu, x, r)

    def test_expanded_forms_within_three_ulps(self):
        eps = 2.0 ** -52
        for nu, x in self.GRID:
            nxt = Bracket(bound("eq21_lower", nu + 1.0, x), math.inf, True, False)
            pairs = [
                (bracket("eq18_lower", "eq18_upper", nu, x).lower,
                 transfer_lower(nu, x, bessel_ratio_bounds(nu, x).lower)),
                (bound("eq24_upper", nu, x), ratio_refine_step(nu, x, nxt).upper),
            ]
            if nu > 0.5:
                t = math.tanh(x)
                pairs.append((bound("eq19_lower", nu, x),
                              x * t / (x + (2.0 * nu - 1.0) * t + 2.0 * b_value(nu, x) * t)))
            for got, want in pairs:
                assert abs(got - want) <= 3.0 * eps * abs(want), (nu, x, got, want)

    def test_increasing_in_r(self):
        lows = [transfer_lower(1.0, 2.0, r) for r in (0.0, 0.1, 0.5, 0.9, math.inf)]
        assert lows[0] == 0.0
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_invalid_side_below_minus_three_halves_is_nan(self):
        assert math.isnan(bracket("eq18_lower", "eq18_upper", -2.0, 1.0).lower)

    def test_zero_denominator_is_infinite_ratio(self):
        # nu - 1/2 + sqrt((nu+1/2)^2 + x^2) is exactly 0 at nu = -1/2, x = 1,
        # and nu - 1/2 + sqrt((nu-1/2)^2 + x^2) at nu = 0 once x^2 is lost
        assert bessel_ratio_bounds(-0.5, 1.0).lower == math.inf
        assert bessel_ratio_bounds(0.0, 1e-9).upper == math.inf


class TestBestBracket:
    def test_no_wider_than_any_single_bound(self):
        nu, x = 1.0, 10.0
        best = best_bracket(nu, x)
        single = bracket("eq18_lower", "eq18_upper", nu, x)
        assert best.width <= single.width + 1e-15
        assert best.lower <= h(nu, x) <= best.upper

    def test_equality_bound_wins_at_half(self):
        best = best_bracket(0.5, 3.0)
        assert best.upper == pytest.approx(math.tanh(1.5))
        assert best.upper_id == "eq20_upper"

    def test_upper_candidates_tie_at_crossover(self):
        a = bracket("eq18_lower", "eq18_upper", 2.5, 8.42).upper
        b = bound("eq24_upper", 2.5, 8.42)
        assert abs(a - b) < 2e-4 * a

    def test_lower_only_region(self):
        best = best_bracket(-0.25, 1.0)
        assert best.lower_valid and not best.upper_valid
        assert best.lower_id == "eq21_lower"

    def test_no_valid_bound(self):
        with pytest.raises(NoValidBound):
            best_bracket(-1.0, 1.0)


class TestStructuralProperties:
    NUS = np.arange(-0.5, 10.1, 0.25)
    XS = np.logspace(-1, math.log10(50.0), 12)

    def test_registered_sandwich(self):
        from struvebounds import bounds_for_target, exact_value

        for spec in bounds_for_target("succ_ratio_L"):
            for nu in self.NUS:
                nu = float(round(nu, 6))
                if not spec.valid_at(nu):
                    continue
                for x in self.XS:
                    x = float(x)
                    exact = exact_value("succ_ratio_L", nu, x)
                    val = spec.evaluate(nu, x)
                    slack = (val - exact) if spec.side == "upper" else (exact - val)
                    if spec.is_equality_at(nu):
                        assert abs(slack) <= 1e-12 * exact
                    else:
                        assert slack > -1e-12 * exact

    def test_ratio_decreases_in_order(self):
        for x in (0.5, 2.0, 10.0):
            vals = [h(nu, x) for nu in np.arange(0.5, 10.1, 0.5)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominance_of_tanh_half_family(self):
        for nu in (0.75, 1.5, 5.0):
            for x in (0.1, 1.0, 10.0):
                assert bound("eq22_lower", nu, x) >= bound("eq19_lower", nu, x)
                assert (bracket("eq18_lower", "eq18_upper", nu, x).lower
                        >= bound("eq21_lower", nu, x))
