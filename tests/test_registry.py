"""The registry's point entries: they reject an unknown id or target, and a
y given to a bound that takes none or missing from one that needs it, with a
StruveBoundsError that names the cause; every id gives a float or a typed
error; and calls at one point share one Point."""

import math
import random
from contextlib import suppress

import pytest

from struvebounds import (
    REGISTRY,
    DomainError,
    OverflowRisk,
    StruveBoundsError,
    UnknownBound,
    b_value,
    bessel_i,
    best_bracket,
    bounds_for_target,
    bracket,
    evaluate_valid,
    exact_value,
    get_bound,
    registry,
    struve_l,
)
from struvebounds.registry import needs_y


class TestUnknownNames:
    def test_bracket_unknown_id(self):
        with pytest.raises(UnknownBound, match="'nope'"):
            bracket("nope", "", 1.0, 2.0)

    def test_bracket_without_ids(self):
        with pytest.raises(UnknownBound, match="needs a lower or an upper"):
            bracket("", "", 1.0, 2.0)

    def test_evaluate_valid_unknown_target(self):
        with pytest.raises(UnknownBound, match="no target 'nope'"):
            evaluate_valid("nope", 1.0, 2.0)

    def test_best_bracket_unknown_target(self):
        with pytest.raises(UnknownBound, match="no target 'nope'"):
            best_bracket(1.0, 2.0, target="nope")

    def test_exact_value_unknown_target(self):
        with pytest.raises(UnknownBound, match="no target 'nope'"):
            exact_value("nope", 1.0, 2.0)


class TestArity:
    def test_evaluate_y_bound_without_y(self):
        with pytest.raises(DomainError, match="arg_ratio_L takes .* give y"):
            get_bound("eq33a_upper").evaluate(1.0, 2.0)

    def test_evaluate_single_argument_bound_with_y(self):
        with pytest.raises(DomainError, match="succ_ratio_L takes .* give no y"):
            get_bound("eq17_lower").evaluate(1.0, 2.0, 3.0)

    def test_bracket_arity(self):
        with pytest.raises(DomainError, match="give y"):
            bracket("eq38_lower", "eq38_upper", 1.0, 2.0)
        with pytest.raises(DomainError, match="give no y"):
            bracket("eq17_lower", "eq17_upper", 1.0, 2.0, 3.0)

    def test_bracket_sides_on_different_targets(self):
        with pytest.raises(DomainError, match="eq17_lower bounds succ_ratio_L but eq29_upper"):
            bracket("eq17_lower", "eq29_upper", 1.0, 2.0)

    def test_evaluate_valid_arity(self):
        with pytest.raises(DomainError, match="give y"):
            evaluate_valid("arg_ratio_L", 1.0, 2.0)
        with pytest.raises(DomainError, match="give no y"):
            evaluate_valid("cond_L", 1.0, 2.0, 3.0)

    def test_best_bracket_arg_ratio_needs_y(self):
        with pytest.raises(DomainError, match="give y"):
            best_bracket(1.0, 2.0, target="arg_ratio_L")
        with pytest.raises(DomainError, match="give no y"):
            best_bracket(1.0, 2.0, "cond_L", y=3.0)

    def test_exact_value_arity(self):
        with pytest.raises(DomainError, match="give y"):
            exact_value("arg_ratio_L", 1.0, 2.0)
        with pytest.raises(DomainError, match="give no y"):
            exact_value("cond_L", 1.0, 2.0, 3.0)


class TestEveryIdEvaluates:
    # every id over orders from below the series floor to far above the
    # gamma overflow and arguments from the smallest subnormal to past
    # X_MAX, inside and outside each validity range: a float or a typed
    # error, never a raw ZeroDivisionError, OverflowError or math domain
    # error
    NUS = (-2.0, -1.5, -1.4, -1.0, -0.5, 0.0, 0.5, 1.0, 300.0)
    XS = (5e-324, 1e-300, 1e-200, 1e-150, 1e-12, 1e-3, 1.0, 30.0, 590.0, 1000.0, 1e300)

    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_float_or_typed_error(self, bound_id):
        spec = REGISTRY[bound_id]
        bad = []
        for nu in self.NUS:
            for x in self.XS:
                for args in ([(x, y) for y in (x, 2.0 * x, min(600.0, 10.0 * x))]
                             if needs_y(spec) else [(x,)]):
                    try:
                        value = spec.evaluate(nu, *args)
                    except StruveBoundsError:
                        continue
                    except Exception as exc:  # noqa: BLE001 - the failure under test
                        bad.append((nu, args, repr(exc)))
                        continue
                    if type(value) is not float:
                        bad.append((nu, args, repr(value)))
        assert not bad, bad[:5]


class TestBestBracketEveryTarget:
    def test_package_routine_is_the_registry_one(self):
        assert best_bracket is registry.best_bracket

    # seeded draws at every target, y included: the tightest bracket holds
    # the exact value to a relative 1e-12, or the point raises a typed error
    @pytest.mark.parametrize("target", sorted(registry.TARGETS))
    def test_contains_exact_value(self, target):
        rng = random.Random(f"best_bracket {target}")
        bad = []
        for _ in range(500):
            nu, x = rng.uniform(-1.4, 10.0), math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
            y = 60.0 - rng.random() * (60.0 - x) if registry.TARGETS[target] else None
            try:
                br = best_bracket(nu, x, target, y)
                exact = exact_value(target, nu, x, y)
            except StruveBoundsError:
                continue
            slop = 1e-12 * abs(exact)
            if br.lower_valid and br.lower > exact + slop \
                    or br.upper_valid and br.upper < exact - slop:
                bad.append((nu, x, y, br, exact))
        assert not bad, bad[:5]


class TestPastXMax:
    # bounds that read no series check their arguments as the series do
    @pytest.mark.parametrize("args", [(1.0, 1e300), (1.0, 1000.0), (1.0, 600.0 * (1 + 2**-52))])
    def test_pointwise_upper_bound_raises_instead_of_returning_zero(self, args):
        with pytest.raises(OverflowRisk, match="exceeds x_max"):
            get_bound("eq46_upper").evaluate(*args)

    def test_argument_ratio_checks_y(self):
        assert get_bound("eq34_upper").evaluate(0.5, 1.0, 600.0) > 0.0
        with pytest.raises(OverflowRisk, match="exceeds x_max"):
            get_bound("eq34_upper").evaluate(0.5, 1.0, 1500.0)


class TestOnePoint:
    # the registry's point entries share the Point of the last call while
    # (nu, x, y) stays the same; the FuncValue evaluators keep nothing
    def test_one_point_is_reused_until_the_arguments_change(self):
        P = registry._point("cond_L", 1.0, 2.0, None)
        assert registry._point("succ_ratio_L", 1, 2.0, None) is P
        assert registry._point("cond_L", 1.5, 2.0, None) is not P  # another order
        assert registry._point("arg_ratio_L", 1.0, 2.0, 3.0) is not P
        assert registry._point("cond_L", 1.0, 2.0, None) is not P

    @pytest.mark.parametrize("nu", [-1.2, 0.0, 0.5, 2.5])
    def test_targets_at_one_point_sum_each_series_once(self, series_calls, nu):
        # cond_L reads L_(nu-1) with a lower order floor than the
        # successive ratio does; both read one value
        for target in ("succ_ratio_L", "cond_L", "pointwise_L", "b_kernel", "product_diff_L"):
            with suppress(StruveBoundsError):
                exact_value(target, nu, 2.0)
            for spec in bounds_for_target(target):
                with suppress(StruveBoundsError):
                    spec.evaluate(nu, 2.0)
        assert series_calls and len(set(series_calls)) == len(series_calls), series_calls

    def test_point_functions_keep_no_state(self, series_calls):
        for _ in range(2):
            bessel_i(1.0, 2.0)
            struve_l(1.0, 2.0)
            b_value(1.0, 2.0)
        assert series_calls == [("I", 1.0, 2.0), ("L", 1.0, 2.0), ("L", 1.0, 2.0)] * 2
