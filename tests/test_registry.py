"""The registry's point entries: they reject an unknown id or target, and a
y given to a bound that takes none or missing from one that needs it, with a
StruveBoundsError that names the cause; every id gives a float or a typed
error; each bound's recorded range is applied by the registry alone; and
calls at one point share one Point."""

import math
import random
import re
from contextlib import suppress

import pytest

from struvebounds import (
    REGISTRY,
    DomainError,
    InvalidBracket,
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
from struvebounds.cli import main
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
    # error; y = 1 beside the subnormal x puts every argument-ratio bound at
    # the widest pair
    NUS = (-2.0, -1.5, -1.4, -1.0, -0.5, 0.0, 0.5, 1.0, 300.0, 1e308)
    XS = (5e-324, 1e-300, 1e-200, 1e-150, 1e-12, 1e-3, 1.0, 30.0, 590.0, 1000.0, 1e300)

    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_float_or_typed_error(self, bound_id):
        spec = REGISTRY[bound_id]
        bad = []
        for nu in self.NUS:
            for x in self.XS:
                ys = (x, 2.0 * x, min(600.0, 10.0 * x)) + ((1.0,) if x == 5e-324 else ())
                for args in [(x, y) for y in ys] if needs_y(spec) else [(x,)]:
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


class TestExtremePoints:
    # Python arithmetic that fails inside a formula is a typed error naming
    # the bound and the point, and computed sides out of order an
    # InvalidBracket
    @pytest.mark.parametrize("args, bound_id", [
        ((1.0, 5e-324, "arg_ratio_L", 1.0), "eq33b_upper"),
        ((1e308, 1e-300, "pointwise_L"), "eq39_lower"),
    ])
    def test_overflow_in_a_formula_is_overflow_risk(self, args, bound_id):
        at = re.escape(f"{bound_id} at nu={args[0]}, x={args[1]}")
        with pytest.raises(OverflowRisk, match=at):
            best_bracket(*args)

    def test_sides_out_of_order_are_an_invalid_bracket(self):
        with pytest.raises(InvalidBracket, match="bracket sides out of order"):
            best_bracket(0.0, 1e-300, "pointwise_L")
        assert issubclass(InvalidBracket, ValueError)

    def test_exact_value_that_overflows_is_overflow_risk(self):
        # I_50 M_49 overflows at x = 599.9, and the difference is NaN
        with pytest.raises(OverflowRisk, match=re.escape("exact product_diff_L at nu=50.0, x=599.9")):
            exact_value("product_diff_L", 50.0, 599.9)

    def test_division_by_zero_in_a_formula_is_a_domain_error(self):
        spec = registry.BoundSpec("fake_div", "b_kernel", "upper", -1.5, True,
                                  lambda nu, x, P: 1.0 / (x - x))
        with pytest.raises(DomainError, match="fake_div at nu=1.0, x=2.0: float division"):
            spec.evaluate(1.0, 2.0)


class TestRangesLiveInTheRegistry:
    # a formula computes outside its bound's recorded range, and valid_at
    # alone reads the range.  Just below each edge, and at a strict one, a
    # formula gives a float unless its arithmetic keeps a guard that fires
    # there: eq12_upper's pole at -3/2, the public Bessel tanh bound that
    # eq19_lower transfers (nu > 1/2), the kernel b of eq27_upper
    # (nu > -3/2) and the I_(nu-1) of eq28_upper (nu >= -1/2)
    GUARDED = {"eq12_upper", "eq19_lower", "eq27_upper", "eq28_upper"}

    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_evaluate_below_the_edge(self, bound_id):
        spec = REGISTRY[bound_id]
        args = (1.0, 2.0) if needs_y(spec) else (1.0,)
        for nu in [spec.nu_min - 0.01] + ([spec.nu_min] if spec.nu_min_strict else []):
            assert not spec.valid_at(nu)
            if bound_id in self.GUARDED:
                with pytest.raises(StruveBoundsError):
                    spec.evaluate(nu, *args)
            else:
                assert type(spec.evaluate(nu, *args)) is float

    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_bracket_command_below_the_edge(self, capsys, outside_range, bound_id):
        spec = REGISTRY[bound_id]
        nu = spec.nu_min - 0.01
        code = main(["bracket", "--bound", bound_id, "--nu", repr(nu), "--x", "1"])
        out, err = capsys.readouterr()
        if needs_y(spec):  # the command takes no y: bracket flags the side instead
            assert code == 1 and "needs --y" in err
            outside_range(bound_id, nu, 1.0, 2.0)
        elif bound_id in self.GUARDED:
            assert code == 1 and err.startswith("error: ")
        else:
            assert code == 0, err
            assert out.startswith(f"{bound_id} = ") and "outside validity range" in out

    @pytest.mark.parametrize("bound_id,nu,cause", [
        ("eq17_upper", -0.6, "order -1.6 below supported minimum -1.5"),
        ("eq12_upper", -1.6, "kernel requires nu > -3/2, got -1.6"),
        ("eq27_upper", -1.6, "kernel requires nu > -3/2, got -1.6"),
    ], ids=["eq17_upper", "eq12_upper", "eq27_upper"])
    def test_primitive_error_names_the_bound_and_the_point(self, capsys, bound_id, nu, cause):
        # the primitive names only the order it read (eq17_upper's I_(nu-1)
        # at -1.6, where the caller asked for -0.6); evaluate adds the rest
        with pytest.raises(DomainError) as info:
            REGISTRY[bound_id].evaluate(nu, 1.0)
        assert str(info.value) == f"{bound_id} at nu={nu}, x=1.0: {cause}"
        assert main(["bracket", "--bound", bound_id, "--nu", repr(nu), "--x", "1"]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_order(self, nu):
        for spec in REGISTRY.values():
            with pytest.raises(DomainError, match="order must be finite"):
                spec.evaluate(nu, 1.0, *((2.0,) if needs_y(spec) else ()))
        for target, takes_y in registry.TARGETS.items():
            with pytest.raises(DomainError, match="order must be finite"):
                exact_value(target, nu, 1.0, 2.0 if takes_y else None)


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
