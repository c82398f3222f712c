"""The registry's point entries reject an unknown id or target, and a y given
to a bound that takes none or missing from one that needs it, with a
StruveBoundsError that names the cause."""

import pytest

from struvebounds import (
    DomainError,
    UnknownBound,
    best_bracket,
    bracket,
    evaluate_valid,
    exact_value,
    get_bound,
)


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

    def test_exact_value_arity(self):
        with pytest.raises(DomainError, match="give y"):
            exact_value("arg_ratio_L", 1.0, 2.0)
        with pytest.raises(DomainError, match="give no y"):
            exact_value("cond_L", 1.0, 2.0, 3.0)
