"""Value semantics of the four record types on the point path: FuncValue,
Bracket, BoundSpec and ANuConstant.  Each is frozen, compares and hashes
by its fields within its own class, and prints its fields by name."""

import math

import pytest

from struvebounds import ANuConstant, Bracket, BoundSpec, FuncValue, a_nu_constant, get_bound


def _formula(nu, x, P):
    return 1.0


def _spec(**changes):
    fields = dict(bound_id="eqX_upper", target="cond_L", side="upper", nu_min=0.5,
                  nu_min_strict=False, formula=_formula)
    fields.update(changes)
    return BoundSpec(**fields)


# (type, positional fields, the same by keyword)
RECORDS = {
    "FuncValue": (FuncValue, (1.5, 7, 1e-16, True),
                  dict(value=1.5, terms_used=7, est_rel_error=1e-16, cancellation=True)),
    "Bracket": (Bracket, (0.25, 0.75, True, False, "eq17_lower", "eq17_upper"),
                dict(lower=0.25, upper=0.75, lower_valid=True, upper_valid=False,
                     lower_id="eq17_lower", upper_id="eq17_upper")),
    "BoundSpec": (BoundSpec, ("eqX_upper", "cond_L", "upper", 0.5, False, _formula, 0.5),
                  dict(bound_id="eqX_upper", target="cond_L", side="upper", nu_min=0.5,
                       nu_min_strict=False, formula=_formula, equality_at=0.5)),
    "ANuConstant": (ANuConstant, (1.0, 0.3), dict(nu=1.0, value=0.3)),
}


def _fields(kwargs):
    return ", ".join(f"{k}={v!r}" for k, v in kwargs.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordSemantics:
    def test_repr_names_every_field(self, name):
        cls, _, kwargs = RECORDS[name]
        assert repr(cls(**kwargs)) == f"{name}({_fields(kwargs)})"

    def test_positional_and_keyword_construction_agree(self, name):
        cls, args, kwargs = RECORDS[name]
        record = cls(*args)
        assert record == cls(**kwargs)
        assert tuple(getattr(record, k) for k in kwargs) == args

    def test_equal_by_field_and_hash_equally(self, name):
        cls, args, _ = RECORDS[name]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_field_apart_is_unequal(self, name):
        cls, args, _ = RECORDS[name]
        at, value = {"FuncValue": (1, 8), "Bracket": (1, 0.5), "BoundSpec": (3, -0.5),
                     "ANuConstant": (1, 0.5)}[name]
        changed = list(args)
        changed[at] = value
        assert cls(*args) != cls(*changed)

    def test_unequal_to_a_tuple_and_to_another_type(self, name):
        cls, args, _ = RECORDS[name]
        other = type("Other" + name, (cls,), {})
        assert cls(*args) != args
        assert cls(*args) != other(*args)
        assert other(*args) != cls(*args)

    def test_a_shared_nan_compares_equal(self, name):
        cls, args, _ = RECORDS[name]
        nan_at = {"FuncValue": 0, "Bracket": 0, "BoundSpec": 3, "ANuConstant": 1}[name]
        with_nan = list(args)
        with_nan[nan_at] = math.nan
        assert cls(*with_nan) == cls(*with_nan)
        assert hash(cls(*with_nan)) == hash(cls(*with_nan))

    def test_frozen(self, name):
        cls, args, kwargs = RECORDS[name]
        record = cls(*args)
        for field in kwargs:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.new_field = 1
        assert record == cls(*args)


class TestDefaults:
    def test_func_value_is_not_cancelled_by_default(self):
        assert FuncValue(1.0, 3, 0.0).cancellation is False
        assert FuncValue(value=1.0, terms_used=3, est_rel_error=0.0) == FuncValue(1.0, 3, 0.0, False)

    def test_bracket_ids_default_to_empty(self):
        b = Bracket(lower=1.0, upper=2.0, lower_valid=True, upper_valid=True)
        assert (b.lower_id, b.upper_id) == ("", "")
        assert repr(b) == ("Bracket(lower=1.0, upper=2.0, lower_valid=True, upper_valid=True, "
                           "lower_id='', upper_id='')")
        assert b.width == 1.0 and b.contains(1.5) and not b.contains(2.5)

    def test_bound_spec_has_no_equality_order_by_default(self):
        spec = _spec()
        assert spec.equality_at is None and not spec.is_equality_at(0.5)
        assert repr(spec).endswith(f"formula={_formula!r}, equality_at=None)")

    def test_a_nu_constant_from_the_package(self):
        c = a_nu_constant(1.0)
        assert type(c) is ANuConstant and c.nu == 1.0 and c.value > 0.0


class TestValidation:
    def test_bracket_out_of_order(self):
        with pytest.raises(ValueError, match=r"bracket sides out of order: \[2.0, 1.0\]"):
            Bracket(2.0, 1.0, True, True)

    def test_bracket_out_of_order_is_fine_with_an_invalid_side(self):
        assert Bracket(2.0, 1.0, True, False).lower == 2.0
        assert Bracket(math.nan, 1.0, True, True).upper == 1.0

    def test_bound_spec_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target 'no_target'"):
            _spec(target="no_target")

    def test_bound_spec_bad_side(self):
        with pytest.raises(ValueError, match="side must be 'lower' or 'upper', got 'middle'"):
            _spec(side="middle")


class TestPatching:
    def test_object_setattr_replaces_evaluate(self):
        # a tracer wraps each registry entry's evaluate in place this way
        spec = _spec()
        object.__setattr__(spec, "evaluate", lambda nu, x, y=None: -1.0)
        assert spec.evaluate(1.0, 2.0) == -1.0
        assert get_bound("eq29_upper").evaluate(1.0, 2.0) != -1.0
