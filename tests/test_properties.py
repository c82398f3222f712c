
from hypothesis import example, given, settings, strategies as st

from struvebounds import (
    Bracket,
    b_value,
    best_bracket,
    bracket,
    lv_value,
    exact_value,
    ratio_refine_step,
    recurrence_check,
)

COMMON = dict(max_examples=80, deadline=None, derandomize=True)

orders = st.floats(min_value=-1.49, max_value=10.0, allow_nan=False)
orders_bracketed = st.floats(min_value=-0.49, max_value=10.0, allow_nan=False)
args = st.floats(min_value=1e-2, max_value=50.0, allow_nan=False)


@given(nu=orders, x=args)
@settings(**COMMON)
@example(nu=-0.75, x=1.0)  # eq13_upper fails on (-1, -1/2), so it is recorded from -1/2 up
def test_kernel_range_and_hyperbolic_sandwich(nu, x):
    v = b_value(nu, x)
    assert 0.0 < v < 0.5
    br = bracket("eq13_lower", "eq13_upper", nu, x)
    if br.lower_valid:
        assert br.lower <= v * (1.0 + 1e-12)
    if br.upper_valid:
        assert v <= br.upper * (1.0 + 1e-12)


@given(nu=orders_bracketed, x=args)
@settings(**COMMON)
def test_best_bracket_contains_exact_ratio(nu, x):
    exact = exact_value("succ_ratio_L", nu, x)
    br = best_bracket(nu, x)
    if br.lower_valid:
        assert br.lower <= exact * (1.0 + 1e-12)
    if br.upper_valid:
        assert exact <= br.upper * (1.0 + 1e-12)


@given(nu=st.floats(min_value=0.0, max_value=9.0, allow_nan=False), x=args)
@settings(**COMMON)
def test_refine_step_preserves_bracketing(nu, x):
    nxt = best_bracket(nu + 1.0, x)
    refined = ratio_refine_step(nu, x, nxt)
    exact = exact_value("succ_ratio_L", nu, x)
    if refined.lower_valid:
        assert refined.lower <= exact * (1.0 + 1e-12)
    if refined.upper_valid:
        assert exact <= refined.upper * (1.0 + 1e-12)


@given(nu=st.floats(min_value=-0.49, max_value=10.0, allow_nan=False), x=args)
@settings(**COMMON)
def test_recurrence_residuals_stay_at_rounding_level(nu, x):
    r1, r2 = recurrence_check(nu, x)
    assert max(r1, r2) <= 1e-12


@given(nu=orders, x=args, factor=st.floats(min_value=1.001, max_value=20.0))
@settings(**COMMON)
def test_struve_increases_in_argument(nu, x, factor):
    y = min(x * factor, 60.0)
    if y > x:
        assert lv_value(nu, x) < lv_value(nu, y)


@given(nu=orders, x=args)
@settings(**COMMON)
def test_degenerate_bracket_accepts_exact_value(nu, x):
    v = b_value(nu, x)
    br = Bracket(v, v, True, True)
    assert br.contains(v)
