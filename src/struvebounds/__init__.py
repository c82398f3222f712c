"""Certified two-sided bounds for modified Struve functions of the first kind.

Reference series evaluation of I_nu, L_nu and M_nu = L_nu - I_nu, every
registered lower/upper bound for the ratio L_nu/L_{nu-1}, the condition
number x L'_nu/L_nu, the argument ratio L_nu(x)/L_nu(y) and L_nu itself,
plus a grid-certification engine, built-in relative-error tables, and
crossover location between competing bounds.  A bound is reached by its id
through the registry: get_bound(id).evaluate, bracket, evaluate_valid,
best_bracket and crossover.  best_bracket(nu, x, target, y) is the one
selection routine, for every target: tightest_bracket over evaluate_valid's
values.  A target's exact value is reached the same way, by
exact_value(target, nu, x[, y]).
"""

from .arg_ratio import (
    ANuConstant,
    a_nu_constant,
    a_nu_stirling_bracket,
    bessel_route_coefficient,
    coefficient_crossover_nu,
    pointwise_bracket,
)
from .bfunc import b_value
from .brackets import Bracket
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidBracket,
    MultipleSignChanges,
    NoSignChange,
    NoValidBound,
    OverflowRisk,
    StruveBoundsError,
    UnknownBound,
)
from .registry import (
    REGISTRY,
    BoundSpec,
    best_bracket,
    bound_ids,
    bounds_for_target,
    bracket,
    crossover,
    evaluate_valid,
    exact_value,
    get_bound,
    tightest_bracket,
)
from .special_core import (
    FuncValue,
    asym_large_x,
    bessel_i,
    half_integer_closed,
    iv_value,
    lv_value,
    quad_oracle_i,
    quad_oracle_l,
    recurrence_check,
    struve_l,
    struve_m,
)
from .succ_ratio import (
    bessel_ratio_bounds,
    bessel_ratio_lower_tanh,
    ratio_refine_step,
)

# verify loads numpy, which a point query never needs, and only the table names
# need tables: import each on first use (PEP 562)
_VERIFY_NAMES = ("Grid", "GridReport", "certify", "certify_all", "certify_eq14_extension",
                 "default_grid", "monotonicity_suite", "relative_error_table")
_TABLES_NAMES = ("TableSpec", "table_by_id")

__all__ = [
    "ANuConstant", "a_nu_constant", "a_nu_stirling_bracket", "bessel_route_coefficient",
    "coefficient_crossover_nu", "pointwise_bracket",
    "b_value",
    "Bracket",
    "ConvergenceError", "DomainError", "InvalidBracket", "MultipleSignChanges",
    "NoSignChange", "NoValidBound", "OverflowRisk", "StruveBoundsError", "UnknownBound",
    "REGISTRY", "BoundSpec", "best_bracket", "bound_ids", "bounds_for_target", "bracket",
    "crossover", "evaluate_valid", "exact_value", "get_bound", "tightest_bracket",
    "FuncValue", "asym_large_x", "bessel_i", "half_integer_closed", "iv_value", "lv_value",
    "quad_oracle_i", "quad_oracle_l", "recurrence_check", "struve_l", "struve_m",
    "bessel_ratio_bounds", "bessel_ratio_lower_tanh", "ratio_refine_step",
    *_VERIFY_NAMES, *_TABLES_NAMES,
]


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    if name in _TABLES_NAMES:
        from . import tables
        return getattr(tables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
