"""Certified two-sided bounds for modified Struve functions of the first kind.

Reference series evaluation of I_nu, L_nu and M_nu = L_nu - I_nu, every
registered lower/upper bound for the ratio L_nu/L_{nu-1}, the condition
number x L'_nu/L_nu, the argument ratio L_nu(x)/L_nu(y) and L_nu itself,
plus a grid-certification engine, built-in relative-error tables, and
crossover location between competing bounds.
"""

from .arg_ratio import (
    ANuConstant,
    ArgPair,
    a_nu_constant,
    a_nu_stirling_bracket,
    arg_ratio_bessel_bracket,
    arg_ratio_exact,
    arg_ratio_explicit_bracket,
    arg_ratio_prior_bounds,
    bessel_route_coefficient,
    coefficient_crossover_nu,
    pointwise_bracket,
    pointwise_prior_upper,
)
from .bfunc import a_coefficient, b_asym, b_csch_bracket, b_upper_quadratic, b_value
from .brackets import BoundSpec, Bracket
from .condition import cond_bracket_sqrt, cond_bracket_via_bessel, cond_exact, prior_lower_bound
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
from .registry import REGISTRY, bound_ids, bounds_for_target, exact_value, get_bound
from .special_core import (
    FuncValue,
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
from .succ_ratio import (
    bessel_ratio_bounds,
    bessel_ratio_lower_tanh,
    best_bracket,
    product_difference,
    product_difference_cap,
    ratio_bracket_segura_form,
    ratio_bracket_via_bessel,
    ratio_lower_tanh,
    ratio_lower_tanh_half,
    ratio_lower_turan,
    ratio_refine_step,
    ratio_upper_refined,
    ratio_upper_tanh_half,
)
from .verify import (
    Grid,
    GridReport,
    TableSpec,
    certify,
    certify_all,
    certify_eq14_extension,
    crossover,
    default_grid,
    monotonicity_suite,
    relative_error_table,
    table_by_id,
)

__version__ = "0.1.0"
