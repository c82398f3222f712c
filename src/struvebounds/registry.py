"""Registry of every certified inequality, keyed by stable bound id.

Each entry records the target quantity, the side it bounds, the published
validity half-line in the order, and the single equality order if one exists.
Validity ranges are data, not caller-overridable arguments: the inequalities
are only guaranteed on the recorded ranges.
"""

from __future__ import annotations

from typing import Iterable

from . import arg_ratio as _ar
from . import bfunc as _bf
from . import condition as _cd
from . import succ_ratio as _sr
from .arg_ratio import ArgPair
from .brackets import BoundSpec
from .errors import UnknownBound
from .special_core import lv_value, ratio_succ_exact


_SPECS = [
    # kernel
    BoundSpec("eq12_upper", "b_kernel", "upper", -1.5, True, _bf.b_upper_quadratic),
    BoundSpec("eq13_lower", "b_kernel", "lower", -0.5, False,
              lambda n, x: _bf.b_csch_bracket(n, x).lower,
              equality_at=-0.5),
    BoundSpec("eq13_upper", "b_kernel", "upper", -1.0, True,
              lambda n, x: _bf.b_csch_bracket(n, x).upper),
    # product difference
    BoundSpec("eq14_positivity", "product_diff_L", "lower", 0.5, False,
              lambda n, x: 0.0),
    BoundSpec("eq15_upper", "product_diff_L", "upper", -0.5, False,
              lambda n, x: _sr.product_difference_cap(n, x, "via_nu")),
    BoundSpec("eq16_upper", "product_diff_L", "upper", 1.5, False,
              lambda n, x: _sr.product_difference_cap(n, x, "via_num1")),
    # successive-order ratio
    BoundSpec("eq17_lower", "succ_ratio_L", "lower", 0.0, False,
              lambda n, x: _sr.ratio_bracket_via_bessel(n, x).lower),
    BoundSpec("eq17_upper", "succ_ratio_L", "upper", 0.5, False,
              lambda n, x: _sr.ratio_bracket_via_bessel(n, x).upper),
    BoundSpec("eq18_lower", "succ_ratio_L", "lower", 0.0, False,
              lambda n, x: _sr.ratio_bracket_segura_form(n, x).lower),
    BoundSpec("eq18_upper", "succ_ratio_L", "upper", 0.5, False,
              lambda n, x: _sr.ratio_bracket_segura_form(n, x).upper),
    BoundSpec("eq19_lower", "succ_ratio_L", "lower", 0.5, True, _sr.ratio_lower_tanh),
    BoundSpec("eq20_upper", "succ_ratio_L", "upper", 0.5, False, _sr.ratio_upper_tanh_half,
              equality_at=0.5),
    BoundSpec("eq21_lower", "succ_ratio_L", "lower", -0.5, False, _sr.ratio_lower_turan),
    BoundSpec("eq22_lower", "succ_ratio_L", "lower", 0.5, False, _sr.ratio_lower_tanh_half,
              equality_at=0.5),
    BoundSpec("eq24_upper", "succ_ratio_L", "upper", 0.0, False, _sr.ratio_upper_refined),
    # condition number
    BoundSpec("eq27_upper", "cond_L", "upper", -1.5, True,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "apti").upper),
    BoundSpec("eq28_lower", "cond_L", "lower", 0.5, False,
              lambda n, x: _cd.cond_bracket_via_bessel(n, x).lower),
    BoundSpec("eq28_upper", "cond_L", "upper", -0.5, False,
              lambda n, x: _cd.cond_bracket_via_bessel(n, x).upper),
    BoundSpec("eq29_lower", "cond_L", "lower", 0.5, False,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "eq29").lower),
    BoundSpec("eq29_upper", "cond_L", "upper", -0.5, False,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "eq29").upper),
    BoundSpec("eq30_lower", "cond_L", "lower", -1.0, False,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "eq30").lower),
    BoundSpec("eq30_upper", "cond_L", "upper", -0.5, False,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "eq30").upper),
    BoundSpec("eq31_lower", "cond_L", "lower", -1.0, False,
              lambda n, x: _cd.cond_bracket_sqrt(n, x, "eq31").lower),
    BoundSpec("prior_nup1", "cond_L", "lower", -1.5, True,
              lambda n, x: _cd.prior_lower_bound(n, x, "prior_nup1")),
    # recorded range deviates from the published one: x - nu fails below 1/2
    # (e.g. order 0, x = 10: condition number 9.4863 < 10) and holds at and
    # above 1/2, where it follows from the tanh(x/2) ratio bound
    BoundSpec("prior_xminus", "cond_L", "lower", 0.5, False,
              lambda n, x: _cd.prior_lower_bound(n, x, "prior_xminus")),
    BoundSpec("prior_coth", "cond_L", "lower", 0.5, False,
              lambda n, x: _cd.prior_lower_bound(n, x, "prior_coth"),
              equality_at=0.5),
    # argument ratio
    BoundSpec("eq33a_upper", "arg_ratio_L", "upper", -1.5, True,
              lambda n, x, y: _ar.arg_ratio_prior_bounds(n, ArgPair(x, y), "eq33a")),
    BoundSpec("eq33b_upper", "arg_ratio_L", "upper", 0.5, False,
              lambda n, x, y: _ar.arg_ratio_prior_bounds(n, ArgPair(x, y), "eq33b")),
    BoundSpec("eq34_upper", "arg_ratio_L", "upper", 0.5, False,
              lambda n, x, y: _ar.arg_ratio_prior_bounds(n, ArgPair(x, y), "eq34"),
              equality_at=0.5),
    BoundSpec("eq37_lower", "arg_ratio_L", "lower", -0.5, False,
              lambda n, x, y: _ar.arg_ratio_bessel_bracket(n, ArgPair(x, y)).lower),
    BoundSpec("eq37_upper", "arg_ratio_L", "upper", 0.5, False,
              lambda n, x, y: _ar.arg_ratio_bessel_bracket(n, ArgPair(x, y)).upper),
    BoundSpec("eq38_lower", "arg_ratio_L", "lower", -0.5, False,
              lambda n, x, y: _ar.arg_ratio_explicit_bracket(n, ArgPair(x, y)).lower),
    BoundSpec("eq38_upper", "arg_ratio_L", "upper", -0.5, False,
              lambda n, x, y: _ar.arg_ratio_explicit_bracket(n, ArgPair(x, y)).upper),
    BoundSpec("eq40_lower", "arg_ratio_L", "lower", -0.5, True,
              lambda n, x, y: _ar.arg_ratio_prior_bounds(n, ArgPair(x, y), "hbv_combined")),
    BoundSpec("eq42_lower", "arg_ratio_L", "lower", 0.0, False,
              lambda n, x, y: _ar.arg_ratio_prior_bounds(n, ArgPair(x, y), "eq42")),
    # pointwise
    BoundSpec("eq39_lower", "pointwise_L", "lower", -0.5, False,
              lambda n, x: _ar.pointwise_bracket(n, x).lower),
    BoundSpec("eq39_upper", "pointwise_L", "upper", -0.5, False,
              lambda n, x: _ar.pointwise_bracket(n, x).upper),
    BoundSpec("eq43_upper", "pointwise_L", "upper", 0.0, False,
              lambda n, x: _ar.pointwise_prior_upper(n, x, "eq43")),
    BoundSpec("eq45_upper", "pointwise_L", "upper", -0.5, True,
              lambda n, x: _ar.pointwise_prior_upper(n, x, "eq45")),
    BoundSpec("eq46_upper", "pointwise_L", "upper", -0.5, True,
              lambda n, x: _ar.pointwise_prior_upper(n, x, "eq46")),
]

REGISTRY: dict[str, BoundSpec] = {spec.bound_id: spec for spec in _SPECS}


def bound_ids() -> list[str]:
    return list(REGISTRY)


def get_bound(bound_id: str) -> BoundSpec:
    try:
        return REGISTRY[bound_id]
    except KeyError:
        raise UnknownBound(f"no bound registered under id {bound_id!r}") from None


def bounds_for_target(target: str) -> Iterable[BoundSpec]:
    return [spec for spec in _SPECS if spec.target == target]


def needs_y(spec: BoundSpec) -> bool:
    return spec.target == "arg_ratio_L"


def exact_value(target: str, nu: float, x: float, y: float | None = None) -> float:
    """Reference value of a target quantity, always from the series route."""
    if target == "succ_ratio_L":
        return ratio_succ_exact("L", nu, x)
    if target == "cond_L":
        return _cd.cond_exact("L", nu, x)
    if target == "arg_ratio_L":
        if y is None:
            raise ValueError("arg_ratio_L needs a second argument y")
        return _ar.arg_ratio_exact(nu, ArgPair(x, y))
    if target == "pointwise_L":
        return lv_value(nu, x)
    if target == "b_kernel":
        return _bf.b_value(nu, x)
    if target == "product_diff_L":
        return _sr.product_difference(nu, x)
    raise ValueError(f"unknown target {target!r}")
