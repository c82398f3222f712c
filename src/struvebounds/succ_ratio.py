"""Two-sided bounds for the successive-order ratio h_nu(x) = L_nu(x)/L_{nu-1}(x).

The central device: for the modified Bessel ratio r = I_nu/I_{nu-1},

    (1/r + 2 b_nu(x)/x)^{-1}  <  h_nu(x)  <  r,

(lower side nu >= 0, upper side nu >= 1/2), which converts any published
Bessel-ratio bound into a Struve-ratio bound.  The remaining bounds come
from the Turan inequality and the monotonicity of the ratio in the order,
plus one step of refinement through the three-term recurrence.
"""

from __future__ import annotations

import math

from .bfunc import b_value
from .brackets import Bracket
from .errors import DomainError, InvalidBracket, NoValidBound
from .special_core import iv_value, mv_value, recurrence_term

_EQ_TOL = 1e-12


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x}")


def _x_over(x: float, d: float) -> float:
    """x / d, or +inf where d rounds to 0 (at small x, where x/d -> +inf)."""
    return x / d if d else math.inf


def transfer_lower(nu: float, x: float, r: float) -> float:
    """The transfer theorem: a lower bound r on I_nu/I_{nu-1} gives the
    lower bound (1/r + 2 b_nu(x)/x)^{-1} on h_nu, valid where r is and
    nu >= 0.  The map increases in r; r = 0 gives 0."""
    return 1.0 / (1.0 / r + 2.0 * b_value(nu, x) / x) if r else 0.0


def bessel_ratio_bounds(nu: float, x: float) -> Bracket:
    """Algebraic bracket for I_nu(x)/I_{nu-1}(x).

    lower: x / (nu - 1/2 + sqrt((nu+1/2)^2 + x^2)), valid nu >= 0
    upper: x / (nu - 1/2 + sqrt((nu-1/2)^2 + x^2)), valid nu >= 1/2
    """
    _check_x(x)
    lower = _x_over(x, nu - 0.5 + math.hypot(nu + 0.5, x))
    upper = _x_over(x, nu - 0.5 + math.hypot(nu - 0.5, x))
    return Bracket(lower, upper, nu >= -_EQ_TOL, nu >= 0.5 - _EQ_TOL,
                   "bessel_sqrt_lower", "bessel_sqrt_upper")


def bessel_ratio_lower_tanh(nu: float, x: float) -> float:
    """Hyperbolic lower bound x tanh(x) / (x + (2 nu-1) tanh(x)) for
    I_nu/I_{nu-1}, valid nu > 1/2."""
    _check_x(x)
    if nu <= 0.5:
        raise DomainError(f"tanh lower bound requires nu > 1/2, got {nu}")
    t = math.tanh(x)
    return x * t / (x + (2.0 * nu - 1.0) * t)


def product_difference(nu: float, x: float) -> float:
    """I_nu L_{nu-1} - I_{nu-1} L_nu; positive for nu >= 1/2.

    Computed as I_nu M_{nu-1} - I_{nu-1} M_nu (the e^x parts cancel exactly),
    which stays accurate where the direct form loses every digit.
    """
    _check_x(x)
    if nu - 1.0 < -1.5 - _EQ_TOL:
        raise DomainError(f"product difference needs nu >= -1/2, got {nu}")
    return (iv_value(nu, x) * mv_value(nu - 1.0, x)
            - iv_value(nu - 1.0, x) * mv_value(nu, x))


def product_difference_cap(nu: float, x: float, which: str) -> float:
    """Published upper caps on the product difference.

    'via_nu':   (x/2)^nu I_nu / (sqrt(pi) Gamma(nu+3/2)),        nu >= -1/2
    'via_num1': (x/2)^(nu-1) I_{nu-1} / (sqrt(pi) Gamma(nu+1/2)), nu >= 3/2
    """
    _check_x(x)
    if which == "via_nu":
        if nu < -0.5 - _EQ_TOL:
            raise DomainError(f"cap 'via_nu' requires nu >= -1/2, got {nu}")
        return recurrence_term(nu, x) * iv_value(nu, x)
    if which == "via_num1":
        if nu < 1.5 - _EQ_TOL:
            raise DomainError(f"cap 'via_num1' requires nu >= 3/2, got {nu}")
        return recurrence_term(nu - 1.0, x) * iv_value(nu - 1.0, x)
    raise DomainError(f"unknown cap {which!r}")


def ratio_bracket_via_bessel(nu: float, x: float) -> Bracket:
    """Bracket for h_nu built directly from the exact Bessel ratio.

    lower: (I_{nu-1}/I_nu + 2 b_nu(x)/x)^{-1}, valid nu >= 0
    upper: I_nu/I_{nu-1},                      valid nu >= 1/2
    """
    _check_x(x)
    if nu - 1.0 < -1.5 - _EQ_TOL:
        raise DomainError(f"Bessel-ratio bracket needs nu >= -1/2, got {nu}")
    r = iv_value(nu, x) / iv_value(nu - 1.0, x)
    return Bracket(transfer_lower(nu, x, r), r, nu >= -_EQ_TOL, nu >= 0.5 - _EQ_TOL,
                   "eq17_lower", "eq17_upper")


def ratio_bracket_segura_form(nu: float, x: float) -> Bracket:
    """Fully algebraic bracket for h_nu: bessel_ratio_bounds, lower side
    transferred (expanded: it rounds within 3 ulps of transfer_lower, and
    perfbench/reference.json holds its values to 1e-12).

    lower: x / (nu - 1/2 + 2 b_nu(x) + sqrt((nu+1/2)^2 + x^2)), valid nu >= 0
    upper: x / (nu - 1/2 + sqrt((nu-1/2)^2 + x^2)),             valid nu >= 1/2
    """
    br = bessel_ratio_bounds(nu, x)
    lower = x / (nu - 0.5 + 2.0 * b_value(nu, x) + math.hypot(nu + 0.5, x)) \
        if nu > -1.5 else math.nan
    return Bracket(lower, br.upper, nu >= -_EQ_TOL, nu >= 0.5 - _EQ_TOL,
                   "eq18_lower", "eq18_upper")


def ratio_lower_tanh(nu: float, x: float) -> float:
    """x tanh(x) / (x + (2 nu-1) tanh(x) + 2 b_nu(x) tanh(x)) < h_nu, nu > 1/2:
    the transfer of bessel_ratio_lower_tanh."""
    return transfer_lower(nu, x, bessel_ratio_lower_tanh(nu, x))


def ratio_upper_tanh_half(nu: float, x: float) -> float:
    """tanh(x/2) >= h_nu for nu >= 1/2, with equality exactly at nu = 1/2."""
    _check_x(x)
    if nu < 0.5 - _EQ_TOL:
        raise DomainError(f"tanh(x/2) upper bound requires nu >= 1/2, got {nu}")
    return math.tanh(0.5 * x)


def ratio_lower_turan(nu: float, x: float) -> float:
    """Turan-derived lower bound x / (nu + b + sqrt((nu+b)^2 + x^2)), nu >= -1/2."""
    _check_x(x)
    if nu < -0.5 - _EQ_TOL:
        raise DomainError(f"Turan lower bound requires nu >= -1/2, got {nu}")
    c = nu + b_value(nu, x)
    return x / (c + math.hypot(c, x))


def ratio_lower_tanh_half(nu: float, x: float) -> float:
    """Monotonicity-derived lower bound with tanh(x/2); equality at nu = 1/2.

    x tanh(x/2) / (x + (2 nu-1) tanh(x/2) + 2 (b_nu - b_{1/2}) tanh(x/2)),
    valid nu >= 1/2.
    """
    _check_x(x)
    if nu < 0.5 - _EQ_TOL:
        raise DomainError(f"tanh(x/2) lower bound requires nu >= 1/2, got {nu}")
    t = math.tanh(0.5 * x)
    gap = b_value(nu, x) - b_value(0.5, x)
    return x * t / (x + (2.0 * nu - 1.0) * t + 2.0 * gap * t)


def ratio_upper_refined(nu: float, x: float) -> float:
    """One recurrence step applied to the Turan lower bound at order nu+1:

    x / (nu - 1 + 2 b_nu - b_{nu+1} + sqrt((nu+1+b_{nu+1})^2 + x^2)) > h_nu,
    valid nu >= 0.  This is ratio_refine_step's map on ratio_lower_turan at
    nu+1, expanded for the reason given in ratio_bracket_segura_form.
    """
    _check_x(x)
    if nu < -_EQ_TOL:
        raise DomainError(f"refined upper bound requires nu >= 0, got {nu}")
    b0 = b_value(nu, x)
    b1 = b_value(nu + 1.0, x)
    return x / (nu - 1.0 + 2.0 * b0 - b1 + math.hypot(nu + 1.0 + b1, x))


def ratio_refine_step(nu: float, x: float, next_bracket: Bracket) -> Bracket:
    """Map a bracket for h_{nu+1} to one for h_nu via
    h_nu = 1 / (2 nu/x + 2 b_nu/x + h_{nu+1}).

    The map is decreasing, so the sides swap roles: an upper bound on
    h_{nu+1} becomes a lower bound on h_nu and vice versa.
    """
    _check_x(x)
    if nu < -_EQ_TOL:
        raise DomainError(f"refinement step requires nu >= 0, got {nu}")
    if next_bracket.lower > next_bracket.upper:
        raise InvalidBracket(
            f"bracket sides out of order: [{next_bracket.lower}, {next_bracket.upper}]"
        )
    base = (2.0 * nu + 2.0 * b_value(nu, x)) / x
    lower = 1.0 / (base + next_bracket.upper)
    upper = 1.0 / (base + next_bracket.lower)
    return Bracket(lower, upper, next_bracket.upper_valid, next_bracket.lower_valid,
                   f"refine({next_bracket.upper_id})", f"refine({next_bracket.lower_id})")


def best_bracket(nu: float, x: float, target: str = "succ_ratio_L") -> Bracket:
    """Tightest bracket over every registered bound on target valid at nu.

    target is any target whose bounds take (nu, x), the successive ratio by
    default; each side carries the id of the bound that attains it.
    """
    from . import registry

    _check_x(x)
    best_lo, best_lo_id = -math.inf, ""
    best_hi, best_hi_id = math.inf, ""
    for spec in registry.bounds_for_target(target):
        if not spec.valid_at(nu):
            continue
        value = spec.evaluate(nu, x)
        if spec.side == "lower" and value > best_lo:
            best_lo, best_lo_id = value, spec.bound_id
        elif spec.side == "upper" and value < best_hi:
            best_hi, best_hi_id = value, spec.bound_id
    if not best_lo_id and not best_hi_id:
        raise NoValidBound(f"no registered {target} bound is valid at nu={nu}")
    return Bracket(best_lo, best_hi, bool(best_lo_id), bool(best_hi_id),
                   best_lo_id, best_hi_id)
