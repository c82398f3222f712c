"""Condition numbers C(f)(x) = x f'(x)/f(x) for L and I, with their brackets.

C(L_nu) is evaluated through the downward relation
C(L_nu)(x) = x L_{nu-1}(x)/L_nu(x) - nu, which is the single source of truth;
the upward relation C(L_nu)(x) = x L_{nu+1}(x)/L_nu(x) + nu + 2 b_nu(x) is
kept as a residual cross-check only.
"""

from __future__ import annotations

import math

from .bfunc import b_value
from .brackets import Bracket
from .errors import DomainError
from .special_core import iv_value, lv_value, lv_value_extended

_EQ_TOL = 1e-12


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x}")


def cond_exact(kind: str, nu: float, x: float) -> float:
    """Reference condition number via the downward ratio; positive for L when
    nu >= -1, for I when nu >= 0."""
    _check_x(x)
    if kind == "L":
        return x * lv_value_extended(nu - 1.0, x) / lv_value(nu, x) - nu
    if kind == "I":
        return x * iv_value(nu - 1.0, x) / iv_value(nu, x) - nu
    raise DomainError(f"kind must be 'L' or 'I', got {kind!r}")


def cond_upward_residual(nu: float, x: float) -> float:
    """|downward - upward| / |downward| for C(L); an identity residual."""
    down = cond_exact("L", nu, x)
    up = x * lv_value(nu + 1.0, x) / lv_value(nu, x) + nu \
        + 2.0 * b_value(nu, x)
    return abs(down - up) / abs(down)


def cond_bracket_via_bessel(nu: float, x: float) -> Bracket:
    """C(I_nu) < C(L_nu) < C(I_nu) + 2 b_nu(x).

    Lower side valid nu >= 1/2, upper side valid nu >= -1/2.
    """
    _check_x(x)
    ci = cond_exact("I", nu, x)
    return Bracket(ci, ci + 2.0 * b_value(nu, x),
                   nu >= 0.5 - _EQ_TOL, nu >= -0.5 - _EQ_TOL,
                   "eq28_lower", "eq28_upper")


def cond_bracket_sqrt(nu: float, x: float, variant: str) -> Bracket:
    """Algebraic brackets for C(L_nu), one per published inequality.

    eq29:  [sqrt((nu-1/2)^2+x^2) - 1/2, sqrt((nu+b)^2+x^2) + b]
           lower nu >= 1/2, upper nu >= -1/2
    eq30:  [sqrt((nu+1+b')^2+x^2) + 2b - b' - 1, sqrt((nu+1/2)^2+x^2) + 2b - 1/2]
           lower nu >= -1, upper nu >= -1/2   (b' = b at order nu+1)
    eq31:  lower only: nu + 2b + x^2/(nu + 1/2 + 2b' + sqrt((nu+3/2)^2+x^2)),
           nu >= -1
    apti:  upper only: sqrt(x^2 + nu^2 + 2(2 nu+1) b), nu > -3/2
    prior: lower only: max of nu+1 (nu > -3/2) and the hyperbolic
           x coth(x/2) - nu (nu >= 1/2, equality at nu = 1/2); see
           prior_lower_bound for the individual members.
    """
    _check_x(x)
    if variant == "eq29":
        b0 = b_value(nu, x) if nu > -1.5 else math.nan
        return Bracket(math.hypot(nu - 0.5, x) - 0.5, math.hypot(nu + b0, x) + b0,
                       nu >= 0.5 - _EQ_TOL, nu >= -0.5 - _EQ_TOL,
                       "eq29_lower", "eq29_upper")
    if variant == "eq30":
        b0 = b_value(nu, x)
        b1 = b_value(nu + 1.0, x)
        lower = math.hypot(nu + 1.0 + b1, x) + 2.0 * b0 - b1 - 1.0
        upper = math.hypot(nu + 0.5, x) + 2.0 * b0 - 0.5
        return Bracket(lower, upper, nu >= -1.0 - _EQ_TOL, nu >= -0.5 - _EQ_TOL,
                       "eq30_lower", "eq30_upper")
    if variant == "eq31":
        b0 = b_value(nu, x)
        b1 = b_value(nu + 1.0, x)
        lower = nu + 2.0 * b0 + x * x / (nu + 0.5 + 2.0 * b1 + math.hypot(nu + 1.5, x))
        return Bracket(lower, math.inf, nu >= -1.0 - _EQ_TOL, False,
                       "eq31_lower", "")
    if variant == "apti":
        b0 = b_value(nu, x)
        upper = math.sqrt(x * x + nu * nu + 2.0 * (2.0 * nu + 1.0) * b0)
        return Bracket(-math.inf, upper, False, nu > -1.5, "", "eq27_upper")
    if variant == "prior":
        candidates = [(prior_lower_bound(nu, x, name), name)
                      for name in ("prior_nup1", "prior_xminus", "prior_coth")
                      if _prior_valid(nu, name)]
        if not candidates:
            return Bracket(-math.inf, math.inf, False, False, "", "")
        lower, name = max(candidates)
        return Bracket(lower, math.inf, True, False, name, "")
    raise DomainError(f"unknown variant {variant!r}")


def _prior_valid(nu: float, name: str) -> bool:
    if name == "prior_nup1":
        return nu > -1.5
    # both remaining members are consequences of the tanh(x/2) ratio bound
    return nu >= 0.5 - _EQ_TOL


def prior_lower_bound(nu: float, x: float, name: str) -> float:
    """Earlier lower bounds kept for dominance comparisons.

    prior_nup1:   nu + 1,              nu > -3/2
    prior_xminus: x - nu,              nu >= 1/2
    prior_coth:   x coth(x/2) - nu,    nu >= 1/2 (equality at nu = 1/2)
    """
    _check_x(x)
    if not _prior_valid(nu, name):
        raise DomainError(f"{name} is not valid at nu={nu}")
    if name == "prior_nup1":
        return nu + 1.0
    if name == "prior_xminus":
        return x - nu
    if name == "prior_coth":
        # x coth(x/2) = 2 in double precision below x = 1e-8, where x/2 may underflow
        return (2.0 if x < 1e-8 else x / math.tanh(0.5 * x)) - nu
    raise DomainError(f"unknown prior bound {name!r}")
