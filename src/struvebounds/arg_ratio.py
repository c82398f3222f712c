"""Bounds for the argument ratio L_nu(x)/L_nu(y), 0 < x < y, and for L_nu itself.

These come from integrating condition-number brackets between x and y; the
pointwise bounds are the y -> x, x -> 0 limits of the two-sided argument-ratio
inequality.  Products of large exponentials and small powers are assembled in
log space and exponentiated once.
"""

from __future__ import annotations

import math
import sys

from .brackets import Bracket, Record, _set
from .errors import DomainError, OverflowRisk
from .special_core import GAMMA_ARG_MAX, ORDER_TOL, SQRT_PI


class ANuConstant(Record):
    """Large-x coefficient of the pointwise upper bound: the bound behaves
    like value * e^x / sqrt(x)."""

    _fields = ("nu", "value")

    def __init__(self, nu: float, value: float):
        _set(self, "nu", nu)
        _set(self, "value", value)


def _log_cosh(u: float) -> float:
    if u > 20.0:
        return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))
    return math.log(math.cosh(u))


def _log_half(f, u: float) -> float:
    """log f(u/2) for f = tanh or sinh, which are the identity once u/2 is
    subnormal: there u/2 is inexact, and 0 at the smallest u."""
    half = 0.5 * u
    return math.log(f(half)) if half >= sys.float_info.min else math.log(u) - math.log(2.0)


def _log_tanh_half(u: float) -> float:
    return _log_half(math.tanh, u)


def _log_sinh_half(u: float) -> float:
    return _log_half(math.sinh, u)


def _log_ratio(x: float, y: float) -> float:
    """log(x/y); below x = 1e-8, where the rounding of log x shows, one log
    of the quotient while that is normal."""
    r = x / y
    return math.log(r) if x < 1e-8 and r >= sys.float_info.min else math.log(x) - math.log(y)


def _log_tanh_excess(x: float, y: float) -> float:
    """log(tanh(x/2)/tanh(y/2)) - log(x/y), from tanh(u/2)/u (1/2 below 1e-8)."""
    th = [0.5 if u < 1e-8 else math.tanh(0.5 * u) / u for u in (x, y)]
    return math.log(th[0] / th[1])


def arg_ratio_L(nu, x, y, P):
    """L_nu(x)/L_nu(y), in (0, 1] for x <= y."""
    return P.L(nu) / P.L(nu, at_y=True)


def _half_log(nu, x, y, P):
    s = 3.0 * (2.0 * nu + 3.0)
    return 0.5 * (P.log(s + y * y) - P.log(s + x * x))


def eq37_upper(nu, x, y, P):
    """I_nu(x)/I_nu(y) >= L_nu(x)/L_nu(y), valid nu >= 1/2."""
    return P.I(nu) / P.I(nu, at_y=True)


def eq37_lower(nu, x, y, P):
    """(x/y) sqrt((3(2 nu+3)+y^2)/(3(2 nu+3)+x^2)) I_nu(x)/I_nu(y) <= the ratio,
    valid nu >= -1/2; the root needs nu > -3/2."""
    _check_nu(nu, nu > -1.5, "eq37", "> -3/2")
    s = 3.0 * (2.0 * nu + 3.0)
    return (x / y) * P.sqrt((s + y * y) / (s + x * x)) * eq37_upper(nu, x, y, P)


def _check_explicit(nu: float) -> None:
    if nu < -0.5 - ORDER_TOL:
        raise DomainError(f"explicit bound requires nu >= -1/2, got {nu}")


def eq38_lower(nu, x, y, P):
    """Fully explicit lower side of the argument ratio, valid nu >= -1/2."""
    _check_explicit(nu)
    a = nu + 0.5
    sx, sy = P.hypot(a, x), P.hypot(a, y)
    out = (sx - sy) + (nu + 1.0) * P.of(_log_ratio, "x", "y") + _half_log(nu, x, y, P)
    if a > 0.0:
        out += a * (P.log(a + sy) - P.log(a + sx))
    return P.exp(out)


def eq38_upper(nu, x, y, P):
    """Fully explicit upper side of the argument ratio, valid nu >= -1/2."""
    _check_explicit(nu)
    c = nu + 1.5
    tx, ty = P.hypot(c, x), P.hypot(c, y)
    d = P.of(_log_ratio, "x", "y")
    # below x = 1e-8 the large (nu+1) log(x/y) is the float eq38_lower adds,
    # so the two sides round alike where they are tight
    out = P.where(x < 1e-8,
                  lambda: (tx - ty) + (nu + 1.0) * d + P.of(_log_tanh_excess, "x", "y"),
                  lambda: (tx - ty) + P.of(_log_tanh_half, "x") - P.of(_log_tanh_half, "y")
                  + nu * d)
    out += c * (P.log(c + ty) - P.log(c + tx))
    return P.exp(out)


def _eq39_logs(nu, x, P):
    """Logs of eq39's sides.  Below x = 1e-8, where tanh(x/2) = x/2 and both
    sides are tight, both come from one rounded sum S = A_upper + (nu+1) log x:
    upper S, lower S + (A_lower - A_upper), so they stay in order."""
    _check_explicit(nu)
    a, c = nu + 0.5, nu + 1.5
    s, t = P.hypot(a, x), P.hypot(c, x)
    g = 3.0 * (2.0 * nu + 3.0)
    lx = P.of(math.log, "x")
    low = (t - c) - math.log(SQRT_PI) - (nu - 1.0) * math.log(2.0) - math.lgamma(c)
    up = (s - a) - math.log(SQRT_PI) - nu * math.log(2.0) - math.lgamma(nu + 1.5)
    up_mid = 0.5 * (math.log(g) - P.log(g + x * x))
    up_far = a * (math.log(2.0 * a) - P.log(a + s)) if a > 0.0 else 0.0
    low_far = c * (math.log(2.0 * c) - P.log(c + t))
    up_small, small = up + up_mid + up_far, x < 1e-8
    upper = P.where(small, lambda: up_small + (nu + 1.0) * lx,
                    lambda: up + ((nu + 1.0) * lx + up_mid) + up_far)
    return P.where(small, lambda: upper + (low - math.log(2.0) + low_far - up_small),
                   lambda: low + (nu * lx + P.of(_log_tanh_half, "x")) + low_far), upper


def eq39_lower(nu, x, P):
    return P.exp(_eq39_logs(nu, x, P)[0])


def eq39_upper(nu, x, P):
    return P.exp(_eq39_logs(nu, x, P)[1])


def pointwise_bracket(nu: float, x: float) -> Bracket:
    """Explicit two-sided bound for L_nu(x) itself, valid nu >= -1/2.

    Both sides are tight as x -> 0; as x -> infinity the upper side has the
    correct x^{-1/2} e^x order while the lower side is a factor of x low.
    """
    from .registry import bracket
    return bracket("eq39_lower", "eq39_upper", nu, x)


def _check_nu(nu: float, ok: bool, name: str, rng: str) -> None:
    if not ok:
        raise DomainError(f"{name} requires nu {rng}, got {nu}")


def eq33a_upper(nu, x, y, P):
    """(x/y)^(nu+1) >= the ratio, valid nu > -3/2."""
    _check_nu(nu, nu > -1.5, "eq33a", "> -3/2")
    return P.exp((nu + 1.0) * P.of(_log_ratio, "x", "y"))


def eq33b_upper(nu, x, y, P):
    """e^(x-y) (y/x)^nu >= the ratio, valid nu >= 1/2."""
    _check_nu(nu, nu >= 0.5 - ORDER_TOL, "eq33b", ">= 1/2")
    return P.exp((x - y) - nu * P.of(_log_ratio, "x", "y"))


def eq34_upper(nu, x, y, P):
    """((cosh x - 1)/(cosh y - 1)) (y/x)^nu >= the ratio, valid nu >= 1/2,
    equality at 1/2."""
    _check_nu(nu, nu >= 0.5 - ORDER_TOL, "eq34", ">= 1/2")
    log_num = math.log(2.0) + 2.0 * P.of(_log_sinh_half, "x")
    log_den = math.log(2.0) + 2.0 * P.of(_log_sinh_half, "y")
    return P.exp(log_num - log_den - nu * P.of(_log_ratio, "x", "y"))


def eq40_lower(nu, x, y, P):
    """(cosh x/cosh y) (x/y)^(nu+1) sqrt((3(2 nu+3)+y^2)/(3(2 nu+3)+x^2)) <= the
    ratio, valid nu > -1/2."""
    _check_nu(nu, nu > -0.5, "eq40", "> -1/2")
    return P.exp(P.of(_log_cosh, "x") - P.of(_log_cosh, "y")
                 + (nu + 1.0) * P.of(_log_ratio, "x", "y") + _half_log(nu, x, y, P))


def eq42_lower(nu, x, y, P):
    """e^(x-y) ((y+nu)/(x+nu))^nu (x/y)^(nu+1) sqrt(...) <= the ratio, the root as
    in eq40_lower; valid nu >= 0."""
    _check_nu(nu, nu >= -ORDER_TOL, "eq42", ">= 0")
    shift = nu * (P.log(y + nu) - P.log(x + nu)) if nu > 0.0 else 0.0
    return P.exp((x - y) + shift + (nu + 1.0) * P.of(_log_ratio, "x", "y")
                 + _half_log(nu, x, y, P))


def eq43_upper(nu, x, P):
    """Simplification of eq39_upper, >= L_nu(x), valid nu >= 0."""
    _check_nu(nu, nu >= -ORDER_TOL, "eq43", ">= 0")
    g = 3.0 * (2.0 * nu + 3.0)
    shift = nu * (math.log(nu) - P.log(x + nu)) if nu > 0.0 else 0.0
    log_out = shift + 0.5 * (math.log(g) - P.log(g + x * x)) \
        + (nu + 1.0) * P.of(math.log, "x") + x \
        - math.log(SQRT_PI) - nu * math.log(2.0) - math.lgamma(nu + 1.5)
    return P.exp(log_out)


def eq45_upper(nu, x, P):
    """Bessel cap 2 Gamma(nu+2)/(sqrt(pi) Gamma(nu+3/2)) I_{nu+1}(x) > L_nu(x),
    valid nu > -1/2."""
    _check_nu(nu, nu > -0.5, "eq45", "> -1/2")
    if nu + 2.0 < GAMMA_ARG_MAX:
        coef = 2.0 * math.gamma(nu + 2.0) / (SQRT_PI * math.gamma(nu + 1.5))
    else:
        coef = 2.0 * math.exp(math.lgamma(nu + 2.0) - math.lgamma(nu + 1.5)) / SQRT_PI
    return coef * P.I(nu + 1.0)


def eq46_upper(nu, x, P):
    """Fully explicit form obtained from eq45_upper, > L_nu(x), valid nu > -1/2."""
    _check_nu(nu, nu > -0.5, "eq46", "> -1/2")
    r = P.hypot(x, nu + 1.0)
    log_out = 0.5 * math.log(2.0) + math.lgamma(nu + 2.0) - math.log(math.pi) \
        - math.lgamma(nu + 1.5) + r + 2.0 / r - 0.25 * P.log(x * x + (nu + 1.0) ** 2) \
        + (nu + 1.0) * (P.of(math.log, "x") - P.log(nu + 1.0 + r))
    return P.exp(log_out)


def a_nu_constant(nu: float) -> ANuConstant:
    """Large-x coefficient of the explicit pointwise upper bound:

    a_nu = sqrt(12/pi) sqrt(nu+3/2) / Gamma(nu+3/2) * (nu+1/2)^(nu+1/2) e^{-(nu+1/2)}

    It sits strictly inside its Stirling bracket for every nu > -1/2 and
    always exceeds 1/sqrt(2 pi).
    """
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"coefficient requires nu > -1/2, got {nu}")
    a = nu + 0.5
    try:
        log_a = 0.5 * math.log(12.0 / math.pi) + 0.5 * math.log(nu + 1.5) \
            - math.lgamma(nu + 1.5) + a * math.log(a) - a
        return ANuConstant(nu, math.exp(log_a))
    except OverflowError:  # lgamma, or exp of the log, from nu of about 1e305
        raise OverflowRisk(f"coefficient overflows at nu={nu}") from None


def a_nu_stirling_bracket(nu: float) -> tuple[float, float]:
    """Stirling enclosure of the large-x coefficient:
    (sqrt(6)/pi) sqrt((2 nu+3)/(2 nu+1)) * [e^{-1/(6(2 nu+1))}, 1]."""
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"Stirling bracket requires nu > -1/2, got {nu}")
    base = math.sqrt(6.0) / math.pi * math.sqrt((2.0 * nu + 3.0) / (2.0 * nu + 1.0))
    return base * math.exp(-1.0 / (6.0 * (2.0 * nu + 1.0))), base


def bessel_route_coefficient(nu: float) -> float:
    """Large-x coefficient sqrt(2) Gamma(nu+2) / (pi Gamma(nu+3/2)) of the
    Bessel-cap pointwise upper bound; grows like sqrt(nu)."""
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"coefficient requires nu > -1/2, got {nu}")
    try:
        return math.exp(0.5 * math.log(2.0) + math.lgamma(nu + 2.0)
                        - math.log(math.pi) - math.lgamma(nu + 1.5))
    except OverflowError:  # lgamma past nu of about 2.5e305
        raise OverflowRisk(f"coefficient overflows at nu={nu}") from None


def coefficient_crossover_nu(tol: float = 1e-4) -> float:
    """Order at which the two large-x coefficients coincide (about 2.521).

    Below the crossover the Bessel-route coefficient is the smaller one,
    above it the explicit-bound coefficient wins.  Located by bisection to
    tol, which must be finite and positive (a NaN would stop the bisection
    before its first step), or until lo and hi are adjacent floats, which
    a tol below their spacing would otherwise never leave.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    lo, hi = 1.0, 4.0
    f = lambda n: a_nu_constant(n).value - bessel_route_coefficient(n)
    flo = f(lo)
    while hi - lo > tol * 0.5:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
