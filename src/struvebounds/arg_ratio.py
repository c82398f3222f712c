"""Bounds for the argument ratio L_nu(x)/L_nu(y), 0 < x < y, and for L_nu itself.

These come from integrating condition-number brackets between x and y; the
pointwise bounds are the y -> x, x -> 0 limits of the two-sided argument-ratio
inequality.  Products of large exponentials and small powers are assembled in
log space and exponentiated once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .brackets import ORDER_TOL, Bracket
from .errors import DomainError
from .special_core import GAMMA_ARG_MAX, SQRT_PI, Point


@dataclass(frozen=True)
class ArgPair:
    """An ordered argument pair; x = y is allowed only as the identity case."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"arguments must be finite, got ({self.x}, {self.y})")
        if self.x <= 0.0 or self.y <= 0.0:
            raise DomainError(f"arguments must be positive, got ({self.x}, {self.y})")
        if self.x > self.y:
            raise DomainError(f"need x <= y, got x={self.x} > y={self.y}")

    @property
    def degenerate(self) -> bool:
        return self.x == self.y


@dataclass(frozen=True)
class ANuConstant:
    """Large-x coefficient of the pointwise upper bound: the bound behaves
    like value * e^x / sqrt(x)."""

    nu: float
    value: float


def _log_cosh(u: float) -> float:
    if u > 20.0:
        return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))
    return math.log(math.cosh(u))


def _log_tanh_half(u: float) -> float:
    # once u/2 is subnormal it is inexact, and 0 at the smallest u
    half = 0.5 * u
    return (math.log(math.tanh(half)) if half >= sys.float_info.min
            else math.log(u) - math.log(2.0))


def _log_sinh_half(u: float) -> float:
    return math.log(math.sinh(0.5 * u))


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
    return P.L(nu) / P.L(nu, at_y=True)


def arg_ratio_exact(nu: float, pair: ArgPair) -> float:
    """L_nu(x)/L_nu(y) from the reference evaluator; in (0, 1] for x <= y."""
    if pair.degenerate:
        return 1.0
    return arg_ratio_L(nu, pair.x, pair.y, Point(nu, pair.x, pair.y))


def _half_log(nu, x, y, P):
    s = 3.0 * (2.0 * nu + 3.0)
    return 0.5 * (P.log(s + y * y) - P.log(s + x * x))


def eq37_upper(nu, x, y, P):
    return P.I(nu) / P.I(nu, at_y=True)


def eq37_lower(nu, x, y, P):
    s = 3.0 * (2.0 * nu + 3.0)
    return (x / y) * P.sqrt((s + y * y) / (s + x * x)) * eq37_upper(nu, x, y, P)


def _degenerate_or(pair: ArgPair, ids: tuple, nu: float) -> Bracket:
    if pair.degenerate:
        return Bracket(1.0, 1.0, True, True, *ids)
    from .registry import bracket
    return bracket(*ids, nu, pair.x, pair.y)


def arg_ratio_bessel_bracket(nu: float, pair: ArgPair) -> Bracket:
    """Bracket through the Bessel argument ratio.

    lower: (x/y) sqrt((3(2 nu+3)+y^2)/(3(2 nu+3)+x^2)) * I_nu(x)/I_nu(y),
           valid nu >= -1/2
    upper: I_nu(x)/I_nu(y), valid nu >= 1/2
    """
    return _degenerate_or(pair, ("eq37_lower", "eq37_upper"), nu)


def _check_explicit(nu: float) -> None:
    if nu < -0.5 - ORDER_TOL:
        raise DomainError(f"explicit bound requires nu >= -1/2, got {nu}")


def eq38_lower(nu, x, y, P):
    _check_explicit(nu)
    a = nu + 0.5
    sx, sy = P.hypot(a, x), P.hypot(a, y)
    out = (sx - sy) + (nu + 1.0) * P.of(_log_ratio, "x", "y") + _half_log(nu, x, y, P)
    if a > 0.0:
        out += a * (P.log(a + sy) - P.log(a + sx))
    return P.exp(out)


def eq38_upper(nu, x, y, P):
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


def arg_ratio_explicit_bracket(nu: float, pair: ArgPair) -> Bracket:
    """Fully explicit two-sided bound for L_nu(x)/L_nu(y), valid nu >= -1/2."""
    _check_explicit(nu)
    return _degenerate_or(pair, ("eq38_lower", "eq38_upper"), nu)


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
    _check_explicit(nu)
    return bracket("eq39_lower", "eq39_upper", nu, x)


def _check_nu(nu: float, ok: bool, name: str, rng: str) -> None:
    if not ok:
        raise DomainError(f"{name} requires nu {rng}, got {nu}")


def eq33a_upper(nu, x, y, P):
    _check_nu(nu, nu > -1.5, "eq33a", "> -3/2")
    return P.exp((nu + 1.0) * P.of(_log_ratio, "x", "y"))


def eq33b_upper(nu, x, y, P):
    _check_nu(nu, nu >= 0.5 - ORDER_TOL, "eq33b", ">= 1/2")
    return P.exp((x - y) - nu * P.of(_log_ratio, "x", "y"))


def eq34_upper(nu, x, y, P):
    _check_nu(nu, nu >= 0.5 - ORDER_TOL, "eq34", ">= 1/2")
    log_num = math.log(2.0) + 2.0 * P.of(_log_sinh_half, "x")
    log_den = math.log(2.0) + 2.0 * P.of(_log_sinh_half, "y")
    return P.exp(log_num - log_den - nu * P.of(_log_ratio, "x", "y"))


def eq40_lower(nu, x, y, P):
    _check_nu(nu, nu > -0.5, "hbv_combined", "> -1/2")
    return P.exp(P.of(_log_cosh, "x") - P.of(_log_cosh, "y")
                 + (nu + 1.0) * P.of(_log_ratio, "x", "y") + _half_log(nu, x, y, P))


def eq42_lower(nu, x, y, P):
    _check_nu(nu, nu >= -ORDER_TOL, "eq42", ">= 0")
    shift = nu * (P.log(y + nu) - P.log(x + nu)) if nu > 0.0 else 0.0
    return P.exp((x - y) + shift + (nu + 1.0) * P.of(_log_ratio, "x", "y")
                 + _half_log(nu, x, y, P))


_ARG_PRIORS = {"eq33a": eq33a_upper, "eq33b": eq33b_upper, "eq34": eq34_upper,
               "hbv_combined": eq40_lower, "eq42": eq42_lower}


def arg_ratio_prior_bounds(nu: float, pair: ArgPair, variant: str) -> float:
    """One-sided argument-ratio bounds kept for comparison.

    eq33a:        (x/y)^(nu+1) >= ratio,                        nu > -3/2
    eq33b:        e^(x-y) (y/x)^nu >= ratio,                    nu >= 1/2
    eq34:         ((cosh x - 1)/(cosh y - 1)) (y/x)^nu >= ratio, nu >= 1/2
                  (equality exactly at nu = 1/2)
    hbv_combined: (cosh x/cosh y) (x/y)^(nu+1) sqrt(...) <= ratio, nu > -1/2 (eq40)
    eq42:         e^(x-y) ((y+nu)/(x+nu))^nu (x/y)^(nu+1) sqrt(...) <= ratio,
                  nu >= 0
    """
    if pair.degenerate:
        return 1.0
    if variant not in _ARG_PRIORS:
        raise DomainError(f"unknown variant {variant!r}")
    return _ARG_PRIORS[variant](nu, pair.x, pair.y, Point(nu, pair.x, pair.y))


def eq43_upper(nu, x, P):
    _check_nu(nu, nu >= -ORDER_TOL, "eq43", ">= 0")
    g = 3.0 * (2.0 * nu + 3.0)
    shift = nu * (math.log(nu) - P.log(x + nu)) if nu > 0.0 else 0.0
    log_out = shift + 0.5 * (math.log(g) - P.log(g + x * x)) \
        + (nu + 1.0) * P.of(math.log, "x") + x \
        - math.log(SQRT_PI) - nu * math.log(2.0) - math.lgamma(nu + 1.5)
    return P.exp(log_out)


def eq45_upper(nu, x, P):
    _check_nu(nu, nu > -0.5, "eq45", "> -1/2")
    if nu + 2.0 < GAMMA_ARG_MAX:
        coef = 2.0 * math.gamma(nu + 2.0) / (SQRT_PI * math.gamma(nu + 1.5))
    else:
        coef = 2.0 * math.exp(math.lgamma(nu + 2.0) - math.lgamma(nu + 1.5)) / SQRT_PI
    return coef * P.I(nu + 1.0)


def eq46_upper(nu, x, P):
    _check_nu(nu, nu > -0.5, "eq46", "> -1/2")
    r = P.hypot(x, nu + 1.0)
    log_out = 0.5 * math.log(2.0) + math.lgamma(nu + 2.0) - math.log(math.pi) \
        - math.lgamma(nu + 1.5) + r + 2.0 / r - 0.25 * P.log(x * x + (nu + 1.0) ** 2) \
        + (nu + 1.0) * (P.of(math.log, "x") - P.log(nu + 1.0 + r))
    return P.exp(log_out)


def pointwise_prior_upper(nu: float, x: float, variant: str) -> float:
    """One-sided pointwise upper bounds kept for comparison.

    eq43: simplification of the explicit upper bound,        nu >= 0
    eq45: Bessel cap 2 Gamma(nu+2)/(sqrt(pi) Gamma(nu+3/2)) I_{nu+1}(x),
          nu > -1/2
    eq46: fully explicit form obtained from the Bessel cap,  nu > -1/2
    """
    forms = {"eq43": eq43_upper, "eq45": eq45_upper, "eq46": eq46_upper}
    P = Point(nu, x)
    if variant not in forms:
        raise DomainError(f"unknown variant {variant!r}")
    return forms[variant](nu, x, P)


def a_nu_constant(nu: float) -> ANuConstant:
    """Large-x coefficient of the explicit pointwise upper bound:

    a_nu = sqrt(12/pi) sqrt(nu+3/2) / Gamma(nu+3/2) * (nu+1/2)^(nu+1/2) e^{-(nu+1/2)}

    It sits strictly inside its Stirling bracket for every nu > -1/2 and
    always exceeds 1/sqrt(2 pi).
    """
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"coefficient requires nu > -1/2, got {nu}")
    a = nu + 0.5
    log_a = 0.5 * math.log(12.0 / math.pi) + 0.5 * math.log(nu + 1.5) \
        - math.lgamma(nu + 1.5) + a * math.log(a) - a
    return ANuConstant(nu, math.exp(log_a))


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
    return math.exp(0.5 * math.log(2.0) + math.lgamma(nu + 2.0)
                    - math.log(math.pi) - math.lgamma(nu + 1.5))


def coefficient_crossover_nu(tol: float = 1e-4) -> float:
    """Order at which the two large-x coefficients coincide (about 2.521).

    Below the crossover the Bessel-route coefficient is the smaller one,
    above it the explicit-bound coefficient wins.  Located by bisection.
    """
    lo, hi = 1.0, 4.0
    f = lambda n: a_nu_constant(n).value - bessel_route_coefficient(n)
    flo = f(lo)
    while hi - lo > tol * 0.5:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
