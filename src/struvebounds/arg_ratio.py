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

from .brackets import Bracket
from .errors import DomainError
from .special_core import GAMMA_ARG_MAX, SQRT_PI, iv_value, lv_value

_EQ_TOL = 1e-12


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


def arg_ratio_exact(nu: float, pair: ArgPair) -> float:
    """L_nu(x)/L_nu(y) from the reference evaluator; in (0, 1] for x <= y."""
    if pair.degenerate:
        return 1.0
    return lv_value(nu, pair.x) / lv_value(nu, pair.y)


def arg_ratio_bessel_bracket(nu: float, pair: ArgPair) -> Bracket:
    """Bracket through the Bessel argument ratio.

    lower: (x/y) sqrt((3(2 nu+3)+y^2)/(3(2 nu+3)+x^2)) * I_nu(x)/I_nu(y),
           valid nu >= -1/2
    upper: I_nu(x)/I_nu(y), valid nu >= 1/2
    """
    if pair.degenerate:
        return Bracket(1.0, 1.0, True, True, "eq37_lower", "eq37_upper")
    x, y = pair.x, pair.y
    r = iv_value(nu, x) / iv_value(nu, y)
    s = 3.0 * (2.0 * nu + 3.0)
    lower = (x / y) * math.sqrt((s + y * y) / (s + x * x)) * r
    return Bracket(lower, r, nu >= -0.5 - _EQ_TOL, nu >= 0.5 - _EQ_TOL,
                   "eq37_lower", "eq37_upper")


def _log_eq38_lower(nu: float, x: float, y: float) -> float:
    a = nu + 0.5
    sx, sy = math.hypot(a, x), math.hypot(a, y)
    s = 3.0 * (2.0 * nu + 3.0)
    out = (sx - sy) + (nu + 1.0) * (math.log(x) - math.log(y))
    out += 0.5 * (math.log(s + y * y) - math.log(s + x * x))
    if a > 0.0:
        out += a * (math.log(a + sy) - math.log(a + sx))
    return out


def _log_eq38_upper(nu: float, x: float, y: float) -> float:
    c = nu + 1.5
    tx, ty = math.hypot(c, x), math.hypot(c, y)
    out = (tx - ty) + _log_tanh_half(x) - _log_tanh_half(y)
    out += nu * (math.log(x) - math.log(y))
    out += c * (math.log(c + ty) - math.log(c + tx))
    return out


def arg_ratio_explicit_bracket(nu: float, pair: ArgPair) -> Bracket:
    """Fully explicit two-sided bound for L_nu(x)/L_nu(y), valid nu >= -1/2."""
    if nu < -0.5 - _EQ_TOL:
        raise DomainError(f"explicit argument-ratio bracket requires nu >= -1/2, got {nu}")
    if pair.degenerate:
        return Bracket(1.0, 1.0, True, True, "eq38_lower", "eq38_upper")
    x, y = pair.x, pair.y
    return Bracket(math.exp(_log_eq38_lower(nu, x, y)),
                   math.exp(_log_eq38_upper(nu, x, y)),
                   True, True, "eq38_lower", "eq38_upper")


def _log_eq39_lower(nu: float, x: float) -> float:
    c = nu + 1.5
    t = math.hypot(c, x)
    out = (t - c) - math.log(SQRT_PI) - (nu - 1.0) * math.log(2.0) - math.lgamma(c)
    out += nu * math.log(x) + _log_tanh_half(x)
    out += c * (math.log(2.0 * c) - math.log(c + t))
    return out


def _log_eq39_upper(nu: float, x: float) -> float:
    a = nu + 0.5
    s = math.hypot(a, x)
    g = 3.0 * (2.0 * nu + 3.0)
    out = (s - a) - math.log(SQRT_PI) - nu * math.log(2.0) - math.lgamma(nu + 1.5)
    out += (nu + 1.0) * math.log(x) + 0.5 * (math.log(g) - math.log(g + x * x))
    if a > 0.0:
        out += a * (math.log(2.0 * a) - math.log(a + s))
    return out


def pointwise_bracket(nu: float, x: float) -> Bracket:
    """Explicit two-sided bound for L_nu(x) itself, valid nu >= -1/2.

    Both sides are tight as x -> 0; as x -> infinity the upper side has the
    correct x^{-1/2} e^x order while the lower side is a factor of x low.
    """
    if nu < -0.5 - _EQ_TOL:
        raise DomainError(f"pointwise bracket requires nu >= -1/2, got {nu}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x}")
    return Bracket(math.exp(_log_eq39_lower(nu, x)),
                   math.exp(_log_eq39_upper(nu, x)),
                   True, True, "eq39_lower", "eq39_upper")


def arg_ratio_prior_bounds(nu: float, pair: ArgPair, variant: str) -> float:
    """One-sided argument-ratio bounds kept for comparison.

    eq33a:        (x/y)^(nu+1) >= ratio,                        nu > -3/2
    eq33b:        e^(x-y) (y/x)^nu >= ratio,                    nu >= 1/2
    eq34:         ((cosh x - 1)/(cosh y - 1)) (y/x)^nu >= ratio, nu >= 1/2
                  (equality exactly at nu = 1/2)
    hbv_combined: (cosh x/cosh y) (x/y)^(nu+1) sqrt(...) <= ratio, nu > -1/2
    eq42:         e^(x-y) ((y+nu)/(x+nu))^nu (x/y)^(nu+1) sqrt(...) <= ratio,
                  nu >= 0
    """
    x, y = pair.x, pair.y
    if pair.degenerate:
        return 1.0
    lx, ly = math.log(x), math.log(y)
    s = 3.0 * (2.0 * nu + 3.0)
    half_log = 0.5 * (math.log(s + y * y) - math.log(s + x * x))
    if variant == "eq33a":
        if nu <= -1.5:
            raise DomainError(f"eq33a requires nu > -3/2, got {nu}")
        return math.exp((nu + 1.0) * (lx - ly))
    if variant == "eq33b":
        if nu < 0.5 - _EQ_TOL:
            raise DomainError(f"eq33b requires nu >= 1/2, got {nu}")
        return math.exp((x - y) + nu * (ly - lx))
    if variant == "eq34":
        if nu < 0.5 - _EQ_TOL:
            raise DomainError(f"eq34 requires nu >= 1/2, got {nu}")
        log_num = math.log(2.0) + 2.0 * math.log(math.sinh(0.5 * x))
        log_den = math.log(2.0) + 2.0 * math.log(math.sinh(0.5 * y))
        return math.exp(log_num - log_den + nu * (ly - lx))
    if variant == "hbv_combined":
        if nu <= -0.5:
            raise DomainError(f"hbv_combined requires nu > -1/2, got {nu}")
        return math.exp(_log_cosh(x) - _log_cosh(y) + (nu + 1.0) * (lx - ly) + half_log)
    if variant == "eq42":
        if nu < -_EQ_TOL:
            raise DomainError(f"eq42 requires nu >= 0, got {nu}")
        shift = nu * (math.log(y + nu) - math.log(x + nu)) if nu > 0.0 else 0.0
        return math.exp((x - y) + shift + (nu + 1.0) * (lx - ly) + half_log)
    raise DomainError(f"unknown variant {variant!r}")


def pointwise_prior_upper(nu: float, x: float, variant: str) -> float:
    """One-sided pointwise upper bounds kept for comparison.

    eq43: simplification of the explicit upper bound,        nu >= 0
    eq45: Bessel cap 2 Gamma(nu+2)/(sqrt(pi) Gamma(nu+3/2)) I_{nu+1}(x),
          nu > -1/2
    eq46: fully explicit form obtained from the Bessel cap,  nu > -1/2
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x}")
    if variant == "eq43":
        if nu < -_EQ_TOL:
            raise DomainError(f"eq43 requires nu >= 0, got {nu}")
        g = 3.0 * (2.0 * nu + 3.0)
        shift = nu * (math.log(nu) - math.log(x + nu)) if nu > 0.0 else 0.0
        log_out = shift + 0.5 * (math.log(g) - math.log(g + x * x)) \
            + (nu + 1.0) * math.log(x) + x \
            - math.log(SQRT_PI) - nu * math.log(2.0) - math.lgamma(nu + 1.5)
        return math.exp(log_out)
    if variant == "eq45":
        if nu <= -0.5:
            raise DomainError(f"eq45 requires nu > -1/2, got {nu}")
        if nu + 2.0 < GAMMA_ARG_MAX:
            coef = 2.0 * math.gamma(nu + 2.0) / (SQRT_PI * math.gamma(nu + 1.5))
        else:
            coef = 2.0 * math.exp(math.lgamma(nu + 2.0) - math.lgamma(nu + 1.5)) / SQRT_PI
        return coef * iv_value(nu + 1.0, x)
    if variant == "eq46":
        if nu <= -0.5:
            raise DomainError(f"eq46 requires nu > -1/2, got {nu}")
        r = math.hypot(x, nu + 1.0)
        log_out = 0.5 * math.log(2.0) + math.lgamma(nu + 2.0) - math.log(math.pi) \
            - math.lgamma(nu + 1.5) + r + 2.0 / r - 0.25 * math.log(x * x + (nu + 1.0) ** 2) \
            + (nu + 1.0) * (math.log(x) - math.log(nu + 1.0 + r))
        return math.exp(log_out)
    raise DomainError(f"unknown variant {variant!r}")


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
