"""Condition numbers C(f)(x) = x f'(x)/f(x) for L and I, with their brackets.

C(L_nu) is evaluated through the downward relation
C(L_nu)(x) = x L_{nu-1}(x)/L_nu(x) - nu, which is the single source of truth;
the upward relation C(L_nu)(x) = x L_{nu+1}(x)/L_nu(x) + nu + 2 b_nu(x) is
kept as a residual cross-check only.
"""

from __future__ import annotations

import math

from .brackets import Bracket
from .errors import DomainError
from .special_core import _L_FLOOR, Point


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x}")


def cond_L(nu, x, P):
    """C(L_nu)(x) = x L_{nu-1}(x)/L_nu(x) - nu, the downward relation."""
    return x * P.L(nu - 1.0, floor=_L_FLOOR) / P.L(nu) - nu


def eq28_lower(nu, x, P):
    """C(I_nu) = x I_{nu-1}/I_nu - nu < C(L_nu), valid nu >= 1/2."""
    return x * P.I(nu - 1.0) / P.I(nu) - nu


def cond_exact(kind: str, nu: float, x: float) -> float:
    """Reference condition number via the downward ratio; positive for L when
    nu >= -1, for I when nu >= 0."""
    _check_x(x)
    if kind not in ("L", "I"):
        raise DomainError(f"kind must be 'L' or 'I', got {kind!r}")
    return (cond_L if kind == "L" else eq28_lower)(nu, x, Point(nu, x))


def cond_upward_residual(nu: float, x: float) -> float:
    """|downward - upward| / |downward| for C(L); an identity residual."""
    down = cond_exact("L", nu, x)
    P = Point(nu, x)
    up = x * P.L(nu + 1.0) / P.L(nu) + nu + 2.0 * P.b(nu)
    return abs(down - up) / abs(down)


def eq28_upper(nu, x, P):
    return eq28_lower(nu, x, P) + 2.0 * P.b(nu)


def eq29_lower(nu, x, P):
    return P.hypot(nu - 0.5, x) - 0.5


def eq29_upper(nu, x, P):
    b0 = P.b(nu) if nu > -1.5 else math.nan
    return P.hypot(nu + b0, x) + b0


def eq30_lower(nu, x, P):
    b1 = P.b(nu + 1.0)
    return P.hypot(nu + 1.0 + b1, x) + 2.0 * P.b(nu) - b1 - 1.0


def eq30_upper(nu, x, P):
    return P.hypot(nu + 0.5, x) + 2.0 * P.b(nu) - 0.5


def eq31_lower(nu, x, P):
    return nu + 2.0 * P.b(nu) + x * x / (nu + 0.5 + 2.0 * P.b(nu + 1.0) + P.hypot(nu + 1.5, x))


def _eq27_small(nu: float, x: float) -> float:
    """eq27_upper for -3/2 < nu < -1/2 and x < 2, as hypot(nu+1, x sqrt(c)).

    The radicand is (nu+1)^2 + x^2 - (2 nu+1)(1 - 2b), and 1 - 2b cancels as
    b -> 1/2.  Here 1 - 2b = (L - t0)/L = q u/(1 + q u) with q = x^2/4, t0
    the first term of the L series and u = (L - t0)/(q t0) the series
    sum_{n>=1} q^(n-1) / prod_{k<=n} (k+1/2)(k+nu+1/2) of positive terms,
    so c = 1 - (2 nu+1) u / (4 (1 + q u)) >= 1 loses nothing.
    """
    q = 0.25 * x * x
    term = u = 1.0 / (1.5 * (nu + 1.5))
    k = 2
    while term > 1e-17 * u:
        term *= q / ((k + 0.5) * (k + nu + 0.5))
        u += term
        k += 1
    c = 1.0 - (2.0 * nu + 1.0) * u / (4.0 * (1.0 + q * u))
    return math.hypot(nu + 1.0, x * math.sqrt(c))


def _eq27(nu: float, x: float, rad: float) -> float:
    return _eq27_small(nu, x) if x < 2.0 else math.sqrt(rad)


def eq27_upper(nu, x, P):
    """sqrt(x^2 + nu^2 + 2(2 nu+1) b); _eq27_small where the sum cancels."""
    rad = x * x + nu * nu + 2.0 * (2.0 * nu + 1.0) * P.b(nu)
    return P.sqrt(rad) if nu >= -0.5 else P.map(_eq27, nu, x, rad)


def cond_bracket_via_bessel(nu: float, x: float) -> Bracket:
    """C(I_nu) < C(L_nu) < C(I_nu) + 2 b_nu(x).

    Lower side valid nu >= 1/2, upper side valid nu >= -1/2.
    """
    from .registry import bracket
    return bracket("eq28_lower", "eq28_upper", nu, x)


_SQRT_BRACKETS = {"eq29": ("eq29_lower", "eq29_upper"), "eq30": ("eq30_lower", "eq30_upper"),
                  "eq31": ("eq31_lower", ""), "apti": ("", "eq27_upper")}


def cond_bracket_sqrt(nu: float, x: float, variant: str) -> Bracket:
    """Algebraic brackets for C(L_nu), one per published inequality.

    eq29:  [sqrt((nu-1/2)^2+x^2) - 1/2, sqrt((nu+b)^2+x^2) + b]
           lower nu >= 1/2, upper nu >= -1/2
    eq30:  [sqrt((nu+1+b')^2+x^2) + 2b - b' - 1, sqrt((nu+1/2)^2+x^2) + 2b - 1/2]
           lower nu >= -1, upper nu >= -1/2   (b' = b at order nu+1)
    eq31:  lower only: nu + 2b + x^2/(nu + 1/2 + 2b' + sqrt((nu+3/2)^2+x^2)),
           nu >= -1
    apti:  upper only: sqrt(x^2 + nu^2 + 2(2 nu+1) b), nu > -3/2 (eq27)
    prior: lower only: max of nu+1 (nu > -3/2) and the hyperbolic
           x coth(x/2) - nu (nu >= 1/2, equality at nu = 1/2); see
           prior_lower_bound for the individual members.
    """
    from .registry import REGISTRY, bracket
    _check_x(x)
    if variant in _SQRT_BRACKETS:
        return bracket(*_SQRT_BRACKETS[variant], nu, x)
    if variant != "prior":
        raise DomainError(f"unknown variant {variant!r}")
    candidates = [(PRIORS[name](nu, x, Point(nu, x)), name) for name in PRIORS
                  if REGISTRY[name].valid_at(nu)]
    if not candidates:
        return Bracket(-math.inf, math.inf, False, False, "", "")
    lower, name = max(candidates)
    return Bracket(lower, math.inf, True, False, name, "")


def _x_coth_half(x: float) -> float:
    # x coth(x/2) = 2 in double precision below x = 1e-8, where x/2 may underflow
    return 2.0 if x < 1e-8 else x / math.tanh(0.5 * x)


def _check_prior(nu: float, name: str) -> None:
    from .registry import REGISTRY
    if not REGISTRY[name].valid_at(nu):
        raise DomainError(f"{name} is not valid at nu={nu}")


def prior_nup1(nu, x, P):
    _check_prior(nu, "prior_nup1")
    return nu + 1.0


def prior_xminus(nu, x, P):
    _check_prior(nu, "prior_xminus")
    return x - nu


def prior_coth(nu, x, P):
    _check_prior(nu, "prior_coth")
    return P.map(_x_coth_half, x) - nu


PRIORS = {f.__name__: f for f in (prior_nup1, prior_xminus, prior_coth)}


def prior_lower_bound(nu: float, x: float, name: str) -> float:
    """Earlier lower bounds kept for dominance comparisons.

    prior_nup1:   nu + 1,              nu > -3/2
    prior_xminus: x - nu,              nu >= 1/2
    prior_coth:   x coth(x/2) - nu,    nu >= 1/2 (equality at nu = 1/2)
    """
    _check_x(x)
    if name not in PRIORS:
        raise DomainError(f"unknown prior bound {name!r}")
    return PRIORS[name](nu, x, Point(nu, x))
