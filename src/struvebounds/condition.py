"""Condition numbers C(f)(x) = x f'(x)/f(x) for L and I, and the registered
bounds on C(L).

C(L_nu) is evaluated through the downward relation
C(L_nu)(x) = x L_{nu-1}(x)/L_nu(x) - nu, which is the single source of truth;
the upward relation C(L_nu)(x) = x L_{nu+1}(x)/L_nu(x) + nu + 2 b_nu(x) is
kept as a residual cross-check only.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .special_core import _L_FLOOR, MIN_ORDER, ORDER_TOL, Point


def _check_reads_below(kind: str, nu: float, floor: float, need: str) -> None:
    """Name the caller's nu, not the order nu - 1, when f_{nu-1} is out of range."""
    if nu - 1.0 < floor - ORDER_TOL:
        raise DomainError(f"the condition number of {kind}_nu reads {kind}_(nu-1), summed "
                          f"for nu-1 >= {floor}, so it needs {need}; got nu={nu}")


def cond_L(nu, x, P):
    """C(L_nu)(x) = x L_{nu-1}(x)/L_nu(x) - nu, the downward relation."""
    _check_reads_below("L", nu, _L_FLOOR, "nu > -3/2")
    return x * P.L(nu - 1.0, floor=_L_FLOOR) / P.L(nu) - nu


def eq28_lower(nu, x, P):
    """C(I_nu) = x I_{nu-1}/I_nu - nu < C(L_nu), valid nu >= 1/2."""
    _check_reads_below("I", nu, MIN_ORDER, "nu >= -1/2")
    return x * P.I(nu - 1.0) / P.I(nu) - nu


def cond_exact(kind: str, nu: float, x: float) -> float:
    """Reference condition number via the downward ratio; positive for L when
    nu >= -1, for I when nu >= 0."""
    P = Point(nu, x)
    if kind not in ("L", "I"):
        raise DomainError(f"kind must be 'L' or 'I', got {kind!r}")
    return (cond_L if kind == "L" else eq28_lower)(nu, x, P)


def cond_upward_residual(nu: float, x: float) -> float:
    """|downward - upward| / |downward| for C(L); an identity residual."""
    down = cond_exact("L", nu, x)
    P = Point(nu, x)
    up = x * P.L(nu + 1.0) / P.L(nu) + nu + 2.0 * P.b(nu)
    return abs(down - up) / abs(down)


def eq28_upper(nu, x, P):
    """C(I_nu) + 2 b_nu(x) > C(L_nu), valid nu >= -1/2."""
    return eq28_lower(nu, x, P) + 2.0 * P.b(nu)


def eq29_lower(nu, x, P):
    """sqrt((nu-1/2)^2 + x^2) - 1/2 < C(L_nu), valid nu >= 1/2."""
    return P.hypot(nu - 0.5, x) - 0.5


def eq29_upper(nu, x, P):
    """sqrt((nu+b)^2 + x^2) + b > C(L_nu), valid nu >= -1/2."""
    b0 = P.b(nu) if nu > -1.5 else math.nan
    return P.hypot(nu + b0, x) + b0


def eq30_lower(nu, x, P):
    """sqrt((nu+1+b')^2 + x^2) + 2b - b' - 1 < C(L_nu), b' = b_{nu+1},
    valid nu >= -1."""
    b1 = P.b(nu + 1.0)
    return P.hypot(nu + 1.0 + b1, x) + 2.0 * P.b(nu) - b1 - 1.0


def eq30_upper(nu, x, P):
    """sqrt((nu+1/2)^2 + x^2) + 2b - 1/2 > C(L_nu), valid nu >= -1/2."""
    return P.hypot(nu + 0.5, x) + 2.0 * P.b(nu) - 0.5


def eq31_lower(nu, x, P):
    """nu + 2b + x^2/(nu + 1/2 + 2b' + sqrt((nu+3/2)^2 + x^2)) < C(L_nu),
    b' = b_{nu+1}, valid nu >= -1."""
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
    """sqrt(x^2 + nu^2 + 2(2 nu+1) b) > C(L_nu), valid nu > -3/2; _eq27_small
    where the sum cancels."""
    rad = x * x + nu * nu + 2.0 * (2.0 * nu + 1.0) * P.b(nu)
    return P.sqrt(rad) if nu >= -0.5 else P.map(_eq27, nu, x, rad)


def _x_coth_half(x: float) -> float:
    # x coth(x/2) = 2 in double precision below x = 1e-8, where x/2 may underflow
    return 2.0 if x < 1e-8 else x / math.tanh(0.5 * x)


def _check_prior(nu: float, name: str) -> None:
    from .registry import REGISTRY
    if not REGISTRY[name].valid_at(nu):
        raise DomainError(f"{name} is not valid at nu={nu}")


def prior_nup1(nu, x, P):
    """nu + 1 < C(L_nu), valid nu > -3/2 (an earlier bound)."""
    _check_prior(nu, "prior_nup1")
    return nu + 1.0


def prior_xminus(nu, x, P):
    """x - nu < C(L_nu), valid nu >= 1/2 (an earlier bound)."""
    _check_prior(nu, "prior_xminus")
    return x - nu


def prior_coth(nu, x, P):
    """x coth(x/2) - nu <= C(L_nu), valid nu >= 1/2, equality at 1/2 (an earlier
    bound)."""
    _check_prior(nu, "prior_coth")
    return P.of(_x_coth_half, "x") - nu
