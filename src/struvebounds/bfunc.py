"""The correction kernel b_nu(x) = (x/2)^(nu+1) / (sqrt(pi) Gamma(nu+3/2) L_nu(x)).

b maps (0, inf) into (0, 1/2) for every order nu > -3/2, decreases in x and
increases in nu.  It starts as 1/2 - x^2 / (6(2 nu+3)) near x = 0 and decays
like x^(nu+3/2) e^{-x} / (2^(nu+1/2) Gamma(nu+3/2)).  It is the quantity that
turns every Bessel-ratio bound into a Struve-ratio bound, so its own
two-sided estimates live here.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .special_core import kernel_b, lv_value


def _check_nu(nu: float) -> None:
    if not math.isfinite(nu) or nu <= -1.5:
        raise DomainError(f"kernel requires nu > -3/2, got {nu}")


def _check_domain(nu: float, x: float) -> None:
    _check_nu(nu)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"kernel requires x > 0, got {x}")


def b_value(nu: float, x: float) -> float:
    """Kernel value; lies strictly inside (0, 1/2) for nu > -3/2, x > 0.

    Not cached: one L series, then special_core.kernel_b, a power, a
    gamma and one divide.  L > 0 on the whole domain.
    """
    _check_domain(nu, x)
    return kernel_b(nu, x, lv_value(nu, x))


def eq12_upper(nu, x, P):
    """Strict upper bound (1/2) (1 + x^2 / (3(2 nu+3)))^{-1}, nu > -3/2."""
    _check_nu(nu)
    return 0.5 / (1.0 + x * x / (3.0 * (2.0 * nu + 3.0)))


def _x_csch(scale: float, x: float, k: float) -> float:
    """scale * x / sinh(x/k) for x, k > 0.

    Below z = x/k = 1e-8, sinh(z) = z in double precision and the value is
    its limit scale * k (there scale * x may underflow, even to 0); past
    z ~ 710, where sinh overflows, it is 2 scale x e^(-z).
    """
    z = x / k
    if z < 1e-8:
        return scale * k
    c = scale * x
    return c / math.sinh(z) if z < 710.0 else 2.0 * c * math.exp(-z)


def _half_x_csch(x: float) -> float:
    """(x/2) csch(x), a function of x alone."""
    return _x_csch(0.5, x, 1.0)


def eq13_lower(nu, x, P):
    """(x/2) csch(x) <= b_nu(x), valid nu >= -1/2 (equality at -1/2); the
    comparison reverses below -1/2."""
    _check_nu(nu)
    return P.of(_half_x_csch, "x")


def eq13_upper(nu, x, P):
    """b_nu(x) < (x/4) csch(x/(2 nu+3)), valid nu >= -1/2.  It fails on
    (-1, -1/2) at small x: b_{-3/4}(1) = 0.404775 against the bound's
    0.348598."""
    _check_nu(nu)
    return P.map(_x_csch, 0.25, x, 2.0 * nu + 3.0)
