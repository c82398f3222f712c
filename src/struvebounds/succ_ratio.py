"""Two-sided bounds for the successive-order ratio h_nu(x) = L_nu(x)/L_{nu-1}(x).

The central device: for the modified Bessel ratio r = I_nu/I_{nu-1},

    (1/r + 2 b_nu(x)/x)^{-1}  <  h_nu(x)  <  r,

(lower side nu >= 0, upper side nu >= 1/2), which converts any published
Bessel-ratio bound into a Struve-ratio bound.  The remaining bounds come
from the Turan inequality and the monotonicity of the ratio in the order,
plus one step of refinement through the three-term recurrence.  Each
registered bound is one formula f(nu, x, P) over a special_core.Point or
rows.Row P, reached by id through the registry.  The public functions here
are the Bessel-side bounds, the transfer map and the refinement step; the
tightest bracket over the registered bounds is registry.best_bracket.  The
exact product difference is exact_value("product_diff_L", nu, x), which
reads product_diff.
"""

from __future__ import annotations

import math

from .brackets import Bracket, in_order
from .errors import DomainError, InvalidBracket
from .special_core import ORDER_TOL, Point


def _check_nu(nu: float, floor: float, what: str) -> None:
    if nu < floor - ORDER_TOL:
        raise DomainError(f"{what} requires nu >= {floor:g}, got {nu}")


def _x_over(x: float, d: float) -> float:
    """x / d, or +inf where d rounds to 0 (at small x, where x/d -> +inf)."""
    return x / d if d else math.inf


def _inverse_sum(r: float, t: float) -> float:
    return 1.0 / (1.0 / r + t) if r else 0.0


def _transfer(nu, x, r, P):
    return P.map(_inverse_sum, r, 2.0 * P.b(nu) / x)


def transfer_lower(nu: float, x: float, r: float) -> float:
    """The transfer theorem: a lower bound r on I_nu/I_{nu-1} gives the
    lower bound (1/r + 2 b_nu(x)/x)^{-1} on h_nu, valid where r is and
    nu >= 0.  The map increases in r; r = 0 gives 0."""
    return _transfer(nu, x, r, Point(x))


def _bessel_sqrt(nu, x, c, P):
    return P.map(_x_over, x, nu - 0.5 + P.hypot(c, x))


def bessel_ratio_bounds(nu: float, x: float) -> Bracket:
    """Algebraic bracket for I_nu(x)/I_{nu-1}(x).

    lower: x / (nu - 1/2 + sqrt((nu+1/2)^2 + x^2)), valid nu >= 0
    upper: x / (nu - 1/2 + sqrt((nu-1/2)^2 + x^2)), valid nu >= 1/2
    """
    P = Point(x)
    return Bracket(_bessel_sqrt(nu, x, nu + 0.5, P), _bessel_sqrt(nu, x, nu - 0.5, P),
                   nu >= -ORDER_TOL, nu >= 0.5 - ORDER_TOL,
                   "bessel_sqrt_lower", "bessel_sqrt_upper")


def _bessel_tanh(nu, x, P):
    if nu <= 0.5:
        raise DomainError(f"tanh lower bound requires nu > 1/2, got {nu}")
    t = P.tanh(x)
    return x * t / (x + (2.0 * nu - 1.0) * t)


def bessel_ratio_lower_tanh(nu: float, x: float) -> float:
    """Hyperbolic lower bound x tanh(x) / (x + (2 nu-1) tanh(x)) for
    I_nu/I_{nu-1}, valid nu > 1/2."""
    return _bessel_tanh(nu, x, Point(x))


def product_diff(nu, x, P):
    """I_nu L_{nu-1} - I_{nu-1} L_nu as I_nu M_{nu-1} - I_{nu-1} M_nu (the e^x
    parts cancel exactly), accurate where the direct form loses every digit."""
    _check_nu(nu, -0.5, "product difference")
    return P.I(nu) * P.M(nu - 1.0) - P.I(nu - 1.0) * P.M(nu)


def eq14_positivity(nu, x, P):
    return 0.0


def eq15_upper(nu, x, P):
    """(x/2)^nu I_nu / (sqrt(pi) Gamma(nu+3/2)) >= product_diff, nu >= -1/2."""
    _check_nu(nu, -0.5, "eq15 cap")
    return P.a(nu) * P.I(nu)


def eq16_upper(nu, x, P):
    """(x/2)^(nu-1) I_{nu-1} / (sqrt(pi) Gamma(nu+1/2)) >= product_diff, nu >= 3/2."""
    _check_nu(nu, 1.5, "eq16 cap")
    return P.a(nu - 1.0) * P.I(nu - 1.0)


def eq17_upper(nu, x, P):
    """I_nu/I_{nu-1} > h_nu, valid nu >= 1/2."""
    _check_nu(nu, -0.5, "Bessel-ratio bracket")
    return P.I(nu) / P.I(nu - 1.0)


def eq17_lower(nu, x, P):
    """(I_{nu-1}/I_nu + 2 b_nu(x)/x)^{-1} < h_nu, valid nu >= 0: the transfer
    of the exact Bessel ratio."""
    return _transfer(nu, x, eq17_upper(nu, x, P), P)


def eq18_lower(nu, x, P):
    """x / (nu - 1/2 + 2 b_nu(x) + sqrt((nu+1/2)^2 + x^2)) < h_nu, nu >= 0."""
    # bessel_ratio_bounds' lower side transferred, written out: it rounds
    # within 3 ulps of _transfer, and perfbench/reference.json holds it to 1e-12
    if nu <= -1.5:
        return math.nan
    return x / (nu - 0.5 + 2.0 * P.b(nu) + P.hypot(nu + 0.5, x))


def eq18_upper(nu, x, P):
    """x / (nu - 1/2 + sqrt((nu-1/2)^2 + x^2)) > h_nu, nu >= 1/2: the upper
    side of bessel_ratio_bounds."""
    return _bessel_sqrt(nu, x, nu - 0.5, P)


def eq19_lower(nu, x, P):
    """x tanh(x) / (x + (2 nu-1) tanh(x) + 2 b_nu(x) tanh(x)) < h_nu, nu > 1/2:
    the transfer of bessel_ratio_lower_tanh."""
    return _transfer(nu, x, _bessel_tanh(nu, x, P), P)


def eq20_upper(nu, x, P):
    """tanh(x/2) >= h_nu for nu >= 1/2, with equality exactly at nu = 1/2."""
    _check_nu(nu, 0.5, "tanh(x/2) upper bound")
    return P.tanh(0.5 * x)


def eq21_lower(nu, x, P):
    """Turan-derived lower bound x / (nu + b + sqrt((nu+b)^2 + x^2)), nu >= -1/2."""
    _check_nu(nu, -0.5, "Turan lower bound")
    c = nu + P.b(nu)
    return x / (c + P.hypot(c, x))


def eq22_lower(nu, x, P):
    """x tanh(x/2) / (x + (2 nu-1) tanh(x/2) + 2 (b_nu - b_{1/2}) tanh(x/2)),
    from the monotonicity in the order; valid nu >= 1/2, equality at 1/2."""
    _check_nu(nu, 0.5, "tanh(x/2) lower bound")
    t = P.tanh(0.5 * x)
    gap = P.b(nu) - P.b(0.5)
    return x * t / (x + (2.0 * nu - 1.0) * t + 2.0 * gap * t)


def eq24_upper(nu, x, P):
    """x / (nu - 1 + 2 b_nu - b_{nu+1} + sqrt((nu+1+b_{nu+1})^2 + x^2)) > h_nu,
    nu >= 0: ratio_refine_step's map on eq21_lower at nu+1, written out for
    the reason given at eq18_lower."""
    _check_nu(nu, 0.0, "refined upper bound")
    b1 = P.b(nu + 1.0)
    return x / (nu - 1.0 + 2.0 * P.b(nu) - b1 + P.hypot(nu + 1.0 + b1, x))


def ratio_refine_step(nu: float, x: float, next_bracket: Bracket) -> Bracket:
    """Map a bracket for h_{nu+1} to one for h_nu via
    h_nu = 1 / (2 nu/x + 2 b_nu/x + h_{nu+1}).

    The map is decreasing, so the sides swap roles: an upper bound on
    h_{nu+1} becomes a lower bound on h_nu and vice versa.  Sides out of
    order by more than Bracket's slop are refused, so any bracket
    best_bracket returns (whose sides may meet within an ulp) is taken.
    """
    P = Point(x)
    if nu < -ORDER_TOL:
        raise DomainError(f"refinement step requires nu >= 0, got {nu}")
    if not in_order(next_bracket.lower, next_bracket.upper):
        raise InvalidBracket(
            f"bracket sides out of order: [{next_bracket.lower}, {next_bracket.upper}]"
        )
    base = (2.0 * nu + 2.0 * P.b(nu)) / x
    lower = 1.0 / (base + next_bracket.upper)
    upper = 1.0 / (base + next_bracket.lower)
    return Bracket(lower, upper, next_bracket.upper_valid, next_bracket.lower_valid,
                   f"refine({next_bracket.upper_id})", f"refine({next_bracket.lower_id})")


def best_bracket(nu: float, x: float, target: str = "succ_ratio_L") -> Bracket:
    """registry.best_bracket, kept here only for perfbench/worker.py's bracket
    op; the next benchmark change (ROADMAP item 3) deletes it."""
    from .registry import best_bracket
    return best_bracket(nu, x, target)
