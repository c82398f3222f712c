"""Reference evaluation of I_nu, L_nu and M_nu = L_nu - I_nu.

Power-series evaluators with compensated summation and explicit truncation
metadata, elementary closed forms at half-integer orders, and leading small-x
and large-x asymptotics.

bessel_i and struve_l keep nothing: each call sums its series afresh with
the scalar kernel _series, and sweeps sum theirs with rows.fill_series_row.
Nothing is configurable: the truncation target REL_TOL, the overflow guard
X_MAX and the term cap MAX_TERMS are constants.  Up to x = X_MAX every
series meets REL_TOL within 407 terms (the most is at order -2.49,
x = 600), so the cap of 500 is a safety net: a series that reaches it
raises ConvergenceError.

Point holds the primitives every bound formula reads at one point: I, L and
M at any order, the kernel b (kernel_b) and the recurrence term, computed
on first use and kept for the life of the object; it is the package's one
scalar cache, and the registry reuses the Point of its last call.  rows.Row
is the same over numpy lanes.  Only the tanh-sinh rule uses arrays here,
and it imports numpy on first use, so most point queries never load it.

M_nu is the difference of two functions that grow like e^x while M itself
grows only like a power of x, so once the direct difference would cancel it
is recomputed from the decaying integral

    M_nu(x) = -2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt

with a fixed tanh-sinh (double-exponential) rule, Takahasi & Mori, Publ.
RIMS 9 (1974).  Subtracting the endpoint behaviour at t = 1 analytically
continues the integral to -3/2 < nu <= -1/2.

The quadrature oracle sums the same integral at -x and at x with the same
rule, since cosh and sinh of xt are half-sums of e^(xt) and e^(-xt):

    I_nu(x) = 2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) cosh(xt) dt
    L_nu(x) = 2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) sinh(xt) dt

valid for nu > -1/2.  It shares no code with the series route and never
feeds it or the stable M route, so it stays usable as an independent
cross-check of the series.
"""

from __future__ import annotations

import math
import sys
from functools import cache

from .brackets import Record, _set
from .errors import ConvergenceError, DomainError, OverflowRisk

SQRT_PI = math.sqrt(math.pi)

# Series evaluators accept orders down to -3/2; formulas may read L down to
# _L_FLOOR, just above -5/2, for the Turan product and condition numbers at
# low orders.  Positivity is only guaranteed for nu > -1 (I) and nu >= -1 (L).
MIN_ORDER = -1.5
_MIN_ORDER_EXTENDED = -2.5
# An order within ORDER_TOL of a range end, a pole or a special order counts
# as on it, here and in every bound module.
ORDER_TOL = 1e-12
_L_FLOOR = _MIN_ORDER_EXTENDED + ORDER_TOL * 10

# Series truncation target: stop once the next term drops below REL_TOL times
# the accumulated term magnitude.
REL_TOL = 1e-16
# Overflow guard shared by the series and the quadrature oracle: e^x nears
# the top of double range past about x = 709.
X_MAX = 600.0
# Hard cap on series terms; no series up to X_MAX needs more than 407.
MAX_TERMS = 500
# Past these, gamma factors and powers are formed in log space: math.gamma
# overflows just above 171.6, and e^690 is close to the top of double range.
GAMMA_ARG_MAX = 170.0
_LOG_MAG_MAX = 690.0
# A zero or subnormal leading term has lost its relative precision, and
# REL_TOL times it rounds to 0, so the series stop test could never fire.
_TINY = sys.float_info.min
_EPS = 2.0**-52


class FuncValue(Record):
    """An evaluated function value plus convergence metadata: a frozen
    record (brackets.Record), equal to another FuncValue with equal fields.

    est_rel_error is an a-posteriori estimate: twice the first omitted term
    relative to the accumulated sum for series, and for the integral routes
    (the oracle and the stable M route) the gap between the tanh-sinh rule
    at two step sizes plus a rounding allowance; each adds the rounding of
    its leading (x/2)^p / Gamma factor (_first_term_err), which grows with
    the order.  terms_used counts series terms, or integrand evaluations
    for integral routes.  cancellation marks results whose naive evaluation
    would lose more than six significant digits.
    """

    _fields = ("value", "terms_used", "est_rel_error", "cancellation")

    def __init__(self, value: float, terms_used: int, est_rel_error: float,
                 cancellation: bool = False):
        _set(self, "value", value)
        _set(self, "terms_used", terms_used)
        _set(self, "est_rel_error", est_rel_error)
        _set(self, "cancellation", cancellation)


def gamma_pos(a: float) -> float:
    """Gamma function restricted to positive arguments."""
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"gamma_pos requires a finite positive argument, got {a}")
    return math.gamma(a)


def _check_order(nu: float, floor: float) -> None:
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu}")
    if nu < floor - ORDER_TOL:
        raise DomainError(f"order {nu} below supported minimum {floor}")


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    if x > X_MAX:
        raise OverflowRisk(f"argument {x} exceeds x_max={X_MAX}")


def _leading_index(shift: float) -> int:
    """First series index whose gamma denominator is not at a pole.

    shift is nu+1 for the I series and nu+3/2 for the L series; the n-th term
    carries 1/Gamma(n+shift), which vanishes when n+shift is a nonpositive
    integer.
    """
    if shift > ORDER_TOL:
        return 0
    nearest = round(shift)
    if abs(shift - nearest) <= ORDER_TOL and nearest <= 0:
        return 1 - int(nearest)
    return 0


def _first_term(power: float, g1_arg: float, g2_arg: float, x: float) -> float:
    """(x/2)^power / (Gamma(g1_arg) * Gamma(g2_arg)), with log-space fallback."""
    half_x = 0.5 * x
    if half_x == 0.0:
        raise DomainError(f"argument x={x} underflows: x/2 rounds to 0")
    log_mag = power * math.log(half_x)
    if abs(log_mag) < _LOG_MAG_MAX and g1_arg < GAMMA_ARG_MAX and g2_arg < GAMMA_ARG_MAX:
        return half_x**power / (math.gamma(g1_arg) * math.gamma(g2_arg))
    # math.lgamma returns log|Gamma|; Gamma is negative on (-1,0), (-3,-2), ...
    sign = 1.0
    for arg in (g1_arg, g2_arg):
        if arg < 0.0 and math.floor(arg) % 2 != 0:
            sign = -sign
    try:
        return sign * math.exp(log_mag - math.lgamma(g1_arg) - math.lgamma(g2_arg))
    except OverflowError:
        raise DomainError(
            f"leading term (x/2)^{power:g} / (Gamma({g1_arg:g}) Gamma({g2_arg:g})) "
            f"overflows at x={x}") from None


def _gamma_pair(g1_arg: float, g2_arg: float) -> tuple[float, float]:
    """Gamma(g1_arg) Gamma(g2_arg) and its rounding weight, or (0, 0) once an
    argument reaches GAMMA_ARG_MAX.  The weight stands for the sum of the
    |log-gammas|: only log-gammas of arguments in (1, 2) are negative, and
    above -0.13, so |log of the product| + 1/4 bounds that sum."""
    if g1_arg >= GAMMA_ARG_MAX or g2_arg >= GAMMA_ARG_MAX:
        return 0.0, 0.0
    gammas = math.gamma(g1_arg) * math.gamma(g2_arg)
    return gammas, abs(math.log(abs(gammas))) + 0.25


def _first_term_err(power: float, g1_arg: float, g2_arg: float,
                    x: float) -> tuple[float, float]:
    """_first_term and its relative rounding: the power and the gammas are
    exponentials of logs whose arguments are rounded, so eps times the
    magnitudes of log (x/2)^power and of the log-gammas."""
    half_x = 0.5 * x
    log_mag = abs(power * math.log(half_x)) if half_x > 0.0 else math.inf
    gammas, weight = _gamma_pair(g1_arg, g2_arg)
    if gammas != 0.0 and log_mag < _LOG_MAG_MAX:
        return half_x**power / gammas, _EPS * (log_mag + weight)
    term = _first_term(power, g1_arg, g2_arg, x)  # raises where x/2 underflows
    return term, _EPS * (log_mag + abs(math.lgamma(g1_arg)) + abs(math.lgamma(g2_arg)))


def _series_setup(kind: str, nu: float) -> tuple[float, float, float, int]:
    """(g1, shift, power0, n0): the n-th term of the series is
    (x/2)^(2n+power0) / (Gamma(n+g1) Gamma(n+shift)), summed from n = n0."""
    if kind == "I":
        g1, shift, power0 = 1.0, nu + 1.0, nu
    elif kind == "L":
        g1, shift, power0 = 1.5, nu + 1.5, nu + 1.0
    else:
        raise DomainError(f"kind must be 'I' or 'L', got {kind!r}")
    return g1, shift, power0, _leading_index(shift)


def _series(kind: str, nu: float, x: float) -> tuple[float, int, float]:
    """Sum the defining power series of I_nu (kind 'I') or L_nu (kind 'L').

    Terms are generated by the ratio recurrence, accumulated with Kahan
    compensation, and truncated once the next term falls below REL_TOL times
    the accumulated term magnitude.  Returns (value, terms_used,
    est_rel_error), the estimate being twice the first omitted term relative
    to the sum plus the rounding of the leading term.  A series that does
    not converge within MAX_TERMS raises ConvergenceError; a leading term
    that underflows raises DomainError rather than running to the cap.
    """
    g1, shift, power0, n0 = _series_setup(kind, nu)
    term, lead_err = _first_term_err(2 * n0 + power0, n0 + g1, n0 + shift, x)
    mag = abs(term)
    if mag < _TINY:
        raise DomainError(f"{kind}-series leading term underflows at nu={nu}, x={x}")

    q = 0.25 * x * x
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    for n in range(n0, n0 + MAX_TERMS):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += mag
        term = term * q / ((n + g1) * (n + shift))
        mag = abs(term)
        if mag < REL_TOL * abs_total:
            est = 2.0 * mag / abs(total) if total != 0.0 else mag
            return total, n + 1 - n0, est + lead_err
    raise ConvergenceError(
        f"{kind}-series for nu={nu}, x={x} did not reach rel_tol={REL_TOL} "
        f"within {MAX_TERMS} terms"
    )


def bessel_i(nu: float, x: float) -> FuncValue:
    """Modified Bessel function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-1);
    positivity holds for nu > -1.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x)
    return FuncValue(*_series("I", nu, x))


def struve_l(nu: float, x: float) -> FuncValue:
    """Modified Struve function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-3/2);
    positivity holds for all nu > -3/2, x > 0.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x)
    return FuncValue(*_series("L", nu, x))


def iv_value(nu: float, x: float) -> float:
    """Value-only shortcut for bessel_i."""
    return bessel_i(nu, x).value


def lv_value(nu: float, x: float) -> float:
    """Value-only shortcut for struve_l."""
    return struve_l(nu, x).value


def recurrence_term(nu: float, x: float) -> float:
    """Inhomogeneous term (x/2)^nu / (sqrt(pi) Gamma(nu+3/2)) of the three-term
    recurrence satisfied by L; in log space once the gamma or the power
    would overflow."""
    if nu + 1.5 < GAMMA_ARG_MAX:
        try:
            return (0.5 * x) ** nu / (SQRT_PI * math.gamma(nu + 1.5))
        except (OverflowError, ZeroDivisionError):  # from the power
            pass
    return _first_term(nu, nu + 1.5, 1.0, x) / SQRT_PI


def half_integer_closed(kind: str, nu: float, x: float) -> float:
    """Elementary closed forms at orders -3/2, -1/2 and 1/2."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    pref = math.sqrt(2.0 / (math.pi * x))
    key = None
    for target in (-1.5, -0.5, 0.5):
        if abs(nu - target) <= ORDER_TOL:
            key = target
    if key is None or kind not in ("I", "L"):
        raise DomainError(f"no closed form for kind={kind!r}, nu={nu}")
    if kind == "I":
        if key == 0.5:
            return pref * math.sinh(x)
        if key == -0.5:
            return pref * math.cosh(x)
        return pref * (math.sinh(x) - math.cosh(x) / x)
    if key == 0.5:
        s = math.sinh(0.5 * x)
        return pref * 2.0 * s * s
    if key == -0.5:
        return pref * math.sinh(x)
    return pref * _cosh_minus_sinhc(x)


def _cosh_minus_sinhc(x: float) -> float:
    """cosh(x) - sinh(x)/x, series-based below x=0.5 to dodge cancellation."""
    if x >= 0.5:
        return math.cosh(x) - math.sinh(x) / x
    # sum_{k>=1} x^{2k} * 2k / (2k+1)!
    total = 0.0
    term = x * x / 3.0
    k = 1
    while abs(term) > 1e-18 * (total if total else 1.0):
        total += term
        k += 1
        term *= x * x * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
    return total


def asym_large_x(kind: str, nu: float, x: float) -> float:
    """Three-term large-argument expansion shared by I and L:
    e^x / sqrt(2 pi x) * (1 - (4 nu^2-1)/(8x) + (4 nu^2-1)(4 nu^2-9)/(128 x^2)).
    """
    if kind not in ("I", "L"):
        raise DomainError(f"kind must be 'I' or 'L', got {kind!r}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    m = 4.0 * nu * nu
    corr = 1.0 - (m - 1.0) / (8.0 * x) + (m - 1.0) * (m - 9.0) / (128.0 * x * x)
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * corr


def small_x_leading(kind: str, nu: float, x: float) -> float:
    """Leading small-argument behaviour.

    I: x^nu / (2^nu Gamma(nu+1)), nu > -1.
    L: x^(nu+1) / (sqrt(pi) 2^nu Gamma(nu+3/2)) * (1 + x^2/(3(2 nu+3))), nu > -3/2.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    if kind == "I":
        if nu <= -1.0:
            raise DomainError(f"I leading term requires nu > -1, got {nu}")
        return _first_term(nu, 1.0, nu + 1.0, x)
    if kind == "L":
        if nu <= -1.5:
            raise DomainError(f"L leading term requires nu > -3/2, got {nu}")
        # Gamma(3/2) = sqrt(pi)/2 turns (x/2)^(nu+1) into (x/2)^nu x / sqrt(pi)
        lead = _first_term(nu + 1.0, 1.5, nu + 1.5, x)
        return lead * (1.0 + x * x / (3.0 * (2.0 * nu + 3.0)))
    raise DomainError(f"kind must be 'I' or 'L', got {kind!r}")


_CANCEL_FLAG_RATIO = 1e-6


# Tanh-sinh nodes on [0, 1]: t(u) = 1/(1 + exp(-pi sinh u)), u = k h.  Node k
# lies at distance r_k = 1/(1 + exp(pi sinh kh)) from t = 1 and node -k at the
# same distance from t = 0; keeping r_k rather than 1 - t resolves both ends
# to full relative precision.  |u| <= 3.5 puts the outermost nodes within
# 3e-23 of the ends, far below anything the integrands carry there.
_DE_STEP = 1.0 / 32.0
_DE_K = 112


@cache
def _de_halves():
    """The node set as (near-0 half, near-1 half), built on first use.

    Each half is (t, 1 - t, weights), where weights stacks the rule at step h
    over the rule at step 2h (every other node, double weight), so that
    weights @ f gives both sums at once.  The node at t = 1/2 is in the
    near-0 half.
    """
    import numpy as np
    k = np.arange(_DE_K + 1)
    u = k * _DE_STEP
    s = np.pi * np.sinh(u)
    r = 1.0 / (1.0 + np.exp(s))
    q = 1.0 / (1.0 + np.exp(-s))
    w = _DE_STEP * np.pi * np.cosh(u) * r * q  # h dt/du = h pi cosh(u) t (1-t)
    weights = np.stack([w, np.where(k % 2 == 0, 2.0 * w, 0.0)])
    return (r, q, weights), (q[1:], r[1:], weights[:, 1:])


_DE_NODES = 2 * _DE_K + 1


def _stable_integral(nu: float, x: float) -> tuple[float, float]:
    """J = int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt for nu > -3/2 and real x of
    either sign, and a bound on its absolute error.

    With a = nu - 1/2 and g(t) = (1+t)^a e^(-xt), the integrand is
    (1-t)^a g(t).  For a >= 0 it is bounded and is summed as it stands.  For
    a < 0 the weight (1-t)^a is unbounded at t = 1; the first two Taylor
    terms of g there, g(1) (1 + c (1-t)) with c = x - a/2, are integrated
    exactly, which continues J analytically to -2 < a < -1.  Near t = 1 the
    remainder g - g(1)(1 + c (1-t)) is formed from expm1 of
    log(g(t)/g(1)) = a log1p(-(1-t)/2) + x (1-t), near t = 0 directly.

    The error bound is the gap between the sums at steps h and 2h (the rule
    at step h is far closer than at 2h) plus rounding in the parts of J,
    which may cancel for orders below -1/2.
    """
    import numpy as np
    a = nu - 0.5
    (t0, d0, w0), (t1, d1, w1) = _de_halves()
    if a >= 0.0:
        f0 = np.exp(a * np.log(d0 * (1.0 + t0)) - x * t0)
        f1 = np.exp(a * np.log(d1 * (1.0 + t1)) - x * t1)
        ends = (0.0, 0.0)
    else:
        g1 = 2.0**a * math.exp(-x)
        c = x - 0.5 * a
        f0 = d0**a * ((1.0 + t0) ** a * np.exp(-x * t0) - g1 * (1.0 + c * d0))
        f1 = g1 * d1**a * (np.expm1(a * np.log1p(-0.5 * d1) + x * d1) - c * d1)
        # 1/(a+1) and 1/(a+2) are formed from nu, which keeps them accurate
        # next to the poles at nu = -1/2 and nu = -3/2
        ends = (g1 / (nu + 0.5), g1 * c / (nu + 1.5))
    fine, coarse = (w0 @ f0 + w1 @ f1).tolist()
    size = abs(ends[0]) + abs(ends[1]) + abs(fine)
    fine += ends[0] + ends[1]
    coarse += ends[0] + ends[1]
    return fine, abs(fine - coarse) + 4.0 * _EPS * size


def _quad_oracle(kind: str, nu: float, x: float) -> FuncValue:
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"integral representation requires nu > -1/2, got {nu}")
    _check_x(x)
    grow, grow_err = _stable_integral(nu, -x)
    decay, decay_err = _stable_integral(nu, x)
    raw = grow + decay if kind == "I" else grow - decay
    lead, lead_err = _first_term_err(nu, nu + 0.5, 1.0, x)
    # eps x |J(nu, -x)| covers e^(xt) taken at a rounded xt
    err = grow_err + decay_err + _EPS * x * abs(grow)
    est = (err / abs(raw) if raw != 0.0 else err) + lead_err
    return FuncValue(lead / SQRT_PI * raw, 2 * _DE_NODES, est)


def quad_oracle_i(nu: float, x: float) -> FuncValue:
    """I_nu from its integral representation (nu > -1/2), by the tanh-sinh
    rule of the stable M route."""
    return _quad_oracle("I", nu, x)


def quad_oracle_l(nu: float, x: float) -> FuncValue:
    """L_nu from its integral representation (nu > -1/2), by the tanh-sinh
    rule of the stable M route."""
    return _quad_oracle("L", nu, x)


def _mv_stable(nu: float, x: float) -> tuple[float, int, float]:
    """Cancellation-free evaluation of M_nu = L_nu - I_nu for nu >= -3/2.

    Closed forms at half-integer orders, elsewhere the decaying integral
    -2 (x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * J(nu, x) of _stable_integral.
    """
    pref = math.sqrt(2.0 / (math.pi * x))
    for target, form in (
        (0.5, lambda: pref * math.expm1(-x)),
        (-0.5, lambda: -pref * math.exp(-x)),
        (-1.5, lambda: pref * math.exp(-x) * (1.0 + 1.0 / x)),
    ):
        if abs(nu - target) <= ORDER_TOL:
            return form(), 0, 1e-15
    integral, err = _stable_integral(nu, x)
    lead, lead_err = _first_term_err(nu, nu + 0.5, 1.0, x)
    coef = -2.0 / SQRT_PI * lead
    est = (err / abs(integral) if integral != 0.0 else err) + lead_err
    return coef * integral, _DE_NODES, est


def _cancels(lv, iv):
    """struve_m's rule: L - I would lose more than six digits, so M takes
    the stable route.  Floats give a bool, numpy lanes a mask (rows.Row.M)."""
    scale = abs(lv) + abs(iv)
    return (scale != 0.0) & (abs(lv - iv) < _CANCEL_FLAG_RATIO * scale)


def _m_value(nu: float, x: float, lv: float, iv: float) -> float:
    """M from L and I by struve_m's rule."""
    return _mv_stable(nu, x)[0] if _cancels(lv, iv) else lv - iv


def struve_m(nu: float, x: float) -> FuncValue:
    """M_nu(x) = L_nu(x) - I_nu(x); negative for nu >= -1/2, x > 0.

    The direct difference loses all precision once x is moderately large (the
    two terms grow like e^x while M decays polynomially).  When the naive
    difference would cancel past six digits the cancellation flag is set and
    the value is recomputed through a cancellation-free route.
    """
    lv = struve_l(nu, x)
    iv = bessel_i(nu, x)
    if _cancels(lv.value, iv.value):
        value, neval, est = _mv_stable(nu, x)
        return FuncValue(value, neval, est, cancellation=True)
    diff = lv.value - iv.value
    scale = abs(lv.value) + abs(iv.value)
    est = (lv.est_rel_error + iv.est_rel_error + 2.2e-16) * scale / max(abs(diff), 1e-300)
    return FuncValue(diff, lv.terms_used + iv.terms_used, est, cancellation=False)


def mv_value(nu: float, x: float) -> float:
    """Value-only shortcut for struve_m."""
    return struve_m(nu, x).value


def ratio_succ_exact(kind: str, nu: float, x: float) -> float:
    """Successive-order ratio f_nu(x) / f_{nu-1}(x) from the reference evaluator.

    For kind 'M' both orders must give negative values, hence nu >= 1/2.
    """
    if kind not in ("I", "L", "M"):
        raise DomainError(f"kind must be 'I', 'L' or 'M', got {kind!r}")
    if kind == "M" and nu < 0.5 - ORDER_TOL:
        raise DomainError(f"M-ratio requires nu >= 1/2, got {nu}")
    f = getattr(Point(nu, x), kind)
    return f(nu) / f(nu - 1.0)


def recurrence_residuals(nu, x, P):
    """Residuals of the two three-term relations over a Point or Row P,
    normalized by L_{nu-1}.

    First:  |L_{nu-1} - L_{nu+1} - (2 nu/x) L_nu - a_nu|
    Second: |L_{nu-1} + L_{nu+1} - 2 L'_nu + a_nu|, with L' from the
    downward relation.  Requires nu > -1/2 so all three orders are in range.
    """
    if nu <= -0.5:
        raise DomainError(f"recurrence residuals need nu > -1/2, got {nu}")
    lm, l0, lp = P.L(nu - 1.0), P.L(nu), P.L(nu + 1.0)
    a = P.a(nu)
    r1 = abs(lm - lp - (2.0 * nu / x) * l0 - a) / lm
    deriv = lm - (nu / x) * l0
    return r1, abs(lm + lp - 2.0 * deriv + a) / lm


def recurrence_check(nu: float, x: float) -> tuple[float, float]:
    """recurrence_residuals at one point."""
    return recurrence_residuals(nu, x, Point(nu, x))


def kernel_b(nu: float, x: float, lv: float) -> float:
    """b_nu(x) from lv = L_nu(x): the direct quotient while it stays normal,
    else exp(log-numerator - log-denominator)."""
    if nu + 1.5 < GAMMA_ARG_MAX:
        try:
            q = (0.5 * x) ** (nu + 1.0) / (SQRT_PI * math.gamma(nu + 1.5) * lv)
        except OverflowError:  # from the power
            q = math.inf
        if 0.0 < q < math.inf:
            return q
    log_num = (nu + 1.0) * math.log(0.5 * x)
    log_den = math.log(SQRT_PI) + math.lgamma(nu + 1.5) + math.log(lv)
    return math.exp(log_num - log_den)


def _lazy(method):
    """Compute a primitive on its first request and keep it in self._got."""
    def get(self, *args, **kwargs):
        key = (method, args, *kwargs.items())
        got = self._got.get(key)
        if got is None:
            got = self._got[key] = method(self, *args, **kwargs)
        return got
    return get


_ELEMENTARY = ("log", "exp", "tanh", "hypot", "sqrt", "pow")


class Point:
    """The primitives bound formulas read at one order nu and argument x
    (and y for the argument ratio): I, L and M at any order, the kernel b
    and the recurrence term a, each computed on first use and kept; the
    registry reuses the Point of its last call.  The elementary functions
    are math's, map(f, *args) applies a scalar helper, of(f, *lanes) one to
    the named arguments (kept per Row), and where(cond, a, b) calls a or b,
    both zero-argument functions (a row calls both and selects lane by
    lane).  rows.Row has the same names over numpy lanes, so one formula
    f(nu, x, P) serves both.  The arguments are checked on construction:
    x (and y, with x <= y) finite and positive, and none above X_MAX, which
    raises the series' OverflowRisk even for a bound that reads no series.
    """

    log, exp, tanh, hypot, sqrt, pow = (staticmethod(getattr(math, n)) for n in _ELEMENTARY)
    map = staticmethod(lambda f, *args: f(*args))
    where = staticmethod(lambda cond, a, b: a() if cond else b())
    _positive = staticmethod(lambda v: math.isfinite(v) and v > 0.0)
    _ordered = staticmethod(lambda x, y: x <= y)
    _largest = staticmethod(lambda v: v)

    def __init__(self, nu: float, x, y=None):
        self.nu, self.x, self.y, self._got = nu, x, y, {}
        if not (self._positive(x) and (y is None or self._positive(y) and self._ordered(x, y))):
            raise DomainError(f"need finite 0 < x <= y, got x={x}, y={y}" if y is not None
                              else f"x must be a finite positive real, got {x}")
        _check_x(self._largest(x if y is None else y))

    @_lazy
    def I(self, order: float, at_y: bool = False):
        """I at order over x, or over y."""
        _check_order(order, MIN_ORDER)
        return self._series("I", order, at_y)

    def L(self, order: float, at_y: bool = False, floor: float = MIN_ORDER):
        """L at order over x, or over y; floor is the lowest order allowed.
        Calls with any floor share one value per (order, at_y)."""
        _check_order(order, floor)
        return self._L(order, at_y)

    @_lazy
    def _L(self, order, at_y):
        return self._series("L", order, at_y)

    def _series(self, kind, order, at_y):
        return _series(kind, order, self.y if at_y else self.x)[0]

    def of(self, f, *lanes: str):
        return f(*[getattr(self, n) for n in lanes])

    @_lazy
    def M(self, order: float):
        """struve_m's value from this object's own L and I, lane by lane."""
        return self.map(_m_value, order, self.x, self.L(order), self.I(order))

    @_lazy
    def a(self, order: float):
        """(x/2)^order / (sqrt(pi) Gamma(order+3/2))."""
        return self.map(recurrence_term, order, self.x)

    @_lazy
    def b(self, order: float):
        if not math.isfinite(order) or order <= -1.5:
            raise DomainError(f"kernel requires nu > -3/2, got {order}")
        return self.map(kernel_b, order, self.x, self.L(order))
