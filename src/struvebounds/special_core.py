"""Reference evaluation of I_nu, L_nu and M_nu = L_nu - I_nu.

Power-series evaluators with compensated summation and explicit truncation
metadata, elementary closed forms at half-integer orders, and the leading
large-x asymptotics.  A successive-order ratio is a registry path,
exact_value("succ_ratio_L", ...) for L and the bound eq17_upper for I,
M's value is struve_m(...).value, and the leading small-x term of either
series is the (x/2)^p / Gamma factor that _first_term forms.

bessel_i and struve_l keep nothing: each call sums its series afresh with
the scalar kernel _series, and sweeps sum theirs with rows.fill_series_row.
Nothing is configurable: the truncation target REL_TOL, the overflow guard
X_MAX and the term cap MAX_TERMS are constants.  Up to x = X_MAX every
series meets REL_TOL within 407 terms (the most is at order -2.49,
x = 600), so the cap of 500 is a safety net: a series that reaches it
raises ConvergenceError.

Point holds the primitives every bound formula reads at one argument: I, L
and M at any order, the kernel b (kernel_b) and the recurrence term, computed
on first use and kept for the life of the object in one flat dict, keyed by
the primitive's name, the order and, for I and L, whether it is read over y
(("L", order, at_y), ("b", order)), so a repeated read is one dict lookup.
It is the package's one scalar cache, and the registry reuses the Point of
its last call.  rows.Row is the same store over numpy lanes: it replaces
only the compute steps behind it.  This module loads no numpy: the
tanh-sinh rule below is math's exp summed by math.fsum over nodes built on
first use, and struve_m, rows.Row.M (lane by lane) and the quadrature
oracle all read it.

M_nu is the difference of two functions that grow like e^x while M itself
grows only like a power of x, so once the direct difference would cancel it
is recomputed from the decaying integral

    M_nu(x) = -2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt

with a fixed tanh-sinh (double-exponential) rule, Takahasi & Mori, Publ.
RIMS 9 (1974), of 225 nodes, of which those near t = 1 whose terms cannot
reach 2^-64 of the sum are skipped.  Subtracting the endpoint behaviour at
t = 1 analytically continues the integral to -3/2 < nu <= -1/2.

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
_LN2 = math.log(2.0)


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


def _log_half(x: float) -> float:
    """log(x/2) for x > 0, from log(x) where x/2 is subnormal, since halving
    a subnormal x rounds it (to 0 at the smallest)."""
    half_x = 0.5 * x
    return math.log(half_x) if half_x >= _TINY else math.log(x) - _LN2


def _first_term(power: float, g1_arg: float, g2_arg: float, x: float) -> float:
    """(x/2)^power / (Gamma(g1_arg) * Gamma(g2_arg)), with log-space fallback,
    which a subnormal x/2 takes too (_log_half)."""
    half_x = 0.5 * x
    log_mag = power * _log_half(x)
    if (half_x >= _TINY and abs(log_mag) < _LOG_MAG_MAX and g1_arg < GAMMA_ARG_MAX
            and g2_arg < GAMMA_ARG_MAX):
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
    log_mag = abs(power * _log_half(x))
    gammas, weight = _gamma_pair(g1_arg, g2_arg)
    if gammas != 0.0 and half_x >= _TINY and log_mag < _LOG_MAG_MAX:
        return half_x**power / gammas, _EPS * (log_mag + weight)
    term = _first_term(power, g1_arg, g2_arg, x)
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
    """Elementary closed forms at orders -3/2, -1/2 and 1/2.  A value past
    the double range raises OverflowRisk at large x, and DomainError for I
    at -3/2 at tiny x, as the series does there."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    pref = math.sqrt(2.0 / (math.pi * x))
    if pref == math.inf:  # 2/(pi x) overflows below x of about 3.5e-309
        pref = math.sqrt(2.0 / math.pi) / math.sqrt(x)
    key = None
    for target in (-1.5, -0.5, 0.5):
        if abs(nu - target) <= ORDER_TOL:
            key = target
    if key is None or kind not in ("I", "L"):
        raise DomainError(f"no closed form for kind={kind!r}, nu={nu}")
    try:
        if kind == "I":
            if key == 0.5:
                value = pref * math.sinh(x)
            elif key == -0.5:
                value = pref * math.cosh(x)
            else:
                value = pref * (math.sinh(x) - math.cosh(x) / x)
        elif key == 0.5:
            s = math.sinh(0.5 * x)
            value = pref * 2.0 * s * s
        elif key == -0.5:
            value = pref * math.sinh(x)
        else:
            value = pref * x * _cosh_minus_sinhc_over_x(x)
    except OverflowError:  # sinh or cosh past x of about 710.5
        value = math.inf
    # a float product that overflows raises nothing: L at 1/2 from x of about
    # 713, and I at -3/2, about -(2/pi)^(1/2) x^(-3/2), below x of about 2e-206,
    # where the series' leading term overflows too and raises DomainError
    if not math.isfinite(value):
        error = DomainError if x < 1.0 else OverflowRisk
        raise error(f"closed form of {kind} at order {key} overflows at x={x}")
    # nor does one that underflows: L at 1/2 and at -3/2, like x^(3/2), at
    # tiny x, where the series' leading term underflows too
    if abs(value) < _TINY:
        raise DomainError(f"closed form of {kind} at order {key} underflows at x={x}")
    return value


def _cosh_minus_sinhc_over_x(x: float) -> float:
    """(cosh(x) - sinh(x)/x) / x, series-based below x=0.5 to dodge
    cancellation, and without forming x^2, which underflows below x of
    about 1.5e-154."""
    if x >= 0.5:
        return (math.cosh(x) - math.sinh(x) / x) / x
    # sum_{k>=1} x^{2k-1} * 2k / (2k+1)!
    total = 0.0
    term = x / 3.0
    k = 1
    while term > 1e-18 * total:  # the terms are positive; a term of 0 ends the sum
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
    try:
        corr = 1.0 - (m - 1.0) / (8.0 * x) + (m - 1.0) * (m - 9.0) / (128.0 * x * x)
    except ZeroDivisionError:  # 128 x^2 underflows to 0
        corr = math.nan
    if not math.isfinite(corr):  # a huge order or a tiny x: the terms overflow
        raise OverflowRisk(f"large-x expansion's correction overflows at nu={nu}, x={x}")
    try:
        value = math.exp(x) / math.sqrt(2.0 * math.pi * x) * corr
    except OverflowError:  # e^x past x of about 709.8
        value = math.inf
    if not math.isfinite(value):  # or the product with a finite correction
        raise OverflowRisk(f"large-x expansion overflows at nu={nu}, x={x}")
    return value


_CANCEL_FLAG_RATIO = 1e-6


# Tanh-sinh nodes on [0, 1]: t(u) = 1/(1 + exp(-pi sinh u)), u = k h.  Node k
# lies at distance r_k = 1/(1 + exp(pi sinh kh)) from t = 1 and node -k at the
# same distance from t = 0; keeping r_k rather than 1 - t resolves both ends
# to full relative precision.  |u| <= 3.5 puts the outermost nodes within
# 3e-23 of the ends, far below anything the integrands carry there.
_DE_STEP = 1.0 / 32.0
_DE_K = 112
# Near t = 1 a decaying integrand's terms fall off double-exponentially;
# nodes are summed there a chunk at a time until the rest cannot reach
# _DE_NEGLIGIBLE times the near-0 half's sum.
_DE_CHUNK = 16
_DE_NEGLIGIBLE = 2.0**-64


@cache
def _de_nodes():
    """The node set, built on first use, with each node's x-independent logs.

    Returns (near0, near1) for orders nu >= 1/2 and the same for orders
    below, each half in the order of k (near0 from the node at t = 1/2,
    k = 0; near1 from k = 1), so the even k are near0[0::2] and near1[1::2]:
    the rule at step 2h is the even nodes at double weight.  For nu >= 1/2
    a node is (w, log((1-t)(1+t)), t); below, a near-0 node is
    (w, t, 1-t, log(1+t)) and a near-1 node (w, 1-t, log1p(-(1-t)/2)).
    Each near1 is cut into chunks of _DE_CHUNK nodes.
    """
    upper, lower = ([], []), ([], [])
    for k in range(_DE_K + 1):
        u = k * _DE_STEP
        s = math.pi * math.sinh(u)
        r = 1.0 / (1.0 + math.exp(s))
        q = 1.0 / (1.0 + math.exp(-s))
        w = _DE_STEP * math.pi * math.cosh(u) * r * q  # h dt/du = h pi cosh(u) t (1-t)
        upper[0].append((w, math.log(q * (1.0 + r)), r))
        lower[0].append((w, r, q, math.log(1.0 + r)))
        if k:
            upper[1].append((w, math.log(r * (1.0 + q)), q))
            lower[1].append((w, r, math.log1p(-0.5 * r)))
    return tuple((near0, [near1[i:i + _DE_CHUNK] for i in range(0, _DE_K, _DE_CHUNK)])
                 for near0, near1 in (upper, lower))


def _de_near1(terms, chunks, cut: float) -> list:
    """terms over the near-1 chunks in turn, stopping once the last term
    times the number of nodes left is below cut: the terms shrink
    monotonically toward t = 1 there."""
    out = []
    left = _DE_K
    for chunk in chunks:
        out += terms(chunk)
        left -= len(chunk)
        if abs(out[-1]) * left < cut:
            break
    return out


def _stable_integral(nu: float, x: float) -> tuple[float, float, int]:
    """J = int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt for nu > -3/2 and real x of
    either sign, a bound on its absolute error and the number of nodes
    summed.

    With a = nu - 1/2 and g(t) = (1+t)^a e^(-xt), the integrand is
    (1-t)^a g(t).  For a >= 0 it is bounded and is summed as it stands.  For
    a < 0 the weight (1-t)^a is unbounded at t = 1; the first two Taylor
    terms of g there, g(1) (1 + c (1-t)) with c = x - a/2, are integrated
    exactly, which continues J analytically to -2 < a < -1.  Near t = 1 the
    remainder g - g(1)(1 + c (1-t)) is formed from expm1 of
    log(g(t)/g(1)) = a log1p(-(1-t)/2) + x (1-t), near t = 0 directly.

    For x > 0 the near-1 nodes stop where the rest of them sum to less than
    _DE_NEGLIGIBLE times the near-0 half (_de_near1).  The rule at step h
    and at 2h are each summed by math.fsum; the error bound is the gap
    between them (the rule at step h is far closer than at 2h) plus
    rounding in the parts of J, which may cancel for orders below -1/2.
    """
    a = nu - 0.5
    exp = math.exp
    if a >= 0.0:
        near0, near1 = _de_nodes()[0]

        def terms(nodes):
            return [w * exp(a * lg - x * t) for w, lg, t in nodes]
        p0 = terms(near0)
        ends = (0.0, 0.0)
    else:
        near0, near1 = _de_nodes()[1]
        g1 = 2.0**a * math.exp(-x)
        c = x - 0.5 * a
        expm1 = math.expm1
        p0 = [w * (d**a * (exp(a * lp - x * t) - g1 * (1.0 + c * d))) for w, t, d, lp in near0]

        def terms(nodes):
            return [w * (g1 * d**a * (expm1(a * l1 + x * d) - c * d)) for w, d, l1 in nodes]
        # 1/(a+1) and 1/(a+2) are formed from nu, which keeps them accurate
        # next to the poles at nu = -1/2 and nu = -3/2
        ends = (g1 / (nu + 0.5), g1 * c / (nu + 1.5))
    p1 = _de_near1(terms, near1, _DE_NEGLIGIBLE * abs(sum(p0)) if x > 0.0 else -1.0)
    even = math.fsum(p0[0::2] + p1[1::2])
    fine, coarse = even + math.fsum(p0[1::2] + p1[0::2]), 2.0 * even
    size = abs(ends[0]) + abs(ends[1]) + abs(fine)
    fine += ends[0] + ends[1]
    coarse += ends[0] + ends[1]
    return fine, abs(fine - coarse) + 4.0 * _EPS * size, len(p0) + len(p1)


def _quad_oracle(kind: str, nu: float, x: float) -> FuncValue:
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"integral representation requires nu > -1/2, got {nu}")
    _check_x(x)
    grow, grow_err, n_grow = _stable_integral(nu, -x)
    decay, decay_err, n_decay = _stable_integral(nu, x)
    raw = grow + decay if kind == "I" else grow - decay
    lead, lead_err = _first_term_err(nu, nu + 0.5, 1.0, x)
    # eps x |J(nu, -x)| covers e^(xt) taken at a rounded xt
    err = grow_err + decay_err + _EPS * x * abs(grow)
    est = (err / abs(raw) if raw != 0.0 else err) + lead_err
    return FuncValue(lead / SQRT_PI * raw, n_grow + n_decay, est)


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
    integral, err, nodes = _stable_integral(nu, x)
    lead, lead_err = _first_term_err(nu, nu + 0.5, 1.0, x)
    coef = -2.0 / SQRT_PI * lead
    est = (err / abs(integral) if integral != 0.0 else err) + lead_err
    return coef * integral, nodes, est


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
    return recurrence_residuals(nu, x, Point(x))


def kernel_b(nu: float, x: float, lv: float) -> float:
    """b_nu(x) from lv = L_nu(x): the direct quotient while it stays normal
    and x/2 is not subnormal, else exp(log-numerator - log-denominator)."""
    if nu + 1.5 < GAMMA_ARG_MAX and 0.5 * x >= _TINY:
        try:
            q = (0.5 * x) ** (nu + 1.0) / (SQRT_PI * math.gamma(nu + 1.5) * lv)
        except OverflowError:  # from the power
            q = math.inf
        if 0.0 < q < math.inf:
            return q
    log_num = (nu + 1.0) * _log_half(x)
    log_den = math.log(SQRT_PI) + math.lgamma(nu + 1.5) + math.log(lv)
    return math.exp(log_num - log_den)


_ELEMENTARY = ("log", "exp", "tanh", "hypot", "sqrt", "pow")


class Point:
    """The primitives bound formulas read at one argument x (and y for the
    argument ratio): I, L and M at any order, the kernel b and the
    recurrence term a, each computed on first use and kept in _got, one
    flat dict keyed by (name, order) or, for I and L, (name, order, at_y).
    A read checks the store first and computes only on a miss; L checks its
    order against its floor on every call, since a value kept for a lower
    floor must not let a read at the default floor through.  A Point holds
    no order: a formula f(nu, x, P) passes nu to every primitive it reads.
    The registry reuses the Point of its last call.  The elementary
    functions are math's, map(f, *args) applies a scalar helper,
    of(f, *lanes) one to the named arguments (kept per Row), and
    where(cond, a, b) calls a or b, both zero-argument functions (a row
    calls both and selects lane by lane).  rows.Row has the same names over
    numpy lanes, so one formula f(nu, x, P) serves both.  The arguments are
    checked on construction: x (and y, with x <= y) finite and positive,
    and none above X_MAX, which raises the series' OverflowRisk even for a
    bound that reads no series.
    """

    log, exp, tanh, hypot, sqrt, pow = (staticmethod(getattr(math, n)) for n in _ELEMENTARY)
    map = staticmethod(lambda f, *args: f(*args))
    where = staticmethod(lambda cond, a, b: a() if cond else b())
    _positive = staticmethod(lambda v: math.isfinite(v) and v > 0.0)
    _ordered = staticmethod(lambda x, y: x <= y)
    _largest = staticmethod(lambda v: v)

    def __init__(self, x, y=None):
        self.x, self.y, self._got = x, y, {}
        if not (self._positive(x) and (y is None or self._positive(y) and self._ordered(x, y))):
            raise DomainError(f"need finite 0 < x <= y, got x={x}, y={y}" if y is not None
                              else f"x must be a finite positive real, got {x}")
        _check_x(self._largest(x if y is None else y))

    def I(self, order: float, at_y: bool = False):
        """I at order over x, or over y."""
        got = self._got.get(("I", order, at_y))
        if got is None:
            _check_order(order, MIN_ORDER)
            got = self._got["I", order, at_y] = self._series("I", order, at_y)
        return got

    def L(self, order: float, at_y: bool = False, floor: float = MIN_ORDER):
        """L at order over x, or over y; floor is the lowest order allowed,
        checked on every call.  Calls with any floor share one value per
        (order, at_y)."""
        _check_order(order, floor)
        got = self._got.get(("L", order, at_y))
        if got is None:
            got = self._got["L", order, at_y] = self._series("L", order, at_y)
        return got

    def M(self, order: float):
        """struve_m's value from this object's own L and I."""
        got = self._got.get(("M", order))
        if got is None:
            got = self._got["M", order] = self._m(order)
        return got

    def a(self, order: float):
        """recurrence_term at order, (x/2)^order / (sqrt(pi) Gamma(order+3/2)),
        so that b = x a / (2 L)."""
        got = self._got.get(("a", order))
        if got is None:
            got = self._got["a", order] = self.map(recurrence_term, order, self.x)
        return got

    def b(self, order: float):
        """kernel_b at order, from this object's own L."""
        got = self._got.get(("b", order))
        if got is None:
            if not math.isfinite(order) or order <= -1.5:
                raise DomainError(f"kernel requires nu > -3/2, got {order}")
            got = self._got["b", order] = self._b(order)
        return got

    def of(self, f, *lanes: str):
        return f(*[getattr(self, n) for n in lanes])

    # the compute steps behind the store, which rows.Row does over lanes

    def _series(self, kind, order, at_y):
        return _series(kind, order, self.y if at_y else self.x)[0]

    def _m(self, order):
        return _m_value(order, self.x, self.L(order), self.I(order))

    def _b(self, order):
        return kernel_b(order, self.x, self.L(order))
