"""Reference evaluation of I_nu, L_nu and M_nu = L_nu - I_nu.

Power-series evaluators with compensated summation and explicit truncation
metadata, elementary closed forms at half-integer orders, and leading small-x
and large-x asymptotics.

The series sums are the package's only memo: a module dict of at most
4,096 entries, keyed on (kind, nu, x) and cleared when full.  It serves the
separate calls of one point query, which read the same few sums (a
condition-number query reads L_nu in six bounds and in the exact value); a
lookup that misses runs the scalar kernel _series and stores its result.
Sweeps bypass it: fill_series_row sums many series at once with numpy, one
lane per (nu, x), doing the scalar kernel's floating-point operations in
the same order, so every value it returns is bit-identical to the scalar
value, and stores nothing.  Nothing is configurable: the truncation target
REL_TOL, the overflow guard X_MAX and the term cap MAX_TERMS are constants.
Up to x = X_MAX every series meets REL_TOL within 407 terms (the most is at
order -2.49, x = 600), so the cap of 500 is a safety net: a series that
reaches it raises ConvergenceError.

Point and Row are the primitives every bound formula reads: I, L and M at
any order, the kernel b (kernel_b) and the recurrence term, computed on
first use and kept for the life of the object, which is one evaluation at
a point or one (bound, order) row of a sweep.  They are not a cache:
nothing outlives them.  A Point reads its series from the memo; a Row reads
the arrays its sweep summed for all of its Rows (fill_rows) or sums its
own, and never touches the memo.  A Row does its arithmetic in numpy and
its elementary functions with math lane by lane, so a formula gives the
same bits at a point and in a row.

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
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowRisk

SQRT_PI = math.sqrt(math.pi)

# Series evaluators accept orders down to -3/2; formulas may read L down to
# _L_FLOOR, just above -5/2, for the Turan product and condition numbers at
# low orders.  Positivity is only guaranteed for nu > -1 (I) and nu >= -1 (L).
MIN_ORDER = -1.5
_MIN_ORDER_EXTENDED = -2.5
_POLE_TOL = 1e-12
_L_FLOOR = _MIN_ORDER_EXTENDED + _POLE_TOL * 10

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


@dataclass(frozen=True)
class FuncValue:
    """An evaluated function value plus convergence metadata.

    est_rel_error is an a-posteriori estimate: twice the first omitted term
    relative to the accumulated sum for series, and for the integral routes
    (the oracle and the stable M route) the gap between the tanh-sinh rule
    at two step sizes plus a rounding allowance; each adds the rounding of
    its leading (x/2)^p / Gamma factor (_first_term_err), which grows with
    the order.  terms_used counts series terms, or integrand evaluations
    for integral routes.  cancellation marks results whose naive evaluation
    would lose more than six significant digits.
    """

    value: float
    terms_used: int
    est_rel_error: float
    cancellation: bool = False


def gamma_pos(a: float) -> float:
    """Gamma function restricted to positive arguments."""
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"gamma_pos requires a finite positive argument, got {a}")
    return math.gamma(a)


def _check_order(nu: float, floor: float) -> None:
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu}")
    if nu < floor - _POLE_TOL:
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
    if shift > _POLE_TOL:
        return 0
    nearest = round(shift)
    if abs(shift - nearest) <= _POLE_TOL and nearest <= 0:
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


class _SeriesMemo(dict):
    """(kind, nu, x) -> (value, terms_used, est_rel_error).

    A lookup that misses runs the scalar kernel _series and stores its
    result, clearing the dict first once it holds _SERIES_MEMO_MAX entries,
    so a hit costs one dict lookup and nothing else.  A series that raises
    is not stored.
    """

    def __missing__(self, key: tuple[str, float, float]) -> tuple[float, int, float]:
        out = _series(*key)
        if len(self) >= _SERIES_MEMO_MAX:
            self.clear()
        self[key] = out
        return out


_SERIES_MEMO = _SeriesMemo()
# one command holds at most a few hundred entries (a table: 208)
_SERIES_MEMO_MAX = 4096


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
    to the sum plus the rounding of the leading term.  Stores nothing: the
    memo calls this on a miss.  A series that does not converge within
    MAX_TERMS raises ConvergenceError; a leading term that underflows raises
    DomainError rather than running to the cap.
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


def fill_series_row(kind: str, nus, xs) -> np.ndarray:
    """The kind series summed at every lane (nu, x) of nus and xs.

    nus holds one order per lane, or one for all.  Each distinct lane is
    summed once, its leading term formed as _series forms it (the gamma
    product once per order) and _series's recurrence run in _series's order
    with numpy, so every value is bit-identical to _series's.  A lane out of
    domain, whose leading term underflows, or that does not converge within
    MAX_TERMS is NaN (_series raises for the last two).  Stores nothing and
    forms no error estimate.  Raises only for an unknown kind.
    """
    g1 = _series_setup(kind, 0.0)[0]
    xs = np.asarray(xs, dtype=float)
    nus = np.broadcast_to(np.asarray(nus, dtype=float), xs.shape)
    ok = (nus >= _L_FLOOR) & (nus < math.inf) & (0.5 * xs > 0.0) & (xs <= X_MAX)
    index: dict = {}  # each distinct in-domain lane once
    unique = [index.setdefault(k, len(index)) for k in zip(nus[ok].tolist(), xs[ok].tolist())]
    out = np.full(xs.shape, math.nan)
    if not index:
        return out
    keys, sums = list(index), np.full(len(index), math.nan)
    setup = {}
    for nu in {k[0] for k in keys}:
        _, shift, power0, n0 = _series_setup(kind, nu)
        setup[nu] = (shift, n0, 2 * n0 + power0, _gamma_pair(n0 + g1, n0 + shift)[0])
    shift, nv, power, gammas = (np.array(c, dtype=float) for c in zip(*[setup[k[0]] for k in keys]))
    xv = np.array([k[1] for k in keys])
    # _first_term_err's value lane by lane, with the gammas formed once per order
    log_mag = np.abs(power * _map_lanes(math.log, 0.5 * xv))
    term = np.zeros_like(xv)
    direct = (gammas != 0.0) & (log_mag < _LOG_MAG_MAX)
    term[direct] = _map_lanes(math.pow, 0.5 * xv[direct], power[direct]) / gammas[direct]
    for i in np.flatnonzero(~direct).tolist():
        try:
            term[i] = _first_term(power[i], nv[i] + g1, nv[i] + shift[i], xv[i])
        except DomainError:
            pass
    lane = np.flatnonzero(np.abs(term) >= _TINY)
    shift, nv, term, xv = shift[lane], nv[lane], term[lane], xv[lane]
    q = 0.25 * xv * xv
    mag, total, comp, abs_total = np.abs(term), *np.zeros((3, lane.size))
    active = np.ones(lane.size, dtype=bool)
    for _ in range(MAX_TERMS if lane.size else 0):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += mag
        term = term * q / ((nv + g1) * (nv + shift))
        nv += 1.0
        mag = np.abs(term)
        done = (mag < REL_TOL * abs_total) & active
        if not done.any():
            continue
        sums[lane[done]] = total[done]
        active &= ~done
        if 2 * np.count_nonzero(active) < active.size:  # drop the finished lanes
            lane, shift, nv, q, term, mag, total, comp, abs_total = (
                c[active] for c in (lane, shift, nv, q, term, mag, total, comp, abs_total))
            active = active[active]
            if not active.size:
                break
    out[ok] = sums[unique]
    return out


def bessel_i(nu: float, x: float) -> FuncValue:
    """Modified Bessel function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-1);
    positivity holds for nu > -1.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x)
    value, terms, est = _SERIES_MEMO["I", nu, x]
    return FuncValue(value, terms, est)


def struve_l(nu: float, x: float) -> FuncValue:
    """Modified Struve function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-3/2);
    positivity holds for all nu > -3/2, x > 0.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x)
    value, terms, est = _SERIES_MEMO["L", nu, x]
    return FuncValue(value, terms, est)


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
        if abs(nu - target) <= _POLE_TOL:
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


def _de_halves():
    """The node set as (near-0 half, near-1 half).

    Each half is (t, 1 - t, weights), where weights stacks the rule at step h
    over the rule at step 2h (every other node, double weight), so that
    weights @ f gives both sums at once.  The node at t = 1/2 is in the
    near-0 half.
    """
    k = np.arange(_DE_K + 1)
    u = k * _DE_STEP
    s = np.pi * np.sinh(u)
    r = 1.0 / (1.0 + np.exp(s))
    q = 1.0 / (1.0 + np.exp(-s))
    w = _DE_STEP * np.pi * np.cosh(u) * r * q  # h dt/du = h pi cosh(u) t (1-t)
    weights = np.stack([w, np.where(k % 2 == 0, 2.0 * w, 0.0)])
    return (r, q, weights), (q[1:], r[1:], weights[:, 1:])


_DE_NEAR0, _DE_NEAR1 = _de_halves()
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
    a = nu - 0.5
    (t0, d0, w0), (t1, d1, w1) = _DE_NEAR0, _DE_NEAR1
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
        if abs(nu - target) <= _POLE_TOL:
            return form(), 0, 1e-15
    integral, err = _stable_integral(nu, x)
    lead, lead_err = _first_term_err(nu, nu + 0.5, 1.0, x)
    coef = -2.0 / SQRT_PI * lead
    est = (err / abs(integral) if integral != 0.0 else err) + lead_err
    return coef * integral, _DE_NODES, est


def _cancels(lv: float, iv: float) -> bool:
    """struve_m's rule: L - I would lose more than six digits, so M takes
    the stable route."""
    scale = abs(lv) + abs(iv)
    return scale != 0.0 and abs(lv - iv) < _CANCEL_FLAG_RATIO * scale


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
    if kind == "M" and nu < 0.5 - _POLE_TOL:
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
    and the recurrence term a, each computed on first use; the series come
    from the memo.  The elementary functions are math's, map(f, *args)
    applies a scalar helper, of(f, *lanes) one to the named arguments (kept
    per Row), and where(cond, a, b) calls a or b, both zero-argument
    functions (a row calls both and selects lane by lane).  Row has the same
    names over numpy lanes, so one formula f(nu, x, P) serves both.
    """

    log, exp, tanh, hypot, sqrt, pow = (staticmethod(getattr(math, n)) for n in _ELEMENTARY)
    map = staticmethod(lambda f, *args: f(*args))
    where = staticmethod(lambda cond, a, b: a() if cond else b())
    _positive = staticmethod(lambda v: math.isfinite(v) and v > 0.0)
    _ordered = staticmethod(lambda x, y: x <= y)

    def __init__(self, nu: float, x, y=None):
        self.nu, self.x, self.y, self._got = nu, x, y, {}
        if not (self._positive(x) and (y is None or self._positive(y) and self._ordered(x, y))):
            raise DomainError(f"need finite 0 < x <= y, got x={x}, y={y}" if y is not None
                              else f"x must be a finite positive real, got {x}")

    @_lazy
    def I(self, order: float, at_y: bool = False):
        """I at order over x, or over y."""
        return self._series("I", order, at_y, MIN_ORDER)

    @_lazy
    def L(self, order: float, at_y: bool = False, floor: float = MIN_ORDER):
        """L at order over x, or over y; floor is the lowest order allowed."""
        return self._series("L", order, at_y, floor)

    def _series(self, kind, order, at_y, floor):
        v = self.y if at_y else self.x
        _check_order(order, floor)
        _check_x(v)
        return _SERIES_MEMO[kind, order, v][0]

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


def _map_lanes(f, *args):
    """f applied lane by lane over the array arguments, scalars repeated."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return f(*args)
    return np.fromiter(map(f, *(a.tolist() if isinstance(a, np.ndarray) else repeat(a)
                                for a in args)), float)


class Row(Point):
    """Point's primitives at one order over numpy lanes x (and y).

    Arithmetic runs in numpy, which rounds as Python does; the elementary
    functions are math's lane by lane, because numpy's exp, tanh, log, hypot
    and pow differ from math's by an ulp on a few percent of arguments, and
    a row must give a point's bits.  A row never touches the memo.  given
    maps (kind, order, at_y) to a series row a sweep handed in (fill_rows);
    a series it was not given is summed by one fill_series_row call.  Lanes
    the batch could not sum are summed again by the scalar kernel, which
    raises the typed error.
    """

    log, exp, tanh, hypot, sqrt, pow = (staticmethod(partial(_map_lanes, getattr(math, n)))
                                        for n in _ELEMENTARY)
    map = staticmethod(_map_lanes)
    where = staticmethod(lambda cond, a, b: np.where(cond, a(), b()))
    _positive = staticmethod(lambda v: bool(np.all(np.isfinite(v) & (v > 0.0))))
    _ordered = staticmethod(lambda x, y: bool(np.all(x <= y)))

    def __init__(self, nu: float, x, y=None):
        if not np.size(x):
            raise DomainError("a row needs at least one lane, got an empty x array")
        super().__init__(nu, x, y)
        self.given: dict = {}

    @_lazy
    def of(self, f, *lanes: str):
        return _map_lanes(f, *[getattr(self, n) for n in lanes])

    def _series(self, kind, order, at_y, floor):
        v = self.y if at_y else self.x
        _check_order(order, floor)
        _check_x(float(v.max()))
        got = self.given.get((kind, order, at_y))
        if got is None:
            got = fill_series_row(kind, order, v)
        for i in np.flatnonzero(np.isnan(got)).tolist():
            got[i] = _series(kind, order, v[i].item())[0]
        return got


def fill_rows(wants) -> None:
    """Hand Rows the series they will read, summed with one fill_series_row
    per kind: wants lists (row, kind, order, at_y), and each row gets the
    values over its x lanes (at_y false) or y lanes in row.given."""
    for kind in ("L", "I"):
        mine = [(P, order, at_y, P.y if at_y else P.x) for P, k, order, at_y in wants if k == kind]
        if mine:
            sums = fill_series_row(kind, np.concatenate([np.full(v.size, o) for _, o, _, v in mine]),
                                   np.concatenate([v for *_, v in mine]))
            ends = np.cumsum([v.size for *_, v in mine])
            for (P, order, at_y, _), part in zip(mine, np.split(sums, ends[:-1])):
                P.given[kind, order, at_y] = part
