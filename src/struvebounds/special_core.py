"""Reference evaluation of I_nu, L_nu and M_nu = L_nu - I_nu.

Power-series evaluators with compensated summation and explicit truncation
metadata, elementary closed forms at half-integer orders, and leading small-x
and large-x asymptotics.

M_nu is the difference of two functions that grow like e^x while M itself
grows only like a power of x, so once the direct difference would cancel it
is recomputed from the decaying integral

    M_nu(x) = -2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt

with a fixed tanh-sinh (double-exponential) rule, Takahasi & Mori, Publ.
RIMS 9 (1974).  Subtracting the endpoint behaviour at t = 1 analytically
continues the integral to -3/2 < nu <= -1/2.

An independent adaptive-quadrature oracle is built on

    I_nu(x) = 2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) cosh(xt) dt
    L_nu(x) = 2(x/2)^nu / (sqrt(pi) Gamma(nu+1/2)) * int_0^1 (1-t^2)^(nu-1/2) sinh(xt) dt

valid for nu > -1/2.  It is the only user of scipy, which it imports on its
first call, so importing this module does not load scipy.  The oracle never
feeds the series route or the stable M route, so it stays usable as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
    ConvergenceError,
    DomainError,
    OverflowRisk,
    QuadratureError,
)

SQRT_PI = math.sqrt(math.pi)

# Series evaluators accept orders down to -3/2; the extended internal entry
# point goes to -5/2 (exclusive) for recurrence residuals and condition
# numbers at low orders.  Positivity is only guaranteed for nu > -1 (I) and
# nu >= -1 (L).
MIN_ORDER = -1.5
_MIN_ORDER_EXTENDED = -2.5
_POLE_TOL = 1e-12

_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class FuncValue:
    """An evaluated function value plus convergence metadata.

    est_rel_error is an a-posteriori estimate: twice the first omitted term
    relative to the accumulated sum for series, the scaled quadrature error
    estimate for the oracle, and for the stable M route the gap between the
    tanh-sinh rule at two step sizes plus a rounding allowance.  terms_used
    counts series terms, or integrand evaluations for integral routes.
    cancellation marks results whose naive evaluation would lose more than
    six significant digits.
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


def _check_x(x: float, cfg: EvalConfig) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    if x > cfg.x_max:
        raise OverflowRisk(f"argument {x} exceeds configured x_max={cfg.x_max}")


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
    log_mag = power * math.log(half_x)
    if abs(log_mag) < 690.0 and g1_arg < 170.0 and g2_arg < 170.0:
        return half_x**power / (math.gamma(g1_arg) * math.gamma(g2_arg))
    # math.lgamma returns log|Gamma|; Gamma is negative on (-1,0), (-3,-2), ...
    sign = 1.0
    for arg in (g1_arg, g2_arg):
        if arg < 0.0 and math.floor(arg) % 2 != 0:
            sign = -sign
    return sign * math.exp(log_mag - math.lgamma(g1_arg) - math.lgamma(g2_arg))


def _series(kind: str, nu: float, x: float, cfg: EvalConfig) -> tuple[float, int, float]:
    """Sum the defining power series of I_nu (kind 'I') or L_nu (kind 'L').

    Terms are generated by the ratio recurrence, accumulated with Kahan
    compensation, and truncated once the next term falls below rel_tol times
    the accumulated term magnitude.  Returns (value, terms_used,
    est_rel_error).
    """
    if kind == "I":
        shift = nu + 1.0
        power0 = nu
    elif kind == "L":
        shift = nu + 1.5
        power0 = nu + 1.0
    else:
        raise DomainError(f"kind must be 'I' or 'L', got {kind!r}")

    n0 = _leading_index(shift)
    if kind == "I":
        term = _first_term(2 * n0 + power0, n0 + 1.0, n0 + shift, x)
    else:
        term = _first_term(2 * n0 + power0, n0 + 1.5, n0 + shift, x)

    q = 0.25 * x * x
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    n = n0
    while n < n0 + cfg.max_terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += abs(term)
        if kind == "I":
            term = term * q / ((n + 1.0) * (n + shift))
        else:
            term = term * q / ((n + 1.5) * (n + shift))
        n += 1
        if abs(term) < cfg.rel_tol * abs_total:
            est = 2.0 * abs(term) / abs(total) if total != 0.0 else abs(term)
            return total, n - n0, est
    raise ConvergenceError(
        f"{kind}-series for nu={nu}, x={x} did not reach rel_tol={cfg.rel_tol} "
        f"within {cfg.max_terms} terms"
    )


@lru_cache(maxsize=300_000)
def _series_cached(kind: str, nu: float, x: float, cfg: EvalConfig) -> tuple[float, int, float]:
    return _series(kind, nu, x, cfg)


def bessel_i(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> FuncValue:
    """Modified Bessel function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-1);
    positivity holds for nu > -1.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x, cfg)
    value, terms, est = _series_cached("I", nu, x, cfg)
    return FuncValue(value, terms, est)


def struve_l(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> FuncValue:
    """Modified Struve function of the first kind, by its power series.

    Orders down to -3/2 are accepted (the n=0 term vanishes at nu=-3/2);
    positivity holds for all nu > -3/2, x > 0.
    """
    _check_order(nu, MIN_ORDER)
    _check_x(x, cfg)
    value, terms, est = _series_cached("L", nu, x, cfg)
    return FuncValue(value, terms, est)


def iv_value(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Value-only shortcut for bessel_i."""
    return bessel_i(nu, x, cfg).value


def lv_value(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Value-only shortcut for struve_l."""
    return struve_l(nu, x, cfg).value


def lv_value_extended(order: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """L at orders in (-5/2, -3/2), needed by recurrences at low orders.

    The leading gamma factor is negative there, so the value may change sign
    in x; the truncation rule is therefore relative to the accumulated term
    magnitude rather than the (possibly tiny) signed sum.
    """
    _check_order(order, _MIN_ORDER_EXTENDED + _POLE_TOL * 10)
    if order >= MIN_ORDER - _POLE_TOL:
        return lv_value(order, x, cfg)
    _check_x(x, cfg)
    return _series_cached("L", order, x, cfg)[0]


def recurrence_term(nu: float, x: float) -> float:
    """Inhomogeneous term (x/2)^nu / (sqrt(pi) Gamma(nu+3/2)) of the three-term
    recurrence satisfied by L."""
    return (0.5 * x) ** nu / (SQRT_PI * math.gamma(nu + 1.5))


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
        return (0.5 * x) ** nu / math.gamma(nu + 1.0)
    if kind == "L":
        if nu <= -1.5:
            raise DomainError(f"L leading term requires nu > -3/2, got {nu}")
        lead = (0.5 * x) ** nu * x / (SQRT_PI * math.gamma(nu + 1.5))
        return lead * (1.0 + x * x / (3.0 * (2.0 * nu + 3.0)))
    raise DomainError(f"kind must be 'I' or 'L', got {kind!r}")


def _adaptive_integral(f, hi: float) -> tuple[float, float, int]:
    """scipy adaptive quadrature of f on [0, hi] at the oracle tolerance."""
    from scipy.integrate import quad  # about 0.6 s, so only on first use

    out = quad(f, 0.0, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=300, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3 or abserr > 100.0 * (_QUAD_TOL + _QUAD_TOL * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr} too large for value {value}"
        )
    return value, abserr, int(info["neval"])


def _quad_oracle(kind: str, nu: float, x: float) -> FuncValue:
    if not math.isfinite(nu) or nu <= -0.5:
        raise DomainError(f"integral representation requires nu > -1/2, got {nu}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be a finite positive real, got {x}")
    if x > 600.0:
        raise OverflowRisk(f"argument {x} exceeds quadrature guard 600")
    two_nu = 2.0 * nu
    hyp = math.cosh if kind == "I" else math.sinh

    # t = sin(theta) keeps the endpoint weight regular for -1/2 < nu < 1/2
    def integrand(theta: float) -> float:
        return math.cos(theta) ** two_nu * hyp(x * math.sin(theta))

    raw, abserr, neval = _adaptive_integral(integrand, 0.5 * math.pi)
    pref = 2.0 * (0.5 * x) ** nu / (SQRT_PI * math.gamma(nu + 0.5))
    value = pref * raw
    est = abserr / abs(raw) if raw != 0.0 else abserr
    return FuncValue(value, neval, est)


def quad_oracle_i(nu: float, x: float) -> FuncValue:
    """I_nu by adaptive quadrature of its integral representation (nu > -1/2)."""
    return _quad_oracle("I", nu, x)


def quad_oracle_l(nu: float, x: float) -> FuncValue:
    """L_nu by adaptive quadrature of its integral representation (nu > -1/2)."""
    return _quad_oracle("L", nu, x)


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
_EPS = 2.0**-52


def _stable_integral(nu: float, x: float) -> tuple[float, float]:
    """J = int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt for nu > -3/2, and a bound on
    its absolute error.

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
    coef = -2.0 / SQRT_PI * _first_term(nu, nu + 0.5, 1.0, x)
    # rounding nu + 1/2 moves Gamma(nu+1/2) by up to about |nu| ln|nu| ulps
    gamma_err = _EPS * abs(nu) * (1.0 + math.log1p(abs(nu)))
    est = (err / abs(integral) if integral != 0.0 else err) + gamma_err
    return coef * integral, _DE_NODES, est


def struve_m(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> FuncValue:
    """M_nu(x) = L_nu(x) - I_nu(x); negative for nu >= -1/2, x > 0.

    The direct difference loses all precision once x is moderately large (the
    two terms grow like e^x while M decays polynomially).  When the naive
    difference would cancel past six digits the cancellation flag is set and
    the value is recomputed through a cancellation-free route.
    """
    lv = struve_l(nu, x, cfg)
    iv = bessel_i(nu, x, cfg)
    diff = lv.value - iv.value
    scale = abs(lv.value) + abs(iv.value)
    terms = lv.terms_used + iv.terms_used
    if scale == 0.0 or abs(diff) >= _CANCEL_FLAG_RATIO * scale:
        est = (lv.est_rel_error + iv.est_rel_error + 2.2e-16) * scale / max(abs(diff), 1e-300)
        return FuncValue(diff, terms, est, cancellation=False)
    value, neval, est = _mv_stable(nu, x)
    return FuncValue(value, neval, est, cancellation=True)


def mv_value(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Value-only shortcut for struve_m."""
    return struve_m(nu, x, cfg).value


def ratio_succ_exact(kind: str, nu: float, x: float,
                     cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Successive-order ratio f_nu(x) / f_{nu-1}(x) from the reference evaluator.

    For kind 'M' both orders must give negative values, hence nu >= 1/2.
    """
    if kind == "I":
        return iv_value(nu, x, cfg) / iv_value(nu - 1.0, x, cfg)
    if kind == "L":
        return lv_value(nu, x, cfg) / lv_value(nu - 1.0, x, cfg)
    if kind == "M":
        if nu < 0.5 - _POLE_TOL:
            raise DomainError(f"M-ratio requires nu >= 1/2, got {nu}")
        return mv_value(nu, x, cfg) / mv_value(nu - 1.0, x, cfg)
    raise DomainError(f"kind must be 'I', 'L' or 'M', got {kind!r}")


def struve_l_prime(nu: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """dL_nu/dx via the downward relation L'_nu = L_{nu-1} - (nu/x) L_nu."""
    return lv_value(nu - 1.0, x, cfg) - (nu / x) * lv_value(nu, x, cfg)


def recurrence_check(nu: float, x: float,
                     cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Residuals of the two three-term relations, normalized by L_{nu-1}.

    First:  |L_{nu-1} - L_{nu+1} - (2 nu/x) L_nu - a_nu|
    Second: |L_{nu-1} + L_{nu+1} - 2 L'_nu + a_nu|, with L' from the
    downward relation.  Requires nu > -1/2 so all three orders are in range.
    """
    if nu <= -0.5:
        raise DomainError(f"recurrence residuals need nu > -1/2, got {nu}")
    lm = lv_value(nu - 1.0, x, cfg)
    l0 = lv_value(nu, x, cfg)
    lp = lv_value(nu + 1.0, x, cfg)
    a = recurrence_term(nu, x)
    r1 = abs(lm - lp - (2.0 * nu / x) * l0 - a) / lm
    deriv = lm - (nu / x) * l0
    r2 = abs(lm + lp - 2.0 * deriv + a) / lm
    return r1, r2
