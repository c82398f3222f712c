"""Registry of every certified inequality, keyed by stable bound id: the
public way to reach a bound.

Each entry records the target quantity, the side it bounds, the published
validity half-line in the order, the single equality order if one exists,
and the bound's one formula f(nu, x, P) (f(nu, x, y, P) for the argument
ratio), named after the bound id in its home module.  EXACT holds each
target's exact value as a formula of the same shape.  P is a
special_core.Point for one point (BoundSpec.evaluate and exact_value, which
bracket, evaluate_valid and best_bracket call) or a rows.Row over numpy lanes
(rows.bound_row and rows.exact_row, used by verify).  Every point entry
checks its target and arity in one place, _point, so an unknown id or
target and a missing or extra y raise a StruveBoundsError naming the
cause, and a non-finite order raises DomainError.  _point keeps the Point
it returns and hands it out again while the calls stay at one (nu, x, y),
so the exact value and every bound there share their series, kernels and
M; that one Point is the package's only scalar cache.

Each bound's validity range lives here and only here, in its BoundSpec, and
valid_at is the one place that reads it.  A formula computes wherever its
arithmetic is defined, inside its range or not, and keeps only the guards
its arithmetic needs (a pole, the root of a negative, a primitive's lowest
order).  evaluate returns that value anywhere; evaluate_valid,
best_bracket, certification and crossover keep to valid orders, and bracket
flags a side outside its range.  The ranges are data, not caller-overridable
arguments: the inequalities are only guaranteed on them.

best_bracket(nu, x, target, y) is the one selection routine, for every
target: tightest_bracket over evaluate_valid's (spec, value) pairs.
tightest_bracket evaluates nothing, so the cond command selects from the
values it has printed.  Two entries take two bound ids at one order:
bracket, at one point, and crossover, which locates where the bounds
exchange dominance.  crossover's pre-scan runs point by point, so this
module never loads numpy; verify.crossover, the sweeps' entry, runs the
same search with its pre-scan over one rows.Row (_crossover takes the
scan), and a Row gives a point's bits, so both find the same root.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from . import arg_ratio as _ar
from . import bfunc as _bf
from . import condition as _cd
from . import succ_ratio as _sr
from .brackets import Bracket, Record, _set
from .errors import (DomainError, MultipleSignChanges, NoSignChange, NoValidBound,
                     OverflowRisk, UnknownBound)
from .special_core import ORDER_TOL, Point

# each target a registered inequality can bound, and whether it reads y
TARGETS = {
    "succ_ratio_L": False,    # L_nu(x) / L_{nu-1}(x)
    "cond_L": False,          # x L'_nu(x) / L_nu(x)
    "arg_ratio_L": True,      # L_nu(x) / L_nu(y), x <= y
    "pointwise_L": False,     # L_nu(x) itself
    "b_kernel": False,        # the (0, 1/2)-valued kernel
    "product_diff_L": False,  # I_nu L_{nu-1} - I_{nu-1} L_nu
}

_last: Point | None = None  # the Point of the last point entry's call
_last_at: tuple = ()  # the (nu, x, y) it was built for


def _point(target: str, nu: float, x: float, y: float | None) -> Point:
    """The Point a bound on target reads at (nu, x[, y]): the last call's
    while (nu, x, y) compares equal to its own, else a new one, kept in its
    place.  One comparison on the valid path: a bad call costs the lookups
    that name its cause."""
    global _last, _last_at
    if TARGETS.get(target) is not (y is not None):
        if target not in TARGETS:
            raise UnknownBound(f"no target {target!r}; the targets are {', '.join(TARGETS)}")
        raise DomainError(f"{target} takes (nu, x, y): give y" if TARGETS[target]
                          else f"{target} takes (nu, x): give no y")
    if _last is None or _last_at != (nu, x, y):
        if not math.isfinite(nu):
            raise DomainError(f"order must be finite, got {nu}")
        _last, _last_at = Point(x, y), (nu, x, y)
    return _last


def _at(nu: float, x: float, y: float | None) -> str:
    return f"nu={nu}, x={x}" if y is None else f"nu={nu}, x={x}, y={y}"


class BoundSpec(Record):
    """Registry entry binding a named inequality to its target quantity: a
    frozen record (brackets.Record), checked on construction.

    formula(nu, x, P), or formula(nu, x, y, P) for the argument ratio, is
    the bound's one formula: P is a special_core.Point at a single point or
    a rows.Row over numpy lanes, and the formula reads its
    primitives and elementary functions from P.  It computes outside the
    bound's range too, raising only where its arithmetic fails; P checks the
    arguments.

    nu_min / nu_min_strict encode the published validity range (all ranges
    are half-lines in the order), which valid_at alone reads: evaluate
    returns the formula's value at any finite order, and a caller that needs
    a bound asks valid_at.  equality_at marks the single order at
    which the inequality degenerates to an equality; certification treats
    those points as zero slack rather than violations.
    """

    _fields = ("bound_id", "target", "side", "nu_min", "nu_min_strict", "formula", "equality_at")

    def __init__(self, bound_id: str, target: str, side: str, nu_min: float,
                 nu_min_strict: bool, formula: Callable[..., float],
                 equality_at: Optional[float] = None):
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
        _set(self, "bound_id", bound_id)
        _set(self, "target", target)
        _set(self, "side", side)
        _set(self, "nu_min", nu_min)
        _set(self, "nu_min_strict", nu_min_strict)
        _set(self, "formula", formula)
        _set(self, "equality_at", equality_at)

    def evaluate(self, nu: float, x: float, y: Optional[float] = None) -> float:
        """The bound at one point, as a Python float.  Python arithmetic that
        fails in the formula (math's range error, a division by zero) raises
        OverflowRisk or DomainError naming the bound and the point, and so
        does a primitive's DomainError, which names only the order it read."""
        P = _point(self.target, nu, x, y)
        try:
            return float(self.formula(nu, x, P) if y is None else self.formula(nu, x, y, P))
        except (ArithmeticError, ValueError, DomainError) as exc:
            # ValueError is math's domain error, DomainError a primitive's
            error = OverflowRisk if isinstance(exc, OverflowError) else DomainError
            raise error(f"{self.bound_id} at {_at(nu, x, y)}: {exc}") from exc

    def valid_at(self, nu: float) -> bool:
        if self.nu_min_strict:
            return nu > self.nu_min
        return nu >= self.nu_min - ORDER_TOL

    def is_equality_at(self, nu: float) -> bool:
        return self.equality_at is not None and abs(nu - self.equality_at) <= ORDER_TOL


def _bound(bound_id, target, side, nu_min, strict, module, equality_at=None):
    return BoundSpec(bound_id, target, side, nu_min, strict, getattr(module, bound_id),
                     equality_at)


_SPECS = [
    # kernel
    _bound("eq12_upper", "b_kernel", "upper", -1.5, True, _bf),
    _bound("eq13_lower", "b_kernel", "lower", -0.5, False, _bf, equality_at=-0.5),
    _bound("eq13_upper", "b_kernel", "upper", -0.5, False, _bf),
    # product difference
    _bound("eq14_positivity", "product_diff_L", "lower", 0.5, False, _sr),
    _bound("eq15_upper", "product_diff_L", "upper", -0.5, False, _sr),
    _bound("eq16_upper", "product_diff_L", "upper", 1.5, False, _sr),
    # successive-order ratio
    _bound("eq17_lower", "succ_ratio_L", "lower", 0.0, False, _sr),
    _bound("eq17_upper", "succ_ratio_L", "upper", 0.5, False, _sr),
    _bound("eq18_lower", "succ_ratio_L", "lower", 0.0, False, _sr),
    _bound("eq18_upper", "succ_ratio_L", "upper", 0.5, False, _sr),
    _bound("eq19_lower", "succ_ratio_L", "lower", 0.5, True, _sr),
    _bound("eq20_upper", "succ_ratio_L", "upper", 0.5, False, _sr, equality_at=0.5),
    _bound("eq21_lower", "succ_ratio_L", "lower", -0.5, False, _sr),
    _bound("eq22_lower", "succ_ratio_L", "lower", 0.5, False, _sr, equality_at=0.5),
    _bound("eq24_upper", "succ_ratio_L", "upper", 0.0, False, _sr),
    # condition number
    _bound("eq27_upper", "cond_L", "upper", -1.5, True, _cd),
    _bound("eq28_lower", "cond_L", "lower", 0.5, False, _cd),
    _bound("eq28_upper", "cond_L", "upper", -0.5, False, _cd),
    _bound("eq29_lower", "cond_L", "lower", 0.5, False, _cd),
    _bound("eq29_upper", "cond_L", "upper", -0.5, False, _cd),
    _bound("eq30_lower", "cond_L", "lower", -1.0, False, _cd),
    _bound("eq30_upper", "cond_L", "upper", -0.5, False, _cd),
    _bound("eq31_lower", "cond_L", "lower", -1.0, False, _cd),
    _bound("prior_nup1", "cond_L", "lower", -1.5, True, _cd),
    # recorded range deviates from the published one: x - nu fails below 1/2
    # (e.g. order 0, x = 10: condition number 9.4863 < 10) and holds at and
    # above 1/2, where it follows from the tanh(x/2) ratio bound
    _bound("prior_xminus", "cond_L", "lower", 0.5, False, _cd),
    _bound("prior_coth", "cond_L", "lower", 0.5, False, _cd, equality_at=0.5),
    # argument ratio
    _bound("eq33a_upper", "arg_ratio_L", "upper", -1.5, True, _ar),
    _bound("eq33b_upper", "arg_ratio_L", "upper", 0.5, False, _ar),
    _bound("eq34_upper", "arg_ratio_L", "upper", 0.5, False, _ar, equality_at=0.5),
    _bound("eq37_lower", "arg_ratio_L", "lower", -0.5, False, _ar),
    _bound("eq37_upper", "arg_ratio_L", "upper", 0.5, False, _ar),
    _bound("eq38_lower", "arg_ratio_L", "lower", -0.5, False, _ar),
    _bound("eq38_upper", "arg_ratio_L", "upper", -0.5, False, _ar),
    _bound("eq40_lower", "arg_ratio_L", "lower", -0.5, True, _ar),
    _bound("eq42_lower", "arg_ratio_L", "lower", 0.0, False, _ar),
    # pointwise
    _bound("eq39_lower", "pointwise_L", "lower", -0.5, False, _ar),
    _bound("eq39_upper", "pointwise_L", "upper", -0.5, False, _ar),
    _bound("eq43_upper", "pointwise_L", "upper", 0.0, False, _ar),
    _bound("eq45_upper", "pointwise_L", "upper", -0.5, True, _ar),
    _bound("eq46_upper", "pointwise_L", "upper", -0.5, True, _ar),
]

REGISTRY: dict[str, BoundSpec] = {spec.bound_id: spec for spec in _SPECS}
# each target's bounds in registry order, formed once: point queries read them per call
_BY_TARGET = {target: tuple(s for s in _SPECS if s.target == target) for target in TARGETS}

# the exact value of each target, as a formula of the same shape
EXACT = {
    "succ_ratio_L": lambda nu, x, P: P.L(nu) / P.L(nu - 1.0),
    "cond_L": _cd.cond_L,
    "arg_ratio_L": _ar.arg_ratio_L,
    "pointwise_L": lambda nu, x, P: P.L(nu),
    "b_kernel": lambda nu, x, P: P.b(nu),
    "product_diff_L": _sr.product_diff,
}


def bound_ids() -> list[str]:
    return list(REGISTRY)


def get_bound(bound_id: str) -> BoundSpec:
    try:
        return REGISTRY[bound_id]
    except KeyError:
        raise UnknownBound(f"no bound registered under id {bound_id!r}") from None


def bounds_for_target(target: str) -> tuple[BoundSpec, ...]:
    return _BY_TARGET.get(target, ())


def needs_y(spec: BoundSpec) -> bool:
    return TARGETS[spec.target]


def exact_value(target: str, nu: float, x: float, y: float | None = None) -> float:
    """Reference value of a target quantity at one point, always from the
    series route; y is for the argument ratio only.  A value that is not
    finite (a product of primitives overflowed) raises OverflowRisk."""
    P = _point(target, nu, x, y)
    f = EXACT[target]
    value = float(f(nu, x, P) if y is None else f(nu, x, y, P))
    if not math.isfinite(value):
        raise OverflowRisk(f"exact {target} at {_at(nu, x, y)} is {value}: it overflows")
    return value


def evaluate_valid(target: str, nu: float, x: float,
                   y: float | None = None) -> list[tuple[BoundSpec, float]]:
    """Every bound on target valid at nu, evaluated at one point as
    (spec, value) pairs in registry order; y is for the argument ratio
    only.  The arguments are checked even where no bound is valid."""
    _point(target, nu, x, y)
    return [(spec, spec.evaluate(nu, x, y)) for spec in bounds_for_target(target)
            if spec.valid_at(nu)]


def tightest_bracket(values, target: str, nu: float) -> Bracket:
    """The tightest bracket among the (spec, value) pairs of
    evaluate_valid; each side carries its bound's id."""
    best_lo, best_lo_id = -math.inf, ""
    best_hi, best_hi_id = math.inf, ""
    for spec, value in values:
        if spec.side == "lower" and value > best_lo:
            best_lo, best_lo_id = value, spec.bound_id
        elif spec.side == "upper" and value < best_hi:
            best_hi, best_hi_id = value, spec.bound_id
    if not best_lo_id and not best_hi_id:
        raise NoValidBound(f"no registered {target} bound is valid at nu={nu}")
    return Bracket(best_lo, best_hi, bool(best_lo_id), bool(best_hi_id),
                   best_lo_id, best_hi_id)


def best_bracket(nu: float, x: float, target: str = "succ_ratio_L",
                 y: float | None = None) -> Bracket:
    """Tightest bracket over every registered bound on target valid at nu,
    the successive ratio by default; y is for the argument ratio only.
    Each side carries the id of the bound that attains it."""
    return tightest_bracket(evaluate_valid(target, nu, x, y), target, nu)


def bracket(lower_id: str, upper_id: str, nu: float, x: float,
            y: float | None = None) -> Bracket:
    """Two registered bounds on one target at one point as a Bracket: each
    side's value, its validity at nu and its id.  An empty id leaves that
    side open; at least one must be given."""
    lower, upper = (get_bound(i) if i else None for i in (lower_id, upper_id))
    if lower is None and upper is None:
        raise UnknownBound("a bracket needs a lower or an upper bound id")
    if lower and upper and lower.target != upper.target:
        raise DomainError(f"{lower_id} bounds {lower.target} but {upper_id} bounds {upper.target}")

    def side(spec: BoundSpec | None, open_value: float) -> tuple[float, bool]:
        if spec is None:
            return open_value, False
        return spec.evaluate(nu, x, y), spec.valid_at(nu)

    (lo, lo_ok), (hi, hi_ok) = side(lower, -math.inf), side(upper, math.inf)
    return Bracket(lo, hi, lo_ok, hi_ok, lower_id, upper_id)


def pointwise_bracket(nu: float, x: float) -> Bracket:
    """Explicit two-sided bound for L_nu(x) itself, eq39's sides, valid
    nu >= -1/2.

    Both sides are tight as x -> 0; as x -> infinity the upper side has the
    correct x^{-1/2} e^x order while the lower side is a factor of x low.
    """
    return bracket("eq39_lower", "eq39_upper", nu, x)


def _scan_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi as np.linspace forms them: i * step + lo, the
    last one hi ((i / (n - 1)) * (hi - lo) + lo where the step underflows
    to 0)."""
    delta = hi - lo
    step = delta / (n - 1)
    return [(i * step if step else i / (n - 1) * delta) + lo for i in range(n - 1)] + [hi]


def crossover(bound_id_a: str, bound_id_b: str, nu: float,
              x_range: tuple[float, float] = (0.01, 50.0)) -> float:
    """Argument at which two competing bounds exchange dominance.

    Both bounds take one argument and are valid at nu, and x_range is
    finite with 0 < xmin < xmax.  A 200-point pre-scan must find exactly
    one sign change of the difference between consecutive nonzero samples,
    so a root on a sample is bracketed by its neighbours; the root is then
    bisected to absolute tolerance 1e-4.  The pre-scan runs point by point
    (verify.crossover runs it over one rows.Row).
    """
    return _crossover(bound_id_a, bound_id_b, nu, x_range, None)


def _crossover(bound_id_a: str, bound_id_b: str, nu: float, x_range: tuple[float, float],
               scan: Optional[Callable]) -> float:
    """crossover, with the pre-scan's differences from scan(spec_a, spec_b,
    nu, xs) where a scan is given and point by point where it is not or
    raises DomainError, which the points raise again naming the bound and
    the x."""
    spec_a, spec_b = get_bound(bound_id_a), get_bound(bound_id_b)
    for spec in (spec_a, spec_b):
        if needs_y(spec):
            raise DomainError(f"crossover compares single-argument bounds; {spec.bound_id} "
                              f"bounds the argument ratio L_nu(x)/L_nu(y)")
        if not spec.valid_at(nu):
            raise DomainError(f"{spec.bound_id} is not valid at nu={nu}")
    lo, hi = x_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise DomainError(f"crossover needs a finite range 0 < xmin < xmax, got {x_range}")

    def diff(x: float) -> float:
        return spec_a.evaluate(nu, x) - spec_b.evaluate(nu, x)

    xs = _scan_grid(lo, hi, 200)
    ds = map(diff, xs)
    if scan is not None:
        try:
            ds = scan(spec_a, spec_b, nu, xs)
        except DomainError:  # raised again by the points, which name the bound and the x
            pass
    signed = [(x, math.copysign(1.0, d)) for x, d in zip(xs, ds) if d != 0.0]
    brackets = [(a, b) for (a, sa), (b, sb) in zip(signed, signed[1:]) if sa != sb]
    if not brackets:
        raise NoSignChange(
            f"{bound_id_a} - {bound_id_b} keeps one sign on {x_range} at nu={nu}"
        )
    if len(brackets) > 1:
        raise MultipleSignChanges(
            f"{bound_id_a} - {bound_id_b} changes sign {len(brackets)} times on "
            f"{x_range} at nu={nu}"
        )
    a, b = brackets[0]
    fa = diff(a)
    while b - a > 1e-4:
        mid = 0.5 * (a + b)
        fm = diff(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)
