"""special_core's primitives over numpy lanes, for the sweeps of verify.

fill_series_row sums many series at once, one lane per (nu, x), doing the
scalar kernel's floating-point operations in the same order, so every value
is bit-identical to the scalar one.  A Row is a lane set: a Point over numpy
lanes x (and y), whose primitives are kept by the order they are asked for;
at(nu) views it at an order, and all its views share that work, so a sweep
builds one Row per lane set and computes each lane's work once for all its
orders.  exact_row and bound_row run a target's exact formula and a bound's
formula over a Row at its order.  Only this module and verify import numpy
at module level, so a point query never loads it.

No Python runs once per lane where numpy can do the lane's work with the
same bits: bookkeeping (deduplication, per-order setup, gathers) is numpy
indexing, and so is IEEE arithmetic, which numpy rounds as Python does.
What stays in Python is math's elementary functions (log, pow, exp, ...),
whose libm results numpy's ufuncs miss by an ulp on some arguments: called
lane by lane, or once per distinct argument where many lanes share one.
"""

from __future__ import annotations

import math
from copy import copy
from functools import partial
from itertools import repeat

import numpy as np

from . import special_core
from .errors import DomainError
from .registry import EXACT, BoundSpec
from .special_core import (_ELEMENTARY, _L_FLOOR, _LOG_MAG_MAX, _TINY, GAMMA_ARG_MAX, REL_TOL,
                           SQRT_PI, X_MAX, Point, _cancels, _first_term, _gamma_pair, _lazy,
                           _mv_stable, _series, _series_setup, kernel_b)


def _map_lanes(f, *args):
    """f applied lane by lane over the array arguments, scalars repeated."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return f(*args)
    return np.fromiter(map(f, *(a.tolist() if isinstance(a, np.ndarray) else repeat(a)
                                for a in args)), float)


def _pow_or_inf(base: float, power: float) -> float:
    """base ** power as kernel_b forms it, inf where the power overflows."""
    try:
        return base ** power
    except OverflowError:
        return math.inf


def fill_series_row(kind: str, nus, xs) -> np.ndarray:
    """The kind series summed at every lane (nu, x) of nus and xs.

    nus holds one order per lane, or one for all.  The in-domain lanes are
    deduplicated by np.unique over (nu, x) packed exactly into one complex
    number, and each distinct lane is summed once and on its own, so the
    sorted order changes no value.  Its leading term is formed as _series
    forms it: _series_setup and the gamma product once per distinct order,
    math.log once per distinct x/2, each gathered by an inverse index, and
    math.pow lane by lane, since (x/2)^power differs on every lane.
    _series's recurrence then runs in _series's order with numpy, so every
    value is bit-identical to _series's.  A lane out of domain, whose
    leading term underflows, or that does not converge within MAX_TERMS is
    NaN (_series raises for the last two).  Stores nothing and forms no
    error estimate.  Raises only for an unknown kind.
    """
    g1 = _series_setup(kind, 0.0)[0]
    xs = np.asarray(xs, dtype=float)
    nus = np.broadcast_to(np.asarray(nus, dtype=float), xs.shape)
    ok = (nus >= _L_FLOOR) & (nus < math.inf) & (0.5 * xs > 0.0) & (xs <= X_MAX)
    out = np.full(xs.shape, math.nan)
    if not ok.any():
        return out
    pair = np.empty(np.count_nonzero(ok), dtype=complex)  # (nu, x) exactly, one number
    pair.real, pair.imag = nus[ok], xs[ok]
    keys, inverse = np.unique(pair, return_inverse=True)  # each distinct lane once
    orders, order_at = np.unique(keys.real, return_inverse=True)
    setup = []
    for nu in orders.tolist():
        _, shift, power0, n0 = _series_setup(kind, nu)
        setup.append((shift, n0, 2 * n0 + power0, _gamma_pair(n0 + g1, n0 + shift)[0]))
    shift, nv, power, gammas = (np.array(c, dtype=float)[order_at] for c in zip(*setup))
    xv, sums = keys.imag, np.full(keys.size, math.nan)
    # _first_term_err's value lane by lane
    halves, half_at = np.unique(0.5 * xv, return_inverse=True)
    log_mag = np.abs(power * _map_lanes(math.log, halves)[half_at])
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
    # the term cap is read where _series reads it, from special_core
    for _ in range(special_core.MAX_TERMS if lane.size else 0):
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
    out[ok] = sums[inverse]
    return out


class Row(Point):
    """Point's primitives over numpy lanes x (and y): a lane set, read at
    its order nu by the formulas.

    Every primitive is kept per the order it is asked for (I, L, M, a and b)
    or per lane names (of), never per nu, so at(nu) gives a view of the
    same lanes at another order that shares all of them: a sweep builds one
    Row per lane set and computes each lane's work once for all its orders.
    Arithmetic runs in numpy, which rounds as Python does; the elementary
    functions are math's lane by lane, because numpy's exp, tanh, log, hypot
    and pow differ from math's by an ulp on a few percent of arguments, and
    a row must give a point's bits.  given maps (kind, order, at_y) to a
    series row a sweep handed in (fill_rows); a series it was not given is
    summed by one fill_series_row call.  Lanes the batch could not sum are
    summed again by the scalar kernel, which raises the typed error.
    """

    log, exp, tanh, hypot, sqrt, pow = (staticmethod(partial(_map_lanes, getattr(math, n)))
                                        for n in _ELEMENTARY)
    map = staticmethod(_map_lanes)
    where = staticmethod(lambda cond, a, b: np.where(cond, a(), b()))
    _positive = staticmethod(lambda v: bool(np.all(np.isfinite(v) & (v > 0.0))))
    _ordered = staticmethod(lambda x, y: bool(np.all(x <= y)))
    _largest = staticmethod(lambda v: float(v.max()))

    def __init__(self, nu: float, x, y=None):
        if not np.size(x):
            raise DomainError("a row needs at least one lane, got an empty x array")
        super().__init__(nu, x, y)
        self.given: dict = {}

    def at(self, nu: float) -> Row:
        """These lanes at order nu: a shallow copy that shares the kept
        primitives and given.  A Row built only to be viewed takes nu = nan,
        which no formula then reads."""
        view = copy(self)
        view.nu = nu
        return view

    @_lazy
    def M(self, order: float):
        """struve_m's rule over the lanes: L - I and _cancels' test are IEEE
        arithmetic, so numpy gives their bits; only the cancelling lanes
        take _mv_stable, lane by lane."""
        lv, iv = self.L(order), self.I(order)
        m = lv - iv
        for i in np.flatnonzero(_cancels(lv, iv)).tolist():
            m[i] = _mv_stable(order, self.x[i].item())[0]
        return m

    @_lazy
    def b(self, order: float):
        """kernel_b over the lanes: the gamma factor once per order, the power
        lane by lane, and the quotient in numpy.  A lane whose quotient is
        not in (0, inf) (the power overflowed, or lv is 0) runs kernel_b
        itself, which gives its log-space value or raises its error."""
        if not math.isfinite(order) or order <= -1.5:
            raise DomainError(f"kernel requires nu > -3/2, got {order}")
        lv = self.L(order)
        if order + 1.5 >= GAMMA_ARG_MAX:
            return _map_lanes(kernel_b, order, self.x, lv)
        pw = _map_lanes(_pow_or_inf, 0.5 * self.x, order + 1.0)
        with np.errstate(all="ignore"):
            q = pw / (SQRT_PI * math.gamma(order + 1.5) * lv)
        for i in np.flatnonzero(~((0.0 < q) & (q < math.inf))).tolist():
            q[i] = kernel_b(order, self.x[i].item(), lv[i].item())
        return q

    @_lazy
    def of(self, f, *lanes: str):
        return _map_lanes(f, *[getattr(self, n) for n in lanes])

    def _series(self, kind, order, at_y):
        v = self.y if at_y else self.x
        got = self.given.get((kind, order, at_y))
        if got is None:
            got = fill_series_row(kind, order, v)
        for i in np.flatnonzero(np.isnan(got)).tolist():
            got[i] = _series(kind, order, v[i].item())[0]
        return got


def fill_rows(wants) -> None:
    """Hand Rows the series they will read, summed with one fill_series_row
    per kind: wants lists (row, kind, order, at_y), and each row gets the
    values over its x lanes (at_y false) or y lanes in row.given.  Views of
    one lane set (Row.at) share given, so a series two of them want is
    summed and stored once."""
    wants = {(id(P.given), k, order, at_y): (P, k, order, at_y) for P, k, order, at_y in wants}
    for kind in ("L", "I"):
        mine = [(P, order, at_y, P.y if at_y else P.x)
                for P, k, order, at_y in wants.values() if k == kind]
        if mine:
            sums = fill_series_row(kind, np.concatenate([np.full(v.size, o) for _, o, _, v in mine]),
                                   np.concatenate([v for *_, v in mine]))
            ends = np.cumsum([v.size for *_, v in mine])
            for (P, order, at_y, _), part in zip(mine, np.split(sums, ends[:-1])):
                P.given[kind, order, at_y] = part


def _args(P):
    return (P.nu, P.x, P) if P.y is None else (P.nu, P.x, P.y, P)


def _row(value, P) -> np.ndarray:
    if isinstance(value, np.ndarray) and value.shape == P.x.shape:
        return value
    return np.broadcast_to(value, P.x.shape)


def exact_row(target: str, P) -> np.ndarray:
    """The exact values of target over the lanes of a Row."""
    return _row(EXACT[target](*_args(P)), P)


def bound_row(spec: BoundSpec, P) -> np.ndarray:
    """spec's bound over the lanes of a Row."""
    return _row(spec.formula(*_args(P)), P)
