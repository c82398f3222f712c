"""special_core's primitives over numpy lanes, for the sweeps of verify.

fill_series_row sums many series at once, one lane per (nu, x), doing the
scalar kernel's floating-point operations in the same order, so every value
is bit-identical to the scalar one.  A Row is a Point over numpy lanes for
one (bound, order) row of a sweep; exact_row and bound_row run a target's
exact formula and a bound's formula over one.  Only this module and verify
import numpy at module level, so a point query never loads it.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

import numpy as np

from . import special_core
from .errors import DomainError
from .registry import EXACT, BoundSpec
from .special_core import (_ELEMENTARY, _L_FLOOR, _LOG_MAG_MAX, _TINY, REL_TOL, X_MAX, Point,
                           _first_term, _gamma_pair, _lazy, _series, _series_setup)


def _map_lanes(f, *args):
    """f applied lane by lane over the array arguments, scalars repeated."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return f(*args)
    return np.fromiter(map(f, *(a.tolist() if isinstance(a, np.ndarray) else repeat(a)
                                for a in args)), float)


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
    out[ok] = sums[unique]
    return out


class Row(Point):
    """Point's primitives at one order over numpy lanes x (and y).

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
    values over its x lanes (at_y false) or y lanes in row.given."""
    for kind in ("L", "I"):
        mine = [(P, order, at_y, P.y if at_y else P.x) for P, k, order, at_y in wants if k == kind]
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
