"""One Row per lane set: rows viewed at many orders against points, and the
sweeps' sharing of lane work.

The property test draws seeded lane sets, x lanes and (x, y) pairs with
subnormal, tiny and largest arguments among them, and reads every
registered bound and exact value at seeded orders through Row.at views of
one Row per lane set, as certify_all does: the orders include the gamma
poles and half-integers at the bottom of the range and the edge
GAMMA_ARG_MAX - 3/2 at the top.  Each lane must give the point's bits.
A lane where the point raises is left out of the comparison; since such
a lane raises on the row too, those orders are compared on a shared lane
set of the lanes that answer, again through views.
"""

import math

import numpy as np
import pytest

from struvebounds import arg_ratio, registry, rows, verify
from struvebounds.errors import StruveBoundsError
from struvebounds.registry import EXACT, REGISTRY
from struvebounds.special_core import GAMMA_ARG_MAX, X_MAX

_TOP = GAMMA_ARG_MAX - 1.5  # b's gamma factor leaves math.gamma here
_SPECIAL_ORDERS = (-1.5 + 1e-9, -1.4, -1.0, -0.5, -0.5 + 1e-13, -0.5 - 1e-13, 0.0, 0.5, 1.0,
                   1.5, 2.5, _TOP - 1e-9, _TOP, _TOP + 1e-9, _TOP + 1.0)
_SPECIAL_X = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-9, 1e-8, X_MAX)


def _lanes(rng, n):
    xs = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(X_MAX), n)),
                         rng.choice(_SPECIAL_X, 3, replace=False)])
    ys = np.minimum(xs * rng.uniform(1.0, 20.0, xs.size), X_MAX)
    return xs, ys


def _orders(rng, spec, k):
    pool = rng.permutation(np.concatenate([rng.uniform(-2.4, 25.0, 8), _SPECIAL_ORDERS]))
    return [nu for nu in pool.tolist() if spec.valid_at(nu)][:k]


def _point_or_error(f, *args):
    try:
        return f(*args)
    except StruveBoundsError:
        return None


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _check(row_value, P, lanes, point_values, what, subsets):
    """The row's bits against the point's at every lane where the point
    answers, always through a view; returns the lane set it viewed.  P, the
    whole lane set at this order, is compared first.  If it raises (a lane
    the point refuses raises on the row too), a view at this order of the
    lane set of the answering lanes is compared instead: subsets keeps one
    such lane set per answer mask, so the orders and bounds with the same
    mask share it."""
    ok = np.array([v is not None for v in point_values])
    if not ok.any():
        return None
    try:
        got, viewed = np.asarray(row_value(P))[ok], P.given
    except StruveBoundsError:
        key = ok.tobytes()
        if key not in subsets:
            subsets[key] = rows.Row(math.nan, *(v[ok] for v in lanes))
        got, viewed = row_value(subsets[key].at(P.nu)), subsets[key].given
    assert _bits(got) == _bits([v for v in point_values if v is not None]), what
    return id(viewed)


# the product difference overflows at high orders and large x on both paths
# (inf or NaN, where a point gives the same without a warning)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_views_of_one_lane_set_match_points(seed):
    rng = np.random.default_rng(seed)
    xs, ys = _lanes(rng, 7)
    order = np.argsort(xs)
    lane_sets = {False: (xs[order],), True: (xs[order], ys[order])}
    base = {takes_y: rows.Row(math.nan, *lanes) for takes_y, lanes in lane_sets.items()}
    subsets = {takes_y: {} for takes_y in lane_sets}
    viewed = []  # the lane set each comparison went through
    for spec in REGISTRY.values():
        takes_y = registry.needs_y(spec)
        lanes = lane_sets[takes_y]
        for nu in _orders(rng, spec, 3):
            P = base[takes_y].at(nu)
            args = [(nu, *lane) for lane in zip(*(v.tolist() for v in lanes))]
            bounds = [_point_or_error(spec.evaluate, *a) for a in args]
            exacts = [_point_or_error(registry.exact_value, spec.target, *a) for a in args]
            viewed += [_check(lambda R: rows.bound_row(spec, R), P, lanes, bounds,
                              (spec.bound_id, nu), subsets[takes_y]),
                       _check(lambda R: rows.exact_row(spec.target, R), P, lanes, exacts,
                              (spec.target, nu), subsets[takes_y])]
    # the comparisons ran through few lane sets, each viewed at many orders
    compared = [v for v in viewed if v is not None]
    assert len(compared) >= 150
    assert len(compared) >= 10 * len(set(compared))


def test_a_view_shares_its_lane_sets_work():
    P = rows.Row(math.nan, np.array([0.5, 2.0, 10.0]))
    one, two = P.at(1.0), P.at(2.0)
    assert (one.nu, two.nu) == (1.0, 2.0) and math.isnan(P.nu)
    assert one.x is P.x and one.given is P.given and one._got is P._got
    assert one.L(2.0) is two.L(2.0)
    assert one.of(math.log, "x") is two.of(math.log, "x")
    assert _bits(EXACT["pointwise_L"](2.0, two.x, two)) == _bits(one.L(2.0))


def test_certify_all_does_each_lane_sets_work_once(monkeypatch):
    fills, wanted, tanh_half = [], [], []
    fill_series_row, fill_rows = rows.fill_series_row, rows.fill_rows
    log_tanh_half = arg_ratio._log_tanh_half

    def counted_fill(kind, nus, xs):
        fills.append((kind, np.size(xs)))
        return fill_series_row(kind, nus, xs)

    def kept_fill_rows(wants):
        wanted.extend(wants)
        return fill_rows(wants)

    def counted_tanh_half(u):
        tanh_half.append(u)
        return log_tanh_half(u)

    monkeypatch.setattr(rows, "fill_series_row", counted_fill)
    monkeypatch.setattr(rows, "fill_rows", kept_fill_rows)
    monkeypatch.setattr(arg_ratio, "_log_tanh_half", counted_tanh_half)
    grid = verify.default_grid()
    reports = verify.certify_all(grid)
    assert sum(r.points_checked for r in reports) == 35_755

    # one Row per lane set: the x lanes and the (x, y) pairs
    lane_sets = {id(P.given): P for P, *_ in wanted}
    n_x = len(grid.x_values)
    n_pairs = sum(len(grid.y_values(x)) for x in grid.x_values)
    assert sorted(P.x.size for P in lane_sets.values()) == [n_x, n_pairs]
    # one fill per kind, and nothing summed later, so each (lane set, kind,
    # order, at_y) reached fill_series_row once: the lanes summed are those
    # handed out
    assert sorted(kind for kind, _ in fills) == ["I", "L"]
    handed = sum(v.size for P in lane_sets.values() for v in P.given.values())
    assert sum(n for _, n in fills) == handed
    assert len({(id(P.given), *r) for P, *r in wanted}) == sum(
        len(P.given) for P in lane_sets.values())
    # a nu-free helper runs once per lane: eq39 reads it over x, eq38_upper
    # over both arguments of the pairs
    assert len(tanh_half) == n_x + 2 * n_pairs


def test_certify_alone_views_one_lane_set(monkeypatch):
    tanh_half = []
    log_tanh_half = arg_ratio._log_tanh_half

    def counted_tanh_half(u):
        tanh_half.append(u)
        return log_tanh_half(u)

    monkeypatch.setattr(arg_ratio, "_log_tanh_half", counted_tanh_half)
    grid = verify.default_grid()
    shared = {}
    report = verify.certify("eq38_upper", grid, shared=shared)
    n_pairs = sum(len(grid.y_values(x)) for x in grid.x_values)
    assert report.points_checked == n_pairs * sum(map(registry.get_bound("eq38_upper").valid_at,
                                                      grid.nu_values))
    # every order is a view of the one lane set of pairs, so the nu-free
    # helper runs once over both arguments of each pair
    views = [P for key, P in shared.items() if key[1] is True and key[0] != "lanes"]
    assert len(views) > 1 and all(P.given is shared["lanes", True].given for P in views)
    assert len(tanh_half) == 2 * n_pairs
