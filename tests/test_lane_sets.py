"""One Row per lane set: rows read at many orders against points, and the
sweeps' sharing of lane work.

The property test draws seeded lane sets, x lanes and (x, y) pairs with
subnormal, tiny and largest arguments among them, and reads every
registered bound and exact value at seeded orders from one Row per lane
set, as certify_all does: the orders include the gamma poles and
half-integers at the bottom of the range and the edge GAMMA_ARG_MAX - 3/2
at the top.  Each lane must give the point's bits.  A lane where the point
raises is left out of the comparison; since such a lane raises on the row
too, those orders are compared on a shared lane set of the lanes that
answer, again read at each order.
"""

import math

import numpy as np
import pytest

from struvebounds import arg_ratio, registry, rows, tables, verify
from struvebounds.errors import StruveBoundsError
from struvebounds.registry import EXACT, REGISTRY
from struvebounds.special_core import GAMMA_ARG_MAX, X_MAX, kernel_b, struve_l

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
    answers; returns the lane set it read.  P, the whole lane set, is
    compared first.  If it raises (a lane the point refuses raises on the
    row too), the lane set of the answering lanes is compared instead:
    subsets keeps one such lane set per answer mask, so the orders and
    bounds with the same mask share it."""
    ok = np.array([v is not None for v in point_values])
    if not ok.any():
        return None
    try:
        got, read = np.asarray(row_value(P))[ok], P
    except StruveBoundsError:
        key = ok.tobytes()
        if key not in subsets:
            subsets[key] = rows.Row(*(v[ok] for v in lanes))
        got, read = row_value(subsets[key]), subsets[key]
    assert _bits(got) == _bits([v for v in point_values if v is not None]), what
    return id(read)


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
    base = {takes_y: rows.Row(*lanes) for takes_y, lanes in lane_sets.items()}
    subsets = {takes_y: {} for takes_y in lane_sets}
    read = []  # the lane set each comparison went through
    for spec in REGISTRY.values():
        takes_y = registry.needs_y(spec)
        lanes = lane_sets[takes_y]
        for nu in _orders(rng, spec, 3):
            P = base[takes_y]
            args = [(nu, *lane) for lane in zip(*(v.tolist() for v in lanes))]
            bounds = [_point_or_error(spec.evaluate, *a) for a in args]
            exacts = [_point_or_error(registry.exact_value, spec.target, *a) for a in args]
            read += [_check(lambda R: rows.bound_row(spec, R, nu), P, lanes, bounds,
                            (spec.bound_id, nu), subsets[takes_y]),
                     _check(lambda R: R.exact(spec.target, nu), P, lanes, exacts,
                            (spec.target, nu), subsets[takes_y])]
    # the comparisons ran through few lane sets, each read at many orders
    compared = [v for v in read if v is not None]
    assert len(compared) >= 150
    assert len(compared) >= 10 * len(set(compared))


def test_a_lane_set_keeps_its_work_for_every_order(monkeypatch):
    fills, exact_rows = [], []
    fill_series_row, exact_row = rows.fill_series_row, rows.exact_row

    def counted_fill(kind, nus, xs):
        fills.append((kind, nus))
        return fill_series_row(kind, nus, xs)

    def counted_exact_row(target, P, nu):
        exact_rows.append((target, nu))
        return exact_row(target, P, nu)

    monkeypatch.setattr(rows, "fill_series_row", counted_fill)
    monkeypatch.setattr(rows, "exact_row", counted_exact_row)
    P = rows.Row(np.array([0.5, 2.0, 10.0]))
    assert not hasattr(P, "nu")
    # the successive ratio at orders 1 and 2 both read L_1, summed once
    for nu in (1.0, 2.0):
        EXACT["succ_ratio_L"](nu, P.x, P)
    assert sorted(fills) == [("L", 0.0), ("L", 1.0), ("L", 2.0)]
    assert P.L(1.0) is P.L(1.0) and P.of(math.log, "x") is P.of(math.log, "x")
    assert _bits(EXACT["pointwise_L"](2.0, P.x, P)) == _bits(P.L(2.0))
    # an exact row is computed once per (target, order)
    assert P.exact("pointwise_L", 2.0) is P.exact("pointwise_L", 2.0)
    assert _bits(P.exact("pointwise_L", 1.0)) == _bits(P.L(1.0))
    assert exact_rows == [("pointwise_L", 2.0), ("pointwise_L", 1.0)]


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
    lane_sets = {id(P): P for P, *_ in wanted}
    n_x = len(grid.x_values)
    n_pairs = sum(len(grid.y_values(x)) for x in grid.x_values)
    assert sorted(P.x.size for P in lane_sets.values()) == [n_x, n_pairs]
    # one fill per kind, and nothing summed later, so each (lane set, kind,
    # order, at_y) reached fill_series_row once: the lanes summed are those
    # handed out
    assert sorted(kind for kind, _ in fills) == ["I", "L"]
    handed = sum(v.size for P in lane_sets.values() for v in P.given.values())
    assert sum(n for _, n in fills) == handed
    assert len({(id(P), *r) for P, *r in wanted}) == sum(
        len(P.given) for P in lane_sets.values())
    # a nu-free helper runs once per lane: eq39 reads it over x, eq38_upper
    # over both arguments of the pairs
    assert len(tanh_half) == n_x + 2 * n_pairs


def test_certify_alone_reads_one_lane_set(monkeypatch):
    tanh_half, read = [], []
    log_tanh_half, bound_row = arg_ratio._log_tanh_half, rows.bound_row

    def counted_tanh_half(u):
        tanh_half.append(u)
        return log_tanh_half(u)

    def kept_bound_row(spec, P, nu):
        read.append((P, nu))
        return bound_row(spec, P, nu)

    monkeypatch.setattr(arg_ratio, "_log_tanh_half", counted_tanh_half)
    monkeypatch.setattr(rows, "bound_row", kept_bound_row)
    grid = verify.default_grid()
    report = verify.certify("eq38_upper", grid)
    n_pairs = sum(len(grid.y_values(x)) for x in grid.x_values)
    nus = [nu for nu in grid.nu_values if registry.get_bound("eq38_upper").valid_at(nu)]
    assert report.points_checked == n_pairs * len(nus)
    # every order reads the one lane set of pairs, so the nu-free helper
    # runs once over both arguments of each pair
    assert [nu for _, nu in read] == nus and len({id(P) for P, _ in read}) == 1
    assert read[0][0].y.size == n_pairs
    assert len(tanh_half) == 2 * n_pairs


def test_certify_alone_fills_once_per_kind(monkeypatch):
    fills = []
    fill_series_row = rows.fill_series_row

    def counted_fill(kind, nus, xs):
        fills.append(kind)
        return fill_series_row(kind, nus, xs)

    monkeypatch.setattr(rows, "fill_series_row", counted_fill)
    grid = verify.default_grid()
    for bid in registry.bound_ids():
        fills.clear()
        verify.certify(bid, grid)
        # its valid orders' series are summed up front, one fill per kind,
        # and none is summed later on a first read
        assert sorted(set(fills)) == sorted(fills), (bid, fills)


def test_certify_alone_matches_certify_all():
    grid = verify.default_grid()
    together = verify.certify_all(grid)
    assert [r.bound_id for r in together] == registry.bound_ids()
    for report in together:
        assert verify.certify(report.bound_id, grid) == report, report.bound_id


def test_order_lanes_give_the_points_bits(monkeypatch):
    got = []
    order_lanes = verify._order_lanes

    def kept_order_lanes(b_nus, ratio_nus):
        got.append((b_nus, ratio_nus, order_lanes(b_nus, ratio_nus)))
        return got[-1][2]

    monkeypatch.setattr(verify, "_order_lanes", kept_order_lanes)
    verify.monotonicity_suite()
    [(b_nus, ratio_nus, (b, ratio))] = got
    assert b.shape == (3, 229) and ratio.shape == (4, 39)

    def L(nu, x):
        return struve_l(nu, x).value

    # each (x, order) lane holds the bits a point gives there
    assert _bits(b) == _bits([[kernel_b(nu, x, L(nu, x)) for nu in b_nus]
                              for x in verify._B_NU_X])
    assert _bits(ratio) == _bits([[L(nu + 1.0, x) / L(nu, x) for nu in ratio_nus]
                                  for x in verify._RATIO_X])


def test_certify_all_forms_one_slack_per_bound(monkeypatch):
    stacked = []
    slack = verify._slack

    def counted_slack(side, bound, exact):
        stacked.append(np.shape(bound))
        return slack(side, bound, exact)

    monkeypatch.setattr(verify, "_slack", counted_slack)
    grid = verify.default_grid()
    verify.certify_all(grid)
    # one (orders x lanes) slack per bound with a valid order on the grid,
    # in the registry's order
    orders = [sum(map(registry.get_bound(bid).valid_at, grid.nu_values))
              for bid in registry.bound_ids()]
    assert [n for n, _ in stacked] == [n for n in orders if n]
    n_x = len(grid.x_values)
    n_pairs = sum(len(grid.y_values(x)) for x in grid.x_values)
    assert {lanes for _, lanes in stacked} == {n_x, n_pairs}


def test_relative_error_table_is_the_tables_cells():
    for spec in verify.TABLES.values():
        matrix = verify.relative_error_table(spec)
        assert isinstance(matrix, np.ndarray)
        assert matrix.shape == (len(spec.nu_rows), len(spec.x_cols))
        assert _bits(matrix) == _bits(tables.relative_error_cells(spec))
