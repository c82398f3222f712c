"""The certification sweeps (certify_all, monotonicity_suite), the array
engines certify and crossover, reference error tables and the eq14
extension probe.

Certification works a row at a time: for each (bound, order) the bound's
formula and its target's exact formula each run once as numpy arrays over
a rows.Row of the grid's (x[, y]) lanes, read at that order, and one
GridReport.record call takes the row.  A Row is a lane set that keeps each
primitive by the order it is asked for, so certify builds one Row for the
x lanes or one for the (x, y) pairs and reads it at every order, and
monotonicity_suite builds one Row per grid of lanes; every formula and
primitive takes its order as an argument.  certify hands the report the
lane set's x (and y) as one list, recorded at every order, and each order's
slack as an array, which GridReport.record turns into Python values once;
the report keeps those and its summary (point count, violations, worst
slack and largest gap) as it goes, and builds the per-point (nu, x, y,
slack, status) tuples of GridReport.rows, and the lines of
report_csv_rows, when they are read.  The sweeps own their series: each
builds its lane sets first, sums every series they read with one
fill_series_row per kind (rows.fill_rows) and hands each lane set its
arrays, so neither calls the registry's point entries.  certify_all shares the lane sets, and with
them the exact rows they keep, among all bounds and fills every series
they read up front; certify alone fills the series of its bound's valid
orders the same way, one fill per kind, before its loop.  Exact values
inside certification always come from the power-series route; the
quadrature oracle is reserved for cross-validating the series itself, so a
certification failure can never be self-confirming.

This module is the sweeps' engine and needs numpy, the sweeps extra:
without it, importing it raises ExtraMissing.  Its certify and crossover
are the array engines of certification.certify and registry.crossover,
which run point by point and load no numpy; certify_all and the suites call
these, and a Row gives a point's bits, so both engines give the same
reports and roots.  Grid, default_grid, GridReport and report_csv_rows live
in certification and the relative-error tables, computed point by point,
in tables; this module re-exports their names and gives
relative_error_table, the cells as an ndarray.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ExtraMissing

try:
    import numpy as np
except ImportError:
    raise ExtraMissing("the sweeps need numpy: install the sweeps extra, "
                       "pip install 'struvebounds[sweeps]'") from None

from . import registry, rows
# the names certification records in, and the grid, stay reachable here
from .certification import (DEFAULT_TOLERANCE, Grid, GridReport, _bound_orders,
                            _check_tolerance, default_grid, report_csv_rows)
from .special_core import _L_FLOOR, ORDER_TOL, recurrence_residuals
# the tables live in tables, which loads no numpy; their names stay reachable here
from .tables import (TABLES, TableSpec, parse_table_csv, relative_error_cells,
                     render_table_csv, render_table_text, table_by_id)


def _grid_row(grid: Grid, takes_y: bool) -> Optional[rows.Row]:
    """The lanes certify checks (Grid.lanes) as a Row; None if there are
    none."""
    xs, ys = grid.lanes(takes_y)
    if not xs:
        return None
    return rows.Row(np.array(xs), None if ys is None else np.array(ys))


def _lane_sets(grid: Grid, orders_by_takes_y: dict) -> dict:
    """{takes_y: the grid's lane set (_grid_row), or None} for each takes_y
    of orders_by_takes_y that has orders, with every series certify reads
    at those orders (_certify_reads) summed by one rows.fill_rows call, one
    fill_series_row per kind."""
    lanes = {takes_y: _grid_row(grid, takes_y) if nus else None
             for takes_y, nus in orders_by_takes_y.items()}
    rows.fill_rows([(P, *r) for takes_y, P in lanes.items() if P is not None
                    for nu in orders_by_takes_y[takes_y] for r in _certify_reads(nu, takes_y)])
    return lanes


def certify(bound_id: str, grid: Optional[Grid] = None,
            tolerance: float = DEFAULT_TOLERANCE, *,
            lanes: Optional[dict] = None) -> GridReport:
    """certification.certify over numpy lanes: the bound reads one lane
    set, the grid's x lanes or its (x, y) pairs, and at each in-range order
    its formula (rows.bound_row) and its target's exact formula (Row.exact,
    kept per target and order) run once over the lanes.  lanes maps
    takes_y to a lane set with its series filled (_lane_sets), as
    certify_all passes to every bound; without it, this builds and fills
    its own at the bound's valid orders."""
    spec, grid, nus = _bound_orders(bound_id, grid, tolerance)
    report = GridReport(spec.bound_id)
    takes_y = registry.needs_y(spec)
    P = (_lane_sets(grid, {takes_y: nus}) if lanes is None else lanes)[takes_y]
    if P is None:
        return report
    # one list per lane set, recorded at every order, as the point path does
    xs, ys = P.x.tolist(), None if P.y is None else P.y.tolist()
    for nu in nus:
        report.record(nu, xs, ys, _slack(spec.side, rows.bound_row(spec, P, nu),
                                         P.exact(spec.target, nu)),
                      tolerance, spec.is_equality_at(nu))
    return report


def crossover(bound_id_a: str, bound_id_b: str, nu: float,
              x_range: tuple[float, float] = (0.01, 50.0)) -> float:
    """registry.crossover with its 200-point pre-scan over one rows.Row."""
    return registry._crossover(bound_id_a, bound_id_b, nu, x_range, _row_difference)


def _row_difference(spec_a: registry.BoundSpec, spec_b: registry.BoundSpec, nu: float,
                    xs: list[float]) -> list[float]:
    """spec_a - spec_b at order nu over one rows.Row of the lanes xs, as
    Python floats: a Row gives a point's bits, so each is the difference
    BoundSpec.evaluate gives at its x."""
    P = rows.Row(np.array(xs))
    return (rows.bound_row(spec_a, P, nu) - rows.bound_row(spec_b, P, nu)).tolist()


def _relative(diff, ref):
    """diff / |ref| lane by lane, with 1e-300 in place of a zero ref."""
    return diff / np.where(ref != 0.0, np.abs(ref), 1e-300)


def _slack(side: str, bound, exact):
    return _relative(bound - exact if side == "upper" else exact - bound, exact)


def _certify_reads(nu: float, takes_y: bool) -> list[tuple[str, float, bool]]:
    """(kind, order, at_y) of the series the registry's formulas read on a
    grid lane set at order nu: I and L at nu - 1, nu and nu + 1 and L at
    1/2 (for b_{1/2}) over x, and I and L at nu over both arguments of the
    pairs."""
    if takes_y:
        return [(kind, nu, at_y) for kind in "IL" for at_y in (False, True)]
    return [(kind, nu + k, False) for kind in "IL" for k in (-1.0, 0.0, 1.0)] + [("L", 0.5, False)]


def certify_all(grid: Optional[Grid] = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[GridReport]:
    """Certify every registered bound, computing each exact row once.  The
    bounds share one lane set for the x lanes and one for the (x, y) pairs
    (_lane_sets), so all orders share each lane's work; every series the
    lane sets are read at is summed up front, one pass per kind."""
    _check_tolerance(tolerance)
    grid = grid or default_grid()
    lanes = _lane_sets(grid, dict.fromkeys((False, True), grid.nu_values))
    return [certify(bid, grid, tolerance, lanes=lanes) for bid in registry.bound_ids()]


def certify_eq14_extension(grid: Optional[Grid] = None,
                           tolerance: float = DEFAULT_TOLERANCE) -> GridReport:
    """Probe the conjectured extension of the product-difference positivity
    down to order -1/2.  Informational only; no invariant is asserted here."""
    _check_tolerance(tolerance)
    grid = grid or default_grid()
    report = GridReport("eq14_extension_experiment")
    P = _grid_row(grid, False)  # one lane set for every order
    for nu in grid.nu_values:
        if not (-0.5 - ORDER_TOL <= nu < 0.5) or P is None:
            continue
        pd = rows.exact_row("product_diff_L", P, nu)
        report.record(nu, P.x, None, _relative(pd, pd), tolerance, False)
    return report


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def relative_error_table(spec: TableSpec) -> np.ndarray:
    """tables.relative_error_cells as a (len(nu_rows), len(x_cols)) array."""
    return np.array(relative_error_cells(spec), dtype=float).reshape(
        len(spec.nu_rows), len(spec.x_cols))


# ---------------------------------------------------------------------------
# monotonicity / structural property suites
# ---------------------------------------------------------------------------

def _comparison_report(name: str, rows: Iterable[tuple]) -> GridReport:
    """Strict-inequality report: each row is (nu, x, lhs, rhs), each a scalar,
    list or array of one length, requiring lhs < rhs at tolerance 0; slack is
    (rhs - lhs)/|rhs|."""
    report = GridReport(name)
    for nu, x, lhs, rhs in rows:
        rhs = np.asarray(rhs, dtype=float)
        report.record(nu, x, None, _relative(rhs - lhs, rhs), 0.0, False)
    return report


def _adjacent_orders(nus: list, xs: tuple, values: list) -> tuple:
    """(nu, x, value at the previous order, value at nu) over every pair of
    adjacent orders, x-major as the point-by-point suites ran; values[k] is
    the row at nus[k] over the lanes xs."""
    v = np.array(values)
    return nus[1:] * len(xs), np.repeat(xs, len(nus) - 1), v[:-1].T.ravel(), v[1:].T.ravel()


def monotonicity_suite() -> list[GridReport]:
    """Structural properties checked on well-separated grids (spacing >= 0.05,
    strict comparisons at tolerance 0):

    - the kernel decreases in x and increases in the order
    - the successive-order ratio decreases in the order from 1/2 up
    - the Turan product inequality
    - domination of the Bessel ratio by the M-ratio from order 1/2 up
    - both three-term recurrence residuals stay at rounding level

    Each grid of lanes is one Row, read at every order it is checked at,
    and every series is summed up front, one fill per kind.
    """
    grid = default_grid()
    xs = np.array(grid.x_values)
    xs_lin = np.array([round(0.1 + 0.05 * k, 10) for k in range(999)])  # 0.1 .. 50
    nus_lin = [round(-1.4 + 0.05 * k, 10) for k in range(229)]  # -1.4 .. 10
    ratio_nus = [0.5 + 0.25 * k for k in range(39)]  # 0.5 .. 10
    m_nus = [nu for nu in grid.nu_values if nu >= 0.5]
    # one Row per lane set, each primitive read at an explicit order
    b_x = rows.Row(xs_lin)
    b_nu = rows.Row(np.array((0.5, 2.0, 10.0)))
    ratio = rows.Row(np.array((0.5, 2.0, 10.0, 30.0)))
    P = rows.Row(xs)  # Turan and the recurrences
    m_row = rows.Row(xs[xs <= 30.0])
    rows.fill_rows([(b_x, "L", nu, False) for nu in grid.nu_values]
                   + [(b_nu, "L", nu, False) for nu in nus_lin]
                   + [(ratio, "L", nu + k, False) for nu in ratio_nus for k in (0.0, 1.0)]
                   + [(P, "L", nu + k, False) for nu in grid.nu_values for k in (-1.0, 0.0, 1.0)]
                   + [(m_row, kind, nu + k, False) for nu in m_nus for kind in "IL" for k in (-1.0, 0.0)])
    reports = []

    reports.append(_comparison_report("mono_b_decreasing_in_x", [  # b(x) < b(prev x)
        (nu, b_x.x[1:], b[1:], b[:-1]) for nu in grid.nu_values for b in [b_x.b(nu)]]))

    reports.append(_comparison_report("mono_b_increasing_in_nu", [  # b(prev nu) < b(nu)
        _adjacent_orders(nus_lin, (0.5, 2.0, 10.0), [b_nu.b(nu) for nu in nus_lin])]))

    nu, x, prev, cur = _adjacent_orders(ratio_nus, (0.5, 2.0, 10.0, 30.0),
                                        [ratio.L(nu + 1.0) / ratio.L(nu) for nu in ratio_nus])
    # decreasing in the order
    reports.append(_comparison_report("mono_succ_ratio_decreasing_in_nu", [(nu, x, cur, prev)]))

    # L_nu^2 by math's pow, which a float's ** 2 calls; x * x differs from it by an ulp at times
    reports.append(_comparison_report("turan_product", [
        (nu, P.x, P.L(nu - 1.0, floor=_L_FLOOR) * P.L(nu + 1.0), P.pow(P.L(nu), 2.0))
        for nu in grid.nu_values]))

    reports.append(_comparison_report("m_ratio_dominates_bessel_ratio", [  # I-ratio < M-ratio
        (nu, m_row.x, m_row.I(nu) / m_row.I(nu - 1.0), m_row.M(nu) / m_row.M(nu - 1.0))
        for nu in m_nus]))

    report = GridReport("recurrence_residuals")
    for nu in grid.nu_values:
        if nu > -0.5:
            r1, r2 = recurrence_residuals(nu, P.x, P)
            report.record(nu, P.x, None, DEFAULT_TOLERANCE - np.maximum(r1, r2), 0.0, False)
    reports.append(report)
    return reports
