"""Grid certification of every registered inequality, reference error tables,
crossover location, and the monotonicity/Turan property suites.

Certification works a row at a time: for each (bound, order) a rows.Row
over the grid's (x[, y]) lanes at that order, on which the bound's formula
and its target's exact formula each run once as numpy arrays, and one
GridReport.record call takes the row.  A Row is a lane set; at(nu) views it
at an order, sharing every primitive it has kept, so certify builds one Row
for the x lanes or one for the (x, y) pairs and views it at each order, and
monotonicity_suite builds one Row per grid of lanes and reads each
primitive at an explicit order.  A GridReport keeps the arrays of
every row it records and its summary (point count, violations, worst slack
and largest gap) as it goes; the per-point (nu, x, y, slack, status) tuples
of GridReport.rows, and the lines of report_csv_rows, are built from those
arrays when they are read.  The sweeps own their series: each builds its
lane sets first, sums every series they read with one fill_series_row per
kind (rows.fill_rows) and hands each lane set its arrays, so neither calls
the registry's point entries.  certify_all shares the lane sets and the
exact rows among all bounds; certify alone lets its lane set sum each
series on first read.  Exact values inside certification always come from
the power-series route; the quadrature oracle is reserved for
cross-validating the series itself, so a certification failure can never
be self-confirming.

Grid, GridReport and TableSpec stay dataclasses, unlike the point path's
records (brackets.Record): GridReport is mutable, and this module loads
numpy, which imports inspect and ast itself, so plain classes here would
add code and save no import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import registry, rows
from .errors import DomainError, MultipleSignChanges, NoSignChange, UnknownBound
from .special_core import _L_FLOOR, ORDER_TOL, recurrence_residuals

DEFAULT_TOLERANCE = 1e-12

_Y_MULTIPLIERS = (1.5, 3.0, 10.0)
_Y_CAP = 60.0


@dataclass(frozen=True)
class Grid:
    """Evaluation grid; orders and arguments are sorted strictly increasing."""

    nu_values: tuple[float, ...]
    x_values: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("nu_values", self.nu_values), ("x_values", self.x_values)):
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be sorted strictly increasing")

    def y_values(self, x: float) -> list[float]:
        """Second arguments y > x paired with x for the argument-ratio bounds."""
        ys = []
        for m in _Y_MULTIPLIERS:
            y = min(x * m, _Y_CAP)
            if y > x and y not in ys:
                ys.append(y)
        return ys


def default_grid() -> Grid:
    """Fourteen orders spanning every validity edge, sixty log-spaced
    arguments in [1e-3, 50], and argument pairs y = x * {1.5, 3, 10} capped
    at 60."""
    nus = (-1.4, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 5.0, 7.5, 10.0)
    xs = tuple(float(v) for v in np.logspace(-3.0, math.log10(50.0), 60))
    return Grid(nus, xs)


def _lane_tuples(nu, x, y, slack, status) -> Iterator[tuple]:
    """The (nu, x, y, slack, status) tuple of each lane of one recorded row,
    in Python values: an array gives its tolist(), a list itself, and a
    scalar (or None) repeats."""
    return zip(*(v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list)
                 else repeat(v) for v in (nu, x, y, slack, status)))


@dataclass(eq=False)
class GridReport:
    """Outcome of certifying one inequality over a grid.

    Slack is signed and normalized: (upper - exact)/|exact| for upper bounds,
    (exact - lower)/|exact| for lower bounds.  Negative slack beyond the
    tolerance is a violation, and so is a slack that is not finite: a bound
    or an exact value that overflowed or came out NaN certifies nothing.
    Equality orders are recorded with slack 0.

    The report keeps each recorded row as the arrays it was given, and the
    summary fields (points_checked, violations, worst_slack, max_rel_gap)
    as they go; rows, the (nu, x, y, slack, status) tuple of every point, is
    built from those arrays on each read.  Two reports are equal when their
    summary fields and rows are.
    """

    bound_id: str
    points_checked: int = 0
    violations: list[tuple] = field(default_factory=list)
    worst_slack: float = math.inf
    max_rel_gap: float = -math.inf
    _recorded: list[tuple] = field(default_factory=list, init=False, repr=False)

    def record(self, nu, x, y, slack, tolerance: float, equality: bool) -> None:
        """Add one point, or one row of points: nu, x, y (None for
        single-argument targets) and slack may each be arrays or lists of
        one length.  The report keeps the arrays and lists it is given, so
        a caller must not write to them afterwards.

        worst_slack is NaN once a lane's slack is NaN or +inf, so that a
        report is clean exactly when worst_slack >= -tolerance.
        """
        slack = np.atleast_1d(np.asarray(slack, dtype=float))
        n = slack.size
        if equality:
            slack = np.zeros(n)
        bad = ~np.isfinite(slack) | (slack < -tolerance)
        status, worst = ("equality" if equality else "ok"), slack
        if bad.any():
            status = np.where(bad, "violation", "ok").tolist()
            worst = np.where(slack == math.inf, math.nan, slack)
            for lane in compress(_lane_tuples(nu, x, y, slack, status), bad.tolist()):
                self.violations.append(lane[:4] if y is not None else (*lane[:2], lane[3]))
        self.points_checked += n
        self.worst_slack = float(np.minimum.reduce(worst, initial=self.worst_slack))
        self.max_rel_gap = float(np.fmax.reduce(slack, initial=self.max_rel_gap))
        self._recorded.append((nu, x, y, slack, status))

    def _row_tuples(self) -> Iterator[tuple]:
        return chain.from_iterable(_lane_tuples(*r) for r in self._recorded)

    @property
    def rows(self) -> list[tuple]:
        """(nu, x, y, slack, status) of every recorded point in record
        order, status "ok", "violation" or "equality"; a new list on each
        read."""
        return list(self._row_tuples())

    def __eq__(self, other):
        if not isinstance(other, GridReport):
            return NotImplemented
        key = attrgetter("bound_id", "points_checked", "violations", "worst_slack",
                         "max_rel_gap", "rows")
        return key(self) == key(other)

    @property
    def clean(self) -> bool:
        return not self.violations


def _grid_row(grid: Grid, nu: float, takes_y: bool) -> Optional[rows.Row]:
    """The lanes certify checks at order nu, x or (x, y) pairs in x order,
    as a Row; None if there are none."""
    if not takes_y:
        return rows.Row(nu, np.array(grid.x_values)) if grid.x_values else None
    pairs = [(x, y) for x in grid.x_values for y in grid.y_values(x)]
    return rows.Row(nu, *np.array(pairs).T) if pairs else None


def _grid_view(shared: dict, grid: Grid, nu: float, takes_y: bool) -> Optional[rows.Row]:
    """The Row certify checks at order nu: a view (Row.at) of the grid's
    lane set for takes_y, or None if it has no lanes.  shared keeps the lane
    set under ("lanes", takes_y) and the view under (nu, takes_y), so every
    order and every bound that shares the dict reads one lane set."""
    if (nu, takes_y) not in shared:
        if ("lanes", takes_y) not in shared:
            shared["lanes", takes_y] = _grid_row(grid, math.nan, takes_y)
        lanes = shared["lanes", takes_y]
        shared[nu, takes_y] = None if lanes is None else lanes.at(nu)
    return shared[nu, takes_y]


def certify(bound_id: str, grid: Optional[Grid] = None,
            tolerance: float = DEFAULT_TOLERANCE, *,
            shared: Optional[dict] = None) -> GridReport:
    """Check one registered inequality at every in-range grid point.

    Each in-range order is one row, a view of one lane set (_grid_view):
    the bound's formula and its target's exact formula (rows.exact_row) run
    once over the row's lanes, and the orders share each lane's work.
    shared maps (nu, takes_y) to the view (None if the grid gives that
    order no lanes), ("lanes", takes_y) to its lane set and (target, nu) to
    the exact row; certify reads it before building any of them and stores
    what it builds, so bounds that share the dict share lane sets and
    compute each exact row once.  certify_all passes one dict to every
    bound.
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    spec = registry.get_bound(bound_id)
    grid = grid or default_grid()
    shared = {} if shared is None else shared
    report = GridReport(bound_id)
    takes_y = registry.needs_y(spec)
    for nu in grid.nu_values:
        if not spec.valid_at(nu):
            continue
        P = _grid_view(shared, grid, nu, takes_y)
        if P is None:
            continue
        exact = shared.get((spec.target, nu))
        if exact is None:
            exact = shared[spec.target, nu] = rows.exact_row(spec.target, P)
        report.record(nu, P.x, P.y, _slack(spec.side, rows.bound_row(spec, P), exact),
                      tolerance, spec.is_equality_at(nu))
    return report


def _relative(diff, ref):
    """diff / |ref| lane by lane, with 1e-300 in place of a zero ref."""
    return diff / np.where(ref != 0.0, np.abs(ref), 1e-300)


def _slack(side: str, bound, exact):
    return _relative(bound - exact if side == "upper" else exact - bound, exact)


def _certify_reads(P: rows.Row) -> list[tuple[str, float, bool]]:
    """(kind, order, at_y) of the series the registry's formulas read on a
    grid row at order nu: I and L at nu - 1, nu and nu + 1 and L at 1/2 (for
    b_{1/2}) over x, and I and L at nu over both arguments of the pairs."""
    if P.y is not None:
        return [(kind, P.nu, at_y) for kind in "IL" for at_y in (False, True)]
    return [(kind, P.nu + k, False) for kind in "IL" for k in (-1.0, 0.0, 1.0)] + [("L", 0.5, False)]


def certify_all(grid: Optional[Grid] = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[GridReport]:
    """Certify every registered bound, computing each exact row once.  The
    bounds share one lane set for the x lanes and one for the (x, y) pairs
    (_grid_view), so all orders share each lane's work; every series the
    views read is summed up front, one pass per kind."""
    grid = grid or default_grid()
    shared: dict = {}
    views = [_grid_view(shared, grid, nu, takes_y)
             for nu in grid.nu_values for takes_y in (False, True)]
    rows.fill_rows([(P, *r) for P in views if P is not None for r in _certify_reads(P)])
    return [certify(bid, grid, tolerance, shared=shared) for bid in registry.bound_ids()]


def certify_eq14_extension(grid: Optional[Grid] = None,
                           tolerance: float = DEFAULT_TOLERANCE) -> GridReport:
    """Probe the conjectured extension of the product-difference positivity
    down to order -1/2.  Informational only; no invariant is asserted here."""
    grid = grid or default_grid()
    report = GridReport("eq14_extension_experiment")
    lanes = _grid_row(grid, math.nan, False)  # one lane set for every order
    for nu in grid.nu_values:
        if not (-0.5 - ORDER_TOL <= nu < 0.5) or lanes is None:
            continue
        P = lanes.at(nu)
        pd = rows.exact_row("product_diff_L", P)
        report.record(nu, P.x, None, _relative(pd, pd), tolerance, False)
    return report


def _lane_texts(v, memo: dict) -> Iterable[str]:
    """The repr of each lane of one recorded nu, x or y: a float array's
    once per distinct value, kept in memo by its bits (so 0.0 and -0.0 stay
    apart), any other array's or list's lane by lane, and a scalar's once
    for the row (None is the empty text)."""
    if isinstance(v, np.ndarray) and v.dtype == np.float64:
        bits, at = np.unique(v.view(np.int64), return_inverse=True)
        texts = []
        for key, value in zip(bits.tolist(), bits.view(np.float64).tolist()):
            text = memo.get(key)
            if text is None:
                text = memo[key] = repr(value)
            texts.append(text)
        return map(texts.__getitem__, at.tolist())
    if isinstance(v, (list, np.ndarray)):
        return map(repr, v if isinstance(v, list) else v.tolist())
    return repeat("" if v is None else repr(v))


def report_csv_rows(report: GridReport) -> Iterable[str]:
    """Serialize a report, one line per grid point.  Only the slack's text
    is formed per lane; nu, x and y take theirs once per distinct value
    of the report (_lane_texts)."""
    yield "bound_id,nu,x,y,slack,status"
    memo: dict = {}
    for nu, x, y, slack, status in report._recorded:
        for nu_s, x_s, y_s, slack_s, status_s in zip(
                _lane_texts(nu, memo), _lane_texts(x, memo), _lane_texts(y, memo),
                map(repr, slack.tolist()), repeat(status) if isinstance(status, str) else status):
            yield f"{report.bound_id},{nu_s},{x_s},{y_s},{slack_s},{status_s}"


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSpec:
    """Layout of one built-in relative-error table of a registered bound
    against its target's exact value.

    zero_column(nu) is the entry in the x -> 0 limit (possibly infinite),
    or None when the table has no x = 0 column.
    """

    nu_rows: tuple[float, ...]
    x_cols: tuple[float, ...]
    approximant_id: str
    zero_column: Optional[Callable[[float], float]] = None


TABLES: dict[int, TableSpec] = {
    1: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_lower", lambda nu: 0.0),
    2: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_upper",
                 lambda nu: math.inf if nu == 0.0 else 1.0 / (2.0 * nu)),
    3: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_lower", lambda nu: 0.0),
    4: TableSpec((0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_upper",
                 lambda nu: math.inf if nu == 0.5 else 2.0 / (2.0 * nu - 1.0)),
    5: TableSpec((0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq39_upper"),
    6: TableSpec((0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq46_upper"),
}

def relative_error_table(spec: TableSpec) -> np.ndarray:
    """Matrix of |approximant/exact - 1| over the table layout.

    The x = 0 column, when present, is filled from the table's limit rule.
    """
    bound = registry.get_bound(spec.approximant_id)
    out = np.empty((len(spec.nu_rows), len(spec.x_cols)))
    for i, nu in enumerate(spec.nu_rows):
        for j, x in enumerate(spec.x_cols):
            if x == 0.0:
                out[i, j] = spec.zero_column(nu)
                continue
            exact = registry.exact_value(bound.target, nu, x)
            out[i, j] = abs(bound.evaluate(nu, x) / exact - 1.0)
    return out


def table_by_id(table_id: int) -> TableSpec:
    try:
        return TABLES[table_id]
    except KeyError:
        raise UnknownBound(f"no table with id {table_id}; valid ids are 1..6") from None


def render_table_text(spec: TableSpec, matrix: np.ndarray) -> str:
    """Fixed four-decimal layout matching the built-in table presentation."""
    header = ["nu\\x"] + [f"{x:g}" for x in spec.x_cols]
    lines = ["  ".join(f"{h:>8}" for h in header)]
    for nu, row in zip(spec.nu_rows, matrix):
        cells = [f"{nu:g}"] + ["inf" if math.isinf(v) else f"{v:.4f}" for v in row]
        lines.append("  ".join(f"{c:>8}" for c in cells))
    return "\n".join(lines)


def render_table_csv(spec: TableSpec, matrix: np.ndarray) -> str:
    """Long-form CSV at full precision; infinite entries are an empty value
    cell with the is_inf flag set, so numeric consumers cannot silently parse
    a sentinel."""
    lines = ["nu,x,value,is_inf"]
    for nu, row in zip(spec.nu_rows, matrix):
        for x, v in zip(spec.x_cols, row):
            if math.isinf(v):
                lines.append(f"{nu!r},{x!r},,1")
            else:
                lines.append(f"{nu!r},{x!r},{float(v)!r},0")
    return "\n".join(lines)


def parse_table_csv(text: str) -> dict[tuple[float, float], float]:
    """Inverse of render_table_csv; infinite cells come back as math.inf."""
    out: dict[tuple[float, float], float] = {}
    lines = text.strip().splitlines()
    if lines[0] != "nu,x,value,is_inf":
        raise ValueError(f"unexpected header {lines[0]!r}")
    for line in lines[1:]:
        nu_s, x_s, v_s, flag = line.split(",")
        out[(float(nu_s), float(x_s))] = math.inf if flag == "1" else float(v_s)
    return out


# ---------------------------------------------------------------------------
# crossover location
# ---------------------------------------------------------------------------

def crossover(bound_id_a: str, bound_id_b: str, nu: float,
              x_range: tuple[float, float] = (0.01, 50.0)) -> float:
    """Argument at which two competing bounds exchange dominance.

    Both bounds take one argument and are valid at nu, and x_range is
    finite with 0 < xmin < xmax.  A 200-point pre-scan must find exactly one
    sign change of the difference on x_range; the root is then bisected to
    absolute tolerance 1e-4.
    """
    spec_a = registry.get_bound(bound_id_a)
    spec_b = registry.get_bound(bound_id_b)
    for spec in (spec_a, spec_b):
        if registry.needs_y(spec):
            raise DomainError(f"crossover compares single-argument bounds; {spec.bound_id} "
                              f"bounds the argument ratio L_nu(x)/L_nu(y)")
        if not spec.valid_at(nu):
            raise DomainError(f"{spec.bound_id} is not valid at nu={nu}")
    lo, hi = x_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise DomainError(f"crossover needs a finite range 0 < xmin < xmax, got {x_range}")

    def diff(x: float) -> float:
        return spec_a.evaluate(nu, x) - spec_b.evaluate(nu, x)

    P = rows.Row(nu, np.linspace(lo, hi, 200))
    xs = P.x
    d = rows.bound_row(spec_a, P) - rows.bound_row(spec_b, P)
    signs = np.where(d != 0.0, np.copysign(1.0, d), 0.0).tolist()
    brackets = [(float(xs[i - 1]), float(xs[i]))
                for i in range(1, len(xs))
                if signs[i - 1] != 0.0 and signs[i] != 0.0 and signs[i] != signs[i - 1]]
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
    b_x = rows.Row(math.nan, xs_lin)
    b_nu = rows.Row(math.nan, np.array((0.5, 2.0, 10.0)))
    ratio = rows.Row(math.nan, np.array((0.5, 2.0, 10.0, 30.0)))
    P = rows.Row(math.nan, xs)  # Turan and the recurrences
    m_row = rows.Row(math.nan, xs[xs <= 30.0])
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
