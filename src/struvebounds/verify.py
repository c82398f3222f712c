"""Grid certification of every registered inequality, reference error tables,
crossover location, and the monotonicity/Turan property suites.

Certification works a row at a time: for each (bound, order) one
special_core.Row over the grid's (x[, y]) lanes, on which the bound's
formula and its target's exact formula each run once as numpy arrays, and
one GridReport.record call takes the row.  certify_all first sums every
series the grid reads in one fill_series_row pass per kind, and shares the
rows and the exact rows among all bounds.  Exact values inside
certification always come from the power-series route; the quadrature
oracle is reserved for cross-validating the series itself, so a
certification failure can never be self-confirming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import registry
from .bfunc import b_value
from .errors import MultipleSignChanges, NoSignChange, UnknownBound
from .special_core import (
    Row,
    fill_series_row,
    iv_value,
    lv_value,
    lv_value_extended,
    mv_value,
    ratio_succ_exact,
    recurrence_check,
)

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


@dataclass
class GridReport:
    """Outcome of certifying one inequality over a grid.

    Slack is signed and normalized: (upper - exact)/|exact| for upper bounds,
    (exact - lower)/|exact| for lower bounds.  Negative slack beyond the
    tolerance is a violation.  Equality orders are recorded with slack 0.
    """

    bound_id: str
    points_checked: int = 0
    violations: list[tuple] = field(default_factory=list)
    worst_slack: float = math.inf
    max_rel_gap: float = -math.inf
    rows: list[tuple] = field(default_factory=list)

    def record(self, nu, x, y, slack, tolerance: float, equality: bool) -> None:
        """Add one point, or one row of points: nu, x, y (None for
        single-argument targets) and slack may each be arrays or lists of
        one length."""
        slack = np.atleast_1d(np.asarray(slack, dtype=float))
        n = slack.size
        sl = [0.0] * n if equality else slack.tolist()
        nus, xs, ys = (v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list)
                       else [v] * n for v in (nu, x, y))
        self.points_checked += n
        self.worst_slack = min([self.worst_slack, *sl])
        self.max_rel_gap = max([self.max_rel_gap, *sl])
        bad = slack < -tolerance
        if equality or not bad.any():
            status = ["equality" if equality else "ok"] * n
        else:
            status = np.where(bad, "violation", "ok").tolist()
            for i in np.flatnonzero(bad).tolist():
                self.violations.append((nus[i], xs[i], ys[i], sl[i]) if y is not None
                                       else (nus[i], xs[i], sl[i]))
        self.rows.extend(zip(nus, xs, ys, sl, status))

    @property
    def clean(self) -> bool:
        return not self.violations


def _grid_row(grid: Grid, nu: float, takes_y: bool) -> Optional[tuple[Row, list, Optional[list]]]:
    """The lanes certify checks at order nu, x or (x, y) pairs in x order,
    as a Row and as lists of the grid's own floats; None if there are none."""
    if not takes_y:
        xs = list(grid.x_values)
        return (Row(nu, np.array(xs)), xs, None) if xs else None
    pairs = [(x, y) for x in grid.x_values for y in grid.y_values(x)]
    if not pairs:
        return None
    xs, ys = (list(c) for c in zip(*pairs))
    return Row(nu, np.array(xs), np.array(ys)), xs, ys


def certify(bound_id: str, grid: Optional[Grid] = None,
            tolerance: float = DEFAULT_TOLERANCE, *,
            shared: Optional[dict] = None) -> GridReport:
    """Check one registered inequality at every in-range grid point.

    Each in-range order is one row: the bound's formula and its target's
    exact formula (registry.exact_row) run once over the row's lanes.
    shared maps (nu, takes_y) to the Row (None if the grid gives that
    order no lanes) and (target, nu) to its exact row; certify reads it
    before building either and stores what it builds, so bounds that share
    the dict share rows and compute each exact row once.  certify_all
    passes one dict to every bound.
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
        if (nu, takes_y) not in shared:
            shared[nu, takes_y] = _grid_row(grid, nu, takes_y)
        if shared[nu, takes_y] is None:
            continue
        P, xs, ys = shared[nu, takes_y]
        exact = shared.get((spec.target, nu))
        if exact is None:
            exact = shared[spec.target, nu] = registry.exact_row(spec.target, P)
        report.record(nu, xs, ys, _slack(spec.side, registry.bound_row(spec, P), exact),
                      tolerance, spec.is_equality_at(nu))
    return report


def _relative(diff, ref):
    """diff / |ref| lane by lane, with 1e-300 in place of a zero ref."""
    return diff / np.where(ref != 0.0, np.abs(ref), 1e-300)


def _slack(side: str, bound, exact):
    return _relative(bound - exact if side == "upper" else exact - bound, exact)


def _fill_grid(grid: Grid) -> None:
    """Sum every series certify_all reads, in one pass per kind: I and L at
    orders nu - 1, nu and nu + 1 over the x lanes, L at 1/2 for b_{1/2}, and
    I and L at nu over the y lanes."""
    xs = list(grid.x_values)
    ys = sorted({y for x in xs for y in grid.y_values(x)})
    lanes = [(0.5, x) for x in xs]
    for nu in grid.nu_values:
        lanes += [(nu + k, x) for k in (-1.0, 0.0, 1.0) for x in xs]
        lanes += [(nu, y) for y in ys]
    nus, args = zip(*lanes) if lanes else ((), ())
    for kind in ("L", "I"):
        fill_series_row(kind, nus, args)


def certify_all(grid: Optional[Grid] = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[GridReport]:
    """Certify every registered bound, computing each exact row once."""
    grid = grid or default_grid()
    _fill_grid(grid)
    shared: dict = {}
    return [certify(bid, grid, tolerance, shared=shared) for bid in registry.bound_ids()]


def certify_eq14_extension(grid: Optional[Grid] = None,
                           tolerance: float = DEFAULT_TOLERANCE) -> GridReport:
    """Probe the conjectured extension of the product-difference positivity
    down to order -1/2.  Informational only; no invariant is asserted here."""
    grid = grid or default_grid()
    report = GridReport("eq14_extension_experiment")
    for nu in grid.nu_values:
        if not (-0.5 - 1e-12 <= nu < 0.5) or not grid.x_values:
            continue
        P, xs, _ = _grid_row(grid, nu, False)
        pd = registry.exact_row("product_diff_L", P)
        report.record(nu, xs, None, _relative(pd, pd), tolerance, False)
    return report


def report_csv_rows(report: GridReport) -> Iterable[str]:
    """Serialize a report, one line per grid point."""
    yield "bound_id,nu,x,y,slack,status"
    for nu, x, y, slack, status in report.rows:
        ystr = repr(y) if y is not None else ""
        yield f"{report.bound_id},{nu!r},{x!r},{ystr},{slack!r},{status}"


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSpec:
    """Layout of one built-in relative-error table.

    zero_column_rule: 'zero' (entry is exactly 0 in the x -> 0 limit),
    'limit_formula' (entry is zero_column(nu), possibly infinite), or None
    when the table has no x = 0 column.
    """

    table_id: int
    nu_rows: tuple[float, ...]
    x_cols: tuple[float, ...]
    approximant_id: str
    exact_id: str
    zero_column_rule: Optional[str]
    zero_column: Optional[Callable[[float], float]] = None


TABLES: dict[int, TableSpec] = {
    1: TableSpec(1, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_lower", "succ_ratio_L", "zero", lambda nu: 0.0),
    2: TableSpec(2, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_upper", "succ_ratio_L", "limit_formula",
                 lambda nu: math.inf if nu == 0.0 else 1.0 / (2.0 * nu)),
    3: TableSpec(3, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_lower", "succ_ratio_L", "zero", lambda nu: 0.0),
    4: TableSpec(4, (0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_upper", "succ_ratio_L", "limit_formula",
                 lambda nu: math.inf if nu == 0.5 else 2.0 / (2.0 * nu - 1.0)),
    5: TableSpec(5, (0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq39_upper", "pointwise_L", None),
    6: TableSpec(6, (0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq46_upper", "pointwise_L", None),
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
            exact = registry.exact_value(spec.exact_id, nu, x)
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

    A 200-point pre-scan must find exactly one sign change of the difference
    on x_range; the root is then bisected to absolute tolerance 1e-4.
    """
    spec_a = registry.get_bound(bound_id_a)
    spec_b = registry.get_bound(bound_id_b)

    def diff(x: float) -> float:
        return spec_a.evaluate(nu, x) - spec_b.evaluate(nu, x)

    lo, hi = x_range
    P = Row(nu, np.linspace(lo, hi, 200))
    xs = P.x
    d = registry.bound_row(spec_a, P) - registry.bound_row(spec_b, P)
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

def _comparison_report(name: str, rows: Iterable[tuple],
                       tolerance: float = 0.0) -> GridReport:
    """Strict-inequality report: each row is (nu, x, lhs, rhs), each a scalar,
    list or array of one length, requiring lhs < rhs; slack is (rhs - lhs)/|rhs|."""
    report = GridReport(name)
    for nu, x, lhs, rhs in rows:
        rhs = np.asarray(rhs, dtype=float)
        report.record(nu, x, None, _relative(rhs - lhs, rhs), tolerance, False)
    return report


def _one_row(pairs: list[tuple]) -> list[tuple]:
    """A list of (nu, x, lhs, rhs) points as one row of lists."""
    return [tuple(map(list, zip(*pairs)))]


def monotonicity_suite() -> list[GridReport]:
    """Structural properties checked on well-separated grids (spacing >= 0.05,
    strict comparisons at tolerance 0):

    - the kernel decreases in x and increases in the order
    - the successive-order ratio decreases in the order from 1/2 up
    - the Turan product inequality
    - domination of the Bessel ratio by the M-ratio from order 1/2 up
    - both three-term recurrence residuals stay at rounding level
    """
    grid = default_grid()
    reports = []

    xs_lin = [round(0.1 + 0.05 * k, 10) for k in range(999)]  # 0.1 .. 50
    fill_series_row("L", np.repeat(grid.nu_values, len(xs_lin)), xs_lin * len(grid.nu_values))
    rows = []
    for nu in grid.nu_values:
        b = Row(nu, np.array(xs_lin)).b(nu)
        rows.append((nu, xs_lin[1:], b[1:], b[:-1]))  # decreasing: b(x) < b(prev x)
    reports.append(_comparison_report("mono_b_decreasing_in_x", rows))

    nus_lin = [round(-1.4 + 0.05 * k, 10) for k in range(229)]  # -1.4 .. 10
    pairs = []
    for x in (0.5, 2.0, 10.0):
        prev = b_value(nus_lin[0], x)
        for nu in nus_lin[1:]:
            cur = b_value(nu, x)
            pairs.append((nu, x, prev, cur))  # increasing: b(prev nu) < b(nu)
            prev = cur
    reports.append(_comparison_report("mono_b_increasing_in_nu", _one_row(pairs)))

    ratio_nus = [0.5 + 0.25 * k for k in range(39)]  # 0.5 .. 10
    pairs = []
    for x in (0.5, 2.0, 10.0, 30.0):
        prev = ratio_succ_exact("L", ratio_nus[0] + 1.0, x)
        for nu in ratio_nus[1:]:
            cur = ratio_succ_exact("L", nu + 1.0, x)
            pairs.append((nu, x, cur, prev))  # decreasing in the order
            prev = cur
    reports.append(_comparison_report("mono_succ_ratio_decreasing_in_nu", _one_row(pairs)))

    pairs = []
    for nu in grid.nu_values:
        for x in grid.x_values:
            left = lv_value_extended(nu - 1.0, x) * lv_value(nu + 1.0, x)
            right = lv_value(nu, x) ** 2
            pairs.append((nu, x, left, right))
    reports.append(_comparison_report("turan_product", _one_row(pairs)))

    pairs = []
    for nu in grid.nu_values:
        if nu < 0.5:
            continue
        for x in grid.x_values:
            if x > 30.0:
                continue
            m_ratio = mv_value(nu, x) / mv_value(nu - 1.0, x)
            i_ratio = iv_value(nu, x) / iv_value(nu - 1.0, x)
            pairs.append((nu, x, i_ratio, m_ratio))  # I-ratio < M-ratio
    reports.append(_comparison_report("m_ratio_dominates_bessel_ratio", _one_row(pairs)))

    report = GridReport("recurrence_residuals")
    points = [(nu, x, DEFAULT_TOLERANCE - max(recurrence_check(nu, x)))
              for nu in grid.nu_values if nu > -0.5 for x in grid.x_values]
    nus, xs, slack = (list(c) for c in zip(*points))
    report.record(nus, xs, None, slack, 0.0, False)
    reports.append(report)
    return reports
