"""Grid certification of every registered inequality, reference error tables,
crossover location, and the monotonicity/Turan property suites.

Certification works a row at a time: for each (bound, order) one
special_core.Row over the grid's (x[, y]) lanes, on which the bound's
formula and its target's exact formula each run once as numpy arrays, and
one GridReport.record call takes the row.  The sweeps, certify_all and
monotonicity_suite, own their series: each builds all of its Rows first,
sums every series they read with one fill_series_row per kind
(special_core.fill_rows) and hands each Row its arrays, so neither reads
nor writes the point memo.  certify_all shares the rows and the exact rows
among all bounds; certify alone lets each row sum its own series.  Exact
values inside certification always come from the power-series route; the
quadrature oracle is reserved for cross-validating the series itself, so a
certification failure can never be self-confirming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import registry
from .brackets import ORDER_TOL
from .errors import DomainError, MultipleSignChanges, NoSignChange, UnknownBound
from .special_core import _L_FLOOR, Row, fill_rows, recurrence_residuals

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


def _grid_row(grid: Grid, nu: float, takes_y: bool) -> Optional[Row]:
    """The lanes certify checks at order nu, x or (x, y) pairs in x order,
    as a Row; None if there are none."""
    if not takes_y:
        return Row(nu, np.array(grid.x_values)) if grid.x_values else None
    pairs = [(x, y) for x in grid.x_values for y in grid.y_values(x)]
    return Row(nu, *np.array(pairs).T) if pairs else None


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
        P = shared[nu, takes_y]
        if P is None:
            continue
        exact = shared.get((spec.target, nu))
        if exact is None:
            exact = shared[spec.target, nu] = registry.exact_row(spec.target, P)
        report.record(nu, P.x, P.y, _slack(spec.side, registry.bound_row(spec, P), exact),
                      tolerance, spec.is_equality_at(nu))
    return report


def _relative(diff, ref):
    """diff / |ref| lane by lane, with 1e-300 in place of a zero ref."""
    return diff / np.where(ref != 0.0, np.abs(ref), 1e-300)


def _slack(side: str, bound, exact):
    return _relative(bound - exact if side == "upper" else exact - bound, exact)


def _certify_reads(P: Row) -> list[tuple[str, float, bool]]:
    """(kind, order, at_y) of the series the registry's formulas read on a
    grid row at order nu: I and L at nu - 1, nu and nu + 1 and L at 1/2 (for
    b_{1/2}) over x, and I and L at nu over both arguments of the pairs."""
    if P.y is not None:
        return [(kind, P.nu, at_y) for kind in "IL" for at_y in (False, True)]
    return [(kind, P.nu + k, False) for kind in "IL" for k in (-1.0, 0.0, 1.0)] + [("L", 0.5, False)]


def certify_all(grid: Optional[Grid] = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[GridReport]:
    """Certify every registered bound, computing each exact row once.  All
    rows are built and their series summed up front, one pass per kind."""
    grid = grid or default_grid()
    shared = {(nu, takes_y): _grid_row(grid, nu, takes_y)
              for nu in grid.nu_values for takes_y in (False, True)}
    fill_rows([(P, *read) for P in shared.values() if P is not None for read in _certify_reads(P)])
    return [certify(bid, grid, tolerance, shared=shared) for bid in registry.bound_ids()]


def certify_eq14_extension(grid: Optional[Grid] = None,
                           tolerance: float = DEFAULT_TOLERANCE) -> GridReport:
    """Probe the conjectured extension of the product-difference positivity
    down to order -1/2.  Informational only; no invariant is asserted here."""
    grid = grid or default_grid()
    report = GridReport("eq14_extension_experiment")
    for nu in grid.nu_values:
        if not (-0.5 - ORDER_TOL <= nu < 0.5) or not grid.x_values:
            continue
        P = _grid_row(grid, nu, False)
        pd = registry.exact_row("product_diff_L", P)
        report.record(nu, P.x, None, _relative(pd, pd), tolerance, False)
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

    zero_column(nu) is the entry in the x -> 0 limit (possibly infinite),
    or None when the table has no x = 0 column.
    """

    table_id: int
    nu_rows: tuple[float, ...]
    x_cols: tuple[float, ...]
    approximant_id: str
    exact_id: str
    zero_column: Optional[Callable[[float], float]] = None


TABLES: dict[int, TableSpec] = {
    1: TableSpec(1, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_lower", "succ_ratio_L", lambda nu: 0.0),
    2: TableSpec(2, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_upper", "succ_ratio_L",
                 lambda nu: math.inf if nu == 0.0 else 1.0 / (2.0 * nu)),
    3: TableSpec(3, (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_lower", "succ_ratio_L", lambda nu: 0.0),
    4: TableSpec(4, (0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_upper", "succ_ratio_L",
                 lambda nu: math.inf if nu == 0.5 else 2.0 / (2.0 * nu - 1.0)),
    5: TableSpec(5, (0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq39_upper", "pointwise_L"),
    6: TableSpec(6, (0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq46_upper", "pointwise_L"),
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

    All run on Rows whose series are summed up front, one fill per kind.
    """
    grid = default_grid()
    xs = np.array(grid.x_values)
    xs_lin = np.array([round(0.1 + 0.05 * k, 10) for k in range(999)])  # 0.1 .. 50
    nus_lin = [round(-1.4 + 0.05 * k, 10) for k in range(229)]  # -1.4 .. 10
    ratio_nus = [0.5 + 0.25 * k for k in range(39)]  # 0.5 .. 10
    b_x_rows = [Row(nu, xs_lin) for nu in grid.nu_values]
    b_nu_rows = [Row(nu, np.array((0.5, 2.0, 10.0))) for nu in nus_lin]
    ratio_rows = [Row(nu, np.array((0.5, 2.0, 10.0, 30.0))) for nu in ratio_nus]
    grid_rows = [Row(nu, xs) for nu in grid.nu_values]  # Turan and the recurrences
    m_rows = [Row(nu, xs[xs <= 30.0]) for nu in grid.nu_values if nu >= 0.5]
    fill_rows([(P, "L", P.nu, False) for P in b_x_rows + b_nu_rows + ratio_rows]
              + [(P, "L", P.nu + 1.0, False) for P in ratio_rows]
              + [(P, "L", P.nu + k, False) for P in grid_rows for k in (-1.0, 0.0, 1.0)]
              + [(P, kind, P.nu + k, False) for P in m_rows for kind in "IL" for k in (-1.0, 0.0)])
    reports = []

    reports.append(_comparison_report("mono_b_decreasing_in_x", [  # b(x) < b(prev x)
        (P.nu, P.x[1:], b[1:], b[:-1]) for P in b_x_rows for b in [P.b(P.nu)]]))

    reports.append(_comparison_report("mono_b_increasing_in_nu", [  # b(prev nu) < b(nu)
        _adjacent_orders(nus_lin, (0.5, 2.0, 10.0), [P.b(P.nu) for P in b_nu_rows])]))

    nu, x, prev, cur = _adjacent_orders(ratio_nus, (0.5, 2.0, 10.0, 30.0),
                                        [P.L(P.nu + 1.0) / P.L(P.nu) for P in ratio_rows])
    # decreasing in the order
    reports.append(_comparison_report("mono_succ_ratio_decreasing_in_nu", [(nu, x, cur, prev)]))

    # L_nu^2 by math's pow, which a float's ** 2 calls; x * x differs from it by an ulp at times
    reports.append(_comparison_report("turan_product", [
        (P.nu, P.x, P.L(P.nu - 1.0, floor=_L_FLOOR) * P.L(P.nu + 1.0), P.pow(P.L(P.nu), 2.0))
        for P in grid_rows]))

    reports.append(_comparison_report("m_ratio_dominates_bessel_ratio", [  # I-ratio < M-ratio
        (P.nu, P.x, P.I(P.nu) / P.I(P.nu - 1.0), P.M(P.nu) / P.M(P.nu - 1.0)) for P in m_rows]))

    report = GridReport("recurrence_residuals")
    for P in grid_rows:
        if P.nu > -0.5:
            r1, r2 = recurrence_residuals(P.nu, P.x, P)
            report.record(P.nu, P.x, None, DEFAULT_TOLERANCE - np.maximum(r1, r2), 0.0, False)
    reports.append(report)
    return reports
