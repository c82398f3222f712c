"""Certification of one registered inequality over a grid: Grid,
default_grid, GridReport, report_csv_rows and certify.

certify checks a bound at every in-range grid point on special_core.Points:
it runs the bound's formula and its target's exact formula on one Point per
x lane or (x, y) pair and records a row of Python floats per order.  One
bound is a few hundred to a few thousand points, which costs less than
loading the sweeps extra, so `verify --bound` and certify(id) never load it.
verify.certify is the sweeps' entry for the same check: it runs the
formulas once per order over array lanes (rows.Row), and certify_all and
the suites call it.  A Point gives a Row lane's bits, so both record the
same report.  Where Python's float arithmetic raises (a division by zero,
an overflowing power), array arithmetic gives inf or NaN, so such a bound
goes to verify.certify, which needs the sweeps extra.

This module loads no array library.  GridReport keeps Python values only:
record takes arrays as well as lists, turns an array into a list once
(tolist), and runs one body over Python floats, so a report records, reads
and writes its CSV lines the same way whichever engine made it.  Grid is a
brackets.Record and GridReport a plain class, so a cold `verify --bound`
loads neither dataclasses nor the inspect module it imports.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from . import registry
from .brackets import Record, _set
from .special_core import Point

DEFAULT_TOLERANCE = 1e-12

_Y_MULTIPLIERS = (1.5, 3.0, 10.0)
_Y_CAP = 60.0

# the sweeps' logspace(-3, log10(50), 60) bit for bit; 10.0 ** v over the
# exponents misses its bits on five of them
_DEFAULT_X = (
    0.001, 0.0012012780991454903, 0.0014430690714866022, 0.0017335272711310713,
    0.002082448345081202, 0.0025015995895478183, 0.003005116799755142, 0.0036099809969200357,
    0.004336591109931442, 0.005209451925309675, 0.006258000506425814, 0.007517598952810717,
    0.009030726980170586, 0.010848414540641215, 0.013031962798123775, 0.015655011498264863,
    0.01880602245473641, 0.02259126290691316, 0.027138389362112648, 0.032600752786788874,
    0.03916257033842578, 0.047045138053795656, 0.056514294015300816, 0.06788938368924992,
    0.08155402979038094, 0.0979690698842435, 0.11768809804559574, 0.14137613471226132,
    0.16983205437168203, 0.20401552744958754, 0.2450793850108051, 0.2944084977655257,
    0.35366648056805, 0.4248517975082626, 0.5103651597292704, 0.6130904889496624,
    0.7364921771696289, 0.8847319226258554, 1.0628090822653227, 1.2767292740982497,
    1.533706915512147, 1.842408528112725, 2.2132450145006923, 2.6587227639626247,
    3.1938654280478653, 3.8367205903318373, 4.608968417706193, 5.5366528198436935,
    6.651059775050343, 7.989772443875508, 9.597938653983789, 11.529793501972682,
    13.850488421589754, 16.638288403323944, 19.987211466179463, 24.010199397310984,
    28.842926692105966, 34.64837615048574, 41.622335440533405, 49.99999999999999,
)


class Grid(Record):
    """Evaluation grid: a frozen record (brackets.Record) of orders and
    arguments, each stored as a tuple of floats, finite and sorted strictly
    increasing."""

    _fields = ("nu_values", "x_values")

    def __init__(self, nu_values, x_values):
        for name, vals in (("nu_values", nu_values), ("x_values", x_values)):
            vals = tuple(map(float, vals))
            # a NaN compares false both ways, so it would pass the order test alone
            if not all(map(math.isfinite, vals)) or any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be finite and sorted strictly increasing")
            _set(self, name, vals)

    def y_values(self, x: float) -> list[float]:
        """Second arguments y > x paired with x for the argument-ratio bounds."""
        ys = []
        for m in _Y_MULTIPLIERS:
            y = min(x * m, _Y_CAP)
            if y > x and y not in ys:
                ys.append(y)
        return ys

    def lanes(self, takes_y: bool) -> tuple[list[float], Optional[list[float]]]:
        """(xs, ys), the lanes a bound is certified on: the x values with ys
        None, or the (x, y) pairs in x order as two lists.  Both engines
        take their lanes from here, so their rows pair x and y alike."""
        if not takes_y:
            return list(self.x_values), None
        pairs = [(x, y) for x in self.x_values for y in self.y_values(x)]
        return [x for x, _ in pairs], [y for _, y in pairs]


def default_grid() -> Grid:
    """Fourteen orders spanning every validity edge, sixty log-spaced
    arguments in [1e-3, 50], and argument pairs y = x * {1.5, 3, 10} capped
    at 60."""
    nus = (-1.4, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 5.0, 7.5, 10.0)
    return Grid(nus, _DEFAULT_X)


def _lane_tuples(nu, x, y, slack, status) -> Iterator[tuple]:
    """The (nu, x, y, slack, status) tuple of each lane of one recorded row:
    a list (or the slack's array('d')) gives its lanes, and a scalar (or
    None) repeats."""
    return zip(*(v if isinstance(v, (list, array)) else repeat(v)
                 for v in (nu, x, y, slack, status)))


class GridReport:
    """Outcome of certifying one inequality over a grid.

    Slack is signed and normalized: (upper - exact)/|exact| for upper bounds,
    (exact - lower)/|exact| for lower bounds.  Negative slack beyond the
    tolerance is a violation, and so is a slack that is not finite: a bound
    or an exact value that overflowed or came out NaN certifies nothing.
    Equality orders are recorded with slack 0.

    The report keeps each recorded row in Python values (nu, x and y as
    lists or scalars, the slack as an array('d')), and the summary fields
    (points_checked, violations, worst_slack, max_rel_gap) as they go;
    rows, the (nu, x, y, slack, status) tuple of every point, is built from
    those on each read.  Two reports are equal when their summary fields
    and rows are.
    """

    def __init__(self, bound_id: str):
        self.bound_id = bound_id
        self.points_checked = 0
        self.violations: list[tuple] = []
        self.worst_slack = math.inf
        self.max_rel_gap = -math.inf
        self._recorded: list[tuple] = []

    def __repr__(self):
        return (f"GridReport(bound_id={self.bound_id!r}, points_checked={self.points_checked!r}, "
                f"violations={self.violations!r}, worst_slack={self.worst_slack!r}, "
                f"max_rel_gap={self.max_rel_gap!r})")

    def record(self, nu, x, y, slack, tolerance: float, equality: bool) -> None:
        """Add one point, or one row of points: nu, x, y (None for
        single-argument targets) and slack may each be a scalar, or an
        array or list of one length.  An array is kept as its tolist(),
        and a list as given, so a caller must not write to it afterwards;
        a caller that records one x list at every order has its text formed
        once in report_csv_rows.

        worst_slack takes the lowest slack, or NaN once a lane's slack is
        NaN or +inf, so that a report is clean exactly when worst_slack >=
        -tolerance; max_rel_gap takes the highest slack that is not NaN.
        """
        # an array (anything with tolist) in Python values, once
        nu, x, y, slack = (v.tolist() if hasattr(v, "tolist") else v for v in (nu, x, y, slack))
        if not isinstance(slack, list):
            slack = [slack]
        if equality:
            slack = [0.0] * len(slack)
        status = "equality" if equality else "ok"
        worst = min(slack, default=math.inf)
        top = max(slack, default=-math.inf)
        # a NaN or an infinite slack makes the sum NaN or infinite, so a row
        # skips the lane-by-lane test only if every slack is finite and within
        # the tolerance (a sum that overflows sends a clean row through it)
        if not (worst >= -tolerance and math.isfinite(sum(slack))):
            # false for a NaN, for +-inf and for a slack below the tolerance
            good = [-tolerance <= s < math.inf for s in slack]
            status = ["ok" if g else "violation" for g in good]
            for lane in compress(_lane_tuples(nu, x, y, slack, status), [not g for g in good]):
                self.violations.append(lane[:4] if y is not None else (*lane[:2], lane[3]))
            worst = math.nan if any(s != s or s == math.inf for s in slack) else min(slack)
            top = max((s for s in slack if s == s), default=-math.inf)
        self.points_checked += len(slack)
        if worst != worst or worst < self.worst_slack:  # a NaN worst_slack stays
            self.worst_slack = worst
        if top > self.max_rel_gap:
            self.max_rel_gap = top
        self._recorded.append((nu, x, y, array("d", slack), status))

    @property
    def rows(self) -> list[tuple]:
        """(nu, x, y, slack, status) of every recorded point in record
        order, status "ok", "violation" or "equality"; a new list on each
        read."""
        return list(chain.from_iterable(_lane_tuples(*r) for r in self._recorded))

    def __eq__(self, other):
        if not isinstance(other, GridReport):
            return NotImplemented
        key = attrgetter("bound_id", "points_checked", "violations", "worst_slack",
                         "max_rel_gap", "rows")
        return key(self) == key(other)

    @property
    def clean(self) -> bool:
        return not self.violations


def _check_tolerance(tolerance: float) -> None:
    """A NaN or infinite tolerance would pass every slack, so it must be a
    finite number >= 0."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")


def _bound_orders(bound_id: str, grid: Optional[Grid], tolerance: float):
    """(spec, grid, the grid's orders at which the bound is valid) for
    certify and verify.certify, after checking the tolerance."""
    _check_tolerance(tolerance)
    spec = registry.get_bound(bound_id)
    grid = grid or default_grid()
    return spec, grid, [nu for nu in grid.nu_values if spec.valid_at(nu)]


def certify(bound_id: str, grid: Optional[Grid] = None,
            tolerance: float = DEFAULT_TOLERANCE) -> GridReport:
    """Check one registered inequality at every in-range grid point.

    The bound reads one lane set, the grid's x lanes or its (x, y) pairs,
    at each in-range order: its formula and its target's exact formula run
    there on one special_core.Point per lane (_certify_points).  A bound
    whose Python arithmetic raises there (a division by zero, an
    overflowing power) goes to verify.certify's Row engine, where array
    arithmetic forms inf or NaN and the report records them; that needs the sweeps
    extra.
    """
    spec, grid, nus = _bound_orders(bound_id, grid, tolerance)
    try:
        return _certify_points(spec, grid, nus, tolerance)
    except ArithmeticError:
        pass
    from . import verify
    return verify.certify(bound_id, grid, tolerance)


def _slack(side: str, bound: float, exact: float) -> float:
    """verify._slack at one point: the difference over |exact|, with 1e-300
    in place of a zero exact value."""
    diff = bound - exact if side == "upper" else exact - bound
    return diff / (abs(exact) if exact != 0.0 else 1e-300)


def _certify_points(spec, grid: Grid, nus: list[float], tolerance: float) -> GridReport:
    """certify on one Point per lane of the grid's lane set (Grid.lanes), in
    its order: each Point is read at every order, the orders outermost, and
    each order records one row of Python floats, so the report's rows and
    CSV lines come out as the Row path makes them."""
    report = GridReport(spec.bound_id)
    if not nus:  # no lane is read, so none is checked, as on the Row path
        return report
    xs, ys = grid.lanes(registry.needs_y(spec))
    points = list(map(Point, xs)) if ys is None else list(map(Point, xs, ys))
    if not points:
        return report
    f, exact, side = spec.formula, registry.EXACT[spec.target], spec.side
    for nu in nus:
        if ys is None:
            values = [(f(nu, P.x, P), exact(nu, P.x, P)) for P in points]
        else:
            values = [(f(nu, P.x, P.y, P), exact(nu, P.x, P.y, P)) for P in points]
        report.record(nu, xs, ys, [_slack(side, b, e) for b, e in values], tolerance,
                      spec.is_equality_at(nu))
    return report


def _lane_texts(v, memo: dict) -> Iterable[str]:
    """The repr of each lane of one recorded nu, x or y: a list's formed
    once per report, kept in memo by the list's identity, and a scalar's
    once for the row (None is the empty text)."""
    if not isinstance(v, list):
        return repeat("" if v is None else repr(v))
    texts = memo.get(id(v))
    if texts is None:
        texts = memo[id(v)] = list(map(repr, v))
    return texts


def report_csv_rows(report: GridReport) -> Iterable[str]:
    """Serialize a report, one line per grid point.  Only the slack's text
    is formed per lane; each recorded list of nu, x or y forms its texts
    once (_lane_texts)."""
    yield "bound_id,nu,x,y,slack,status"
    memo: dict = {}
    for nu, x, y, slack, status in report._recorded:
        for nu_s, x_s, y_s, slack_s, status_s in zip(
                _lane_texts(nu, memo), _lane_texts(x, memo), _lane_texts(y, memo),
                map(repr, slack), repeat(status) if isinstance(status, str) else status):
            yield f"{report.bound_id},{nu_s},{x_s},{y_s},{slack_s},{status_s}"
