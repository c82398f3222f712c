"""GridReport.record and the views built from what it keeps: rows,
violations, the summary fields and the CSV lines, pinned on small hand-made
rows of every shape the sweeps record."""

import math

import numpy as np
import pytest

from struvebounds.verify import GridReport, report_csv_rows


def _single_argument_report():
    rep = GridReport("single")
    # a scalar order over an x array
    rep.record(0.5, np.array([1.0, 2.0]), None, np.array([0.25, 0.125]), 1e-12, False)
    # the list of orders and repeated x that the adjacent-order suites pass
    rep.record([1.0, 1.5, 1.0], np.array([0.5, 0.5, 2.0]), None,
               np.array([3e-3, 2e-3, 1e-3]), 0.0, False)
    # an equality order: the slack given is replaced by 0
    rep.record(0.5, np.array([4.0, 5.0]), None, np.array([3e-17, -1e-16]), 1e-12, True)
    # one violating lane
    rep.record(5.0, np.array([1.0, 2.0, 3.0]), None, np.array([1e-3, -1e-9, 2e-3]), 1e-12, False)
    return rep


def _pairs_report():
    rep = GridReport("pairs")
    rep.record(2.5, np.array([1.0, 1.0]), np.array([1.5, 3.0]), np.array([1e-3, -2e-3]),
               1e-12, False)
    rep.record(2.5, np.array([2.0]), np.array([20.0]), 0.5, 1e-12, False)
    return rep


class TestRecordedView:
    def test_single_argument_rows(self):
        rep = _single_argument_report()
        assert rep.points_checked == 10
        assert rep.violations == [(5.0, 2.0, -1e-09)]
        assert rep.worst_slack == -1e-09 and rep.max_rel_gap == 0.25
        assert rep.rows == [
            (0.5, 1.0, None, 0.25, "ok"),
            (0.5, 2.0, None, 0.125, "ok"),
            (1.0, 0.5, None, 0.003, "ok"),
            (1.5, 0.5, None, 0.002, "ok"),
            (1.0, 2.0, None, 0.001, "ok"),
            (0.5, 4.0, None, 0.0, "equality"),
            (0.5, 5.0, None, 0.0, "equality"),
            (5.0, 1.0, None, 0.001, "ok"),
            (5.0, 2.0, None, -1e-09, "violation"),
            (5.0, 3.0, None, 0.002, "ok"),
        ]
        for row in rep.rows:
            assert [type(v) for v in row] == [float, float, type(None), float, str]
        assert type(rep.worst_slack) is float and type(rep.max_rel_gap) is float
        assert not rep.clean

    def test_pairs_rows_and_csv(self):
        rep = _pairs_report()
        assert rep.points_checked == 3
        assert rep.violations == [(2.5, 1.0, 3.0, -0.002)]
        assert rep.worst_slack == -0.002 and rep.max_rel_gap == 0.5
        assert rep.rows == [
            (2.5, 1.0, 1.5, 0.001, "ok"),
            (2.5, 1.0, 3.0, -0.002, "violation"),
            (2.5, 2.0, 20.0, 0.5, "ok"),
        ]
        for row in rep.rows:
            assert all(type(v) is float for v in row[:4])
        assert list(report_csv_rows(rep)) == [
            "bound_id,nu,x,y,slack,status",
            "pairs,2.5,1.0,1.5,0.001,ok",
            "pairs,2.5,1.0,3.0,-0.002,violation",
            "pairs,2.5,2.0,20.0,0.5,ok",
        ]

    def test_never_recorded(self):
        rep = GridReport("empty")
        assert rep.points_checked == 0 and rep.violations == [] and rep.rows == []
        assert rep.worst_slack == math.inf and rep.max_rel_gap == -math.inf
        assert rep.clean
        assert list(report_csv_rows(rep)) == ["bound_id,nu,x,y,slack,status"]

    def test_rows_is_a_new_list_on_each_read(self):
        rep = _pairs_report()
        first = rep.rows
        first.clear()
        assert len(rep.rows) == 3 and rep.rows is not rep.rows
        with pytest.raises(AttributeError):
            rep.rows = []

    def test_equality_compares_rows_not_record_calls(self):
        whole = GridReport("r")
        whole.record(1.0, np.array([1.0, 2.0]), None, np.array([0.5, 0.25]), 1e-12, False)
        split = GridReport("r")
        split.record(1.0, np.array([1.0]), None, np.array([0.5]), 1e-12, False)
        split.record(1.0, [2.0], None, [0.25], 1e-12, False)
        assert whole == split
        moved = GridReport("r")
        moved.record(1.0, np.array([1.0, 3.0]), None, np.array([0.5, 0.25]), 1e-12, False)
        assert whole != moved and whole != "r"


class TestNonFiniteSlack:
    def test_nan_slack_is_a_violation(self):
        rep = GridReport("nan_slack")
        rep.record(1.0, np.array([1.0, 2.0, 3.0]), None, np.array([0.5, math.nan, 0.25]),
                   1e-12, False)
        assert not rep.clean and rep.points_checked == 3
        assert len(rep.violations) == 1
        nu, x, slack = rep.violations[0]
        assert (nu, x) == (1.0, 2.0) and math.isnan(slack)
        assert [r[4] for r in rep.rows] == ["ok", "violation", "ok"]
        assert math.isnan(rep.worst_slack)
        assert rep.max_rel_gap == 0.5
        assert (not rep.violations) == (rep.worst_slack >= -1e-12)
        # a later clean row does not hide it
        rep.record(1.0, np.array([4.0]), None, np.array([0.125]), 1e-12, False)
        assert math.isnan(rep.worst_slack) and len(rep.violations) == 1
        assert list(report_csv_rows(rep))[2] == "nan_slack,1.0,2.0,,nan,violation"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_slack_is_a_violation(self, bad):
        rep = GridReport("inf")
        rep.record(1.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.5, bad]),
                   1e-12, False)
        assert rep.violations == [(1.0, 2.0, 4.0, bad)]
        assert [r[4] for r in rep.rows] == ["ok", "violation"]
        assert (not rep.violations) == (rep.worst_slack >= -1e-12)
        if bad < 0.0:
            assert rep.worst_slack == -math.inf
        else:
            assert math.isnan(rep.worst_slack)

    def test_equality_row_ignores_the_slack_given(self):
        rep = GridReport("eq")
        rep.record(0.5, np.array([1.0, 2.0]), None, np.array([math.nan, -1.0]), 1e-12, True)
        assert rep.clean and rep.worst_slack == 0.0 and rep.max_rel_gap == 0.0
        assert rep.rows == [(0.5, 1.0, None, 0.0, "equality"), (0.5, 2.0, None, 0.0, "equality")]


def _views(rep):
    """Everything a report shows, floats by their repr (NaN equals NaN)."""
    return [rep.points_checked, *map(repr, (rep.violations, rep.worst_slack, rep.max_rel_gap,
                                            rep.rows)), list(report_csv_rows(rep))]


_SHARED_X = [1.0, 2.0]


class TestListRows:
    """A row recorded as Python lists, as certify's point path records it,
    gives the report the same views as the row recorded as arrays, and its
    CSV lines are the texts of its rows."""

    @pytest.mark.parametrize("rows", [
        # (nu, x, y, slack, tolerance, equality) rows recorded in turn
        [(0.5, [1.0, 2.0], None, [0.25, 0.125], 1e-12, False),
         (5.0, [1.0, 2.0, 3.0], None, [1e-3, -1e-9, 2e-3], 1e-12, False)],
        [(1.0, [1.0, 2.0, 3.0], None, [0.5, math.nan, 0.25], 1e-12, False),
         (1.0, [4.0], None, [0.125], 1e-12, False)],
        [(1.0, [1.0, 2.0], [3.0, 4.0], [0.5, math.inf], 1e-12, False)],
        [(1.0, [1.0, 2.0], [3.0, 4.0], [-math.inf, 0.5], 1e-12, False),
         (2.0, [1.0], [3.0], [math.nan], 1e-12, False)],
        [(1.0, [1.0, 2.0], None, [math.nan, math.nan], 1e-12, False)],
        [(0.5, [1.0, 2.0], None, [math.nan, -1.0], 1e-12, True),
         (1.0, [1.0, 2.0], None, [-1e-13, 0.0], 0.0, False)],
        [(0.5, [1.0, 2.0], None, [math.nan, math.inf], 1e-12, False),
         (1.0, [1.0, 2.0], None, [-5.0, 7.0], 1e-12, False)],
        # -0.0 == 0.0, so a text memo keyed by value would give both one text
        [(0.5, [-0.0, 0.0, -0.0], [0.0, -0.0, 1.0], [0.25, -0.0, 0.0], 1e-12, False)],
        # one x list recorded at two orders, as certify records its lane set
        [(0.5, _SHARED_X, None, [0.25, 0.125], 1e-12, False),
         (1.0, _SHARED_X, None, [0.5, -1e-9], 1e-12, False)],
    ], ids=["finite", "nan", "inf", "minus-inf-then-nan", "all-nan", "equality", "nan-stays",
            "signed-zeros", "one-x-list-at-two-orders"])
    def test_lists_and_arrays_record_alike(self, rows):
        by_lists, by_arrays = GridReport("r"), GridReport("r")
        for nu, x, y, slack, tolerance, equality in rows:
            by_lists.record(nu, x, y, slack, tolerance, equality)
            by_arrays.record(nu, np.array(x), None if y is None else np.array(y),
                             np.array(slack), tolerance, equality)
        assert _views(by_lists) == _views(by_arrays)
        for row in by_lists.rows:
            assert all(type(v) is float for v in row[:4] if v is not None)
        assert list(report_csv_rows(by_lists))[1:] == [
            f"r,{nu!r},{x!r},{'' if y is None else repr(y)},{slack!r},{status}"
            for nu, x, y, slack, status in by_lists.rows]
