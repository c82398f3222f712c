import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from struvebounds import (
    DomainError,
    Grid,
    MultipleSignChanges,
    NoSignChange,
    UnknownBound,
    certify,
    certify_all,
    certify_eq14_extension,
    crossover,
    default_grid,
    lv_value,
    monotonicity_suite,
    relative_error_table,
    special_core,
    table_by_id,
)
from struvebounds.brackets import BoundSpec
from struvebounds.registry import REGISTRY
from struvebounds.verify import (
    TABLES,
    parse_table_csv,
    render_table_csv,
    render_table_text,
    report_csv_rows,
)


@pytest.fixture
def small_grid():
    return Grid((-0.5, 0.0, 0.5, 1.0, 2.5, 10.0),
                tuple(float(v) for v in np.logspace(-2, math.log10(30.0), 10)))


class TestCertify:
    def test_upper_bracket_clean(self, small_grid):
        rep = certify("eq17_upper", small_grid)
        assert rep.clean
        assert rep.points_checked == 4 * 10  # four orders are >= 1/2
        assert rep.worst_slack >= -1e-12

    def test_positivity_clean(self, small_grid):
        rep = certify("eq14_positivity", small_grid)
        assert rep.clean and rep.points_checked > 0

    def test_equality_points_flagged_not_violations(self, small_grid):
        rep = certify("eq20_upper", small_grid)
        assert rep.clean
        eq_rows = [r for r in rep.rows if r[4] == "equality"]
        assert len(eq_rows) == 10  # the nu = 1/2 row
        assert all(r[3] == 0.0 for r in eq_rows)

    def test_violations_iff_worst_slack_beyond_tolerance(self, small_grid):
        for bid in ("eq18_lower", "eq13_lower", "eq39_upper"):
            rep = certify(bid, small_grid)
            assert (not rep.violations) == (rep.worst_slack >= -1e-12)

    def test_unknown_bound(self):
        with pytest.raises(UnknownBound):
            certify("eq99_lower")

    def test_deterministic(self, small_grid):
        a = certify("eq31_lower", small_grid)
        b = certify("eq31_lower", small_grid)
        assert a.rows == b.rows and a.worst_slack == b.worst_slack

    def test_arg_ratio_bound_uses_pairs(self, small_grid):
        rep = certify("eq38_upper", small_grid)
        assert rep.clean
        assert all(r[2] is not None for r in rep.rows)

    def test_shared_exact_values_change_no_report(self, small_grid):
        shared = certify_all(small_grid)
        alone = [certify(bid, small_grid) for bid in REGISTRY]
        assert len(shared) == len(alone)
        for a, b in zip(shared, alone):
            assert a.bound_id == b.bound_id
            assert a.rows == b.rows
            assert a.violations == b.violations
            assert a.worst_slack == b.worst_slack
            assert a.max_rel_gap == b.max_rel_gap
            assert a.points_checked == b.points_checked

    def test_each_exact_value_computed_once(self, small_grid, monkeypatch):
        from struvebounds import registry

        # certify computes exact values a (target, order) row at a time
        calls = []
        original = registry.exact_row

        def counting(target, P):
            calls.append((target, P.nu))
            return original(target, P)

        monkeypatch.setattr(registry, "exact_row", counting)
        certify_all(small_grid)
        assert calls
        assert len(calls) == len(set(calls))

    def test_rows_without_lanes_are_skipped(self):
        # every y is capped at 60, so x = 100 has no (x, y) pair
        no_pairs = Grid((1.0,), (100.0,))
        rep = certify("eq38_lower", no_pairs)
        assert rep.points_checked == 0 and rep.clean and rep.worst_slack == math.inf
        assert certify("eq17_upper", no_pairs).points_checked == 1
        no_args = Grid((0.0, 1.0), ())
        assert sum(r.points_checked for r in certify_all(no_args)) == 0
        assert certify_eq14_extension(no_args).points_checked == 0

    def test_full_registry_clean_on_default_grid(self):
        reports = certify_all()
        assert all(rep.clean for rep in reports)
        assert len(reports) == len(REGISTRY)

    def test_extension_probe_reports_cleanly(self, small_grid):
        rep = certify_eq14_extension(small_grid)
        assert rep.bound_id == "eq14_extension_experiment"
        assert rep.points_checked == 2 * 10  # orders -1/2 and 0
        assert rep.clean


class TestTables:
    def test_spot_values(self):
        t1 = relative_error_table(TABLES[1])
        assert t1[0][3] == pytest.approx(0.1073, abs=2e-4)   # nu=0,   x=2.5
        assert t1[2][4] == pytest.approx(0.0186, abs=2e-4)   # nu=1,   x=5
        t3 = relative_error_table(TABLES[3])
        assert t3[4][4] == pytest.approx(0.0132, abs=2e-4)   # nu=5,   x=5
        t6 = relative_error_table(TABLES[6])
        assert t6[4][8] == pytest.approx(2.4709, abs=2e-4)   # nu=10,  x=100

    def test_zero_column_rules(self):
        t1 = relative_error_table(TABLES[1])
        assert all(v == 0.0 for v in t1[:, 0])
        t2 = relative_error_table(TABLES[2])
        assert math.isinf(t2[0][0])
        assert t2[1][0] == 1.0 and t2[3][0] == pytest.approx(0.2)
        t4 = relative_error_table(TABLES[4])
        assert math.isinf(t4[0][0])
        assert t4[1][0] == pytest.approx(2.0)
        assert t4[2][0] == pytest.approx(0.5)

    def test_table_lookup(self):
        assert table_by_id(5).approximant_id == "eq39_upper"
        with pytest.raises(UnknownBound):
            table_by_id(7)

    def test_text_rendering(self):
        spec = TABLES[2]
        text = render_table_text(spec, relative_error_table(spec))
        assert "inf" in text
        assert "0.6481" in text  # nu=0.5, x=1

    def test_csv_round_trip_exact(self):
        spec = TABLES[4]
        matrix = relative_error_table(spec)
        parsed = parse_table_csv(render_table_csv(spec, matrix))
        for i, nu in enumerate(spec.nu_rows):
            for j, x in enumerate(spec.x_cols):
                assert parsed[(nu, x)] == matrix[i][j] or (
                    math.isinf(parsed[(nu, x)]) and math.isinf(matrix[i][j]))

    def test_report_csv_rows(self, ):
        rep = certify("eq20_upper", Grid((0.5, 1.0), (1.0, 2.0)))
        rows = list(report_csv_rows(rep))
        assert rows[0] == "bound_id,nu,x,y,slack,status"
        assert len(rows) == 1 + rep.points_checked
        assert any(",equality" in r for r in rows)


class TestCrossover:
    def test_tanh_vs_algebraic_upper(self):
        assert crossover("eq20_upper", "eq18_upper", 0.75) == pytest.approx(3.26, abs=0.02)

    def test_refined_vs_algebraic_upper(self):
        assert crossover("eq24_upper", "eq18_upper", 2.5) == pytest.approx(8.42, abs=0.02)
        # verified single exchange point at order one (4.907, not the
        # published 5.34, which corresponds to order ~1.19)
        assert crossover("eq24_upper", "eq18_upper", 1.0) == pytest.approx(4.907, abs=0.01)

    def test_large_order_scale(self):
        got = crossover("eq24_upper", "eq18_upper", 5.0)
        assert got == pytest.approx(14.9, abs=0.1)
        assert got == pytest.approx(2.0 * math.sqrt(5.0 * 11.0), abs=0.2)

    def test_no_sign_change(self):
        # above order 3/2 the algebraic upper bound stays below tanh(x/2)
        with pytest.raises(NoSignChange):
            crossover("eq20_upper", "eq18_upper", 3.0)

    @pytest.mark.parametrize("a,b,x_range,cause,nu", [
        ("eq20_upper", "eq18_upper", (20.0, 0.05), "0 < xmin < xmax", 0.75),
        ("eq20_upper", "eq18_upper", (0.0, 20.0), "0 < xmin < xmax", 0.75),
        ("eq20_upper", "eq18_upper", (0.05, math.inf), "0 < xmin < xmax", 0.75),
        ("eq20_upper", "eq18_upper", (math.nan, 20.0), "0 < xmin < xmax", 0.75),
        ("eq38_lower", "eq38_upper", (0.05, 20.0), "eq38_lower bounds the argument ratio", 0.75),
        ("eq24_upper", "eq18_upper", (0.05, 30.0), "eq18_upper is not valid at nu=0.25", 0.25),
    ])
    def test_rejects_inputs_it_cannot_answer(self, a, b, x_range, cause, nu):
        # a reversed range once skipped the bisection (3.3082 for 3.2638),
        # x = 0 failed in the pre-scan and argument-ratio ids with a TypeError,
        # and a bound outside its range (eq18_upper holds from 1/2) gave 3.0958
        with pytest.raises(DomainError, match=cause):
            crossover(a, b, nu, x_range)

    def test_multiple_sign_changes(self):
        REGISTRY["fake_osc"] = BoundSpec(
            "fake_osc", "b_kernel", "upper", -1.5, True,
            lambda n, x, P: P.map(math.sin, x))
        REGISTRY["fake_zero"] = BoundSpec(
            "fake_zero", "b_kernel", "upper", -1.5, True,
            lambda n, x, P: 0.0)
        try:
            with pytest.raises(MultipleSignChanges):
                crossover("fake_osc", "fake_zero", 0.0, (0.1, 20.0))
        finally:
            del REGISTRY["fake_osc"]
            del REGISTRY["fake_zero"]


class TestSweepsOwnTheirSeries:
    def test_sweeps_leave_the_memo_as_they_found_it(self):
        special_core._SERIES_MEMO.clear()
        lv_value(1.0, 2.0)
        before = dict(special_core._SERIES_MEMO)
        certify_all()
        monotonicity_suite()
        assert special_core._SERIES_MEMO == before

    def test_sweeps_never_read_the_memo(self, monkeypatch, small_grid):
        class NoMemo(dict):
            def __getitem__(self, key):
                raise AssertionError(f"memo read at {key}")

            get = __contains__ = __getitem__

        monkeypatch.setattr(special_core, "_SERIES_MEMO", NoMemo())
        assert all(rep.clean for rep in certify_all(small_grid) + monotonicity_suite())


class TestMonotonicitySuite:
    def test_all_reports_clean(self):
        reports = monotonicity_suite()
        names = {r.bound_id for r in reports}
        assert names == {"mono_b_decreasing_in_x", "mono_b_increasing_in_nu",
                         "mono_succ_ratio_decreasing_in_nu", "turan_product",
                         "m_ratio_dominates_bessel_ratio", "recurrence_residuals"}
        for rep in reports:
            assert rep.clean, rep.bound_id
            assert rep.points_checked > 100


class TestDefaultGrid:
    def test_shape(self):
        g = default_grid()
        assert len(g.nu_values) == 14
        assert len(g.x_values) == 60
        assert g.x_values[0] == pytest.approx(1e-3)
        assert g.x_values[-1] == pytest.approx(50.0)

    def test_y_rule_caps_at_sixty(self):
        g = default_grid()
        assert g.y_values(50.0) == [60.0]
        assert g.y_values(1.0) == [1.5, 3.0, 10.0]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Grid((1.0, 0.5), (1.0, 2.0))


class TestRows:
    """A row formula is the point formula over numpy lanes: arithmetic is
    IEEE in both, and the elementary functions are math's lane by lane (numpy's
    exp, tanh, log and hypot differ from math's by an ulp on a few percent of
    arguments), so every registered bound and exact value agrees bit for bit."""

    def test_rows_match_points_on_the_default_grid(self):
        from struvebounds import registry, verify

        grid = default_grid()
        for spec in REGISTRY.values():
            takes_y = registry.needs_y(spec)
            for nu in grid.nu_values:
                if not spec.valid_at(nu):
                    continue
                row = verify._grid_row(grid, nu, takes_y)
                bound = registry.bound_row(spec, row)
                exact = registry.exact_row(spec.target, row)
                ys = row.y.tolist() if takes_y else [None] * row.x.size
                for x, y, b, e in zip(row.x.tolist(), ys, bound.tolist(), exact.tolist()):
                    args = (nu, x) if y is None else (nu, x, y)
                    assert spec.evaluate(*args) == b, (spec.bound_id, nu, x, y)
                    assert registry.exact_value(spec.target, *args) == e, (spec.target, nu, x, y)

    def test_point_values_are_python_floats(self):
        import struvebounds as sb
        from struvebounds.succ_ratio import transfer_lower

        for spec in REGISTRY.values():  # every registered range includes order 2
            args = (2.0, 2.0, 3.0) if spec.target == "arg_ratio_L" else (2.0, 2.0)
            assert type(spec.evaluate(*args)) is float, spec.bound_id
            assert type(sb.exact_value(spec.target, *args)) is float, spec.target
        pair = sb.ArgPair(2.0, 3.0)
        values = [sb.b_value(1.0, 2.0), sb.b_upper_quadratic(1.0, 2.0),
                  sb.cond_exact("L", 1.0, 2.0), transfer_lower(1.0, 2.0, 0.5),
                  sb.bessel_ratio_lower_tanh(1.0, 2.0), sb.product_difference(1.0, 2.0),
                  sb.product_difference_cap(2.0, 2.0, "via_nu"),
                  sb.prior_lower_bound(1.0, 2.0, "prior_coth"),
                  sb.arg_ratio_exact(1.0, pair), sb.arg_ratio_prior_bounds(1.0, pair, "eq42"),
                  sb.pointwise_prior_upper(1.0, 2.0, "eq46"), sb.ratio_lower_tanh(1.0, 2.0),
                  sb.ratio_upper_tanh_half(1.0, 2.0), sb.ratio_lower_turan(1.0, 2.0),
                  sb.ratio_lower_tanh_half(1.0, 2.0), sb.ratio_upper_refined(1.0, 2.0)]
        for br in (sb.b_csch_bracket(1.0, 2.0), sb.bessel_ratio_bounds(1.0, 2.0),
                   sb.ratio_bracket_via_bessel(1.0, 2.0), sb.ratio_bracket_segura_form(1.0, 2.0),
                   sb.cond_bracket_via_bessel(1.0, 2.0), sb.cond_bracket_sqrt(1.0, 2.0, "eq30"),
                   sb.arg_ratio_bessel_bracket(1.0, pair), sb.arg_ratio_explicit_bracket(1.0, pair),
                   sb.pointwise_bracket(1.0, 2.0), sb.best_bracket(1.0, 2.0)):
            values += [br.lower, br.upper]
        assert all(type(v) is float for v in values)


class TestBenchReference:
    def test_sweep_matches_the_bench_reference(self):
        # the certify-grid sweep of perfbench/worker.py::job_sweep, checked
        # the way the benchmark checks it: 46 reports, 52,519 points and no
        # violation
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        sys.path.insert(0, str(bench))
        try:
            import gate
            import workloads
        finally:
            sys.path.remove(str(bench))

        reference = json.loads((bench / "reference.json").read_text())
        tables = [relative_error_table(table_by_id(i)) for i in workloads.TABLE_IDS]
        roots = [crossover(a, b, nu, xr) for a, b, nu, xr in workloads.CROSSOVERS]
        reports = certify_all() + monotonicity_suite()
        fingerprint = gate.certify_fingerprint(reports, tables, roots)
        assert gate.compare_certify(reference["certify_grid"], fingerprint) == []
        assert len(reports) == 46 and sum(r.points_checked for r in reports) == 52519
        assert not any(r.violations for r in reports)
