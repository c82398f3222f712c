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
    exact_value,
    monotonicity_suite,
    registry,
    relative_error_table,
    table_by_id,
)
from struvebounds import verify
from struvebounds.registry import BoundSpec
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

    @pytest.mark.parametrize("entry", ["certify", "certify_all", "certify_eq14_extension"])
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, monkeypatch, entry, tolerance):
        # a NaN or infinite tolerance would pass every slack: each entry
        # refuses it before it builds a lane set
        def no_sweep(*args):
            raise AssertionError("sweep work before the tolerance check")

        monkeypatch.setattr(verify, "_grid_row", no_sweep)
        args = ("eq17_lower",) if entry == "certify" else ()
        with pytest.raises(ValueError, match="tolerance must be finite"):
            getattr(verify, entry)(*args, tolerance=tolerance)

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
        from struvebounds import rows

        # certify computes exact values a (target, order) row at a time
        calls = []
        original = rows.exact_row

        def counting(target, P, nu):
            calls.append((target, nu))
            return original(target, P, nu)

        monkeypatch.setattr(rows, "exact_row", counting)
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

    @pytest.mark.parametrize("shift, root", [(0.0, 10.0751256), (1e-9, 10.07517)])
    def test_root_on_a_sample(self, monkeypatch, shift, root):
        # a difference of exactly 0.0 at sample 100, between samples of
        # opposite sign, once skipped both pairs and raised NoSignChange
        c = np.linspace(0.05, 20.0, 200)[100].item() + shift
        monkeypatch.setitem(REGISTRY, "fake_line", BoundSpec(
            "fake_line", "b_kernel", "upper", -1.5, True, lambda n, x, P: x - c))
        monkeypatch.setitem(REGISTRY, "fake_zero", BoundSpec(
            "fake_zero", "b_kernel", "upper", -1.5, True, lambda n, x, P: 0.0 * x))
        assert crossover("fake_line", "fake_zero", 0.0, (0.05, 20.0)) == pytest.approx(
            root, abs=1e-4)

    def test_scan_grid_is_linspace(self):
        # the pre-scan forms its points in Python, as np.linspace would
        rng = np.random.default_rng(2101)
        for _ in range(500):
            lo = float(np.exp(rng.uniform(-700.0, 680.0)))  # lo * e^20 stays finite
            wide = [lo * float(np.exp(rng.uniform(0.0, 20.0)))]
            hi = lo
            for _ in range(int(rng.integers(1, 6))):  # a few ulps wide
                hi = math.nextafter(hi, math.inf)
            for top in wide + [hi]:
                assert registry._scan_grid(lo, top, 200) == np.linspace(lo, top, 200).tolist()
        # a subnormal range, whose step underflows to 0
        assert registry._scan_grid(5e-324, 1e-321, 200) == np.linspace(
            5e-324, 1e-321, 200).tolist()


class TestSweepsOwnTheirSeries:
    # the memo here is the package's one scalar cache, the Point the
    # registry keeps from its last call
    def test_sweeps_leave_the_memo_as_they_found_it(self):
        exact_value("pointwise_L", 1.0, 2.0)
        before = registry._last
        got = dict(before._got)
        certify_all()
        monotonicity_suite()
        assert registry._last is before and before._got == got

    def test_sweeps_never_read_the_memo(self, monkeypatch, small_grid):
        def no_point(*args):
            raise AssertionError(f"registry point at {args}")

        monkeypatch.setattr(registry, "_point", no_point)
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

    def test_x_values_are_numpys_logspace(self):
        # literals, so that the grid is built without numpy
        assert default_grid().x_values == tuple(
            np.logspace(-3.0, math.log10(50.0), 60).tolist())

    def test_rejects_unsorted(self):
        for nus, xs in [((1.0, 0.5), (1.0, 2.0)),
                        # a NaN compares false both ways, so it passes a sortedness check alone
                        ((1.0, math.nan, 0.5), (1.0,)),
                        ((1.0,), (math.nan,)),
                        ((0.0, math.inf), (1.0,)),
                        ((1.0,), (1.0, math.inf)),
                        ((-math.inf, 0.0), (1.0,))]:
            with pytest.raises(ValueError, match="finite and sorted strictly increasing"):
                Grid(nus, xs)

    def test_stores_tuples_of_floats(self):
        g = Grid([0, 1], np.array([1.0, 2.0]))
        assert g.nu_values == (0.0, 1.0) and g.x_values == (1.0, 2.0)
        assert all(type(v) is float for v in g.nu_values + g.x_values)
        assert g == Grid((0.0, 1.0), (1.0, 2.0)) and hash(g) == hash(Grid((0.0, 1.0), (1.0, 2.0)))
        with pytest.raises(AttributeError):
            g.x_values = ()


class TestRows:
    """A row formula is the point formula over numpy lanes: arithmetic is
    IEEE in both, and the elementary functions are math's lane by lane (numpy's
    exp, tanh, log and hypot differ from math's by an ulp on a few percent of
    arguments), so every registered bound and exact value agrees bit for bit."""

    def test_rows_match_points_on_the_default_grid(self):
        from struvebounds import registry, rows, verify

        grid = default_grid()
        for spec in REGISTRY.values():
            takes_y = registry.needs_y(spec)
            row = verify._grid_row(grid, takes_y)
            for nu in grid.nu_values:
                if not spec.valid_at(nu):
                    continue
                bound = rows.bound_row(spec, row, nu)
                exact = rows.exact_row(spec.target, row, nu)
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
        values = [sb.b_value(1.0, 2.0), sb.exact_value("cond_L", 1.0, 2.0),
                  transfer_lower(1.0, 2.0, 0.5), sb.bessel_ratio_lower_tanh(1.0, 2.0),
                  sb.exact_value("product_diff_L", 1.0, 2.0),
                  sb.exact_value("arg_ratio_L", 1.0, 2.0, 3.0)]
        values += [sb.get_bound(bound_id).evaluate(*args) for bound_id, args in (
            ("eq12_upper", (1.0, 2.0)), ("eq15_upper", (2.0, 2.0)), ("prior_coth", (1.0, 2.0)),
            ("eq42_lower", (1.0, 2.0, 3.0)), ("eq46_upper", (1.0, 2.0)),
            ("eq19_lower", (1.0, 2.0)), ("eq20_upper", (1.0, 2.0)), ("eq21_lower", (1.0, 2.0)),
            ("eq22_lower", (1.0, 2.0)), ("eq24_upper", (1.0, 2.0)))]
        values += [v for _, v in sb.evaluate_valid("arg_ratio_L", 1.0, 2.0, 3.0)]
        for br in (sb.bracket("eq13_lower", "eq13_upper", 1.0, 2.0),
                   sb.bessel_ratio_bounds(1.0, 2.0),
                   sb.bracket("eq17_lower", "eq17_upper", 1.0, 2.0),
                   sb.bracket("eq18_lower", "eq18_upper", 1.0, 2.0),
                   sb.bracket("eq28_lower", "eq28_upper", 1.0, 2.0),
                   sb.bracket("eq30_lower", "eq30_upper", 1.0, 2.0),
                   sb.bracket("eq37_lower", "eq37_upper", 1.0, 2.0, 3.0),
                   sb.bracket("eq38_lower", "eq38_upper", 1.0, 2.0, 3.0),
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
