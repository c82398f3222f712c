import json
import math
from pathlib import Path

import pytest

from struvebounds import lv_value, mv_value, special_core
from struvebounds.brackets import BoundSpec
from struvebounds.cli import main
from struvebounds.registry import REGISTRY
from struvebounds.verify import parse_table_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_struve_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "L", "--nu", "1", "--x", "2.5")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(lv_value(1.0, 2.5), rel=1e-16)
        assert "terms_used=" in out

    def test_m_cancellation_note(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "M", "--nu", "1", "--x", "30")
        assert code == 0
        assert "cancellation" in out
        assert float(out.splitlines()[0]) == pytest.approx(mv_value(1.0, 30.0))

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--kind", "L", "--nu", "1", "--x", "-3")
        assert code == 1
        assert "error:" in err

    def test_overflow_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--kind", "I", "--nu", "0", "--x", "650")
        assert code == 1
        assert "x_max" in err


class TestBracket:
    def test_equality_marker_at_half_order(self, capsys):
        code, out, _ = run(capsys, "bracket", "--nu", "0.5", "--x", "3")
        assert code == 0
        upper_line = [l for l in out.splitlines() if l.startswith("upper")][0]
        assert float(upper_line.split()[2]) == pytest.approx(math.tanh(1.5))
        assert "eq20_upper" in upper_line and "equality" in upper_line

    def test_single_bound(self, capsys):
        code, out, _ = run(capsys, "bracket", "--nu", "1", "--x", "2",
                           "--bound", "eq21_lower")
        assert code == 0
        assert out.startswith("eq21_lower =")
        assert "lower bound, valid" in out

    def test_unknown_bound(self, capsys):
        code, _, err = run(capsys, "bracket", "--nu", "1", "--x", "2",
                           "--bound", "eq99")
        assert code == 1 and "eq99" in err

    def test_no_valid_bound(self, capsys):
        code, _, err = run(capsys, "bracket", "--nu", "-1", "--x", "2")
        assert code == 1


class TestCondAndArgRatio:
    def test_cond_lists_bounds(self, capsys):
        code, out, _ = run(capsys, "cond", "--nu", "1", "--x", "5")
        assert code == 0
        assert out.startswith("exact =")
        assert "eq29_lower" in out and "best bracket" in out

    def test_argratio(self, capsys):
        code, out, _ = run(capsys, "argratio", "--nu", "0.5", "--x", "1", "--y", "2")
        assert code == 0
        want = (math.cosh(1.0) - 1.0) * math.sqrt(2.0) / (math.cosh(2.0) - 1.0)
        assert float(out.splitlines()[0].split()[2]) == pytest.approx(want, rel=1e-13)
        assert "eq38_upper" in out

    @pytest.mark.parametrize("argv", [("cond", "--nu", "1", "--x", "5"),
                                      ("argratio", "--nu", "1", "--x", "1", "--y", "2")])
    def test_each_bound_is_evaluated_once(self, capsys, argv):
        # the listing and the best bracket share one evaluation per bound
        calls = []
        originals = {spec.bound_id: spec.formula for spec in REGISTRY.values()}

        def counting(bound_id, formula):
            def counted(*args):
                calls.append(bound_id)
                return formula(*args)
            return counted

        for spec in REGISTRY.values():
            object.__setattr__(spec, "formula", counting(spec.bound_id, spec.formula))
        try:
            code, out, _ = run(capsys, *argv)
        finally:
            for spec in REGISTRY.values():
                object.__setattr__(spec, "formula", originals[spec.bound_id])
        listed = [line.split()[0] for line in out.splitlines() if line.split()[0] in originals]
        assert code == 0 and listed and sorted(calls) == sorted(listed)

    def test_argratio_rejects_reversed_pair(self, capsys):
        code, _, err = run(capsys, "argratio", "--nu", "0.5", "--x", "3", "--y", "1")
        assert code == 1


class TestTable:
    def test_csv_reference_cell(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "1", "--format", "csv")
        assert code == 0
        parsed = parse_table_csv(out)
        assert parsed[(1.0, 5.0)] == pytest.approx(0.0186, abs=2e-4)

    def test_csv_round_trip(self, capsys):
        from struvebounds.verify import TABLES, relative_error_table

        code, out, _ = run(capsys, "table", "--id", "2", "--format", "csv")
        parsed = parse_table_csv(out)
        matrix = relative_error_table(TABLES[2])
        for i, nu in enumerate(TABLES[2].nu_rows):
            for j, x in enumerate(TABLES[2].x_cols):
                got = parsed[(nu, x)]
                assert got == matrix[i][j] or (math.isinf(got) and math.isinf(matrix[i][j]))

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "4")
        assert code == 0
        assert "inf" in out  # the order-1/2, x=0 cell

    def test_bad_id(self, capsys):
        code, _, err = run(capsys, "table", "--id", "9")
        assert code == 1


class TestVerify:
    def test_single_bound_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--bound", "eq20_upper")
        assert code == 0
        assert "status=ok" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--bound", "eq13_upper",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bound_id,nu,x,y,slack,status"
        assert all(line.startswith("eq13_upper,") for line in lines[1:])

    def test_exit_code_two_on_violation(self, capsys):
        REGISTRY["fake_bad_upper"] = BoundSpec(
            "fake_bad_upper", "b_kernel", "upper", -1.5, True,
            lambda n, x, P: 0.0)
        try:
            code, out, _ = run(capsys, "verify", "--bound", "fake_bad_upper")
        finally:
            del REGISTRY["fake_bad_upper"]
        assert code == 2
        assert "VIOLATIONS" in out

    def test_all_with_experiment(self, capsys):
        code, out, _ = run(capsys, "verify", "--all",
                           "--experimental-eq14-extension")
        assert code == 0
        assert "eq14_extension_experiment" in out
        assert "holds on probe grid" in out
        assert "mono_b_decreasing_in_x" in out


class TestCrossover:
    def test_quoted_value(self, capsys):
        code, out, _ = run(capsys, "crossover", "--a", "eq24_upper",
                           "--b", "eq18_upper", "--nu", "2.5")
        assert code == 0
        assert float(out) == pytest.approx(8.42, abs=0.02)

    def test_no_sign_change_is_error(self, capsys):
        code, _, err = run(capsys, "crossover", "--a", "eq20_upper",
                           "--b", "eq18_upper", "--nu", "3")
        assert code == 1 and "sign" in err

    def test_custom_range(self, capsys):
        code, out, _ = run(capsys, "crossover", "--a", "eq20_upper",
                           "--b", "eq18_upper", "--nu", "1",
                           "--xmin", "0.5", "--xmax", "10")
        assert code == 0
        assert float(out) == pytest.approx(2.18, abs=0.02)

    @pytest.mark.parametrize("flags,cause", [
        (("--xmin", "20", "--xmax", "0.05"), "0 < xmin < xmax"),  # reversed range
        (("--xmin", "0"), "0 < xmin < xmax"),
        (("--a", "eq38_lower", "--b", "eq38_upper"), "argument ratio"),
        (("--a", "eq24_upper", "--nu", "0.25"), "eq18_upper is not valid at nu=0.25"),
    ])
    def test_inputs_it_cannot_answer_are_errors(self, capsys, flags, cause):
        code, out, err = run(capsys, "crossover", "--a", "eq20_upper", "--b", "eq18_upper",
                             "--nu", "0.75", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error:") and cause in err and "Traceback" not in err
        assert len(err) < 200  # names the cause, not the pre-scan's arguments


class TestMemoCap:
    def test_point_commands_stay_far_below_the_memo_cap(self, capsys):
        # one command of each kind from the benchmark's reference pool, each
        # from an empty memo; the largest are a table (208 entries) and a
        # crossover's bisection (24), while verify sums its rows itself
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "reference.json").read_text())["cli_pool"]
        assert len(pool) == 7
        for kind, commands in pool.items():
            special_core._SERIES_MEMO.clear()
            assert main(commands[0][0]) == 0, kind
            capsys.readouterr()
            assert len(special_core._SERIES_MEMO) < special_core._SERIES_MEMO_MAX // 4, kind


class TestEveryBound:
    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_exit_code_without_traceback(self, capsys, bound_id):
        # every registered bound, inside and outside its validity range, and
        # at orders where Gamma(nu+3/2) leaves double range and every series
        # underflows: either a value (exit 0) or a typed error (exit 1),
        # never a raw exception out of main()
        spec = REGISTRY[bound_id]
        points = [(nu, x) for nu in ("-2", "-1.5", "-1", "-0.5", "0", "0.5")
                  for x in ("5e-324", "1e-3", "1", "30")]
        for nu, x in points + [("300", "1"), ("1e6", "1"), ("-1", "1e-12")]:
            if spec.target == "arg_ratio_L":
                argv = ["argratio", "--nu", nu, "--x", x, "--y", str(2.0 * float(x))]
            else:
                argv = ["bracket", "--bound", bound_id, "--nu", nu, "--x", x]
            code, _, err = run(capsys, *argv)
            assert code in (0, 1), (argv, code)
            assert code == 0 or err.startswith("error:"), (argv, err)

    @pytest.mark.parametrize("argv", [
        ("cond", "--nu", "300", "--x", "2"),
        ("argratio", "--nu", "1", "--x", "1e-320", "--y", "1"),
        ("eval", "--kind", "L", "--nu", "0", "--x", "5e-324"),
    ])
    def test_underflow_is_reported_as_underflow(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "underflow" in err

    def test_leading_term_overflow_is_reported_as_overflow(self, capsys):
        code, _, err = run(capsys, "eval", "--kind", "I", "--nu", "-1.2", "--x", "1e-300")
        assert code == 1
        assert err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("argv", [
        ("argratio", "--nu", "0", "--x", "1e-300", "--y", "2e-300"),
        ("bracket", "--bound", "eq39_lower", "--nu", "-0.5", "--x", "1e-310"),
        ("bracket", "--bound", "eq27_upper", "--nu", "-1", "--x", "1e-12"),
    ])
    def test_tight_sides_near_zero(self, capsys, argv):
        # both sides of these bounds meet as x -> 0, where their logs are
        # near -700; the sides are formed so that they stay in order
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert "error" not in err

    def test_eq13_upper_at_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bracket", "--bound", "eq13_upper",
                           "--nu", "-1.5", "--x", "1")
        assert code == 1
        assert "nu > -3/2" in err


class TestUsageAndEnv:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["eval", "--kind", "L", "--nu", "1"]) == 1  # --x missing

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
