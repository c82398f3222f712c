import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import struvebounds
from struvebounds import certification, lv_value, registry, struve_m, verify
from struvebounds.certification import Grid, default_grid
from struvebounds.cli import main
from struvebounds.registry import REGISTRY, BoundSpec
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
        assert float(out.splitlines()[0]) == pytest.approx(struve_m(1.0, 30.0).value)

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

    @pytest.mark.parametrize("argv,need,prefix", [
        (("cond", "--nu", "-1.5", "--x", "1"), "nu > -3/2", ""),
        (("bracket", "--bound", "eq28_lower", "--nu", "-1.5", "--x", "1"), "nu >= -1/2",
         "eq28_lower at nu=-1.5, x=1.0: "),
    ], ids=["cond", "eq28_lower"])
    def test_order_below_the_floor_names_nu(self, capsys, argv, need, prefix):
        # both read f_{nu-1}; the error names the caller's nu, not order -2.5,
        # and a bound's error names the bound and the point
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {prefix}the condition number")
        assert need in err and "got nu=-1.5" in err and "order -2.5" not in err

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

    def test_csv_with_experiment(self, capsys):
        # the experiment's points are CSV rows under the one header, not a text line
        code, out, _ = run(capsys, "verify", "--bound", "eq14_positivity",
                           "--experimental-eq14-extension", "--format", "csv")
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))
        assert table.count(["bound_id", "nu", "x", "y", "slack", "status"]) == 1
        assert all(len(row) == 6 for row in table)
        assert sum(row[0] == "eq14_extension_experiment" for row in table) == 240

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


class TestOnePointPerQuery:
    def test_point_queries_sum_each_series_once(self, capsys, monkeypatch, series_calls):
        # the registry hands its calls at one (nu, x[, y]) one Point, so a
        # point query sums each series it reads once: the first bracket,
        # cond and argratio commands of the benchmark's reference pool, and
        # the benchmark's query pattern at their points (the exact value,
        # then each valid bound), each from an empty registry point
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "reference.json").read_text())["cli_pool"]
        for kind, target in (("bracket", "succ_ratio_L"), ("cond", "cond_L"),
                             ("argratio", "arg_ratio_L")):
            argv = pool[kind][0][0]
            flags = dict(a[2:].split("=") for a in argv if "=" in a)
            nu, args = float(flags["nu"]), [float(flags[k]) for k in ("x", "y") if k in flags]
            for query in ("command", "pattern"):
                series_calls.clear()
                monkeypatch.setattr(registry, "_last", None)
                if query == "command":
                    assert main(argv) == 0
                else:
                    registry.exact_value(target, nu, *args)
                    for spec in registry.bounds_for_target(target):
                        if spec.valid_at(nu):
                            spec.evaluate(nu, *args)
                assert series_calls, (kind, query)
                assert len(set(series_calls)) == len(series_calls), (kind, query, series_calls)
        capsys.readouterr()


class TestEveryBound:
    @pytest.mark.parametrize("bound_id", sorted(REGISTRY))
    def test_exit_code_without_traceback(self, capsys, bound_id):
        # every registered bound, inside and outside its validity range, at
        # orders where Gamma(nu+3/2) leaves double range and every series
        # underflows, and past x_max: either a value (exit 0) or a typed
        # error (exit 1), never a raw exception out of main()
        spec = REGISTRY[bound_id]
        points = [(nu, x) for nu in ("-2", "-1.5", "-1", "-0.5", "0", "0.5")
                  for x in ("5e-324", "1e-3", "1", "30", "1000")]
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

    def test_eq13_upper_outside_its_range(self, capsys):
        # the bound fails on (-1, -1/2), so it is recorded from -1/2 up
        code, out, _ = run(capsys, "bracket", "--bound", "eq13_upper",
                           "--nu", "-0.75", "--x", "1")
        assert code == 0
        assert "outside validity range" in out

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


# modules the point path must not load: numpy, the record generator
# dataclasses with the inspect module it imports, and argparse with its
# gettext, which the command line's own parser does without
GUARD_SCRIPT = """
import contextlib, io, json, sys
import struvebounds
from struvebounds import cli
def loaded():
    return [name for name in ("argparse", "dataclasses", "gettext", "inspect", "numpy")
            if name in sys.modules]
report = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([" ".join(argv), code, loaded()])
print(json.dumps(report))
"""

POINT_COMMANDS = [
    ["eval", "--kind", "I", "--nu", "1", "--x", "2"],
    ["eval", "--kind", "L", "--nu", "1", "--x", "2"],
    ["eval", "--kind", "M", "--nu", "1", "--x", "2"],  # L - I does not cancel
    ["eval", "--kind", "M", "--nu", "1", "--x", "30"],  # it does: the stable route
    ["bracket", "--nu", "1", "--x", "2"],
    ["bracket", "--bound", "eq28_upper", "--nu", "1", "--x", "2"],
    ["cond", "--nu", "1", "--x", "5"],
    ["argratio", "--nu", "0.5", "--x", "1", "--y", "2"],
    ["table", "--id", "1"],  # every cell is a point query
    # one bound is certified on points
    ["verify", "--bound", "eq20_upper"],
    ["verify", "--bound", "eq38_lower"],  # the argument ratio, over (x, y) pairs
    ["verify", "--bound", "eq15_upper"],  # its exact value reads M's stable route
]

# the benchmark's twelve table commands: each table in both formats
TABLE_COMMANDS = [["table", "--id", str(i), "--format", fmt]
                  for i in range(1, 7) for fmt in ("text", "csv")]

# only the sweeps run over numpy lanes
ARRAY_COMMANDS = {
    "verify": ["verify", "--all"],
    "eq14-extension": ["verify", "--bound", "eq14_positivity", "--experimental-eq14-extension"],
}

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's cli-cold commands by kind, and its ten crossover commands
CLI_POOL = json.loads((BENCH / "reference.json").read_text())["cli_pool"]
CROSSOVER_COMMANDS = [argv for argv, _ in CLI_POOL["crossover"]]

VERIFY_NAMES = ("Grid", "GridReport", "TableSpec", "certify_all", "certify_eq14_extension",
                "default_grid", "monotonicity_suite", "relative_error_table", "table_by_id")


def run_fresh(script, *args):
    """The JSON that script prints from a fresh process that finds this
    package first."""
    src = os.path.dirname(os.path.dirname(struvebounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def guard_report(commands):
    """(command, exit code, which of dataclasses, inspect and numpy are
    loaded after it) from a fresh process that imports the package and runs
    commands through cli.main in turn."""
    return run_fresh(GUARD_SCRIPT, json.dumps(commands))


# crossover's outcome at each (a, b, nu, x_range) case: the root, or the
# error's type and message; fake bounds take part under the names below
SCAN_SCRIPT = """
import json, math, sys
from struvebounds import StruveBoundsError, registry
from struvebounds.registry import BoundSpec
FAKES = {
    "fake_osc": BoundSpec("fake_osc", "b_kernel", "upper", -1.5, True,
                          lambda n, x, P: P.map(math.sin, x)),
    "fake_zero": BoundSpec("fake_zero", "b_kernel", "upper", -1.5, True,
                           lambda n, x, P: 0.0 * x),
    # x - nu: its root is the order it is asked at
    "fake_line": BoundSpec("fake_line", "b_kernel", "upper", -1.5, True,
                           lambda n, x, P: x - n),
}
def outcomes(cases, crossover=registry.crossover):
    out = []
    for a, b, nu, x_range in cases:
        try:
            out.append(crossover(a, b, nu, tuple(x_range)))
        except StruveBoundsError as exc:
            out.append([type(exc).__name__, str(exc)])
    return out
"""

FRESH_SCAN = SCAN_SCRIPT + """
registry.REGISTRY.update(FAKES)
print(json.dumps([outcomes(json.loads(sys.argv[1])), "numpy" in sys.modules]))
"""


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCrossoverScanPaths:
    """registry.crossover runs its pre-scan point by point and loads no
    numpy (a fresh process); verify.crossover, the sweeps' engine, runs it
    over one rows.Row (this process).  A Row gives a point's bits, so both
    give the same answers."""

    def test_point_and_row_scans_agree(self, monkeypatch):
        on_sample = np.linspace(0.05, 20.0, 200)[100].item()
        cases = [[a, b, nu, list(xr)] for a, b, nu, xr in _load_workloads().CROSSOVERS] + [
            # TestCrossover's error cases
            ["eq20_upper", "eq18_upper", 0.75, [20.0, 0.05]],
            ["eq20_upper", "eq18_upper", 0.75, [0.0, 20.0]],
            ["eq20_upper", "eq18_upper", 0.75, [0.05, math.inf]],
            ["eq20_upper", "eq18_upper", 0.75, [math.nan, 20.0]],
            ["eq38_lower", "eq38_upper", 0.75, [0.05, 20.0]],
            ["eq24_upper", "eq18_upper", 0.25, [0.05, 30.0]],
            ["eq20_upper", "eq18_upper", 3.0, [0.01, 50.0]],
            ["fake_osc", "fake_zero", 0.0, [0.1, 20.0]],
            # --xmin 1e-300: a root, and a series whose leading term underflows
            ["eq20_upper", "eq18_upper", 0.75, [1e-300, 50.0]],
            ["eq24_upper", "eq18_upper", 2.5, [1e-300, 50.0]],
            # a root on a pre-scan sample, and just off it
            ["fake_line", "fake_zero", on_sample, [0.05, 20.0]],
            ["fake_line", "fake_zero", on_sample + 1e-9, [0.05, 20.0]],
        ]
        point, numpy_loaded = run_fresh(FRESH_SCAN, json.dumps(cases))
        assert not numpy_loaded
        scope = {}
        exec(SCAN_SCRIPT, scope)
        for name, spec in scope["FAKES"].items():
            monkeypatch.setitem(REGISTRY, name, spec)
        scans = []
        row_difference = verify._row_difference
        monkeypatch.setattr(verify, "_row_difference",
                            lambda *args: scans.append(args[2]) or row_difference(*args))
        row = scope["outcomes"](cases, verify.crossover)
        assert point == row
        # every case that reached the pre-scan scanned over a Row: all but the
        # six refused before it
        assert len(scans) == len(cases) - 6
        # every pool root, and both roots near the sample, were found
        assert all(isinstance(r, float) for r in row[:10] + row[-4:-3] + row[-2:])
        assert [r[0] for r in row[10:-4]] == ["DomainError"] * 6 + [
            "NoSignChange", "MultipleSignChanges"]
        assert row[-3][0] == "DomainError" and "underflows" in row[-3][1]


# certify's report for each ["certify", bound id, grid name] job, and verify
# --bound's exit code and output for each ["verify", bound id, format] job,
# with two fake bounds registered: one whose slack is NaN, +inf or -inf at
# some lanes, and one that divides by zero, which raises at a point and
# gives inf over numpy lanes.  Floats are compared by their repr, so NaN
# equals NaN and every bit counts.  GRIDS maps each grid name to its Grid;
# outcome's certify is the engine that checks the "certify" jobs.
CERTIFY_SCRIPT = """
import contextlib, io, json, math, sys
from struvebounds import StruveBoundsError, certify, cli
from struvebounds.registry import BoundSpec
def _nonfinite(x):
    return math.nan if x < 0.01 else math.inf if x > 30.0 else -math.inf if 1.0 < x < 1.3 else 0.25
FAKES = {
    "fake_nonfinite": BoundSpec("fake_nonfinite", "b_kernel", "upper", -1.5, True,
                                lambda n, x, P: P.map(_nonfinite, x)),
    "fake_zero_division": BoundSpec("fake_zero_division", "b_kernel", "upper", -1.5, True,
                                    lambda n, x, P: 1.0 / (x - x)),
}
def outcome(job, certify=certify):
    kind, bound_id, how = job
    if kind == "certify":
        try:
            rep = certify(bound_id, GRIDS[how])
        except StruveBoundsError as exc:
            return [type(exc).__name__, str(exc)]
        return [rep.bound_id, rep.points_checked, *map(repr, (
            rep.violations, rep.worst_slack, rep.max_rel_gap, rep.rows))]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["verify", "--bound", bound_id, "--format", how])
    return [code, out.getvalue()]
"""

# the names of the functions on the stack where numpy was first imported
FRESH_CERTIFY = """
import sys, traceback
class NumpyWatch:
    stack = None
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpyWatch.stack is None:
            NumpyWatch.stack = [frame.name for frame in traceback.extract_stack()]
sys.meta_path.insert(0, NumpyWatch())
""" + CERTIFY_SCRIPT + """
from struvebounds import registry
from struvebounds.certification import Grid
# the grids' lanes come from the command line: this process loads no numpy
GRIDS = {name: Grid(*lanes) for name, lanes in json.loads(sys.argv[1]).items()}
registry.REGISTRY.update(FAKES)
print(json.dumps([[outcome(job) for job in json.loads(sys.argv[2])], NumpyWatch.stack]))
"""


class TestCertifyPaths:
    """certification.certify (the package's certify, and verify --bound)
    runs one bound on special_core.Points and loads no numpy (a fresh
    process); verify.certify, the sweeps' engine, runs it over one rows.Row
    per lane set (this process).  A Row gives a point's bits, so both give
    the same reports.  A bound whose Python arithmetic raises at a point
    goes to verify.certify, and so loads numpy."""

    def test_point_and_row_reports_agree(self, monkeypatch):
        grids = {
            "default": default_grid(),
            "small": Grid((-0.5, 0.0, 0.5, 1.0, 2.5, 10.0),
                          np.logspace(-2, math.log10(30.0), 10).tolist()),
            # test_rows_without_lanes_are_skipped's grids: no (x, y) pair, no x at all
            "no_pairs": Grid((1.0,), (100.0,)),
            "no_args": Grid((0.0, 1.0), ()),
            # an x past X_MAX: an error where the bound is valid at -1.4, and
            # an empty report where it reads no lane
            "past_x_max": Grid((-1.4,), (1000.0,)),
        }
        grid_arg = json.dumps({name: [g.nu_values, g.x_values] for name, g in grids.items()})
        # every bound, eq14-eq16 (whose exact value reads M) among them
        points = [job for bid in registry.bound_ids() + ["fake_nonfinite"]
                  for job in [["certify", bid, name] for name in grids]
                  + [["verify", bid, fmt] for fmt in ("text", "csv")]]
        fallback = ["certify", "fake_zero_division", "small"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            fresh = list(pool.map(lambda some: run_fresh(FRESH_CERTIFY, grid_arg, json.dumps(some)),
                                  [points, [fallback]]))
        point, numpy_stack = fresh[0]
        assert numpy_stack is None
        (got,), numpy_stack = fresh[1]
        point.append(got)
        assert "certify" in numpy_stack  # the Row engine's

        scope = {"GRIDS": grids}
        exec(CERTIFY_SCRIPT, scope)
        for name, spec in scope["FAKES"].items():
            monkeypatch.setitem(REGISTRY, name, spec)
        with np.errstate(divide="ignore"):
            row = [scope["outcome"](job, verify.certify) for job in points + [fallback]]
        assert point == row
        # the fake bounds' NaN, +inf and -inf lanes were recorded and reported
        fake = dict(zip(map(tuple, points + [fallback]), row))
        _, n, violations, worst, gap, _ = fake["certify", "fake_nonfinite", "default"]
        assert worst == "nan" and gap == "inf" and n == 14 * 60
        assert all(s in violations for s in ("nan", "inf", "-inf"))
        assert fake["verify", "fake_nonfinite", "text"][0] == 2
        assert fake["certify", "eq12_upper", "past_x_max"] == [
            "OverflowRisk", "argument 1000.0 exceeds x_max=600.0"]
        assert fake["certify", "eq17_upper", "past_x_max"][:2] == ["eq17_upper", 0]
        _, n, _, worst, gap, _ = fake[tuple(fallback)]
        assert worst == "nan" and gap == "inf" and n == 6 * 10


class TestNumpyOffThePointPath:
    """Only the sweeps use arrays, so numpy loads only for them (verify
    --all and the eq14 experiment): not at import, not for a point command,
    M's stable route included, not for table, whose cells are point
    queries, and not for crossover or verify --bound, whose pre-scan and
    certification run point by point.  The point path's records, TableSpec,
    Grid and GridReport among them, are plain classes, so dataclasses and
    inspect stay unloaded there too."""

    def test_import_and_point_commands_leave_numpy_unloaded(self):
        assert guard_report(POINT_COMMANDS) == (
            [["import", 0, []]] + [[" ".join(argv), 0, []] for argv in POINT_COMMANDS])

    def test_every_table_command_leaves_numpy_unloaded(self):
        assert guard_report(TABLE_COMMANDS) == (
            [["import", 0, []]] + [[" ".join(argv), 0, []] for argv in TABLE_COMMANDS])

    def test_every_pool_crossover_leaves_numpy_unloaded(self):
        assert len(CROSSOVER_COMMANDS) == 10
        assert guard_report(CROSSOVER_COMMANDS) == (
            [["import", 0, []]] + [[" ".join(argv), 0, []] for argv in CROSSOVER_COMMANDS])

    def test_package_table_names_leave_numpy_unloaded(self):
        # they come from tables, which loads no numpy, not from verify
        assert run_fresh("import json, sys, struvebounds\n"
                         "struvebounds.TableSpec\n"
                         "spec = struvebounds.table_by_id(1)\n"
                         "print(json.dumps([type(spec).__name__, 'numpy' in sys.modules]))"
                         ) == ["TableSpec", False]

    @pytest.mark.parametrize("name", sorted(ARRAY_COMMANDS))
    def test_array_commands_load_numpy(self, name):
        argv = ARRAY_COMMANDS[name]
        (imported, ran) = guard_report([argv])
        assert imported == ["import", 0, []]
        assert ran[:2] == [" ".join(argv), 0] and "numpy" in ran[2]

    @pytest.mark.parametrize("name", VERIFY_NAMES + ("certify", "crossover"))
    def test_verify_names_import_from_the_package(self, name):
        # certify and crossover bind the point engines, not verify's array ones
        home = {"certify": certification, "crossover": registry}.get(name, verify)
        scope = {}
        exec(f"from struvebounds import {name}", scope)
        assert scope[name] is getattr(home, name)

    def test_package_engines_run_point_by_point(self):
        # verify's certify and crossover are the sweeps' array engines
        assert struvebounds.certify is certification.certify is not verify.certify
        assert struvebounds.crossover is registry.crossover is not verify.crossover

    def test_star_import_binds_every_export(self):
        scope = {}
        exec("from struvebounds import *", scope)
        assert scope["certify_all"] is verify.certify_all
        assert set(struvebounds.__all__) <= set(scope)

    def test_all_lists_every_public_name(self):
        public = {name for name, value in vars(struvebounds).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert sorted(struvebounds.__all__) == sorted(public | set(VERIFY_NAMES) | {"certify"})

    def test_unknown_names_are_attribute_errors(self):
        assert not hasattr(struvebounds, "no_such_name")
        assert not hasattr(struvebounds, "render_table_text")  # verify's, not exported


# a process without numpy, as without the sweeps extra: importing it raises
# ImportError.  Runs each command of argv[1] through cli.main, and then
# certification.certify on a bound whose Python arithmetic raises at a point.
BLOCKED_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from struvebounds import StruveBoundsError, certification, cli, registry
from struvebounds.registry import BoundSpec
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as text, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    out.append([code, text.getvalue(), err.getvalue()])
registry.REGISTRY["fake_zero_division"] = BoundSpec(
    "fake_zero_division", "b_kernel", "upper", -1.5, True, lambda n, x, P: 1.0 / (x - x))
try:
    certification.certify("fake_zero_division")
except StruveBoundsError as exc:
    out.append([type(exc).__name__, str(exc), isinstance(exc, ImportError)])
print(json.dumps(out))
"""


def _unique(commands):
    return list(map(list, dict.fromkeys(map(tuple, commands))))


# every point command, every command of the benchmark's cli-cold pool, verify
# --bound for every id, and a cancelling M
NUMPY_FREE_COMMANDS = _unique(
    POINT_COMMANDS + [argv for pool in CLI_POOL.values() for argv, _ in pool]
    + [["verify", "--bound", bid] for bid in registry.bound_ids()]
    + [["eval", "--kind", "M", "--nu", "0", "--x", "20"]])


class TestWithoutNumpy:
    """numpy is the sweeps extra: every point command runs without it and
    prints what it prints with it, and the sweeps, and certify's Row
    engine, raise ExtraMissing, a StruveBoundsError that names the extra."""

    def test_point_commands_print_the_same_without_numpy(self, capsys):
        assert len(NUMPY_FREE_COMMANDS) >= 254
        commands = NUMPY_FREE_COMMANDS + list(ARRAY_COMMANDS.values())
        blocked = run_fresh(BLOCKED_SCRIPT, json.dumps(commands))
        point, sweeps = blocked[:len(NUMPY_FREE_COMMANDS)], blocked[len(NUMPY_FREE_COMMANDS):-1]
        for argv, (code, out, _) in zip(NUMPY_FREE_COMMANDS, point):
            assert [code, out] == list(run(capsys, *argv)[:2]), argv
        for argv, (code, _, err) in zip(ARRAY_COMMANDS.values(), sweeps):
            assert code == 1 and err.startswith("error:") and "struvebounds[sweeps]" in err, argv
        name, message, is_import_error = blocked[-1]
        assert name == "ExtraMissing" and "struvebounds[sweeps]" in message and is_import_error

    def test_numpy_is_the_sweeps_extra(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((BENCH.parent / "pyproject.toml").read_text())["project"]
        assert not any(d.startswith("numpy") for d in project["dependencies"])
        for extra in ("sweeps", "test"):
            assert any(d.startswith("numpy") for d in project["optional-dependencies"][extra])


def respelled(argv):
    """argv with each --name=value as --name value and each --name value as
    --name=value; every option in it takes a value."""
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        out += token.split("=", 1) if "=" in token else [f"{token}={next(tokens)}"]
    return out


# each command's options, written out here so that the help is checked
# against a list the parser does not read
OPTIONS = {
    "eval": ("--kind", "--nu", "--x"),
    "bracket": ("--nu", "--x", "--bound"),
    "cond": ("--nu", "--x"),
    "argratio": ("--nu", "--x", "--y"),
    "table": ("--id", "--format"),
    "verify": ("--all", "--bound", "--experimental-eq14-extension", "--format"),
    "crossover": ("--a", "--b", "--nu", "--xmin", "--xmax"),
}

# command lines the grammar rejects, and what the error names
REJECTED = {
    "no command": ([], "no command given"),
    "unknown command": (["evaluate", "--nu", "1", "--x", "2"], "'evaluate'"),
    "unknown flag": (["eval", "--kind", "L", "--nu", "1", "--x", "2", "--verbose"], "'--verbose'"),
    "option of another command": (["cond", "--nu", "1", "--x", "5", "--y", "6"], "'--y'"),
    "abbreviation": (["table", "--id", "1", "--form", "csv"], "'--form'"),
    "stray argument": (["cond", "--nu", "1", "--x", "5", "6"], "'6'"),
    "missing option": (["argratio", "--nu", "1", "--x", "1"], "argratio needs --y"),
    "missing value": (["eval", "--kind", "L", "--nu", "1", "--x"], "--x needs a value"),
    "malformed float": (["eval", "--kind", "L", "--nu", "one", "--x", "2"], "'one'"),
    "empty value": (["cond", "--nu=", "--x", "5"], "--nu"),
    "malformed int": (["table", "--id", "1.5"], "'1.5'"),
    "outside the choices": (["eval", "--kind", "Q", "--nu", "1", "--x", "1"], "'Q'"),
    "format outside the choices": (["table", "--id", "1", "--format=json"], "'json'"),
    "flag with a value": (["verify", "--all=yes"], "--all takes no value"),
    "verify without --all or --bound": (["verify", "--format", "csv"], "exactly one"),
    "verify with --all and --bound": (["verify", "--all", "--bound", "eq20_upper"],
                                      "exactly one"),
}


class TestParser:
    """The command line's grammar: --name value or --name=value, the token
    after --name always its value, the last of a repeated option winning,
    -h or --help for usage, and every other command line an error naming its
    cause above the usage line."""

    @pytest.mark.parametrize("kind", sorted(CLI_POOL))
    def test_both_spellings_agree_on_the_pool(self, capsys, kind):
        for argv, _ in CLI_POOL[kind]:
            other = respelled(argv)
            assert other != argv and respelled(other) == argv
            got = run(capsys, *argv)
            assert got[0] == 0 and got == run(capsys, *other), argv

    @pytest.mark.parametrize("argv,kind,nu,x", [
        (["eval", "--kind", "L", "--nu", "-1.2", "--x", "2"], "L", -1.2, 2.0),
        (["eval", "--kind=I", "--nu=-1.2", "--x=0.5"], "I", -1.2, 0.5),
        # the last of a repeated option wins
        (["eval", "--kind", "I", "--nu", "3", "--kind", "L", "--nu", "1", "--x", "2"],
         "L", 1.0, 2.0),
    ], ids=["spaced", "joined", "repeated"])
    def test_negative_and_repeated_values(self, capsys, argv, kind, nu, x):
        code, out, err = run(capsys, *argv)
        want = {"I": struvebounds.bessel_i, "L": struvebounds.struve_l}[kind](nu, x).value
        assert code == 0 and err == "" and float(out.splitlines()[0]) == want

    @pytest.mark.parametrize("argv,cause", [
        (["eval", "--kind", "L", "--nu", "1", "--x=-3"], "got -3.0"),
        (["eval", "--kind", "L", "--nu", "-inf", "--x", "1"], "must be finite, got -inf"),
        # the token after --bound is its value, even one that reads as a flag
        (["bracket", "--nu", "1", "--x", "2", "--bound", "-h"], "'-h'"),
    ], ids=["x=-3", "nu -inf", "bound -h"])
    def test_values_that_look_like_flags_reach_the_command(self, capsys, argv, cause):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and cause in err and "usage:" not in err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert code == 0 and err == ""
        assert out.startswith("usage: struvebounds") and all(c in out for c in OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_help(self, capsys, command):
        # help is printed as soon as it is read, whatever follows it
        for argv in ([command, "--help"], [command, "-h"], [command, "-h", "--no-such-option"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            assert out.startswith(f"usage: struvebounds {command} "), argv
            named = {word.strip("[]") for word in out.split() if word.startswith(("--", "[--"))}
            assert named == set(OPTIONS[command]), argv

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejections(self, capsys, case):
        argv, cause = REJECTED[case]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        first, usage = err.splitlines()
        assert first.startswith("error:") and cause in first
        assert usage.startswith("usage: struvebounds ")

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["struvebounds", "cond", "--nu", "1", "--x", "5"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("exact =")
