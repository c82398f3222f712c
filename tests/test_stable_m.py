"""The cancellation-free M route: accuracy against mpmath, honesty of its
error estimate, and a package whose import, CLI and quadrature oracle leave
scipy unloaded."""

import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

import struvebounds
from struvebounds import iv_value, lv_value, struve_m


def mpmath_m(nu, x):
    """L_nu(x) - I_nu(x) in mpmath; the difference cancels about 0.43 x digits."""
    with mpmath.workdps(int(0.45 * x) + 40):
        return float(mpmath.struvel(nu, x) - mpmath.besseli(nu, x))


def rel(a, b):
    return abs(a / b - 1.0)


@pytest.mark.parametrize("x", [7.0, 14.0, 50.0, 200.0])
@pytest.mark.parametrize("nu", [-0.4999, -0.499, -0.49, -0.485])
def test_orders_just_above_minus_half(nu, x):
    # the route used to fail here: the weight (1-t^2)^(nu-1/2) is close to
    # non-integrable at t = 1
    out = struve_m(nu, x)
    assert out.value < 0.0
    err = rel(out.value, mpmath_m(nu, x))
    assert err <= 1e-9
    assert err <= out.est_rel_error


X_GRID = [2.0 * 1.3**k for k in range(22)] + [600.0]


@pytest.mark.parametrize("nu", [-1.4, -0.75, -0.25, 0.0, 0.3, 1.0, 2.5, 5.0, 10.0])
def test_stable_route_accuracy_and_estimate(nu):
    points = 0
    for x in X_GRID:
        out = struve_m(nu, x)
        if not out.cancellation:
            continue
        points += 1
        err = rel(out.value, mpmath_m(nu, x))
        assert err <= 1e-13, (nu, x, err)
        assert out.est_rel_error >= err, (nu, x, err, out.est_rel_error)
    # the route takes over somewhere between x = 9 and x = 30 for these orders
    assert points >= 10


GUARD_SCRIPT = """
import contextlib, io, json, sys
import struvebounds
from struvebounds import cli
report = {"import": "scipy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[argv[0]] = [code, "scipy" in sys.modules]
report["oracle"] = [struvebounds.quad_oracle_l(1.0, 2.0).value,
                    struvebounds.quad_oracle_i(1.0, 2.0).value, "scipy" in sys.modules]
print(json.dumps(report))
"""

GUARD_COMMANDS = [
    ["eval", "--kind", "M", "--nu", "1", "--x", "30"],
    ["bracket", "--nu", "1", "--x", "2"],
    ["cond", "--nu", "1", "--x", "5"],
    ["argratio", "--nu", "0.5", "--x", "1", "--y", "2"],
    ["table", "--id", "1"],
    ["verify", "--bound", "eq20_upper"],
    ["crossover", "--a", "eq24_upper", "--b", "eq18_upper", "--nu", "2.5"],
]


def test_import_and_cli_leave_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(struvebounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, json.dumps(GUARD_COMMANDS)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["import"] is False
    for argv in GUARD_COMMANDS:
        assert report[argv[0]] == [0, False], argv
    oracle_l, oracle_i, loaded = report["oracle"]
    assert rel(oracle_l, lv_value(1.0, 2.0)) < 1e-10
    assert rel(oracle_i, iv_value(1.0, 2.0)) < 1e-10
    assert loaded is False  # nor do the quadrature oracles load it


def test_runtime_dependencies_name_no_scipy():
    # scipy is a test-only reference (test_special_core.py::test_against_scipy)
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert not [d for d in project["dependencies"] if d.lower().startswith("scipy")]
