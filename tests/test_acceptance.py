"""Acceptance suite: one test per criterion (large criteria split per part),
each printing a PASS/FAIL line.

Five sub-checks are implemented exactly as specified and are expected to
fail; the stated reference values/regions are disproved by independent
high-precision computation (see the repository notes outside the package):

- criterion 3, table 3 cell (order 0, x=2.5): printed 0.1545, true 0.154763
- criterion 3, table 5 cell (order 0, x=200): printed 1.9000, true 1.899691
- criterion 4, refined-vs-algebraic upper crossover at order 1: quoted 5.34,
  true 4.9069 (the quoted value corresponds to order ~1.19)
- criterion 6, kernel lower-bound reversal stated on (-1.4, 0.49): reversal
  provably holds only below -1/2
- criterion 7, 2% coefficient match at x=400 for orders 5 and 10: true
  deviation is e^(-(nu+1/2)^2/800), i.e. -3.7% and -12.9%

Everything else must pass at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from struvebounds import (
    a_nu_constant,
    a_nu_stirling_bracket,
    b_value,
    certify_all,
    coefficient_crossover_nu,
    crossover,
    half_integer_closed,
    iv_value,
    lv_value,
    pointwise_bracket,
    quad_oracle_i,
    quad_oracle_l,
    recurrence_check,
    relative_error_table,
)
from struvebounds.verify import TABLES, monotonicity_suite

INF = math.inf


def report(line_ok, name, detail=""):
    status = "PASS" if line_ok else "FAIL"
    print(f"criterion {name}: {status}{'  ' + detail if detail else ''}")
    return line_ok


# --------------------------------------------------------------------------
# criterion 1: series vs elementary closed forms
# --------------------------------------------------------------------------

def test_criterion1_closed_form_equivalence():
    start = time.perf_counter()
    xs = np.logspace(math.log10(0.01), math.log10(30.0), 200)
    worst = 0.0
    for kind, fn in (("I", iv_value), ("L", lv_value)):
        for nu in (-1.5, -0.5, 0.5):
            for x in xs:
                x = float(x)
                closed = half_integer_closed(kind, nu, x)
                worst = max(worst, abs(fn(nu, x) - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(ok, "1 (closed-form equivalence)",
                  f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: series vs quadrature oracle
# --------------------------------------------------------------------------

def test_criterion2_oracle_independence():
    start = time.perf_counter()
    worst = 0.0
    for nu in (0.3, 1.0, 2.5, 5.0):
        for x in (0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
            worst = max(worst, abs(quad_oracle_l(nu, x).value / lv_value(nu, x) - 1.0))
            worst = max(worst, abs(quad_oracle_i(nu, x).value / iv_value(nu, x) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(ok, "2 (oracle independence)",
                  f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 3: reference-table reproduction (printed values, 4 decimals)
# --------------------------------------------------------------------------

PRINTED = {
    # x > 0 columns only; the x = 0 column of tables 1-4 is checked against
    # the exact limit rules below
    1: [[0.0355, 0.0947, 0.1073, 0.0196, 0.0022, 0.0002, 0.0000, 0.0000],
        [0.0097, 0.0312, 0.0623, 0.0200, 0.0030, 0.0003, 0.0000, 0.0000],
        [0.0040, 0.0138, 0.0377, 0.0186, 0.0037, 0.0005, 0.0000, 0.0000],
        [0.0007, 0.0027, 0.0112, 0.0122, 0.0047, 0.0011, 0.0000, 0.0000],
        [0.0001, 0.0006, 0.0028, 0.0054, 0.0039, 0.0016, 0.0001, 0.0000],
        [0.0000, 0.0002, 0.0011, 0.0026, 0.0026, 0.0016, 0.0002, 0.0000],
        [0.0000, 0.0001, 0.0005, 0.0014, 0.0018, 0.0013, 0.0003, 0.0000]],
    2: [[7.7021, 1.7232, 0.1394, 0.0061, 0.0004, 0.0000, 0.0000, 0.0000],
        [0.8868, 0.6481, 0.1631, 0.0135, 0.0011, 0.0001, 0.0000, 0.0000],
        [0.4711, 0.3981, 0.1587, 0.0206, 0.0022, 0.0002, 0.0000, 0.0000],
        [0.1957, 0.1833, 0.1200, 0.0344, 0.0066, 0.0010, 0.0000, 0.0000],
        [0.0990, 0.0961, 0.0780, 0.0387, 0.0132, 0.0034, 0.0001, 0.0000],
        [0.0662, 0.0650, 0.0568, 0.0354, 0.0165, 0.0059, 0.0004, 0.0000],
        [0.0498, 0.0491, 0.0445, 0.0313, 0.0175, 0.0078, 0.0009, 0.0000]],
    3: [[0.1057, 0.1973, 0.1545, 0.0319, 0.0073, 0.0030, 0.0012, 0.0004, 0.0001],
        [0.0267, 0.0732, 0.1073, 0.0383, 0.0117, 0.0053, 0.0022, 0.0008, 0.0002],
        [0.0102, 0.0329, 0.0725, 0.0390, 0.0147, 0.0071, 0.0031, 0.0011, 0.0003],
        [0.0017, 0.0063, 0.0243, 0.0287, 0.0173, 0.0100, 0.0049, 0.0020, 0.0006],
        [0.0003, 0.0012, 0.0062, 0.0132, 0.0128, 0.0098, 0.0059, 0.0029, 0.0009],
        [0.0001, 0.0004, 0.0024, 0.0063, 0.0081, 0.0076, 0.0056, 0.0033, 0.0012],
        [0.0000, 0.0002, 0.0011, 0.0034, 0.0051, 0.0055, 0.0048, 0.0033, 0.0014]],
    4: [[3.0830, 1.1640, 0.1789, 0.0136, 0.0011, 0.0001, 0.0000, 0.0000, 0.0000],
        [1.5128, 0.9357, 0.2417, 0.0338, 0.0074, 0.0030, 0.0012, 0.0004, 0.0001],
        [0.4824, 0.4360, 0.2524, 0.0777, 0.0259, 0.0117, 0.0047, 0.0017, 0.0004],
        [0.2199, 0.2131, 0.1736, 0.0950, 0.0460, 0.0239, 0.0099, 0.0036, 0.0009],
        [0.1421, 0.1397, 0.1247, 0.0864, 0.0523, 0.0310, 0.0139, 0.0054, 0.0014],
        [0.1049, 0.1037, 0.0962, 0.0747, 0.0516, 0.0341, 0.0166, 0.0069, 0.0019]],
    5: [[0.0743, 0.2403, 0.8053, 1.3722, 1.7107, 1.7994, 1.8540, 1.8839, 1.8951, 1.9000],
        [0.0163, 0.0618, 0.2928, 0.6854, 1.0716, 1.2020, 1.2914, 1.3462, 1.3690, 1.3792],
        [0.0052, 0.0204, 0.1151, 0.3523, 0.7301, 0.9026, 1.0340, 1.1214, 1.1602, 1.1782],
        [0.0017, 0.0070, 0.0431, 0.1612, 0.4601, 0.6600, 0.8388, 0.9706, 1.0333, 1.0635],
        [0.0005, 0.0021, 0.0135, 0.0582, 0.2302, 0.4133, 0.6309, 0.8216, 0.9238, 0.9762]],
    6: [[5.3417, 3.2145, 1.1605, 0.6502, 0.4549, 0.3931, 0.3445, 0.3086, 0.2908, 0.2820],
        [1.7475, 1.5473, 1.0183, 0.7830, 0.7437, 0.7328, 0.7207, 0.7098, 0.7039, 0.7008],
        [0.8072, 0.7908, 0.7309, 0.7459, 0.9201, 1.0127, 1.0853, 1.1374, 1.1627, 1.1751],
        [0.4167, 0.4215, 0.4563, 0.5838, 0.9410, 1.1928, 1.4306, 1.6218, 1.7208, 1.7712],
        [0.2102, 0.2151, 0.2491, 0.3664, 0.7552, 1.1596, 1.6780, 2.1815, 2.4709, 2.6250]],
}

ZERO_COLUMN = {
    1: [0.0] * 7,
    2: [INF, 1.0, 0.5, 0.2, 0.1, 1.0 / 15.0, 0.05],
    3: [0.0] * 7,
    4: [INF, 2.0, 0.5, 2.0 / 9.0, 1.0 / 7.0, 2.0 / 19.0],
}

_START = {}


@pytest.mark.parametrize("table_id", [1, 2, 3, 4, 5, 6])
def test_criterion3_table_reproduction(table_id):
    _START.setdefault("c3", time.perf_counter())
    spec = TABLES[table_id]
    matrix = relative_error_table(spec)
    has_zero_col = spec.x_cols[0] == 0.0
    offset = 1 if has_zero_col else 0
    mismatches = []
    for i in range(len(spec.nu_rows)):
        for j, printed in enumerate(PRINTED[table_id][i]):
            got = matrix[i][j + offset]
            if abs(got - printed) > 2e-4:
                mismatches.append((spec.nu_rows[i], spec.x_cols[j + offset],
                                   float(got), printed))
    if has_zero_col:
        for i, want in enumerate(ZERO_COLUMN[table_id]):
            got = matrix[i][0]
            exact_match = (math.isinf(got) and math.isinf(want)) or got == want
            if not exact_match:
                mismatches.append((spec.nu_rows[i], 0.0, float(got), want))
    elapsed = time.perf_counter() - _START["c3"]
    ok = not mismatches and elapsed < 10.0
    assert report(ok, f"3 (table {table_id} reproduction)",
                  f"{elapsed:.2f}s cumulative" if ok else
                  f"mismatched cells (nu, x, computed, printed): {mismatches}")


# --------------------------------------------------------------------------
# criterion 4: crossover reproduction
# --------------------------------------------------------------------------

def test_criterion4_tanh_vs_algebraic_crossovers():
    start = time.perf_counter()
    quoted = {5 / 8: 4.21, 3 / 4: 3.26, 7 / 8: 2.66, 1.0: 2.18,
              9 / 8: 1.76, 5 / 4: 1.35, 11 / 8: 0.91}
    bad = {}
    for nu, want in quoted.items():
        got = crossover("eq20_upper", "eq18_upper", nu, (0.05, 20.0))
        if abs(got - want) > 0.02:
            bad[nu] = (got, want)
    elapsed = time.perf_counter() - start
    assert report(not bad and elapsed < 5.0, "4a (hyperbolic/algebraic crossovers)",
                  f"{elapsed:.2f}s" if not bad else f"off: {bad}")


def test_criterion4_refined_vs_algebraic_crossovers():
    quoted = [(1.0, 5.34, 0.02), (2.5, 8.42, 0.02), (5.0, 14.9, 0.1)]
    bad = {}
    for nu, want, tol in quoted:
        got = crossover("eq24_upper", "eq18_upper", nu, (0.05, 30.0))
        if abs(got - want) > tol:
            bad[nu] = (round(got, 4), want)
    assert report(not bad, "4b (refined/algebraic crossovers)",
                  "" if not bad else f"off (computed vs quoted): {bad}")


def test_criterion4_coefficient_crossover():
    got = coefficient_crossover_nu()
    ok = abs(got - 2.521) <= 5e-3
    assert report(ok, "4c (large-x coefficient crossover)", f"nu* = {got:.4f}")


# --------------------------------------------------------------------------
# criterion 5: full registry certification
# --------------------------------------------------------------------------

def test_criterion5_zero_violations():
    start = time.perf_counter()
    reports = certify_all(tolerance=1e-12)
    elapsed = time.perf_counter() - start
    dirty = {r.bound_id: len(r.violations) for r in reports if not r.clean}
    ok = not dirty and elapsed < 60.0
    assert report(ok, "5 (certification, all bounds)",
                  f"{len(reports)} bounds, {elapsed:.1f}s" if ok else f"violations: {dirty}")


# --------------------------------------------------------------------------
# criterion 6: property suites
# --------------------------------------------------------------------------

def test_criterion6_monotonicity_turan_domination_recurrence():
    suite = {r.bound_id: r for r in monotonicity_suite()}
    dirty = {k: len(r.violations) for k, r in suite.items() if not r.clean}
    assert report(not dirty, "6 (monotonicity/Turan/M-domination/recurrence)",
                  f"{sum(r.points_checked for r in suite.values())} checks"
                  if not dirty else f"violations: {dirty}")


def test_criterion6_recurrence_residual_scale():
    worst = 0.0
    for nu in (-0.4, 0.0, 0.5, 1.0, 2.5, 5.0, 10.0):
        for x in np.logspace(-3, math.log10(50.0), 20):
            worst = max(worst, max(recurrence_check(nu, float(x))))
    assert report(worst <= 1e-12, "6 (recurrence residuals)", f"worst {worst:.2e}")


def test_criterion6_csch_reversal_as_stated():
    # stated region (-1.4, 0.49); the reversal provably stops at -1/2
    bad = []
    for nu in (-1.0, -0.75, -0.55, -0.25, 0.0, 0.25, 0.45):
        for x in (0.1, 1.0, 10.0):
            if not b_value(nu, x) <= 0.5 * x / math.sinh(x):
                bad.append((nu, x))
    assert report(not bad, "6 (kernel lower-bound reversal on (-1.4, 0.49))",
                  "" if not bad else
                  f"reversal fails for orders above -1/2, e.g. {bad[:4]} "
                  "(observed boundary: -1/2)")


# --------------------------------------------------------------------------
# criterion 7: asymptotic consistency
# --------------------------------------------------------------------------

def test_criterion7_pointwise_coefficient_within_two_percent():
    x = 400.0
    devs = {}
    for nu in (0.0, 1.0, 2.5, 5.0, 10.0):
        scaled = pointwise_bracket(nu, x).upper * math.sqrt(x) * math.exp(-x)
        dev = scaled / a_nu_constant(nu).value - 1.0
        if abs(dev) > 0.02:
            devs[nu] = round(dev, 4)
    assert report(not devs, "7 (coefficient match at x=400)",
                  "" if not devs else
                  f"deviation exceeds 2% at orders {devs} "
                  "(true rate is exp(-(nu+1/2)^2/800))")


def test_criterion7_stirling_sandwich():
    bad = 0
    for nu in np.linspace(-0.49, 100.0, 500):
        nu = float(nu)
        lo, hi = a_nu_stirling_bracket(nu)
        if not (lo < a_nu_constant(nu).value < hi):
            bad += 1
    assert report(bad == 0, "7 (Stirling sandwich, 500 orders)",
                  f"{bad} escapes")
