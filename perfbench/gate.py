"""Correctness gate: what counts as a right answer on each workload.

certify-grid and cli-cold are compared with ``reference.json``, the output
the program computed when the benchmark was defined (not the published
values, so the five intentional acceptance failures keep their computed
values).  point-queries checks properties every right answer has, because
its inputs change with the seed.
"""

from __future__ import annotations

import math
import re

# certification slacks and table entries: agree to a few ulps of a value
# that is itself accurate far below the 1e-12 certification tolerance
SLACK_ABS, SLACK_REL = 1e-13, 1e-9
# crossover roots are bisected to 1e-4, so two right answers differ by less
ROOT_ABS = 1e-4
# bracket containment and CLI numbers
BRACKET_REL = 1e-12
CLI_REL = 1e-12
# quadrature oracle agreement (acceptance criterion 2)
ORACLE_REL = 1e-10
ORACLE_X_MAX = 20.0


def _close(a: float, b: float, abs_tol: float, rel_tol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# certify-grid
# ---------------------------------------------------------------------------

def _where(row) -> list:
    nu, x, y = row[0], row[1], row[2]
    return [nu, x, y]


def report_fingerprint(report) -> dict:
    """Point count, violation set and worst slack with where it occurs.

    ``near_worst`` lists the points whose slack ties the worst one within the
    comparison tolerance, so a change that only reorders ties still matches.
    """
    worst = report.worst_slack
    rows = report.rows
    near = []
    if math.isfinite(worst):
        cut = worst + SLACK_ABS + SLACK_REL * abs(worst)
        near = [_where(r) for r in rows if r[3] <= cut][:64]
    violations = sorted(
        [v[0], v[1], v[2] if len(v) == 4 else None] for v in report.violations
    )
    return {
        "points": report.points_checked,
        "violations": violations,
        "worst_slack": worst,
        "worst_at": near[0] if near else None,
        "near_worst": near,
    }


def certify_fingerprint(reports, tables, roots) -> dict:
    return {
        "reports": {r.bound_id: report_fingerprint(r) for r in reports},
        "tables": [[list(map(float, row)) for row in m] for m in tables],
        "crossovers": list(roots),
    }


def compare_certify(ref: dict, got: dict) -> list[str]:
    """Every difference between two certify-grid fingerprints, as text."""
    bad = []
    refr, gotr = ref["reports"], got["reports"]
    if list(refr) != list(gotr):
        bad.append(f"report set differs: {sorted(set(refr) ^ set(gotr))}")
    for name in refr:
        if name not in gotr:
            continue
        a, b = refr[name], gotr[name]
        if a["points"] != b["points"]:
            bad.append(f"{name}: points {b['points']} != {a['points']}")
        if a["violations"] != b["violations"]:
            bad.append(f"{name}: violations {b['violations'][:3]} != {a['violations'][:3]}")
        if not _close(a["worst_slack"], b["worst_slack"], SLACK_ABS, SLACK_REL):
            bad.append(f"{name}: worst slack {b['worst_slack']!r} != {a['worst_slack']!r}")
        elif a["worst_at"] is not None and a["worst_at"] not in b["near_worst"]:
            bad.append(f"{name}: worst slack moved from {a['worst_at']} to {b['worst_at']}")
    if len(ref["tables"]) != len(got["tables"]):
        bad.append("table count differs")
    for k, (ma, mb) in enumerate(zip(ref["tables"], got["tables"]), start=1):
        if [len(r) for r in ma] != [len(r) for r in mb]:
            bad.append(f"table {k}: shape differs")
            continue
        for ra, rb in zip(ma, mb):
            for va, vb in zip(ra, rb):
                if not _close(va, vb, SLACK_ABS, SLACK_REL):
                    bad.append(f"table {k}: {vb!r} != {va!r}")
    if len(ref["crossovers"]) != len(got["crossovers"]):
        bad.append("crossover count differs")
    for ra, rb in zip(ref["crossovers"], got["crossovers"]):
        if not abs(ra - rb) <= ROOT_ABS:
            bad.append(f"crossover {rb!r} != {ra!r}")
    return bad


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

def check_query(op: str, result) -> str | None:
    """Why a query result is wrong, or None when it is right.

    ``result`` is the op's value for struve_l, bessel_i, struve_m and
    b_value, and ``(exact, [(side, bound), ...])`` for the bracket ops, with
    one entry for every bound that is valid at the query's order.
    """
    if op in ("struve_l", "bessel_i"):
        return None if result > 0.0 and math.isfinite(result) else f"{op} = {result!r} not > 0"
    if op == "struve_m":
        return None if result < 0.0 and math.isfinite(result) else f"M = {result!r} not < 0"
    if op == "b_value":
        return None if 0.0 < result < 0.5 else f"b = {result!r} not in (0, 1/2)"
    exact, sides = result
    if not sides:
        return "no valid bound"
    if not math.isfinite(exact):
        return f"exact value {exact!r}"
    slop = BRACKET_REL * abs(exact)
    for side, bound in sides:
        gap = exact - bound if side == "lower" else bound - exact
        if not gap >= -slop:
            return f"exact {exact!r} outside {side} bound {bound!r}"
    return None


def check_oracle(value: float, oracle: float) -> str | None:
    if abs(value - oracle) <= ORACLE_REL * abs(oracle):
        return None
    return f"series {value!r} vs quadrature {oracle!r}"


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])|(?<![\w.])[-+]?inf(?![\w.])"
)


def cli_numbers(stdout: str) -> list[float]:
    """The answer numbers of a CLI output; eval's metadata line is skipped."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("terms_used="):
            continue
        out.extend(float(tok) for tok in _NUMBER.findall(line))
    return out


def compare_cli(expected: str, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    want, got = cli_numbers(expected), cli_numbers(stdout)
    if len(want) != len(got):
        return f"{len(got)} numbers, expected {len(want)}"
    for a, b in zip(want, got):
        if not _close(a, b, 0.0, CLI_REL):
            return f"{b!r} != {a!r}"
    return None
