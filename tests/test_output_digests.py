"""Byte-identical guard on the certification output and the point path.

The sha256 of `verify --all`'s text and of report_csv_rows over every report
of certify_all() and monotonicity_suite() on the default grid, run in
process, and of the reprs of about 2,000 seeded point queries (the
FuncValue evaluators, b_value, best_bracket at every target and
evaluate_valid), which read special_core.Point rather than rows.Row.  The
digests pin every slack's bits, so a change that moves one value by an ulp
fails here; a change meant to move values records new digests and says
which values moved and by how much.  They were recorded with CPython 3.11,
numpy 2.4 and glibc's libm on x86-64 Linux.
"""

import hashlib
import math
import random

from struvebounds import (StruveBoundsError, b_value, bessel_i, best_bracket, cli, evaluate_valid,
                          registry, struve_l, struve_m, verify)

VERIFY_ALL_TEXT = "452fdab6cd203983238a47a984dfb25a6be2d1004439b48cfdb21e0e59fd1967"
CERTIFY_ALL_CSV = "9ead9f0f062928866a391f11112f612efc800a5a4ebbed32ee940fa292085088"
SUITE_CSV = "34bb4f8257ff55c0b1b56134165dea21221e018efb5bf4097f25028e97c94f2a"
POINT_QUERIES = "56ec263b3ba4b60684aa777dd1b8cbf8128deff461ad89bb64f9132459416eb6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv(reports) -> str:
    return "\n".join(line for rep in reports for line in verify.report_csv_rows(rep))


def test_verify_all_text_is_unchanged(capsys):
    assert cli.main(["verify", "--all"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_ALL_TEXT


def test_report_csv_rows_are_unchanged():
    assert _sha256(_csv(verify.certify_all())) == CERTIFY_ALL_CSV
    assert _sha256(_csv(verify.monotonicity_suite())) == SUITE_CSV


def _point_outputs(n: int = 2000):
    """One line per seeded point (nu in [-1.5, 10], x log-uniform in
    [1e-3, 200], y = x U(1.01, 10)): the repr of each query's output, or the
    name of the typed error it raised."""
    rng = random.Random(2501)
    for _ in range(n):
        nu = rng.uniform(-1.5, 10.0)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        y = x * rng.uniform(1.01, 10.0)
        queries = [lambda: struve_l(nu, x), lambda: bessel_i(nu, x), lambda: struve_m(nu, x),
                   lambda: b_value(nu, x)]
        queries += [lambda t=t: best_bracket(nu, x, t, y if registry.TARGETS[t] else None)
                    for t in registry.TARGETS]
        queries += [lambda: [(s.bound_id, v) for s, v in evaluate_valid("cond_L", nu, x)],
                    lambda: [(s.bound_id, v) for s, v in evaluate_valid("arg_ratio_L", nu, x, y)]]
        out = []
        for query in queries:
            try:
                out.append(repr(query()))
            except StruveBoundsError as exc:
                out.append(type(exc).__name__)
        yield f"{nu!r} {x!r} {y!r}: " + "; ".join(out)


def test_point_queries_are_unchanged():
    assert _sha256("\n".join(_point_outputs())) == POINT_QUERIES
