"""Command-line front end.

Subcommands: eval, bracket, cond, argratio, table, verify, crossover.
Exit codes: 0 success, 1 domain or usage error, 2 when verification finds
violations.  Nothing is configurable: no option or environment variable
changes how a value is computed.  Only verify --all and the eq14
experiment import verify, and with it numpy: verify --bound certifies its
one bound on points through certification, table reads tables and
crossover the registry, point by point, and a command loads numpy only
where M takes its stable route.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from . import registry
from .errors import StruveBoundsError
from .special_core import bessel_i, struve_l, struve_m


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="struvebounds",
        description="Evaluate modified Struve/Bessel functions and their "
                    "certified two-sided bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate I, L or M = L - I")
    p.add_argument("--kind", choices=("I", "L", "M"), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("bracket", help="bracket the ratio L_nu/L_{nu-1}")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--bound", help="evaluate one registered bound instead of the best bracket")

    p = sub.add_parser("cond", help="condition number x L'_nu / L_nu with brackets")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("argratio", help="ratio L_nu(x)/L_nu(y) with brackets")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("table", help="compute a built-in relative-error table")
    p.add_argument("--id", type=int, required=True, dest="table_id")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("verify", help="certify registered inequalities on the default grid")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--bound")
    p.add_argument("--experimental-eq14-extension", action="store_true",
                   dest="experimental")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("crossover", help="locate where two bounds exchange dominance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--xmin", type=float, default=0.01)
    p.add_argument("--xmax", type=float, default=50.0)

    return parser


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise StruveBoundsError(f"numeric flags must be finite, got {v}")


def _cmd_eval(args) -> int:
    _check_finite(args.nu, args.x)
    fn = {"I": bessel_i, "L": struve_l, "M": struve_m}[args.kind]
    out = fn(args.nu, args.x)
    print(f"{out.value:.17g}")
    note = "  cancellation-prone (stable route used)" if out.cancellation else ""
    print(f"terms_used={out.terms_used} est_rel_error={out.est_rel_error:.3g}{note}")
    return 0


def _equality_mark(bound_id: str, nu: float) -> str:
    if not bound_id:
        return ""
    spec = registry.get_bound(bound_id)
    return " (equality)" if spec.is_equality_at(nu) else ""


def _cmd_bracket(args) -> int:
    _check_finite(args.nu, args.x)
    if args.bound:
        spec = registry.get_bound(args.bound)
        if registry.needs_y(spec):
            raise StruveBoundsError(f"{args.bound} needs --y; use the argratio command")
        value = spec.evaluate(args.nu, args.x)
        valid = "valid" if spec.valid_at(args.nu) else "outside validity range"
        print(f"{args.bound} = {value:.17g}  [{spec.side} bound, {valid}"
              f"{_equality_mark(args.bound, args.nu)}]")
        return 0
    br = registry.best_bracket(args.nu, args.x)
    if br.lower_valid:
        print(f"lower = {br.lower:.17g}  [{br.lower_id}{_equality_mark(br.lower_id, args.nu)}]")
    if br.upper_valid:
        print(f"upper = {br.upper:.17g}  [{br.upper_id}{_equality_mark(br.upper_id, args.nu)}]")
    return 0


def _print_values(values, nu: float) -> None:
    for spec, value in values:
        print(f"{spec.bound_id} = {value:.17g}  [{spec.side}"
              f"{_equality_mark(spec.bound_id, nu)}]")


def _cmd_cond(args) -> int:
    _check_finite(args.nu, args.x)
    exact = registry.exact_value("cond_L", args.nu, args.x)
    print(f"exact = {exact:.17g}")
    values = registry.evaluate_valid("cond_L", args.nu, args.x)
    _print_values(values, args.nu)
    br = registry.tightest_bracket(values, "cond_L", args.nu)
    print(f"best bracket: [{br.lower:.17g}, {br.upper:.17g}]  ({br.lower_id}, {br.upper_id})")
    return 0


def _cmd_argratio(args) -> int:
    _check_finite(args.nu, args.x, args.y)
    exact = registry.exact_value("arg_ratio_L", args.nu, args.x, args.y)
    print(f"exact = {exact:.17g}")
    _print_values(registry.evaluate_valid("arg_ratio_L", args.nu, args.x, args.y), args.nu)
    return 0


def _cmd_table(args) -> int:
    from . import tables
    spec = tables.table_by_id(args.table_id)
    cells = tables.relative_error_cells(spec)
    render = tables.render_table_csv if args.format == "csv" else tables.render_table_text
    print(render(spec, cells))
    return 0


def _cmd_verify(args) -> int:
    from . import certification
    grid = certification.default_grid()
    if args.all:
        from . import verify
        reports = verify.certify_all(grid) + verify.monotonicity_suite()
    else:  # before verify is imported, so the bound is certified on points
        reports = [certification.certify(args.bound, grid)]
    # the experiment is informational: its failures never set the exit code
    exit_code = 2 if any(rep.violations for rep in reports) else 0
    experiment = []
    if args.experimental:
        from . import verify
        experiment.append(verify.certify_eq14_extension(grid))
    if args.format == "csv":
        for i, rep in enumerate(reports + experiment):
            lines = certification.report_csv_rows(rep)
            if i:
                next(lines)  # one header for all reports
            text = "\n".join(lines)  # one write per report, not per line
            if text:
                print(text)
        return exit_code
    for rep in reports:
        status = "ok" if rep.clean else f"{len(rep.violations)} VIOLATIONS"
        print(f"{rep.bound_id}: points={rep.points_checked} "
              f"worst_slack={rep.worst_slack:.3e} status={status}")
        for v in rep.violations[:5]:
            print(f"    violated at {v}")
    for rep in experiment:
        status = "holds on probe grid" if rep.clean else \
            f"fails at {len(rep.violations)} points"
        print(f"[experimental] {rep.bound_id}: points={rep.points_checked} {status}")
    return exit_code


def _cmd_crossover(args) -> int:
    _check_finite(args.nu, args.xmin, args.xmax)
    x_star = registry.crossover(args.a, args.b, args.nu, (args.xmin, args.xmax))
    print(f"{x_star:.4f}")
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "bracket": _cmd_bracket,
    "cond": _cmd_cond,
    "argratio": _cmd_argratio,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "crossover": _cmd_crossover,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except (StruveBoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. piping into head)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
