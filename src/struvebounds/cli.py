"""Command-line front end: struvebounds COMMAND --name value ...

The table _COMMANDS holds the grammar: seven commands, each option given as
--name value or --name=value and never abbreviated, -h or --help for usage.
Exit codes: 0 success, 1 domain or usage error, 2 when verification finds
violations.  Nothing is configurable: no option or environment variable
changes how a value is computed.  Only verify --all and the eq14
experiment import verify, and with it numpy, the sweeps extra (without it
they exit 1 naming the extra): verify --bound certifies its one bound on
points through certification, table reads tables and crossover the
registry, point by point, and M's stable route is pure Python, so no other
command loads numpy.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import registry
from .errors import StruveBoundsError
from .special_core import bessel_i, struve_l, struve_m


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
    else:  # on points, without numpy
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


# Each command's handler, help line and options, and the options of which it
# takes exactly one.  An option: the attribute its handler reads, its type
# (bool for a flag, which takes no value), its choices, its default or _REQUIRED.
_REQUIRED = object()
_NU, _X = ("nu", float, None, _REQUIRED), ("x", float, None, _REQUIRED)
_FORMAT = ("format", str, ("text", "csv"), "text")
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate I, L or M = L - I",
             {"--kind": ("kind", str, ("I", "L", "M"), _REQUIRED), "--nu": _NU, "--x": _X}, ()),
    "bracket": (_cmd_bracket, "bracket the ratio L_nu/L_{nu-1}, or evaluate one registered bound",
                {"--nu": _NU, "--x": _X, "--bound": ("bound", str, None, None)}, ()),
    "cond": (_cmd_cond, "condition number x L'_nu / L_nu with brackets",
             {"--nu": _NU, "--x": _X}, ()),
    "argratio": (_cmd_argratio, "ratio L_nu(x)/L_nu(y) with brackets",
                 {"--nu": _NU, "--x": _X, "--y": ("y", float, None, _REQUIRED)}, ()),
    "table": (_cmd_table, "compute a built-in relative-error table",
              {"--id": ("table_id", int, None, _REQUIRED), "--format": _FORMAT}, ()),
    "verify": (_cmd_verify, "certify registered inequalities on the default grid: "
               "--all of them, or one --bound",
               {"--all": ("all", bool, None, False), "--bound": ("bound", str, None, None),
                "--experimental-eq14-extension": ("experimental", bool, None, False),
                "--format": _FORMAT}, ("--all", "--bound")),
    "crossover": (_cmd_crossover, "locate where two bounds exchange dominance",
                  {"--a": ("a", str, None, _REQUIRED), "--b": ("b", str, None, _REQUIRED),
                   "--nu": _NU, "--xmin": ("xmin", float, None, 0.01),
                   "--xmax": ("xmax", float, None, 50.0)}, ()),
}


def _usage(command: Optional[str]) -> str:
    """The usage line of one command, or of the program."""
    if command is None:
        return f"usage: struvebounds {{{','.join(_COMMANDS)}}} [--name value ...] [-h]"
    words = []
    for flag, (dest, kind, choices, default) in _COMMANDS[command][2].items():
        word = flag if kind is bool else \
            f"{flag} {{{','.join(choices)}}}" if choices else f"{flag} {dest.upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return f"usage: struvebounds {command} {' '.join(words)} [-h]"


def _help(command: Optional[str]) -> str:
    if command is None:
        return "\n".join([_usage(None), "Options are --name value or --name=value; "
                          "'struvebounds COMMAND -h' lists a command's options."]
                         + [f"  {name:<10} {line}" for name, (_, line, _, _) in _COMMANDS.items()])
    return f"{_usage(command)}\n{_COMMANDS[command][1]}"


def _reject(cause: str, command: Optional[str] = None) -> StruveBoundsError:
    return StruveBoundsError(f"{cause}\n{_usage(command)}")


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The attributes the command's handler reads, or None once help is
    printed.  The token after --name is always its value; of an option given
    twice the last wins."""
    if argv and argv[0] in ("-h", "--help"):
        print(_help(None))
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise _reject(f"unknown command {argv[0]!r}" if argv else "no command given")
    command, tokens = argv[0], iter(argv[1:])
    _, _, options, one_of = _COMMANDS[command]
    given = {}
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(command))
            return None
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise _reject(f"unrecognised argument {token!r}", command)
        dest, kind, choices, default = options[flag]
        if kind is bool and eq:
            raise _reject(f"{flag} takes no value", command)
        if kind is not bool and not eq and (value := next(tokens, None)) is None:
            raise _reject(f"{flag} needs a value", command)
        try:
            given[dest] = True if kind is bool else kind(value)
        except ValueError:
            raise _reject(f"{flag}: invalid {kind.__name__} value {value!r}", command) from None
        if choices and given[dest] not in choices:
            raise _reject(f"{flag}: {value!r} is not one of {', '.join(choices)}", command)
    if one_of and sum(options[flag][0] in given for flag in one_of) != 1:
        raise _reject(f"{command} takes exactly one of {' and '.join(one_of)}", command)
    args = SimpleNamespace(command=command)
    for flag, (dest, _, _, default) in options.items():
        if default is _REQUIRED and dest not in given:
            raise _reject(f"{command} needs {flag}", command)
        setattr(args, dest, given.get(dest, default))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _COMMANDS[args.command][0](args)
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
