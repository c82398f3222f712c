"""One fresh process of the benchmark: imports struvebounds, does one job,
and prints its result as a JSON object on the last line of stdout.

    python3 perfbench/worker.py <job> '<json arguments>'

Jobs: ``import`` (time the import only), ``sweep`` (one certify-grid
sweep), ``queries`` (a timed point-query loop) and ``cli`` (one CLI command
in process, always traced, for the traced cli-cold run).  With ``"traced": true`` the
layer boundaries are wrapped in spans (see spans.py) and the span summary is
part of the result; the spans themselves go to ``spans_path``.  ``sweep``
and ``queries`` also return the calibration slices (calib.py) timed around
their stages and query blocks, untimed themselves.
"""

from __future__ import annotations

import faulthandler
import io
import json
import resource
import sys
import time
from array import array
from contextlib import redirect_stdout

import calib
import gate
import spans
import workloads

# a worker that hangs dies with a traceback instead of stalling the run
WORKER_DEADLINE_S = 170.0


def _import():
    t0 = time.perf_counter()
    import struvebounds
    return struvebounds, time.perf_counter() - t0


def _tracer(args):
    if not args.get("traced"):
        return None
    tr = spans.Tracer()
    spans.install(tr)
    return tr


def _finish(result, tr, args):
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr is not None:
        result["trace"] = tr.summary()
        if args.get("spans_path"):
            tr.write(args["spans_path"])
    return result


def job_import(args):
    sb, import_s = _import()
    return _finish({"import_s": import_s, "module": sb.__file__}, None, args)


def job_sweep(args):
    sb, import_s = _import()
    from struvebounds import verify
    tr = _tracer(args)
    stages = (
        verify.certify_all,
        verify.monotonicity_suite,
        lambda: [verify.relative_error_table(verify.table_by_id(i)) for i in workloads.TABLE_IDS],
        lambda: [verify.crossover(a, b, nu, xr) for a, b, nu, xr in workloads.CROSSOVERS],
    )
    # a calibration slice before the sweep and after each of its stages
    cal = [calib.measure()]
    raw, norm, outs = [], [], []
    for stage in stages:
        t0 = time.perf_counter()
        outs.append(stage())
        raw.append(time.perf_counter() - t0)
        cal.append(calib.measure())
        norm.append(calib.normalise(raw[-1], cal[-2], cal[-1]))
    certify, suite, tables, roots = outs
    result = {
        "import_s": import_s,
        "module": sb.__file__,
        "certify_all_s": raw[0],
        "sweep_s": sum(raw),
        "norm_sweep_s": sum(norm),
        "cal_s": cal,
        "fingerprint": gate.certify_fingerprint(list(certify) + list(suite), tables, roots),
    }
    return _finish(result, tr, args)


def _query_runner():
    from struvebounds import bfunc, registry, special_core, succ_ratio

    def bracket_sides(target, nu, args):
        return [(s.side, s.evaluate(nu, *args)) for s in registry.bounds_for_target(target)
                if s.valid_at(nu)]

    def run(op, nu, x, y):
        if op == "struve_l":
            return special_core.struve_l(nu, x).value
        if op == "bessel_i":
            return special_core.bessel_i(nu, x).value
        if op == "struve_m":
            return special_core.struve_m(nu, x).value
        if op == "b_value":
            return bfunc.b_value(nu, x)
        if op == "bracket":
            br = succ_ratio.best_bracket(nu, x)
            exact = registry.exact_value("succ_ratio_L", nu, x)
            sides = [("lower", br.lower)] if br.lower_valid else []
            if br.upper_valid:
                sides.append(("upper", br.upper))
            return exact, sides
        if op == "cond":
            return registry.exact_value("cond_L", nu, x), bracket_sides("cond_L", nu, (x,))
        if op == "argratio":
            return (registry.exact_value("arg_ratio_L", nu, x, y),
                    bracket_sides("arg_ratio_L", nu, (x, y)))
        raise ValueError(f"unknown op {op!r}")

    return run


def job_queries(args):
    sb, import_s = _import()
    tr = _tracer(args)
    run = _query_runner()
    stream = workloads.point_queries(args["seed"])
    pick = workloads.oracle_pick(args["seed"])
    clock = time.perf_counter
    lat = array("d")
    failed, wrong, examples, oracle = 0, 0, [], []
    n = args["queries"]
    block = args["block"]
    # a calibration slice before the first query and after every block
    cal = [calib.slice_s()]
    for qid in range(1, n + 1):
        if qid > 1 and (qid - 1) % block == 0:
            cal.append(calib.slice_s())
        op, nu, x, y = next(stream)
        if tr is not None:
            tr.query_id = qid
        t0 = clock()
        try:
            out = run(op, nu, x, y)
        except Exception as exc:  # every failure is counted, the loop goes on
            lat.append(clock() - t0)
            failed += 1
            if len(examples) < 5:
                examples.append(f"{op}({nu!r}, {x!r}, {y!r}) raised {exc!r}")
            continue
        lat.append(clock() - t0)
        why = gate.check_query(op, out)
        if why is not None:
            wrong += 1
            if len(examples) < 5:
                examples.append(f"{op}({nu!r}, {x!r}, {y!r}): {why}")
        elif (op in ("struve_l", "bessel_i") and nu > -0.5 and x <= gate.ORACLE_X_MAX
              and len(oracle) < 64 and pick.random() < 0.0625):
            oracle.append((op, nu, x, out))
    cal.append(calib.slice_s())
    refused = 0
    for op, nu, x, value in oracle:
        quad = sb.quad_oracle_l if op == "struve_l" else sb.quad_oracle_i
        try:
            why = gate.check_oracle(value, quad(nu, x).value)
        except sb.StruveBoundsError:
            # the oracle declines (e.g. its error estimate is too large near
            # nu = -1/2); the point stays unchecked and is counted
            refused += 1
            continue
        if why is not None:
            wrong += 1
            if len(examples) < 5:
                examples.append(f"{op}({nu!r}, {x!r}) oracle: {why}")
    result = {
        "import_s": import_s,
        "module": sb.__file__,
        "attempted": n,
        "failed": failed,
        "wrong": wrong,
        "examples": examples,
        "oracle_checked": len(oracle) - refused,
        "oracle_refused": refused,
        "latency_ns": [round(t * 1e9) for t in lat],
        "block": block,
        "cal_s": cal,
    }
    return _finish(result, tr, args)


def job_cli(args):
    sb, import_s = _import()
    from struvebounds import cli
    tr = spans.Tracer()
    spans.install(tr)
    argv = args["argv"]
    buf = io.StringIO()
    tr.begin()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        tr.stage(f"cli.main_s.{argv[0]}", tr.end(f"cli.main.{argv[0]}"))
    return _finish({"import_s": import_s, "module": sb.__file__, "code": code,
                    "stdout": buf.getvalue()}, tr, args)


JOBS = {"import": job_import, "sweep": job_sweep, "queries": job_queries, "cli": job_cli}


def main() -> int:
    faulthandler.dump_traceback_later(WORKER_DEADLINE_S, exit=True)
    job = JOBS[sys.argv[1]]
    args = json.loads(sys.argv[2]) if len(sys.argv) > 2 else {}
    sys.stdout.write(json.dumps(job(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
