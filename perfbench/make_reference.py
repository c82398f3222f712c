"""Write reference.json: the answers the correctness gate compares against.

    python3 perfbench/make_reference.py

It records what the program computes, not the published values: the
certify-grid fingerprint (46 reports, six tables, ten crossover roots) and
the pool of cli-cold commands with each command's output.  Run it only when
a change means to alter those answers, and say so in the change, since the
gate then measures against the new answers.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout

import run
import workloads

POOL_PER_KIND = 48

# (kind, lowest order, whether that order is excluded) for the eval pool
EVAL_KINDS = (("I", -1.0, True), ("L", -1.5, True), ("M", -0.5, False))


def _f(v: float) -> str:
    return repr(float(v))


def command_pool() -> dict[str, list[list[str]]]:
    rng = random.Random("cli-pool")
    pool: dict[str, list[list[str]]] = {k: [] for k in workloads.CLI_KINDS}
    ops = {op: (lo, open_lo) for op, lo, open_lo in workloads.QUERY_OPS}
    for k in range(POOL_PER_KIND):
        kind, lo, open_lo = EVAL_KINDS[k % len(EVAL_KINDS)]
        nu, x = workloads.draw_order(rng, lo, open_lo), workloads.draw_arg(rng)
        pool["eval"].append(["eval", "--kind", kind, f"--nu={_f(nu)}", f"--x={_f(x)}"])
        nu, x = workloads.draw_order(rng, *ops["bracket"]), workloads.draw_arg(rng)
        pool["bracket"].append(["bracket", f"--nu={_f(nu)}", f"--x={_f(x)}"])
        nu, x = workloads.draw_order(rng, *ops["cond"]), workloads.draw_arg(rng)
        pool["cond"].append(["cond", f"--nu={_f(nu)}", f"--x={_f(x)}"])
        nu, x = workloads.draw_order(rng, *ops["argratio"]), workloads.draw_arg(rng)
        y = workloads.draw_second_arg(rng, x)
        pool["argratio"].append(["argratio", f"--nu={_f(nu)}", f"--x={_f(x)}", f"--y={_f(y)}"])
    for table_id in workloads.TABLE_IDS:
        for fmt in ("text", "csv"):
            pool["table"].append(["table", "--id", str(table_id), "--format", fmt])
    from struvebounds import registry
    for bound_id in registry.bound_ids():
        pool["verify"].append(["verify", "--bound", bound_id])
    for a, b, nu, (lo, hi) in workloads.CROSSOVERS:
        pool["crossover"].append(["crossover", "--a", a, "--b", b, f"--nu={_f(nu)}",
                                  f"--xmin={_f(lo)}", f"--xmax={_f(hi)}"])
    return pool


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from struvebounds import cli

    res, err, _ = run.run_worker("sweep", {})
    if res is None:
        print(err, file=sys.stderr)
        return 1
    pool = {}
    for kind, commands in command_pool().items():
        pool[kind] = []
        for argv in commands:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                # kept: the benchmark counts this command as failed each time
                print(f"warning: {' '.join(argv)} exits {code}", file=sys.stderr)
            pool[kind].append([argv, buf.getvalue()])
    ref = {"certify_grid": res["fingerprint"], "cli_pool": pool}
    run.REFERENCE.write_text(json.dumps(ref, indent=0) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
