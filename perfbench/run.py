"""Benchmark of struvebounds: three workloads, one closed-loop caller each.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the package is taken from ``src/`` of
that checkout, never from an installed copy.  Every process it starts runs
one at a time and is waited for.

Workloads (see workloads.py for the inputs):

- certify-grid: the batch path behind ``verify --all``.  Each sweep runs in a
  fresh worker process, so the caches start cold as they do for a CLI user:
  ``certify_all()`` and ``monotonicity_suite()`` on the default grid, the six
  tables and the ten acceptance crossovers.  Heavy reuse of (nu, x) points,
  so caching and vectorisation over x show here and import time does not.
  The seed is ignored.
- point-queries: a seeded stream of distinct single-point library queries,
  40,000 to a fresh worker, workers one after another.  No point repeats and no two
  queries share an order, so grid-level reuse gains nothing and the
  per-call cost shows.
- cli-cold: a seeded cycle of single-answer commands, each a fresh
  ``python -m struvebounds.cli`` process.  Import dominates, kernel work
  does not show.

End-to-end metrics, on every workload ("op" is a sweep, a query or a CLI
command):

- setup_s: median time to import struvebounds, measured in every fresh
  worker the run starts (cli-cold adds an import-only worker every fourth
  command, since a CLI process cannot report it)
- norm_op_p50_ms: median time of one op; a sweep is timed after the import
- norm_ops_per_s: ops completed per second of the time spent in them
- peak_rss_mb: largest resident set of any process the run started

Both op metrics are normalised to a reference host speed by calibration
slices timed around every stretch of program work (calib.py); without that
the shared host's speed swings make two sets of runs of the same code
disagree by more than any usable bound.  The raw figures are printed and
recorded as raw_op_p50_ms and raw_ops_per_s.  setup_s stays raw: the
import reads and maps files, and its time does not follow the slice.

``--trace 1`` spends the first half of the run untraced and the second half
with spans around the calls into each layer (spans.py), and prints the
per-layer metrics plus the tracing overhead (traced minus untraced).  The
last stdout line is the JSON result; a fuller record, stamped with the
machine and versions, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib
import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
REFERENCE = HERE / "reference.json"

QUERIES_PER_WORKER = 40_000
QUERY_BLOCK = 1000  # point queries between two calibration slices
CLI_IMPORT_EVERY = 4
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 170.0

# per-layer metrics every workload's traced run reaches: (name, unit)
PER_LAYER = (
    ("special_core.import_s", "s"),
    ("special_core.l_series_us", "us"),
    ("special_core.i_series_us", "us"),
    ("special_core.series_terms_mean", "count"),
    ("special_core.repeat_call_us", "us"),
    ("bfunc.b_value_us", "us"),
    ("registry.exact_value_us", "us"),
    ("registry.evaluate_us", "us"),
    ("registry.calls_per_point", "count"),
    ("registry.points_per_order", "count"),
    ("cli.interpreter_s", "s"),
    ("trace_overhead.norm_op_p50_ms", "ms"),
    ("trace_overhead.norm_ops_per_s", "1/s"),
)


class Phase:
    """What one stretch of a run measured."""

    def __init__(self):
        self.op_s: list[float] = []  # one entry per completed op
        self.norm_s: list[float] = []  # the same, normalised (calib.py)
        self.busy_s = 0.0  # time spent in the ops
        self.import_s: list[float] = []  # import time in every fresh worker
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.examples: list[str] = []
        self.home: dict[str, float] = {}
        self.traces: list[dict] = []
        self.rss_kb = 0
        self.notes: dict[str, int] = {}

    def problem(self, kind: str, text: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.examples) < 8:
            self.examples.append(f"{kind}: {text}")

    def worker(self, job: str, args: dict) -> tuple[dict | None, float]:
        """Run a worker; keep its import time, memory and spans."""
        res, err, wall = run_worker(job, args)
        if res is None:
            self.problem("failed", err)
            return None, wall
        if not Path(res["module"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: struvebounds imported from {res['module']}, not from src/")
        self.import_s.append(res["import_s"])
        self.rss_kb = max(self.rss_kb, res["rss_kb"])
        if "trace" in res:
            self.traces.append(res["trace"])
        return res, wall

    def p50_ms(self) -> float:
        return statistics.median(self.norm_s) * 1e3

    def ops_per_s(self) -> float:
        return len(self.norm_s) / sum(self.norm_s)

    def raw(self) -> dict[str, float]:
        return {"raw_op_p50_ms": statistics.median(self.op_s) * 1e3,
                "raw_ops_per_s": len(self.op_s) / self.busy_s}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("STRUVE_MAX_TERMS", None)
    return env


def run_child(cmd: list[str]) -> tuple[int, str, str, float]:
    """Run one process to completion: (exit code, stdout, stderr, wall s)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return -1, "", f"timed out after {exc.timeout} s", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def run_worker(job: str, args: dict) -> tuple[dict | None, str, float]:
    """(result, error text, wall s) of one worker process."""
    code, out, err, wall = run_child(
        [sys.executable, str(HERE / "worker.py"), job, json.dumps(args)])
    if code != 0:
        return None, f"worker {job} exit {code}: {err.strip()[-400:]}", wall
    try:
        return json.loads(out.splitlines()[-1]), "", wall
    except (IndexError, ValueError):
        return None, f"worker {job} printed no result", wall


def spans_path(workload: str, seed: int, index: int) -> str:
    """Spans of the first traced process of a run; later ones stay in memory."""
    if index:
        return ""
    (RESULTS / "spans").mkdir(parents=True, exist_ok=True)
    return str(RESULTS / "spans" / f"{workload}-seed{seed}.csv.gz")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def certify_grid(seed: int, seconds: float, traced: bool, ref: dict) -> Phase:
    ph = Phase()
    certify_s = []
    t_end = time.perf_counter() + seconds
    while not ph.op_s or time.perf_counter() < t_end:
        if ph.failed > 3:
            break
        ph.attempted += 1
        res, _ = ph.worker("sweep", {
            "traced": traced,
            "spans_path": spans_path("certify-grid", seed, len(ph.op_s)) if traced else ""})
        if res is None:
            continue
        ph.op_s.append(res["sweep_s"])
        ph.norm_s.append(res["norm_sweep_s"])
        ph.busy_s += res["sweep_s"]
        certify_s.append(res["certify_all_s"])
        bad = gate.compare_certify(ref["certify_grid"], res["fingerprint"])
        if bad:
            ph.problem("wrong", f"sweep {len(ph.op_s)}: {len(bad)} mismatches, first {bad[0]}")
    if ph.op_s:
        ph.home = {"sweep_s": statistics.median(ph.op_s),
                   "certify_all_s": statistics.median(certify_s)}
    return ph


def point_queries(seed: int, seconds: float, traced: bool, ref: dict) -> Phase:
    """Fresh workers one after another, each answering QUERIES_PER_WORKER
    queries, until the time is up.  A fixed amount of work per process keeps
    its memory independent of how fast the queries ran.  Worker k of a run
    draws its queries from seed * 1000 + k."""
    ph = Phase()
    oracle_checked = oracle_refused = 0
    t_end = time.perf_counter() + seconds
    k = 0
    while not ph.attempted or time.perf_counter() < t_end:
        res, _ = ph.worker("queries", {
            "seed": seed * 1000 + k, "queries": QUERIES_PER_WORKER, "block": QUERY_BLOCK,
            "traced": traced,
            "spans_path": spans_path("point-queries", seed, k) if traced else ""})
        k += 1
        if res is None:
            ph.attempted += 1
            if ph.failed > 3:
                break
            continue
        ph.attempted += res["attempted"]
        ph.failed += res["failed"]
        ph.wrong += res["wrong"]
        ph.examples.extend(res["examples"][:8 - len(ph.examples)])
        secs = [ns * 1e-9 for ns in res["latency_ns"]]
        cal, block = res["cal_s"], res["block"]
        ph.op_s.extend(secs)
        # query i lies between the slices before and after its block
        ph.norm_s.extend(calib.normalise(t, cal[i // block], cal[i // block + 1])
                         for i, t in enumerate(secs))
        oracle_checked += res["oracle_checked"]
        oracle_refused += res["oracle_refused"]
    ph.busy_s = sum(ph.op_s)
    if ph.op_s:
        lat = sorted(ph.op_s)
        ph.home = {"query_p50_us": percentile(lat, 0.50) * 1e6,
                   "query_p99_us": percentile(lat, 0.99) * 1e6,
                   "query_p999_us": percentile(lat, 0.999) * 1e6,
                   "queries_per_s": len(lat) / ph.busy_s, "queries": len(lat)}
    ph.notes = {"oracle_checked": oracle_checked, "oracle_refused": oracle_refused}
    return ph


def cli_cold(seed: int, seconds: float, traced: bool, ref: dict) -> Phase:
    """Plain CLI processes; every CLI_IMPORT_EVERY commands an import-only
    worker measures the set-up time, which the CLI process cannot report."""
    ph = Phase()
    pool = ref["cli_pool"]
    stream = workloads.cli_commands(seed, pool)
    # a traced run covers every command kind at least once
    min_ops = len(workloads.CLI_KINDS) if traced else 1
    t_end = time.perf_counter() + seconds
    while ph.attempted < min_ops or time.perf_counter() < t_end:
        if not traced and ph.attempted % CLI_IMPORT_EVERY == 0:
            ph.worker("import", {})
        kind, index = next(stream)
        argv, expected = pool[kind][index]
        ph.attempted += 1
        before = calib.measure(5)
        if traced:
            res, wall = ph.worker("cli", {
                "argv": argv, "spans_path": spans_path("cli-cold", seed, ph.attempted - 1)})
            if res is None:
                continue
            code, stdout, err = res["code"], res["stdout"], f"cli.main returned {res['code']}"
        else:
            code, stdout, err, wall = run_child(
                [sys.executable, "-m", "struvebounds.cli", *argv])
        ph.op_s.append(wall)
        ph.norm_s.append(calib.normalise(wall, before, calib.measure(5)))
        ph.busy_s += wall
        if code != 0:
            ph.problem("failed", f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
            continue
        why = gate.compare_cli(expected, code, stdout)
        if why is not None:
            ph.problem("wrong", f"{' '.join(argv)}: {why}")
    if ph.op_s:
        ph.home = {"cli_p50_s": statistics.median(ph.op_s)}
    return ph


WORKLOADS = {"certify-grid": certify_grid, "point-queries": point_queries,
             "cli-cold": cli_cold}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[k]


def unit_of(name: str) -> str:
    """Unit of a recorded number, read from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count" if not name.endswith("share") else "1"


def interpreter_probes() -> list[float]:
    return [run_child([sys.executable, "-c", "pass"])[3] for _ in range(INTERPRETER_PROBES)]


def merge_traces(traces: list[dict]) -> dict:
    agg, counts, stages = {}, {}, {}
    for t in traces:
        for name, (n, self_s, total_s) in t["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += n
            a[1] += self_s
            a[2] += total_s
        for key, v in t["counts"].items():
            counts[key] = counts.get(key, 0.0) + v
        for key, v in t["stages"].items():
            stages.setdefault(key, []).extend(v)
    return {"agg": agg, "counts": counts, "stages": stages}


def _self_us(agg: dict, *names: str) -> float | None:
    n = sum(agg[k][0] for k in names if k in agg)
    if not n:
        return None
    return sum(agg[k][1] for k in names if k in agg) / n * 1e6


def _prefixed(agg: dict, prefix: str) -> list[str]:
    return [k for k in agg if k.startswith(prefix)]


def layer_metrics(merged: dict) -> dict[str, float | None]:
    agg, counts, stages = merged["agg"], merged["counts"], merged["stages"]
    out: dict[str, float | None] = {}
    out["special_core.l_series_us"] = _self_us(agg, "special_core.struve_l.first")
    out["special_core.i_series_us"] = _self_us(agg, "special_core.bessel_i.first")
    first = counts.get("series.first", 0.0)
    out["special_core.series_terms_mean"] = counts["series.terms"] / first if first else None
    out["special_core.repeat_call_us"] = _self_us(
        agg, "special_core.struve_l.repeat", "special_core.bessel_i.repeat")
    stable = agg.get("special_core.struve_m.first.stable", [0, 0.0, 0.0])[0]
    m_first = sum(agg[k][0] for k in _prefixed(agg, "special_core.struve_m.first."))
    out["special_core.stable_m_us"] = _self_us(agg, "special_core.struve_m.first.stable")
    out["special_core.stable_m_neval_mean"] = (
        counts.get("stable_m.neval", 0.0) / stable if stable else None)
    out["special_core.stable_route_share"] = stable / m_first if m_first else None
    out["bfunc.b_value_us"] = _self_us(agg, "bfunc.b_value")
    out["registry.exact_value_us"] = _self_us(agg, *_prefixed(agg, "registry.exact_value."))
    out["registry.evaluate_us"] = _self_us(agg, *_prefixed(agg, "registry.evaluate."))
    for name in sorted(_prefixed(agg, "registry.exact_value.") + _prefixed(agg, "registry.evaluate.")):
        head, target = name.rsplit(".", 1)
        out[f"{head}_us.{target}"] = _self_us(agg, name)
    points = counts.get("registry.points", 0.0)
    orders = counts.get("registry.orders", 0.0)
    out["registry.calls_per_point"] = counts.get("registry.calls", 0.0) / points if points else None
    out["registry.points_per_order"] = points / orders if orders else None
    out["succ_ratio.best_bracket_us"] = _self_us(agg, "succ_ratio.best_bracket")
    out["verify.record_us"] = _self_us(agg, "verify.record")
    sweeps = len(stages.get("verify.certify_all_s", []))
    if sweeps:
        out["verify.points_checked"] = agg["verify.record"][0] / sweeps
    for name, values in sorted(stages.items()):
        out[name] = statistics.median(values)
    return out


def machine_stamp() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "struvebounds" / "__init__.py").is_file():
        print(f"error: no struvebounds package under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())
    load_start = os.getloadavg()[0]
    stamp = machine_stamp()

    # the build: byte-compile once so no timed import pays for compiling
    code, _, err, _ = run_child([sys.executable, "-m", "compileall", "-q", str(SRC)])
    if code != 0:
        print(f"error: compileall failed: {err}", file=sys.stderr)
        return 2
    run_workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    plain = run_workload(args.seed, args.seconds / 2 if traced else args.seconds, False, ref)
    plain_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    phases = [plain]
    if traced:
        phases.append(run_workload(args.seed, args.seconds / 2, True, ref))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    import_s = [t for p in phases for t in p.import_s]
    if not plain.op_s or not import_s:
        print(f"error: no operation completed: {plain.examples[:2]}", file=sys.stderr)
        return 1

    e2e = {
        "setup_s": (statistics.median(import_s), "s"),
        "norm_op_p50_ms": (plain.p50_ms(), "ms"),
        "norm_ops_per_s": (plain.ops_per_s(), "1/s"),
        "peak_rss_mb": ((plain_rss_kb if traced else peak_rss_kb) / 1024.0, "MB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "failed_frac": failed / attempted, "wrong_frac": wrong / attempted,
        "problems": [e for p in phases for e in p.examples],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "home": plain.home, "raw": plain.raw(), "notes": plain.notes,
        "import_s": import_s, "ops": len(plain.op_s),
    }
    if traced:
        tph = phases[1]
        layers = layer_metrics(merge_traces(tph.traces))
        layers["special_core.import_s"] = statistics.median(import_s)
        layers["cli.interpreter_s"] = statistics.median(interpreter_probes())
        overhead = {"setup_s": statistics.median(tph.import_s) - statistics.median(plain.import_s),
                    "norm_op_p50_ms": tph.p50_ms() - plain.p50_ms(),
                    "norm_ops_per_s": tph.ops_per_s() - plain.ops_per_s(),
                    "peak_rss_mb": (tph.rss_kb - plain_rss_kb) / 1024.0}
        for k, v in overhead.items():
            layers[f"trace_overhead.{k}"] = v
        record["per_layer"] = layers
        record["traced_home"] = tph.home
        record["traced_notes"] = tph.notes
        metrics = {}
        for name, unit in PER_LAYER:
            value = layers.get(name)
            if value is None:
                record["problems"].append(f"per-layer metric {name} was not reached")
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    load_end = os.getloadavg()[0]
    record["stamp"].update({"load1_start": load_start, "load1_end": load_end,
                            "overloaded": max(load_start, load_end) > (os.cpu_count() or 1)})
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    lines = [(name, v, u) for name, (v, u) in e2e.items()]
    lines += [(name, v, unit_of(name)) for name, v in sorted(plain.home.items())]
    lines += [(name, v, unit_of(name)) for name, v in plain.raw().items()]
    lines += [("failed_frac", failed / attempted, "1"), ("wrong_frac", wrong / attempted, "1")]
    if traced:
        lines += [(name, v, unit_of(name)) for name, v in sorted(record["per_layer"].items())
                  if v is not None]
    for name, v, unit in lines:
        print(f"{args.workload:>14}  {name:<48} {v:>14.6g} {unit}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"results: {out_path.relative_to(ROOT)}")
    # correct: no answer failed the gate; ops that raised or exited non-zero
    # gave no answer and are counted in failed
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
