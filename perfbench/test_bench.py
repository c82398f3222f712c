"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted, that a
perturbed reference raises the wrong count, and that the seed changes the
point-queries and cli-cold inputs but not certify-grid.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REF = json.loads(run.REFERENCE.read_text())


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] != 0.0 for m in out["metrics"].values())


def test_bench_refuses_a_tree_without_the_package():
    bare = run.RESULTS / "selftest-bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_perturbed_certify_fingerprint_is_wrong():
    bad = copy.deepcopy(REF)
    report = bad["certify_grid"]["reports"]["eq18_lower"]
    report["worst_slack"] *= 1.01
    ph = run.certify_grid(seed=1, seconds=0.0, traced=False, ref=bad)
    assert ph.attempted == 1 and ph.failed == 0 and ph.wrong == 1
    ph = run.certify_grid(seed=1, seconds=0.0, traced=False, ref=REF)
    assert ph.wrong == 0


def test_perturbed_cli_output_is_wrong():
    bad = copy.deepcopy(REF)
    for entries in bad["cli_pool"].values():
        for entry in entries:
            # the first answer number, 1e-9 off
            entry[1] = gate._NUMBER.sub(lambda m: repr(float(m.group()) * (1 + 1e-9) + 1e-300),
                                        entry[1], count=1)
    ph = run.cli_cold(seed=3, seconds=0.0, traced=False, ref=bad)
    assert ph.attempted == 1 and ph.failed == 0 and ph.wrong == 1


def test_perturbed_query_answers_are_wrong():
    assert gate.check_query("bracket", (1.0, [("lower", 0.5), ("upper", 1.5)])) is None
    assert gate.check_query("bracket", (1.0, [("lower", 1.0 + 1e-9)])) is not None
    assert gate.check_query("cond", (2.0, [("upper", 2.0 - 1e-9)])) is not None
    assert gate.check_query("b_value", 0.5) is not None
    assert gate.check_query("struve_m", 1e-3) is not None
    assert gate.check_oracle(1.0, 1.0 + 1e-9) is not None


def test_seed_changes_query_and_cli_inputs():
    def first(stream, n=50):
        return list(itertools.islice(stream, n))

    assert first(workloads.point_queries(1)) == first(workloads.point_queries(1))
    assert first(workloads.point_queries(1)) != first(workloads.point_queries(2))
    pool = REF["cli_pool"]
    assert first(workloads.cli_commands(1, pool)) == first(workloads.cli_commands(1, pool))
    assert first(workloads.cli_commands(1, pool)) != first(workloads.cli_commands(2, pool))


def test_seed_leaves_certify_grid_unchanged():
    # both seeds must reproduce the one seed-free reference fingerprint
    for seed in (1, 2):
        ph = run.certify_grid(seed=seed, seconds=0.0, traced=False, ref=REF)
        assert ph.attempted == 1 and ph.wrong == 0 and ph.failed == 0
