"""Replay of the benchmark's reference outputs in process.

perfbench/reference.json holds what the program computed when the benchmark
was defined: the output of every command in the cli-cold pool and the
certify-grid fingerprint (the 46 reports, the six tables and the ten
crossover roots).  These tests recompute both and compare them with the
benchmark's own rules from perfbench/gate.py, so a change that moves an
answer the benchmark would refuse fails here first.  Neither file is
modified.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from struvebounds import verify
from struvebounds.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate, workloads = _load("gate"), _load("workloads")


@pytest.mark.parametrize("kind", sorted(REFERENCE["cli_pool"]))
def test_cli_pool_matches_reference(kind):
    bad = []
    for argv, expected in REFERENCE["cli_pool"][kind]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        why = gate.compare_cli(expected, code, out.getvalue())
        if why is not None:
            bad.append((argv, why))
    assert not bad, bad[:5]


def test_certify_grid_matches_reference():
    reports = verify.certify_all() + verify.monotonicity_suite()
    tables = [verify.relative_error_table(verify.table_by_id(i)) for i in workloads.TABLE_IDS]
    roots = [verify.crossover(a, b, nu, xr) for a, b, nu, xr in workloads.CROSSOVERS]
    got = gate.certify_fingerprint(reports, tables, roots)
    assert gate.compare_certify(REFERENCE["certify_grid"], got) == []
