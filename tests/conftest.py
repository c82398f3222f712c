"""Failure-set guard: after every run, compare the failing tests with the
five intentional acceptance failures and print one summary line.  Also the
series_calls fixture, shared by the tests of point-query sharing.

The five fail on purpose (see tests/test_acceptance.py): each checks a value
quoted in the paper that the computed value does not reproduce.  The line
names any other test that failed and any of the five that ran and passed.
It changes no outcome and not the exit status.
"""

import pytest

from struvebounds import registry, special_core

EXPECTED_FAILURES = frozenset({
    "tests/test_acceptance.py::test_criterion3_table_reproduction[3]",
    "tests/test_acceptance.py::test_criterion3_table_reproduction[5]",
    "tests/test_acceptance.py::test_criterion4_refined_vs_algebraic_crossovers",
    "tests/test_acceptance.py::test_criterion6_csch_reversal_as_stated",
    "tests/test_acceptance.py::test_criterion7_pointwise_coefficient_within_two_percent",
})


def pytest_terminal_summary(terminalreporter):
    stats = terminalreporter.stats
    failed = {rep.nodeid for key in ("failed", "error") for rep in stats.get(key, [])}
    passed = {rep.nodeid for rep in stats.get("passed", [])}
    new = sorted(failed - EXPECTED_FAILURES)
    now_passing = sorted(EXPECTED_FAILURES & passed)
    terminalreporter.write_line(
        f"failure set: expected {len(EXPECTED_FAILURES)}, new {new}, now passing {now_passing}"
    )


@pytest.fixture
def series_calls(monkeypatch):
    """Every (kind, order, argument) special_core._series sums from here on,
    starting from an empty registry point."""
    seen = []
    series = special_core._series

    def counted(kind, nu, x):
        seen.append((kind, nu, x))
        return series(kind, nu, x)

    monkeypatch.setattr(special_core, "_series", counted)
    monkeypatch.setattr(registry, "_last", None)
    return seen
