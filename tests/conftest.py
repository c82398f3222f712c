"""Failure-set guard: after every run, compare the failing tests with the
five intentional acceptance failures and print one summary line.  Also the
series_calls fixture, shared by the tests of point-query sharing, the
outside_range fixture, shared by the tests of orders below a bound's
recorded range, and every
struvebounds module imported before collection: hypothesis draws some
examples from the constants of the modules loaded at the time, so loading
them all up front gives the property tests one pool of examples whichever
tests ran before them.

The five fail on purpose (see tests/test_acceptance.py): each checks a value
quoted in the paper that the computed value does not reproduce.  The line
names any other test that failed and any of the five that ran and passed.
It changes no outcome and not the exit status.
"""

import importlib
import pkgutil
from contextlib import suppress

import pytest

import struvebounds
from struvebounds import NoValidBound, registry, special_core

for _module in pkgutil.iter_modules(struvebounds.__path__):
    importlib.import_module(f"struvebounds.{_module.name}")

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


@pytest.fixture
def outside_range():
    """A check that nu lies outside bound_id's recorded range, which the
    registry alone applies: valid_at says so, evaluate_valid and
    best_bracket leave the bound out, and bracket gives the formula's value
    on that side and flags it invalid.  Returns the value."""
    def check(bound_id, nu, x, y=None):
        spec = registry.get_bound(bound_id)
        assert not spec.valid_at(nu)
        assert spec not in [s for s, _ in registry.evaluate_valid(spec.target, nu, x, y)]
        with suppress(NoValidBound):  # no bound on the target is valid at nu
            best = registry.best_bracket(nu, x, spec.target, y)
            assert bound_id not in (best.lower_id, best.upper_id)
        lower = spec.side == "lower"
        br = registry.bracket(*((bound_id, "") if lower else ("", bound_id)), nu, x, y)
        assert not (br.lower_valid if lower else br.upper_valid)
        value = br.lower if lower else br.upper
        assert value == spec.evaluate(nu, x, y)
        return value
    return check
