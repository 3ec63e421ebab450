"""Acceptance gate: every criterion prints one pass/fail line and must hold
at its stated tolerance (all identities here are exact; searches carry
deterministic step budgets).  Each case runs its own check, so one crash
fails one case and ``--durations`` shows the time per check.  Run with -s
to see the lines as they pass."""

import pytest

from toeplitz_lab import verify

_TABLE = verify.acceptance_table()

CASES = [pytest.param(crit, name, check, id=f"{crit} :: {name}")
         for crit, name, check in _TABLE]


@pytest.mark.parametrize("criterion,name,check", CASES)
def test_acceptance(criterion, name, check):
    result = check()
    print(f"{result.line()}  [{criterion}] provenance={result.provenance}")
    assert result.name == name
    assert result.passed, (criterion, result.name, result.details)


def test_every_criterion_present():
    names = {crit.split(" ")[0] for crit, _, _ in _TABLE}
    assert names == {str(i) for i in range(1, 13)}
