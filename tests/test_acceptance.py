"""Release gate: every criterion from the regression suite must pass.

Each test runs one criterion at its stated tolerance and prints the standard
pass/fail line; run with ``-s`` (or check the CLI ``paper-suite``) to see the
measured values.
"""

import pytest

from rsd_market import suite

_STATED_BUDGETS = {
    "C01": 1.0,
    "C02": 1.0,
    "C03": 1.0,
    "C04": 1.0,
    "C05": 60.0,
    "C06": 30.0,
    "C07": 10.0,
    "C09": 60.0,
    "C10": 120.0,
    "C11": 30.0,
    "C12": 300.0,
    "C13": 300.0,
    "C14": 600.0,
    "C15": 600.0,
}

# The notes of the criteria that draw random markets hold only integers, so
# they pin which markets each criterion draws.  C10's notes hold float
# residues and are not pinned.
_PINNED_NOTES = {
    "C05": ["500/500 optimal, 500/500 price-supported"],
    "C06": ["200/200 identity reallocations"],
    "C07": ["100/100 exact matches, zero trades"],
    "C08": ["764 logged trades checked"],
    "C09": ["50 feasible instances out of 64 sampled; 50 optimal"],
    "C11": ["50/50 aftermarkets unchanged at half the headroom"],
}


@pytest.mark.parametrize("cid", [cid for cid, _, _ in suite._CRITERIA])
def test_criterion(cid):
    result = suite.run_criterion(cid)
    print(result.line())
    for line in result.details:
        print(f"    {line}")
    assert result.passed, "; ".join(result.details)
    if cid in _PINNED_NOTES:
        assert result.notes == _PINNED_NOTES[cid]
    budget = _STATED_BUDGETS.get(cid)
    if budget is not None:
        assert result.seconds < budget, f"{cid} took {result.seconds:.1f}s (> {budget:.0f}s)"
