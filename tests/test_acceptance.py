"""Acceptance gate: every criterion at its stated scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines as
they complete. The configuration here is the accepted one: seed 20080814,
the full <= 6-vertex shifted corpus, 20 substitutions per spectrum check,
100 random APC complexes, threshold graphs up to 7 vertices. Each criterion's
line must equal its line in golden/acceptance.txt, which
tests/golden_update.py rewrites.
"""

from pathlib import Path

import pytest

from simtree.verification import ALL_CHECKS, CheckResult

_RESULTS = {}
_GOLDEN = (Path(__file__).parent / "golden" / "acceptance.txt").read_text().splitlines()


def _run(check_fn) -> CheckResult:
    if check_fn.__name__ not in _RESULTS:
        _RESULTS[check_fn.__name__] = check_fn()
    return _RESULTS[check_fn.__name__]


@pytest.mark.parametrize("check_fn", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_criterion(check_fn):
    result = _run(check_fn)
    print(result.line())
    assert result.passed, result.line()
    assert result.line() == _GOLDEN[ALL_CHECKS.index(check_fn)]
