"""The acceptance gate: every criterion of the suite must pass at its stated
exact tolerance.  One pass/fail line is printed per criterion."""

import hashlib
import json

import pytest

from dgskew.suite import CRITERIA, run_suite

# sha256 of the indented, key-sorted paper-suite JSON report; the same over
# Q and over F_p, since the report names no field
SUITE_JSON_SHA256 = "804a3033061049e214fce50992c032cf65220d04dcd820f368dcd464ff8e2dd6"


@pytest.fixture(scope="module")
def suite_report():
    return run_suite()


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: f"criterion_{c.number:02d}")
def test_acceptance_criterion(criterion, suite_report):
    result = next(r for r in suite_report.results if r.number == criterion.number)
    print(result.line())
    assert result.passed, result.detail


def test_suite_json_bytes_are_pinned(suite_report):
    text = json.dumps(suite_report.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_JSON_SHA256
