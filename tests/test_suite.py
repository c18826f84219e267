"""The suite's plumbing: criterion selection, and the criteria that read
crosscheck's probes fail on a failing or a missing probe."""

import pytest

from dgskew import suite
from dgskew.classify import Probe
from dgskew.fields import QQ

# the criteria that crosscheck drawn matrices, with the probes each requires
PROBE_CRITERIA = {
    1: ("case_dim_formula",),
    2: ("case_dim_formula", "square_vs_pairing"),
    3: ("case_dim_formula", "presentation_hilbert"),
    5: ("cubic_constraint_rank",),
    6: ("squares_ideal",),
}
PROBE_NAMES = sorted({name for names in PROBE_CRITERIA.values() for name in names})


class _Report:
    def __init__(self, probes):
        self.probes = probes


def _stub_crosscheck(monkeypatch, probes):
    monkeypatch.setattr(suite, "crosscheck", lambda M, max_degree=8: _Report(probes))


def _check(number):
    return next(c for c in suite.CRITERIA if c.number == number).check


@pytest.mark.parametrize("number", sorted(PROBE_CRITERIA))
def test_probe_criteria_fail_on_each_failing_probe(number, monkeypatch):
    for failing in PROBE_CRITERIA[number]:
        _stub_crosscheck(monkeypatch, [Probe(name, name != failing, f"{name} detail")
                                       for name in PROBE_NAMES])
        passed, detail = _check(number)(QQ)
        assert not passed
        assert detail.startswith(f"{failing} fails for ") and detail.endswith(f"{failing} detail")


@pytest.mark.parametrize("number", sorted(PROBE_CRITERIA))
def test_probe_criteria_fail_on_a_missing_probe(number, monkeypatch):
    for missing in PROBE_CRITERIA[number]:
        _stub_crosscheck(monkeypatch, [Probe(name, True) for name in PROBE_NAMES
                                       if name != missing])
        passed, detail = _check(number)(QQ)
        assert not passed
        assert detail.startswith(f"{missing}: no such probe for ")


def test_run_suite_rejects_unknown_criterion_numbers():
    with pytest.raises(ValueError, match="99"):
        suite.run_suite(numbers={99})
    with pytest.raises(ValueError, match="0, 13"):
        suite.run_suite(numbers={0, 5, 13})

