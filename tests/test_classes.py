"""The package's classes are plain classes with hand-written constructors.
These tests pin what callers read of them: fresh default containers, the
immutable values that refuse assignment, value equality and hashing where
code compares by value, and the constructors' defaults."""

import pytest

from dgskew.classify import Probe
from dgskew.cli import OPTIONS, SUBCOMMANDS
from dgskew.cohomology import CohomologyReport, cohomology
from dgskew.dg import DGCheckReport, DGSpec
from dgskew.fields import QQ, PrimeField
from dgskew.linalg import Matrix
from dgskew.presentations import Generator, parse_presentation, truncate
from dgskew.resolution import ResolutionReport
from dgskew.skew import GradedElement, Monomial
from dgskew.suite import CRITERIA

ROWS = [[1, 1, 0], [1, 1, 0], [1, 1, 0]]


def test_reports_never_share_a_default_container():
    a, b = DGCheckReport(4), DGCheckReport(4)
    a.failures.append("d o d != 0 at degree 1")
    assert b.failures == [] and a.square_zero_ok and a.leibniz_ok and a.relations_ok

    r = cohomology(DGSpec.from_rows(QQ, ROWS), 4)
    args = (r.spec, r.max_degree, r.dims, r.cocycle_ranks, r.coboundary_ranks, r._complex)
    c, d = CohomologyReport(*args), CohomologyReport(*args)
    c.basis(2)
    assert list(c._bases) == [2] and d._bases == {}

    t = truncate(parse_presentation(QQ, "gen x:1; rel x^2"), 4)
    e, f = ResolutionReport(t, 3, 4, []), ResolutionReport(t, 3, 4, [])
    assert e.stopped_at is None
    for name in ("echelons", "_duals", "_spans", "_entry_keys"):
        getattr(e, name)[0] = None
        assert getattr(f, name) == {}, name


FROZEN = {
    "Matrix": lambda: Matrix.identity(QQ, 2),
    "DGSpec": lambda: DGSpec.from_rows(QQ, ROWS),
    "Generator": lambda: Generator("x", 1),
    "AlgebraPresentation": lambda: parse_presentation(QQ, "gen x:1; rel x^2"),
    "Option": lambda: OPTIONS["max_degree"],
    "Subcommand": lambda: SUBCOMMANDS[0],
    "Criterion": lambda: CRITERIA[0],
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_immutable_values_refuse_assignment_and_deletion(make):
    value = make()
    name = next(iter(vars(value)))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before and not hasattr(value, "extra")


def test_values_compare_and_hash_by_their_fields():
    M = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert M == Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert hash(M) == hash((QQ, 2, 2, ((1, 2), (3, 4))))
    assert M != Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    assert M != Matrix.from_rows(PrimeField(7), [[1, 2], [3, 4]])
    assert Matrix.zero(QQ, 0, 2) != Matrix.zero(QQ, 0, 3)
    assert M != M.entries
    assert {M: 1}[Matrix.from_rows(QQ, [[1, 2], [3, 4]])] == 1

    g = Generator("x", 1)
    assert g == Generator("x", 1) and hash(g) == hash(("x", 1))
    assert g != Generator("x", 2) and g != Generator("y", 1) and g != ("x", 1)

    x = GradedElement.from_terms(QQ, 2, [(Monomial(2, 0, 0), 3)])
    assert x == GradedElement(QQ, 2, {0: 3})
    assert x != GradedElement(QQ, 2, {0: 2})
    assert GradedElement.zero(QQ, 1) != GradedElement.zero(QQ, 2)
    assert GradedElement.zero(QQ, 1) != GradedElement.zero(PrimeField(7), 1)
    assert x != x.terms
    with pytest.raises(TypeError):
        hash(x)


def test_constructor_defaults():
    assert Probe("case_dim_formula", True).detail == ""
    option = OPTIONS["matrix"]
    assert (option.type, option.default, option.low) == (None, None, None)
    assert CRITERIA[1].budget is None and SUBCOMMANDS[1].bound is None
