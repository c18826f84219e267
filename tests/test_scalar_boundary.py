"""Above `linalg` the engine combines scalars with native operators and
brings them to normal form once, through `fields.normalized`.  The Field
protocol stays at the boundaries: `coerce` on input, `inv`/`div` where the
code divides, `to_str` on output.  These tests make the arithmetic methods
raise and run every layer end to end over Q and over a large prime field."""

import json

import pytest

from dgskew.classify import classify, crosscheck
from dgskew.cohomology import cohomology
from dgskew.dg import DGSpec, verify_dg
from dgskew.fields import PrimeField, Rationals, field_from_name
from dgskew.linalg import Matrix
from dgskew.presentations import parse_presentation
from dgskew.resolution import gorenstein_certificate
from dgskew.skew import GradedElement, Monomial
from dgskew.transform import invariance_check
from test_classify import CASE_MATRICES

FIELD_NAMES = ("Q", "Fp:2147483659")
ARITHMETIC = ("add", "sub", "mul", "neg", "is_zero")


@pytest.fixture
def no_field_arithmetic(monkeypatch):
    def forbidden(name):
        def method(self, *args):
            raise AssertionError(f"{type(self).__name__}.{name} called")
        return method

    for cls in (Rationals, PrimeField):
        for name in ARITHMETIC:
            monkeypatch.setattr(cls, name, forbidden(name))


@pytest.mark.parametrize("field_name", FIELD_NAMES)
def test_cohomology_classes_use_native_arithmetic(field_name, no_field_arithmetic):
    F = field_from_name(field_name)
    for rows in CASE_MATRICES.values():
        report = cohomology(DGSpec.from_rows(F, rows), 6)
        json.dumps(report.to_json())
        classes = [report.unit_class()]
        for deg in (1, 2):
            classes += [report.class_of(rep.scale(-2).add(rep)) for rep in report.bases[deg]]
        unit = classes[0]
        for u in classes:
            assert report.class_product(unit, u).coordinates == u.coordinates
            assert [report.class_product(u, v).is_zero for v in classes]
        # x1^2 x2 is a cocycle exactly when d(x2) = 0
        report.class_of(GradedElement.monomial(F, Monomial(2, 1, 0)))


@pytest.mark.parametrize("field_name", FIELD_NAMES)
def test_classification_uses_native_arithmetic(field_name, no_field_arithmetic):
    F = field_from_name(field_name)
    for label, rows in CASE_MATRICES.items():
        M = Matrix.from_rows(F, rows)
        assert classify(M).case_label == label
        json.dumps(crosscheck(M, 6).to_json())


@pytest.mark.parametrize("field_name", FIELD_NAMES)
def test_checks_and_certificates_use_native_arithmetic(field_name, no_field_arithmetic):
    F = field_from_name(field_name)
    C = Matrix.from_rows(F, [[0, 2, 0], [0, 0, -3], ["1/2", 0, 0]])
    for label in ("R2_pairing_zero", "R1a", "R1c"):
        M = Matrix.from_rows(F, CASE_MATRICES[label])
        assert verify_dg(DGSpec(F, M), 5, samples=10).ok
        assert invariance_check(M, C, 5).ok
    flagship = classify(Matrix.from_rows(F, CASE_MATRICES["R1c"])).predicted_presentation
    parsed = parse_presentation(F, "gen x:1, y:1; rel x^2 + x*y + y*x - 1/2*y^2")
    for pres in (flagship, parsed):
        json.dumps(gorenstein_certificate(pres, hom_bound=4, int_bound=8).to_json())
