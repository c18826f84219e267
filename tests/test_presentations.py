"""The incremental degreewise quotient is validated against a full
two-sided-span oracle in the free algebra."""

import random

import pytest

from dgskew.errors import DegreeOverflowError
from dgskew.fields import QQ
from dgskew.presentations import (AlgebraPresentation, Generator,
                                  case_presentation, parse_presentation, truncate)
from oracles import count_words_avoiding, quotient_dims_full_span


def pres(text):
    return parse_presentation(QQ, text)


def test_three_anticommuting_generators():
    t = truncate(case_presentation(QQ, "R0"), 5)
    assert t.dims == [1, 3, 6, 10, 15, 21]


def test_one_sided_degenerate_quadratic_counts_words():
    t = truncate(pres("gen x:1, y:1; rel y^2"), 6)
    assert t.dims == [count_words_avoiding(d) for d in range(7)]
    assert t.dims == [1, 2, 3, 5, 8, 13, 21]


def test_two_sided_degenerate_quadratic():
    t = truncate(pres("gen x:1, y:1; rel x^2 + x*y + y*x + y^2"), 5)
    assert t.dims == [1, 2, 3, 5, 8, 13]


def test_quantum_plane_like_quotients():
    assert truncate(pres("gen x:1, y:1; rel x*y + y*x"), 5).dims == [1, 2, 3, 4, 5, 6]
    assert truncate(pres("gen x:1, y:1; rel x^2 + y^2"), 5).dims == [1, 2, 3, 4, 5, 6]


def test_polynomial_mod_square():
    t = truncate(case_presentation(QQ, "R2_pairing_zero"), 7)
    assert t.dims == [1] * 8


def test_scalars_only():
    t = truncate(case_presentation(QQ, "R3"), 5)
    assert t.dims == [1, 0, 0, 0, 0, 0]


def test_single_free_generator():
    t = truncate(case_presentation(QQ, "R2_pairing_nonzero"), 5)
    assert t.dims == [1] * 6


def test_rank_one_case_presentations_all_grow_linearly():
    cases = (("R1a", (1, 1, 1), 1, 3), ("R1b", (1, 2, 3), 1, 0),
             ("R1c", (2, 1, 1), 1, 1), ("R1d", (4, 1, 2), 2, 0),
             ("R1e", (4, 3, 1), 0, 2), ("R1f", (0, 1, 1), 0, 0))
    for label, row, l1, l2 in cases:
        p = case_presentation(QQ, label, row=row, l1=l1, l2=l2)
        assert truncate(p, 6).dims == [1, 2, 3, 4, 5, 6, 7], label


def test_dims_match_full_span_oracle():
    samples = [
        pres("gen x:1, y:1; rel y^2"),
        pres("gen x:1, y:1; rel x^2 + x*y + y*x + y^2"),
        pres("gen x:1, y:1; rel x*y + y*x"),
        pres("gen x:1, y:2; rel x^2; rel x*y - y*x"),
        case_presentation(QQ, "R0"),
        case_presentation(QQ, "R1d", row=(4, 1, 2), l1=2, l2=0),
    ]
    for p in samples:
        bound = 5 if len(p.generators) < 3 else 4
        assert truncate(p, bound).dims == quotient_dims_full_span(p, bound)


def test_normal_form_examples():
    t = truncate(pres("gen x:1, y:1; rel y^2"), 5)
    rel = {(1, 1): QQ.one}
    assert all(QQ.is_zero(c) for c in t.normal_form(rel))
    yxy = t.normal_form({(1, 0, 1): QQ.one})
    assert any(not QQ.is_zero(c) for c in yxy)
    # R1c with m12 = 1, m13 = 0: the square of the first generator dies
    t1 = truncate(case_presentation(QQ, "R1c", row=(1, 1, 0), l1=1, l2=1), 4)
    assert all(QQ.is_zero(c) for c in t1.normal_form({(0, 0): QQ.one}))


def test_normal_form_degree_overflow():
    t = truncate(pres("gen x:1, y:1; rel y^2"), 3)
    with pytest.raises(DegreeOverflowError):
        t.normal_form({(0, 0, 0, 0): QQ.one})


def test_multiplication_is_associative_on_samples():
    rng = random.Random(31)
    for p in (pres("gen x:1, y:1; rel x^2 + x*y + y*x + y^2"),
              case_presentation(QQ, "R1f", row=(0, 1, 1), l1=0, l2=0)):
        assert truncate(p, 6).check_associativity(rng, samples=25)


def test_grammar_round_trip():
    texts = [
        "gen x:1, y:1; rel x*y + y*x",
        "gen x:1, y:1, z:2; rel x^2 + 2*y^2; rel z*x - x*z; rel z*y - y*z",
        "gen x:1, y:1; rel 1/2*x^2 - 3*y^2",
    ]
    for text in texts:
        p = pres(text)
        q = parse_presentation(QQ, p.render())
        assert q.generators == p.generators
        assert q.relations == p.relations


def test_relation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation(QQ, (Generator("x", 1),), ({(): QQ.one},))  # degree 0
    with pytest.raises(ValueError):
        AlgebraPresentation(QQ, (Generator("x", 1),), ({(0,): QQ.zero},))  # zero
    with pytest.raises(ValueError):
        AlgebraPresentation(QQ, (Generator("x", 1), Generator("y", 2)),
                            ({(0,): QQ.one, (1,): QQ.one},))  # inhomogeneous


def test_bad_exponents_are_rejected_when_parsed():
    # "x^-1*y^3" used to drop the x factor and read as the relation y^3
    for text in ("gen x:1, y:1; rel x^-1*y^3", "gen x:1; rel x^1.5"):
        with pytest.raises(ValueError, match="exponent"):
            pres(text)


def test_truncate_bound_below_relation_degree():
    with pytest.raises(ValueError):
        truncate(pres("gen x:1, y:1; rel y^2"), 1)


def test_opposite_reverses_words():
    p = pres("gen x:1, y:1; rel x^2 + 2*x*y")
    op = p.opposite()
    assert op.relations[0] == {(0, 0): QQ.one, (1, 0): QQ.coerce(2)}
    assert op.opposite().relations == p.relations
    # opposite algebra has the same Hilbert function
    assert truncate(op, 5).dims == truncate(p, 5).dims


def test_basis_words_are_prefix_closed_and_lex_minimal():
    t = truncate(pres("gen x:1, y:1; rel y^2"), 4)
    for d in range(1, 5):
        for w in t.basis[d]:
            assert w[:-1] in t.basis[d - 1]
    # no basis word contains the leading rewrite pattern yy
    for d in range(2, 5):
        for w in t.basis[d]:
            assert (1, 1) not in [w[i:i + 2] for i in range(len(w) - 1)]
