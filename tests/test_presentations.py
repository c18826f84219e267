"""The incremental degreewise quotient is validated against a full
two-sided-span oracle in the free algebra."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgskew.errors import DegreeOverflowError
from dgskew.fields import QQ, PrimeField
from dgskew.presentations import (AlgebraPresentation, Generator,
                                  case_presentation, parse_presentation, truncate)
from oracles import (count_words_avoiding, free_normal_forms, free_words,
                     quotient_dims_full_span)


FIELDS = (QQ, PrimeField(7))


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


ORACLE_TEXTS = {"one-sided": "gen x:1, y:1; rel y^2",
                "two-sided": "gen x:1, y:1; rel x^2 + x*y + y*x + y^2",
                "linear": "gen x:1, y:1; rel x - y"}


@pytest.mark.parametrize("F", FIELDS, ids=["Q", "F7"])
@pytest.mark.parametrize("name", ["one-sided", "two-sided", "linear", "R1d"])
def test_word_tables_match_the_free_word_oracle(F, name):
    if name == "R1d":  # a degree-2 generator
        p = case_presentation(F, "R1d", row=(4, 1, 2), l1=2, l2=0)
    else:
        p = parse_presentation(F, ORACLE_TEXTS[name])
    bound = 6
    t = truncate(p, bound)
    oracle = [free_normal_forms(p, d) for d in range(bound + 1)]
    for d, (basis, forms) in enumerate(oracle):
        assert t.basis[d] == basis
        for w, form in forms.items():
            assert t.word_vector(w) == form, w
    # column b of the table of a word w is the normal form of b * w
    gd = [g.degree for g in p.generators]
    for src in range(bound + 1):
        for e in range(bound - src + 1):
            forms = oracle[src + e][1]
            for w in free_words(gd, e):
                assert t.word_mul_matrix(src, w) == [
                    {k: x for k, x in enumerate(forms[b + w]) if x} for b in t.basis[src]]
    # products of random elements, bilinearly from the normal forms
    rng = random.Random(11)
    for _ in range(20):
        p_deg = rng.randint(0, bound)
        q_deg = rng.randint(0, bound - p_deg)
        u = [F.coerce(rng.randint(-2, 2)) for _ in t.basis[p_deg]]
        v = [F.coerce(rng.randint(-2, 2)) for _ in t.basis[q_deg]]
        expected = [F.zero] * t.dim(p_deg + q_deg)
        for a, b in zip(u, t.basis[p_deg]):
            for c, b2 in zip(v, t.basis[q_deg]):
                form = oracle[p_deg + q_deg][1][b + b2]
                expected = [F.add(x, F.mul(F.mul(a, c), y)) for x, y in zip(expected, form)]
        assert t.mul(u, p_deg, v, q_deg) == expected
    assert t.check_associativity(rng, samples=40)


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


@pytest.mark.parametrize("text", ["gen x:1, y:1; rel 2/0*x*y", "gen x:1; rel x^2 - 1/0*x^2",
                                  "gen x:1; rel 1e5000*x^2"])
def test_malformed_scalars_are_rejected(text):
    with pytest.raises(ValueError, match="coefficient"):
        pres(text)


def test_generator_names_must_be_identifiers():
    # "1" would render words the parser reads as the scalar 1
    for text in ("gen 1:1; rel 1^2", "gen x y:1", "gen :1"):
        with pytest.raises(ValueError, match="identifier"):
            pres(text)


@st.composite
def presentations(draw):
    degrees = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    gens = tuple(Generator(name, d) for name, d in zip("xyz", degrees))
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        words = draw(st.sampled_from([ws for ws in (free_words(degrees, d) for d in (1, 2, 3))
                                      if ws]))
        picked = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4, unique=True))
        rels.append({w: Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
                     for w in picked})
    return gens, rels


@given(presentations(), st.sampled_from(FIELDS))
@settings(max_examples=150)
def test_grammar_round_trip_on_random_presentations(drawn, F):
    gens, rels = drawn
    try:
        p = AlgebraPresentation(F, gens, tuple({w: F.coerce(c) for w, c in r.items()}
                                               for r in rels))
    except ValueError:  # a relation that vanishes mod 7
        return
    q = parse_presentation(F, p.render())
    assert (q.generators, q.relations) == (p.generators, p.relations)


# pieces of the grammar and near misses; inputs keep digit runs short so
# that no exponent or degree gets large
PRESENTATION_TOKENS = ["gen ", "rel ", "x", "y", "z", ":", "1", "2", "0", ",", "; ", "*", "^",
                       " + ", " - ", "-", "/", "1/0", "3/2", "1/7", " ", "1x"]


@given(st.sampled_from(["", "gen x:1, y:1; rel ", "gen x:1, y:2; rel ", "gen x:1; rel "]),
       st.lists(st.sampled_from(PRESENTATION_TOKENS), max_size=14).map("".join)
       .filter(lambda t: not re.search(r"\d{3}", t)))
@settings(max_examples=400)
def test_presentation_grammar_parses_and_round_trips_or_rejects(head, tail):
    text = head + tail
    for F in FIELDS:
        try:
            p = parse_presentation(F, text)
        except ValueError:
            continue
        q = parse_presentation(F, p.render())
        assert (q.generators, q.relations) == (p.generators, p.relations), text


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


def test_relation_coefficients_are_brought_into_the_field():
    F = PrimeField(7)
    gens = (Generator("x", 1), Generator("y", 1))
    given = AlgebraPresentation(F, gens, ({(0, 0): Fraction(1, 2), (1, 1): 1, (0, 1): 14},))
    assert given.relations == ({(0, 0): 4, (1, 1): 1},)  # 1/2 = 4 and 14 = 0 mod 7
    assert given.render() == "gen x:1, y:1; rel 4*x^2 + y^2"
    literal = parse_presentation(F, "gen x:1, y:1; rel 4*x^2 + y^2")
    assert truncate(given, 4).dims == truncate(literal, 4).dims
