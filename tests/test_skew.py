"""The signed normal form is validated against a brute-force word oracle."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgskew.fields import QQ, PrimeField
from dgskew.skew import (GradedElement, Monomial, basis_position, degree_basis,
                         degree_dim, generators, mul_monomials, parse_element,
                         permute_element)
from oracles import (all_words, element_product, linear_combination, permuted_by_words,
                     reduce_word)

words = st.lists(st.integers(0, 2), min_size=0, max_size=8)


def monomial_of_word(word):
    exps = [0, 0, 0]
    for g in word:
        exps[g] += 1
    return Monomial(*exps)


def test_basic_products():
    x1, x2, x3 = (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1))
    assert mul_monomials(x1, x2) == (1, Monomial(1, 1, 0))
    assert mul_monomials(x2, x1) == (-1, Monomial(1, 1, 0))
    assert mul_monomials(Monomial(0, 1, 1), x1) == (1, Monomial(1, 1, 1))


@given(words, words)
@settings(max_examples=200)
def test_sign_matches_word_oracle(w1, w2):
    s1, e1 = reduce_word(w1)
    s2, e2 = reduce_word(w2)
    s12, e12 = reduce_word(w1 + w2)
    sign, prod = mul_monomials(Monomial(*e1), Monomial(*e2))
    assert prod == Monomial(*e12)
    assert s1 * s2 * sign == s12


@given(words, words, words)
@settings(max_examples=100)
def test_associativity(w1, w2, w3):
    m1, m2, m3 = (monomial_of_word(w) for w in (w1, w2, w3))
    # associativity on signs and exponents
    s12, p12 = mul_monomials(m1, m2)
    sl, pl = mul_monomials(p12, m3)
    s23, p23 = mul_monomials(m2, m3)
    sr, pr = mul_monomials(m1, p23)
    assert pl == pr
    assert s12 * sl == s23 * sr


def test_degree_basis_order_and_size():
    assert degree_basis(0) == [Monomial(0, 0, 0)]
    d2 = degree_basis(2)
    assert d2 == [Monomial(2, 0, 0), Monomial(1, 1, 0), Monomial(1, 0, 1),
                  Monomial(0, 2, 0), Monomial(0, 1, 1), Monomial(0, 0, 2)]
    assert len(degree_basis(3)) == 10
    for d in range(13):
        assert len(degree_basis(d)) == degree_dim(d) == (d + 1) * (d + 2) // 2


def test_basis_position_is_the_index_in_degree_basis():
    # T(b+c) + c against the index in an independent enumeration: all
    # exponent triples of degree n, lexicographically descending
    for n in range(41):
        triples = sorted(((a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)),
                         reverse=True)
        assert degree_basis(n) == triples
        assert [basis_position(m) for m in triples] == list(range(len(triples)))


def test_mul_monomials_takes_plain_triples():
    assert mul_monomials((0, 1, 0), (1, 0, 0)) == (-1, Monomial(1, 1, 0))
    assert mul_monomials([0, 1, 1], (1, 0, 0)) == (1, Monomial(1, 1, 1))
    for p in range(4):
        for q in range(4):
            for m1 in degree_basis(p):
                for m2 in degree_basis(q):
                    sign, prod = mul_monomials(tuple(m1), list(m2))
                    assert type(prod) is Monomial
                    assert (sign, prod) == mul_monomials(m1, m2)
                    s1, s2 = reduce_word(_spelled(m1))[0], reduce_word(_spelled(m2))[0]
                    assert (s1 * s2 * sign, tuple(prod)) == reduce_word(_spelled(m1) + _spelled(m2))


def _spelled(m):
    return [g for g, e in enumerate(m) for _ in range(e)]


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_products_of_dense_elements_match_word_sorting(F):
    # GradedElement.mul against the free-word oracle, which spells each pair
    # of monomials out, sorts the concatenated word letter by letter with
    # the sign counted by inversions and combines scalars with F's methods;
    # dense elements up to degree 9 make many terms land on each position
    rng = random.Random(13)
    for _ in range(40):
        p, q = rng.randint(0, 9), rng.randint(0, 9)
        u, v = (GradedElement.from_vector(
                    F, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree_dim(n))])
                for n in (p, q))
        w = u.mul(v)
        assert w.degree == p + q
        assert w.terms == element_product(u, v)
        assert all(type(m) is Monomial for m in w.terms)


@pytest.mark.parametrize("degree, vec", [(2, [1, 2]), (1, [1, 2, 3, 4, 5])])
def test_from_vector_rejects_a_vector_of_the_wrong_length(degree, vec):
    # zip used to cut the long vector short and pad the short one with zeros
    with pytest.raises(ValueError, match="length"):
        GradedElement.from_vector(QQ, degree, vec)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_from_vector_coerces_each_coefficient(F):
    u = GradedElement.from_vector(F, 1, [1, "1/2", Fraction(0)])
    assert u == GradedElement.from_terms(F, 1, [((1, 0, 0), 1), ((0, 1, 0), "1/2")])
    assert u.vector() == (F.one, F.coerce("1/2"), F.zero)


@pytest.mark.parametrize("bad", [0.0, None, "x"], ids=repr)
@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_from_vector_checks_every_coefficient(F, bad):
    # int zeros skip `coerce`; no other value does, in any position, also
    # in a vector that is otherwise zero.  A malformed string fails as
    # `Fraction` does, with ValueError
    error = ValueError if isinstance(bad, str) else TypeError
    for others in (0, 3):
        for j in range(6):
            vec = [others] * 6
            vec[j] = bad
            with pytest.raises(error):
                GradedElement.from_vector(F, 2, vec)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_from_vector_zeros_of_every_form_drop_out(F):
    want = GradedElement.from_terms(F, 2, [((1, 1, 0), 2), ((0, 0, 2), "-1/3")])
    for zero in (0, "0", Fraction(0), " 0 ", False):
        u = GradedElement.from_vector(F, 2, [zero, 2, zero, zero, zero, "-1/3"])
        assert u == want
    assert GradedElement.from_vector(F, 2, ["0", 0, Fraction(0), 0, 0, 8]).terms == {
        Monomial(0, 0, 2): F.coerce(8)}


def test_every_word_reduces_into_the_basis():
    # exhaustively to degree 7: the rewriting reaches every exponent triple
    for d in range(8):
        reached = {reduce_word(w)[1] for w in all_words(d)}
        assert reached == {tuple(m) for m in degree_basis(d)}


def test_anticommutation_and_central_squares():
    x1, x2, x3 = generators(QQ)
    for a, b in ((x1, x2), (x2, x3), (x3, x1)):
        assert a.mul(b).add(b.mul(a)).is_zero()
    sq = x1.mul(x1)
    for g in (x1, x2, x3):
        assert sq.mul(g).sub(g.mul(sq)).is_zero()


def test_binomial_products():
    # anticommutation collapses the square of a sum, while the "difference of
    # squares" pattern picks up a doubled cross term instead of cancelling
    x1, x2, _ = generators(QQ)
    square = x1.add(x2).mul(x1.add(x2))
    assert square.sub(GradedElement.from_terms(
        QQ, 2, [(Monomial(2, 0, 0), 1), (Monomial(0, 2, 0), 1)])).is_zero()
    prod = x1.add(x2).mul(x1.sub(x2))
    assert prod.sub(GradedElement.from_terms(
        QQ, 2, [(Monomial(2, 0, 0), 1), (Monomial(1, 1, 0), -2),
                (Monomial(0, 2, 0), -1)])).is_zero()


def test_unit_is_neutral():
    one = GradedElement.monomial(QQ, Monomial(0, 0, 0))
    v = parse_element(QQ, "2*x1 x2^2 - 1/3*x3^2 x1")
    assert one.mul(v).sub(v).is_zero()
    assert v.mul(one).sub(v).is_zero()


def test_rank_one_anticommutator_identity():
    # (l1 x1 - x2)(l2 x1 - x3) + (l2 x1 - x3)(l1 x1 - x2) = 2 l1 l2 x1^2
    rng = random.Random(5)
    for _ in range(20):
        l1, l2 = rng.randint(-4, 4), rng.randint(-4, 4)
        u = parse_element(QQ, f"{l1}*x1 - x2")
        v = parse_element(QQ, f"{l2}*x1 - x3")
        lhs = u.mul(v).add(v.mul(u))
        rhs = GradedElement.from_terms(QQ, 2, [(Monomial(2, 0, 0), 2 * l1 * l2)])
        assert lhs.sub(rhs).is_zero()


def test_render_parse_round_trip():
    texts = ["x1^2 x3", "2*x1 x2^2 - 1/3*x3^2 x1 + x2^3", "-x2", "5", "0"]
    for text in texts:
        e = parse_element(QQ, text, degree=None if text != "0" else 4)
        again = parse_element(QQ, e.render(), degree=e.degree)
        assert again.sub(e).is_zero()


@pytest.mark.parametrize("text", ["x1^-1 x2^2", "x2 x1^1.5", "x3^a", "2*x1^"])
def test_bad_exponents_are_rejected(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_element(QQ, text)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_words_parse_to_the_product_of_their_factors(F):
    # factors multiply in the order written: "x2 x1" is -x1 x2
    gens = dict(zip(("x1", "x2", "x3"), generators(F)))
    for n in range(1, 5):
        for word in itertools.product(gens, repeat=n):
            product = gens[word[0]]
            for name in word[1:]:
                product = product.mul(gens[name])
            assert parse_element(F, " ".join(word)).terms == product.terms, word


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        GradedElement.monomial(QQ, (-1, 2, 0))


def test_permute_element_signs():
    # x1 x2 under the swap 1<->2 becomes x2 x1 = -x1 x2
    e = parse_element(QQ, "x1 x2")
    p = permute_element(e, (1, 0, 2))
    assert p.render() == "-x1 x2"
    # permutation is an algebra map: products commute with it
    u = parse_element(QQ, "x1 - 2*x3")
    v = parse_element(QQ, "x2 + x3")
    perm = (2, 0, 1)
    lhs = permute_element(u.mul(v), perm)
    rhs = permute_element(u, perm).mul(permute_element(v, perm))
    assert lhs.sub(rhs).is_zero()


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_permute_element_matches_the_word_oracle(F):
    # every monomial to degree 8 under all six permutations, its sign against
    # the inversion count of the renamed word
    for perm in itertools.permutations(range(3)):
        for d in range(9):
            for m in degree_basis(d):
                u = GradedElement.monomial(F, m, 3)
                assert permute_element(u, perm).terms == permuted_by_words(u, perm), (perm, m)


@pytest.mark.parametrize("text", ["2/0*x1", "x1^2 + 1/0", "0.5*x1", "1e5000*x1"])
def test_malformed_scalars_are_rejected(text):
    # "1e5000" used to parse into a scalar that render() cannot print
    with pytest.raises(ValueError, match="coefficient"):
        parse_element(QQ, text)


FIELDS = (QQ, PrimeField(7))

coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))  # units mod 7


@st.composite
def elements(draw):
    d = draw(st.integers(0, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from(degree_basis(d)), coefficients),
                          max_size=6))
    return d, terms


@given(elements(), st.sampled_from(FIELDS))
@settings(max_examples=150)
def test_render_parse_round_trip_on_random_elements(element, F):
    d, terms = element
    e = GradedElement.from_terms(F, d, terms)
    assert parse_element(F, e.render(), degree=d) == e


# pieces of the grammar and near misses; inputs keep digit runs short so
# that no exponent gets large
ELEMENT_TOKENS = ["x1", "x2", "x3", "x4", "x", "^", "2", "0", "1", "-", "+", " ", "*",
                  "/", "1/0", "3/2", "-1/7", "."]


@given(st.lists(st.sampled_from(ELEMENT_TOKENS), max_size=12).map("".join)
       .filter(lambda t: not re.search(r"\d{3}", t)))
@settings(max_examples=400)
def test_element_grammar_parses_and_round_trips_or_rejects(text):
    for F in FIELDS:
        try:
            e = parse_element(F, text)
        except ValueError:
            continue
        assert parse_element(F, e.render(), degree=e.degree) == e, text



@given(st.data(), coefficients, st.sampled_from(FIELDS))
@settings(max_examples=200)
def test_element_arithmetic_matches_the_free_word_oracle(data, c, F):
    d, terms = data.draw(elements())
    e, other_terms = data.draw(elements())
    u = GradedElement.from_terms(F, d, terms)
    v = GradedElement.from_terms(F, e, other_terms)
    assert u.mul(v).terms == element_product(u, v)
    # (x1 + x2)^2 = x1^2 + x2^2: squares of odd elements cancel
    assert u.mul(u).terms == element_product(u, u)
    assert u.scale(c).terms == linear_combination(F, [(c, u)])
    assert u.scale(0).is_zero()
    # w - u for a drawn w of the same degree, so u + it cancels down to w
    w_terms = data.draw(st.lists(st.tuples(st.sampled_from(degree_basis(d)), coefficients),
                                 max_size=6))
    w_minus_u = GradedElement.from_terms(F, d, [(m, -x) for m, x in terms] + w_terms)
    for other in (u, w_minus_u, u.scale(c), u.scale(-1)):
        assert u.add(other).terms == linear_combination(F, [(1, u), (1, other)])
        assert u.sub(other).terms == linear_combination(F, [(1, u), (-1, other)])
    assert u.sub(u).is_zero() and u.add(u.scale(-1)).is_zero()
