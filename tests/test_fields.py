from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgskew.cli import main
from dgskew.fields import (CANDIDATE_PRIMES, PRIME_LIMIT, QQ, FieldMismatchError, PrimeField,
                           check_same_field, field_from_name)
from dgskew.linalg import Matrix
from dgskew.skew import GradedElement

FP = PrimeField(CANDIDATE_PRIMES[0])


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_rational_arithmetic_is_exact(a, b):
    x, y = QQ.coerce(a), QQ.coerce(b)
    assert QQ.is_zero(QQ.add(x, QQ.neg(x)))
    if b:
        assert QQ.mul(QQ.coerce(Fraction(a, b)), QQ.coerce(Fraction(b, 1))) == Fraction(a)


@given(st.integers(1, 10**9))
def test_prime_field_inverse(a):
    x = FP.coerce(a)
    if not FP.is_zero(x):
        assert FP.mul(x, FP.inv(x)) == FP.one


def test_candidate_primes_are_large():
    for p in CANDIDATE_PRIMES:
        assert p > 2**31
        PrimeField(p)  # constructor re-checks primality


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(2**31)  # even
    with pytest.raises(ValueError):
        PrimeField(2147483661)  # 3 * 715827887


# psi_12 and psi_13: the least composites that pass Miller-Rabin on every
# prime base up to 37 and up to 41
STRONG_PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_composites_past_the_proven_range_are_rejected(n, capsys):
    with pytest.raises(ValueError):
        PrimeField(n)
    assert main(["cohomology", "--field", f"Fp:{n}",
                 "--matrix", "[[1,0,0],[0,0,0],[0,0,0]]", "--max-degree", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_moduli_at_the_limit_name_it():
    with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
        PrimeField(PRIME_LIMIT)
    for p in CANDIDATE_PRIMES:
        assert PrimeField(p).p == p


def test_coerce_fraction_string():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert FP.coerce("1/2") == FP.div(FP.one, FP.coerce(2))


@pytest.mark.parametrize("text", ["0.5", "1e5000", "+3", "1/0", "-0.5", "--3", "- 3"])
@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_library_scalar_text_follows_the_grammar(F, text):
    # a string is read as the command line and the text grammars read a
    # scalar: an integer or p/q after one optional "-".  Fraction would take
    # a decimal, an exponent and "+", and raise ZeroDivisionError on "1/0"
    with pytest.raises(ValueError):
        Matrix.from_rows(F, [[text, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        GradedElement.from_vector(F, 1, [text, 0, 0])
    with pytest.raises(ValueError):
        GradedElement.from_terms(F, 1, [((1, 0, 0), text)])


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name(f"Fp:{CANDIDATE_PRIMES[0]}") == FP
    with pytest.raises(ValueError):
        field_from_name("R")


def test_mixing_fields_is_an_error():
    with pytest.raises(FieldMismatchError):
        check_same_field(QQ, FP)
    assert PrimeField(CANDIDATE_PRIMES[0]) == FP  # same prime, same field
