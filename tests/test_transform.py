import random

import pytest

from dgskew.fields import QQ
from dgskew.linalg import Matrix
from dgskew.sampling import random_matrix, random_monomial_matrix
from dgskew.transform import (apply_transform, entrywise_square, invariance_check,
                              permutation_matrix, validate_monomial)


def mat(rows):
    return Matrix.from_rows(QQ, rows)


def test_identity_transform_is_identity():
    M = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert apply_transform(Matrix.identity(QQ, 3), M).entries == M.entries


def test_permutation_transform_is_conjugation():
    M = mat([[1, 2, 3], [4, 5, 6], [7, 8, 0]])
    P = permutation_matrix(QQ, (1, 0, 2))
    N = apply_transform(P, M)
    expected = P.inverse().mul(M).mul(P)  # squares of 0/1 entries are themselves
    assert N.entries == expected.entries


def test_diagonal_transform_preserves_rank():
    rng = random.Random(41)
    for _ in range(10):
        M = random_matrix(QQ, rng)
        c = rng.choice([1, 2, 3, -2])
        C = mat([[c, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert apply_transform(C, M).rank() == M.rank()


def test_action_composes():
    rng = random.Random(42)
    for _ in range(10):
        M = random_matrix(QQ, rng)
        C1 = random_monomial_matrix(QQ, rng)
        C2 = random_monomial_matrix(QQ, rng)
        twice = apply_transform(C1, apply_transform(C2, M))
        composed = apply_transform(C2.mul(C1), M)
        assert twice.entries == composed.entries


def test_entrywise_square_of_monomial_is_monomial():
    rng = random.Random(43)
    for _ in range(10):
        C = random_monomial_matrix(QQ, rng)
        validate_monomial(C)
        validate_monomial(entrywise_square(C))
        validate_monomial(C.inverse())


def test_non_monomial_rejected_with_named_entries():
    C = mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError) as err:
        validate_monomial(C)
    msg = str(err.value)
    assert "row 1" in msg and "column" in msg
    with pytest.raises(ValueError):
        apply_transform(C, mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_invariance_on_sample_pairs():
    rng = random.Random(44)
    for _ in range(4):
        M = random_matrix(QQ, rng)
        C = random_monomial_matrix(QQ, rng)
        report = invariance_check(M, C, max_degree=6)
        assert report.ok, report.falsifications


def test_invariance_on_a_flagship_matrix():
    M = mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    C = permutation_matrix(QQ, (2, 0, 1))
    report = invariance_check(M, C, max_degree=6)
    assert report.ok
    assert report.dims_before == [1, 2, 3, 4, 5, 6, 7]
    assert report.verdict_before == report.verdict_after == "NonGorenstein"
