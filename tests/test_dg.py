import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leibniz_d

from dgskew.dg import DGSpec, d, d_generator, d_matrix, verify_dg
from dgskew.fields import QQ, PrimeField
from dgskew.linalg import Matrix
from dgskew.sampling import random_full_rank
from dgskew.skew import (GradedElement, Monomial, degree_basis, generators,
                         parse_element)

int_matrices = st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                        min_size=3, max_size=3)


def spec_of(rows, field=QQ):
    return DGSpec(field, Matrix.from_rows(field, rows))


def test_d_generator_examples():
    ident = spec_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d_generator(ident, 1).render() == "x1^2"
    ex = spec_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    assert d_generator(ex, 2).render() == "x1^2 + x2^2"
    zero = spec_of([[0] * 3] * 3)
    assert d_generator(zero, 3).is_zero()


def test_squares_are_cocycles_for_any_matrix():
    rng = random.Random(11)
    for _ in range(10):
        spec = spec_of([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 2
            assert d(spec, GradedElement.monomial(QQ, Monomial(*e))).is_zero()


def test_even_powers_are_central_cocycles():
    rng = random.Random(12)
    spec = spec_of([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    xs = generators(QQ)
    for i in range(3):
        power = GradedElement.monomial(QQ, Monomial(0, 0, 0))
        for t in range(1, 5):
            power = power.mul(xs[i]).mul(xs[i])
            assert d(spec, power).is_zero()
            for g in xs:
                assert power.mul(g).sub(g.mul(power)).is_zero()


def test_leibniz_on_x1x2_identity_matrix():
    spec = spec_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    u = parse_element(QQ, "x1 x2")
    assert d(spec, u).sub(parse_element(QQ, "x1^2 x2 - x1 x2^2")).is_zero()


def test_d_x1x2_generic_matrix():
    # d(x1 x2) expanded by the Leibniz rule for arbitrary entries
    rng = random.Random(13)
    for _ in range(10):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        spec = spec_of(m)
        got = d(spec, parse_element(QQ, "x1 x2"))
        expected = GradedElement.from_terms(QQ, 3, [
            (Monomial(3, 0, 0), -m[1][0]),
            (Monomial(2, 1, 0), m[0][0]),
            (Monomial(1, 2, 0), -m[1][1]),
            (Monomial(0, 3, 0), m[0][1]),
            (Monomial(1, 0, 2), -m[1][2]),
            (Monomial(0, 1, 2), m[0][2]),
        ])
        assert got.sub(expected).is_zero()


def test_d_matrix_shapes_and_ranks():
    ident = spec_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    m0 = d_matrix(ident, 0)
    assert (m0.nrows, m0.ncols) == (3, 1)
    assert m0.rank() == 0
    m1 = d_matrix(ident, 1)
    assert (m1.nrows, m1.ncols) == (6, 3)
    assert m1.rank() == 3
    rank_one = spec_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    assert d_matrix(rank_one, 1).rank() == 1


def test_inhomogeneous_rejected():
    spec = spec_of([[0] * 3] * 3)
    with pytest.raises(ValueError):
        GradedElement.from_terms(QQ, 1, [(Monomial(2, 0, 0), 1)])
    with pytest.raises(ValueError):
        d_generator(spec, 4)


@given(int_matrices)
@settings(max_examples=15, deadline=None)
def test_verify_dg_random_matrices(rows):
    spec = spec_of(rows)
    report = verify_dg(spec, max_degree=5, samples=25, rng=random.Random(0))
    assert report.ok, report.failures


def test_square_zero_composed_matrices():
    rng = random.Random(14)
    spec = spec_of([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    for deg in range(6):
        comp = d_matrix(spec, deg + 1).mul(d_matrix(spec, deg))
        assert all(QQ.is_zero(x) for row in comp.entries for x in row)


def test_full_rank_squares_are_coboundaries():
    # with an invertible defining matrix each x_i^2 = d(linear form); the
    # linear form solves M^T a = e_i, column i of (M^T)^-1, and for e_1 the
    # solution is the first adjugate column over the determinant
    rng = random.Random(15)
    for _ in range(10):
        M = random_full_rank(QQ, rng)
        spec = DGSpec(QQ, M)
        inverse = M.transpose().inverse()
        for i in range(3):
            a = inverse.col(i)
            lin = GradedElement.from_terms(QQ, 1, [(Monomial(1, 0, 0), a[0]),
                                                   (Monomial(0, 1, 0), a[1]),
                                                   (Monomial(0, 0, 1), a[2])])
            e = [0, 0, 0]
            e[i] = 2
            assert d(spec, lin).sub(GradedElement.monomial(QQ, Monomial(*e))).is_zero()
        m = M.entries
        det = QQ.sub(
            QQ.add(QQ.mul(m[0][0], QQ.sub(QQ.mul(m[1][1], m[2][2]), QQ.mul(m[1][2], m[2][1]))),
                   QQ.mul(m[0][2], QQ.sub(QQ.mul(m[1][0], m[2][1]), QQ.mul(m[1][1], m[2][0])))),
            QQ.mul(m[0][1], QQ.sub(QQ.mul(m[1][0], m[2][2]), QQ.mul(m[1][2], m[2][0]))))
        a = inverse.col(0)
        assert a[0] == QQ.div(QQ.sub(QQ.mul(m[1][1], m[2][2]), QQ.mul(m[1][2], m[2][1])), det)
        assert a[1] == QQ.div(QQ.sub(QQ.mul(m[0][2], m[2][1]), QQ.mul(m[0][1], m[2][2])), det)
        assert a[2] == QQ.div(QQ.sub(QQ.mul(m[0][1], m[1][2]), QQ.mul(m[0][2], m[1][1])), det)


def test_rank_two_kernel_vector_is_not_a_coboundary_target():
    # M^T a = s has no solution when s spans the kernel of a rank-2 matrix:
    # appending s to M^T raises the rank
    M = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    s = M.kernel_basis()[0]
    augmented = Matrix.from_rows(QQ, [row + (x,) for row, x in zip(M.transpose().entries, s)])
    assert augmented.rank() == M.rank() + 1


# non-integral entries (no denominator divisible by 7), of rank 3, 2 and 1
LEIBNIZ_MATRICES = {
    "rank-3": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"], ["-3/4", "2", "5/3"]],
    "rank-2": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"], ["5/2", "-7/15", "2"]],
    "rank-1": [["1/3", "-1", "2/5"], ["2/3", "-2", "4/5"], ["-1/6", "1/2", "-1/5"]],
}


@pytest.mark.parametrize("name", sorted(LEIBNIZ_MATRICES))
@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_d_matches_the_leibniz_unfolding(F, name):
    # the blockwise d against the letter-by-letter Leibniz rule, on every
    # monomial up to degree 8, on every column of d_matrix and on random
    # elements
    spec = DGSpec.from_rows(F, LEIBNIZ_MATRICES[name])
    rng = random.Random(16)
    for deg in range(9):
        want = [leibniz_d(spec, m) for m in degree_basis(deg)]
        for m, w in zip(degree_basis(deg), want):
            assert d(spec, GradedElement.monomial(F, m)).terms == w.terms, m
        D = d_matrix(spec, deg)
        assert [D.col(j) for j in range(D.ncols)] == [w.vector() for w in want]
        u = GradedElement.from_terms(F, deg, [(m, rng.randint(-30, 30))
                                              for m in degree_basis(deg)])
        expected = GradedElement.zero(F, deg + 1)
        for m, c in u.terms.items():
            expected = expected.add(leibniz_d(spec, m).scale(c))
        assert d(spec, u).terms == expected.terms


def _odd_blocks_unsigned_x2(a, b, c):
    # `dg._odd_blocks` with block x2 left unsigned: d(x1 x2) comes out as
    # d(x1) x2 + x1 d(x2), which is not a derivation of the skew algebra
    return [(i, neg) for i, odd, neg in ((0, a & 1, False), (1, b & 1, False),
                                         (2, c & 1, bool((a + b) & 1))) if odd]


# sha256 of the JSON of `failures` for the corrupted differential below,
# recorded before verify_dg composed sparse columns; the failure strings
# render the same witnesses either way
BROKEN_D_FAILURES = {
    "Q": "530683e98b4a67596e0b85a7b3b1dbabe6d7571703faf532518476d7cf5336be",
    "Fp:2147483659": "cedf1ba6d5c459c62e328103c3e1df794d88be033e0bfcef042ea6c5fecbe7d1",
}


@pytest.mark.parametrize("field_name", sorted(BROKEN_D_FAILURES))
def test_verify_dg_catches_a_broken_differential(monkeypatch, field_name):
    import dgskew
    monkeypatch.setattr(dgskew.dg, "_odd_blocks", _odd_blocks_unsigned_x2)
    F = dgskew.field_from_name(field_name)
    spec = DGSpec.from_rows(F, [[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    report = verify_dg(spec, max_degree=5, samples=10, rng=random.Random(0))
    assert not report.square_zero_ok and not report.leibniz_ok
    assert report.relations_ok
    digest = hashlib.sha256(json.dumps(report.failures).encode()).hexdigest()
    assert digest == BROKEN_D_FAILURES[field_name]
