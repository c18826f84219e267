import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leibniz_d

import dgskew
from dgskew.cohomology import cohomology
from dgskew.dg import DGSpec, d, d_columns, d_generator, d_matrix, verify_dg
from dgskew.fields import QQ, PrimeField
from dgskew.linalg import Matrix
from dgskew.sampling import random_full_rank
from dgskew.skew import (GradedElement, Monomial, basis_position, degree_basis, generators,
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


BENCH_PRIME = PrimeField(2147483659)


@pytest.mark.parametrize("name", sorted(LEIBNIZ_MATRICES))
@pytest.mark.parametrize("F", [QQ, PrimeField(7), BENCH_PRIME], ids=str)
def test_d_matches_the_leibniz_unfolding(F, name):
    # d and d_columns against the letter-by-letter Leibniz rule, on every
    # monomial and every column, in normal form, and on random elements:
    # through degree 16 (the benchmark's depth) over Q and its prime, through
    # degree 8 over F_7
    spec = DGSpec.from_rows(F, LEIBNIZ_MATRICES[name])
    rng = random.Random(16)
    for deg in range(9 if F == PrimeField(7) else 17):
        want = [leibniz_d(spec, m) for m in degree_basis(deg)]
        for m, w in zip(degree_basis(deg), want):
            assert d(spec, GradedElement.monomial(F, m)).terms == w.terms, m
        columns = [{basis_position(m): c for m, c in w.terms.items()} for w in want]
        assert d_columns(spec, deg) == columns
        skip = frozenset(range(0, len(columns), 3))
        assert d_columns(spec, deg, skip) == [c for j, c in enumerate(columns) if j not in skip]
        D = d_matrix(spec, deg)
        assert [D.col(j) for j in range(D.ncols)] == [w.vector() for w in want]
        coeffs = [rng.randint(-30, 30) for _ in want]
        u = GradedElement.from_terms(F, deg, zip(degree_basis(deg), coeffs))
        expected = GradedElement.zero(F, deg + 1)
        for w, c in zip(want, coeffs):
            expected = expected.add(w.scale(c))
        assert d(spec, u).terms == expected.terms


def test_a_sum_that_is_zero_mod_p_is_a_cocycle():
    # over F_p the kernel's sums are unreduced ints; d(d(w)) sums to
    # nonzero multiples of p, which the cocycle tests read as zero
    spec = DGSpec.from_rows(BENCH_PRIME, [[1, -2, 3], [2, 1, -1], [4, -3, 5]])
    w = GradedElement.from_terms(BENCH_PRIME, 3, [(m, 1000003 * (j + 1))
                                                  for j, m in enumerate(degree_basis(3))])
    z = d(spec, w)
    vec = {basis_position(m): c for m, c in z.terms.items()}
    sums = next(dgskew.dg._d_sums(spec, 4, (vec,))).values()
    assert any(sums) and not any(x % BENCH_PRIME.p for x in sums)
    assert dgskew.dg._d_kills(spec, 4, (vec,))
    assert d(spec, z).is_zero()
    cls = cohomology(spec, 6).class_of(z)
    assert cls is not None and cls.is_zero


def test_a_cancelling_fraction_sum_is_a_cocycle():
    # over Q the sums are exact; Fraction(1, 2) - Fraction(1, 2) is a
    # Fraction that is zero
    spec = DGSpec.from_rows(QQ, LEIBNIZ_MATRICES["rank-3"])
    w = GradedElement.from_terms(QQ, 3, [(m, Fraction(j + 1, 7))
                                         for j, m in enumerate(degree_basis(3))])
    z = d(spec, w)
    vec = {basis_position(m): c for m, c in z.terms.items()}
    sums = next(dgskew.dg._d_sums(spec, 4, (vec,))).values()
    assert any(type(x) is Fraction for x in sums) and not any(sums)
    assert dgskew.dg._d_kills(spec, 4, (vec,))
    cls = cohomology(spec, 6).class_of(z)
    assert cls is not None and cls.is_zero


@pytest.mark.parametrize("F", [QQ, BENCH_PRIME], ids=str)
def test_class_of_refuses_a_non_cocycle(F):
    # a boundary plus 5 times a monomial is a cocycle exactly when the
    # monomial is one (all its exponents even); for this rank-2 matrix
    # every even monomial of degree 4 has a nonzero class
    spec = DGSpec.from_rows(F, [[1, -2, 3], [2, 1, -1], [4, -3, 5]])
    report = cohomology(spec, 6)
    boundary = d(spec, GradedElement.from_terms(F, 3, [(m, j - 4) for j, m in
                                                       enumerate(degree_basis(3))]))
    refused = 0
    for m in degree_basis(4):
        cls = report.class_of(boundary.add(GradedElement.monomial(F, m, 5)))
        if any(e % 2 for e in m):
            assert cls is None, m
            refused += 1
        else:
            assert cls is not None and not cls.is_zero, m
    assert refused == 9
    assert report.class_of(GradedElement.monomial(F, (1, 0, 0))) is None


def _blocks_unsigned_x2(blocks):
    # `dg._blocks` with block x2 left unsigned (row 4, -d(x2), read as row
    # 1): d(x1 x2) comes out as d(x1) x2 + x1 d(x2), which is not a
    # derivation of the skew algebra
    return lambda deg: tuple(tuple((1 if i == 4 else i, t, u) for i, t, u in row)
                             for row in blocks(deg))


# sha256 of the JSON of `failures` for the corrupted differential below,
# recorded before verify_dg composed sparse columns and before d and
# d_columns read one block table; the failure strings render the same
# witnesses either way
BROKEN_D_FAILURES = {
    "Q": "530683e98b4a67596e0b85a7b3b1dbabe6d7571703faf532518476d7cf5336be",
    "Fp:2147483659": "cedf1ba6d5c459c62e328103c3e1df794d88be033e0bfcef042ea6c5fecbe7d1",
}


@pytest.mark.parametrize("field_name", sorted(BROKEN_D_FAILURES))
def test_verify_dg_catches_a_broken_differential(monkeypatch, field_name):
    # the one table `d` and `d_columns` both read, so the Leibniz samples
    # and the d o d check see the same broken map
    monkeypatch.setattr(dgskew.dg, "_blocks", _blocks_unsigned_x2(dgskew.dg._blocks))
    F = dgskew.field_from_name(field_name)
    spec = DGSpec.from_rows(F, [[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    report = verify_dg(spec, max_degree=5, samples=10, rng=random.Random(0))
    assert not report.square_zero_ok and not report.leibniz_ok
    assert report.relations_ok
    digest = hashlib.sha256(json.dumps(report.failures).encode()).hexdigest()
    assert digest == BROKEN_D_FAILURES[field_name]
