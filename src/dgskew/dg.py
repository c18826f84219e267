"""The matrix-determined differential.

A 3x3 matrix M over the session field fixes d(x_i) = sum_j M[i][j] x_j^2,
extended to all of the algebra by the graded Leibniz rule
d(uv) = d(u) v + (-1)^|u| u d(v).  On a normal-form monomial this unfolds
into three blocks, one per variable, using d(x^e) = 0 for even e and
d(x^e) = d(x) x^(e-1) for odd e (even powers are central cocycles, which is
what makes the blockwise formula well defined; verify_dg checks it).
One kernel applies it on basis positions: `_d_sums` adds coefficient times
M[i][j] straight into the positions of the next degree that `_blocks`, one
table per degree, lists for each block.  `d` runs it on an element,
`d_columns` on unit vectors (M's negated rows are reduced mod p over F_p,
so the columns come out in normal form), and the cocycle tests of
`cohomology` through `_d_kills`, which tests the sums for zero as they come
and builds no element.
"""

from __future__ import annotations

import random
from functools import cache

from .fields import Frozen, _all_zero, _modulus, check_same_field
from .linalg import Matrix, apply_columns, kills
from .skew import (GradedElement, Monomial, basis_monomials, basis_position, degree_basis,
                   degree_dim)


class DGSpec(Frozen):
    """Session field plus the defining 3x3 matrix."""

    def __init__(self, field, matrix: Matrix):
        if (matrix.nrows, matrix.ncols) != (3, 3):
            raise ValueError("defining matrix must be 3x3")
        check_same_field(field, matrix.field)
        vars(self).update(field=field, matrix=matrix)

    @classmethod
    def from_rows(cls, field, rows) -> "DGSpec":
        return cls(field, Matrix.from_rows(field, rows))


def d_generator(spec: DGSpec, i: int) -> GradedElement:
    """d(x_i) = M[i][1] x1^2 + M[i][2] x2^2 + M[i][3] x3^2  (i in 1..3)."""
    if i not in (1, 2, 3):
        raise ValueError("generator index must be 1, 2 or 3")
    row = spec.matrix.row(i - 1)
    return GradedElement.from_terms(
        spec.field, 2,
        [(Monomial(2, 0, 0), row[0]), (Monomial(0, 2, 0), row[1]), (Monomial(0, 0, 2), row[2])])


@cache
def _blocks(deg: int) -> tuple:
    """Per position of degree `deg`, the blocks of d of that basis monomial
    m as (row, t, u): block i, d(x_i) times m / x_i, is nonzero when the
    exponent of x_i is odd, and row is i, or i + 3 when the parity of the
    generators before x_i signs it -1.  If m / x_i has x2,x3-degree k' and
    x3-exponent e, its products with x1^2, x2^2 and x3^2 sit at
    t = T(k') + e, u = T(k'+2) + e and u + 2; m itself sits at T(k) + c."""
    out = []
    for a, b, c in basis_monomials(deg):
        k = b + c
        t = k * (k + 1) // 2 + c
        blocks = []
        if a & 1:
            blocks.append((0, t, t + 2 * k + 3))
        if b & 1:
            blocks.append((4 if a & 1 else 1, t - k, t + k + 1))
        if c & 1:
            blocks.append((5 if (a + b) & 1 else 2, t - k - 1, t + k))
        out.append(tuple(blocks))
    return tuple(out)


def _d_sums(spec: DGSpec, deg: int, vecs):
    """d of each vector {position in degree deg: coefficient} of vecs, as
    {position in degree deg + 1: sum}, the native sums of coefficient times
    +-M[i][j]: possibly zero over Q, unreduced over F_p."""
    p = _modulus(spec.field)
    rows = spec.matrix.entries
    rows += tuple((-x, -y, -z) if p is None else (-x % p, -y % p, -z % p) for x, y, z in rows)
    blocks = _blocks(deg)
    for vec in vecs:
        out = {}
        get = out.get
        for j, coeff in vec.items():
            for i, t, u in blocks[j]:
                x, y, z = rows[i]
                if x:
                    out[t] = get(t, 0) + coeff * x
                if y:
                    out[u] = get(u, 0) + coeff * y
                if z:
                    u += 2
                    out[u] = get(u, 0) + coeff * z
        yield out


def _d_kills(spec: DGSpec, deg: int, vecs) -> bool:
    """True when d is zero on every vector {position in degree deg:
    coefficient} of vecs; the sums are tested as they come (exactly over Q,
    mod p over F_p), and no element is built."""
    return all(_all_zero(spec.field, sums.values()) for sums in _d_sums(spec, deg, vecs))


def d(spec: DGSpec, u: GradedElement) -> GradedElement:
    """The differential on a homogeneous element; degree rises by 1."""
    check_same_field(spec.field, u.field)
    vec = {basis_position(m): x for m, x in u.terms.items()}
    return GradedElement.from_sparse(spec.field, u.degree + 1,
                                     next(_d_sums(spec, u.degree, (vec,))))


def d_columns(spec: DGSpec, deg: int, skip=frozenset()):
    """Sparse columns of d on degree `deg` off the indices in `skip`: column
    j is d of the j-th basis monomial as {row in degree deg+1: nonzero}."""
    if deg < 0:
        raise ValueError("degree must be >= 0")
    return list(_d_sums(spec, deg, ({j: 1} for j in range(degree_dim(deg)) if j not in skip)))


def d_matrix(spec: DGSpec, deg: int) -> Matrix:
    """Matrix of d on degree `deg`: C(deg+3,2) x C(deg+2,2), column j = d of
    the j-th basis monomial."""
    F = spec.field
    cols = d_columns(spec, deg)
    nrows = degree_dim(deg + 1)
    rows = [[F.zero] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    return Matrix(F, nrows, len(cols), tuple(tuple(r) for r in rows))


class DGCheckReport:
    """Outcome of the structural checks; failures carry rendered witnesses."""

    def __init__(self, max_degree: int, square_zero_ok: bool = True, leibniz_ok: bool = True,
                 relations_ok: bool = True, failures: list | None = None):
        self.max_degree = max_degree
        self.square_zero_ok = square_zero_ok
        self.leibniz_ok = leibniz_ok
        self.relations_ok = relations_ok
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return self.square_zero_ok and self.leibniz_ok and self.relations_ok


def verify_dg(spec: DGSpec, max_degree: int = 8, samples: int = 100,
              rng: random.Random | None = None) -> DGCheckReport:
    """Check d*d = 0 through `max_degree`, the Leibniz rule on random
    homogeneous pairs, and well-definedness on the anticommutation relations.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    rng = rng or random.Random(0)
    F = spec.field
    report = DGCheckReport(max_degree=max_degree)

    # d_{deg+1} after d_deg on each basis monomial, as sparse columns; the
    # witnesses are built only to render a failure
    outer = d_columns(spec, 0)
    for deg in range(max_degree):
        inner, outer = outer, d_columns(spec, deg + 1)
        for m, col in zip(basis_monomials(deg), inner):
            if not kills(F, outer, col):
                report.square_zero_ok = False
                u = GradedElement.monomial(F, m)
                ddu = GradedElement.from_sparse(F, deg + 2, apply_columns(F, outer, col))
                report.failures.append(f"d(d({u.render()})) = {ddu.render()}")

    # d is defined on normal forms; it respects x_i x_j + x_j x_i = 0 iff
    # d(x_i) x_j - x_i d(x_j) + d(x_j) x_i - x_j d(x_i) = 0.
    from .skew import generators
    xs = generators(F)
    for i in range(3):
        for j in range(i + 1, 3):
            xi, xj = xs[i], xs[j]
            dxi, dxj = d(spec, xi), d(spec, xj)
            val = dxi.mul(xj).sub(xi.mul(dxj)).add(dxj.mul(xi)).sub(xj.mul(dxi))
            if not val.is_zero():
                report.relations_ok = False
                report.failures.append(
                    f"d not well-defined on x{i+1} x{j+1} + x{j+1} x{i+1}: {val.render()}")

    for _ in range(samples):
        p = rng.randint(0, max_degree - 1)
        q = rng.randint(0, max_degree - 1 - p)
        u = _random_element(F, p, rng)
        v = _random_element(F, q, rng)
        lhs = d(spec, u.mul(v))
        rhs = d(spec, u).mul(v)
        dv = u.mul(d(spec, v))
        rhs = rhs.sub(dv) if p % 2 else rhs.add(dv)
        if not lhs.sub(rhs).is_zero():
            report.leibniz_ok = False
            report.failures.append(
                f"Leibniz fails on ({u.render()}) * ({v.render()})")
    return report


def _random_element(field, degree: int, rng: random.Random) -> GradedElement:
    items = [(m, rng.randint(-3, 3)) for m in degree_basis(degree)]
    return GradedElement.from_terms(field, degree, items)
