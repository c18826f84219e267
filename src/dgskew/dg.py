"""The matrix-determined differential.

A 3x3 matrix M over the session field fixes d(x_i) = sum_j M[i][j] x_j^2,
extended to all of the algebra by the graded Leibniz rule
d(uv) = d(u) v + (-1)^|u| u d(v).  On a normal-form monomial this unfolds
into three blocks, one per variable, using d(x^e) = 0 for even e and
d(x^e) = d(x) x^(e-1) for odd e (even powers are central cocycles, which is
what makes the blockwise formula well defined; verify_dg checks it).
`d` and `d_columns` share that formula and combine scalars with the native
operators, reducing mod p once at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .fields import check_same_field, normalized
from .linalg import Matrix
from .skew import (GradedElement, Monomial, basis_index, degree_basis,
                   degree_dim)


@dataclass(frozen=True)
class DGSpec:
    """Session field plus the defining 3x3 matrix."""

    field: object
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.nrows, self.matrix.ncols) != (3, 3):
            raise ValueError("defining matrix must be 3x3")
        check_same_field(self.field, self.matrix.field)

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


def _blocks(spec: DGSpec):
    """Per generator x_i, the nonzero terms M[i][j] x_j^2 of d(x_i), each as
    (exponent shift of x_j^2 / x_i, M[i][j])."""
    return [[(tuple(2 * (k == j) - (k == i) for k in range(3)), x)
             for j, x in enumerate(row) if x]
            for i, row in enumerate(spec.matrix.entries)]


def _d_monomial(blocks, m: Monomial):
    """Terms of d(x1^a x2^b x3^c) as (monomial, +-M[i][j]) pairs, distinct
    monomials with unreduced native scalars.

    Block i is d(x_i) times the monomial with one x_i less, signed by the
    parity of the generators before x_i; it is nonzero only when the
    exponent of x_i is odd (even powers are central cocycles)."""
    a, b, c = m
    out = []
    for i, odd, neg in ((0, a & 1, 0), (1, b & 1, a & 1), (2, c & 1, (a + b) & 1)):
        if odd:
            for (da, db, dc), x in blocks[i]:
                out.append((Monomial(a + da, b + db, c + dc), -x if neg else x))
    return out


def d(spec: DGSpec, u: GradedElement) -> GradedElement:
    """The differential on a homogeneous element; degree rises by 1."""
    check_same_field(spec.field, u.field)
    blocks = _blocks(spec)
    out = {}
    get = out.get
    for m, coeff in u.terms.items():
        for mono, x in _d_monomial(blocks, m):
            y = get(mono)
            out[mono] = coeff * x if y is None else y + coeff * x
    return GradedElement(spec.field, u.degree + 1, normalized(spec.field, out))


def d_columns(spec: DGSpec, deg: int):
    """Sparse columns of d on degree `deg`: column j is d of the j-th basis
    monomial as {row index in degree deg+1: nonzero scalar}."""
    if deg < 0:
        raise ValueError("degree must be >= 0")
    blocks = _blocks(spec)
    idx = basis_index(deg + 1)
    return [normalized(spec.field, {idx[mono]: x for mono, x in _d_monomial(blocks, m)})
            for m in degree_basis(deg)]


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


@dataclass
class DGCheckReport:
    """Outcome of the structural checks; failures carry rendered witnesses."""

    max_degree: int
    square_zero_ok: bool = True
    leibniz_ok: bool = True
    relations_ok: bool = True
    failures: list = dataclass_field(default_factory=list)

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

    for deg in range(max_degree):
        for m in degree_basis(deg):
            u = GradedElement.monomial(F, m)
            ddu = d(spec, d(spec, u))
            if not ddu.is_zero():
                report.square_zero_ok = False
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
