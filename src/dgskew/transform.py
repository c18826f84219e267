"""The matrix action N = C^-1 M (c_ij^2) for monomial matrices C, and
cohomological-invariance checking.

Monomial (generalized permutation) matrices are exactly the linear
substitutions preserving the pairwise anticommutation of the three degree-1
generators, so the action moves one defining matrix to another with an
isomorphic differential structure.  Whether a larger substitution group
acts is not modeled here; the checker is sound for this subgroup.
"""

from __future__ import annotations

from .classify import classify
from .cohomology import cohomology
from .dg import DGSpec
from .fields import check_same_field
from .linalg import Matrix


def validate_monomial(C: Matrix) -> None:
    """Require exactly one nonzero entry per row and per column."""
    if (C.nrows, C.ncols) != (3, 3):
        raise ValueError("transform matrix must be 3x3")
    bad = []
    for i in range(3):
        nz = [j for j in range(3) if C[i, j]]
        if len(nz) != 1:
            bad.append(f"row {i + 1} has {len(nz)} nonzero entries")
    for j in range(3):
        nz = [i for i in range(3) if C[i, j]]
        if len(nz) != 1:
            bad.append(f"column {j + 1} has {len(nz)} nonzero entries")
    if bad:
        raise ValueError("not a monomial matrix: " + "; ".join(bad))


def entrywise_square(C: Matrix) -> Matrix:
    return Matrix.from_rows(C.field, [[x * x for x in row] for row in C.entries])


def permutation_matrix(field, perm) -> Matrix:
    """0/1 monomial matrix with row i supported at column perm[i] (0-based)."""
    rows = [[field.one if j == perm[i] else field.zero for j in range(3)]
            for i in range(3)]
    return Matrix.from_rows(field, rows)


def apply_transform(C: Matrix, M: Matrix) -> Matrix:
    """N = C^-1 * M * (entrywise square of C); C must be monomial."""
    check_same_field(C.field, M.field)
    validate_monomial(C)
    return C.inverse().mul(M).mul(entrywise_square(C))


class InvarianceReport:
    def __init__(self, matrix: Matrix, transformed: Matrix, dims_before: list, dims_after: list,
                 rank_before: int, rank_after: int, verdict_before: str, verdict_after: str,
                 falsifications: list):
        self.matrix = matrix
        self.transformed = transformed
        self.dims_before = dims_before
        self.dims_after = dims_after
        self.rank_before = rank_before
        self.rank_after = rank_after
        self.verdict_before = verdict_before
        self.verdict_after = verdict_after
        self.falsifications = falsifications

    @property
    def ok(self) -> bool:
        return not self.falsifications

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "transformed": self.transformed.to_json(),
            "dims_before": self.dims_before,
            "dims_after": self.dims_after,
            "rank": [self.rank_before, self.rank_after],
            "gorenstein": [self.verdict_before, self.verdict_after],
            "ok": self.ok,
            "falsifications": self.falsifications,
        }


def invariance_check(M: Matrix, C: Matrix, max_degree: int = 8) -> InvarianceReport:
    """Cohomology dims, rank and Gorenstein verdict must agree between M and
    its transform; disagreements come back as falsifications, not raises."""
    F = M.field
    N = apply_transform(C, M)
    dims_m = cohomology(DGSpec(F, M), max_degree).dims
    dims_n = cohomology(DGSpec(F, N), max_degree).dims
    cm, cn = classify(M), classify(N)
    falsifications = []
    if dims_m != dims_n:
        falsifications.append(f"dims differ: {dims_m} vs {dims_n}")
    if cm.rank != cn.rank:
        falsifications.append(f"rank differs: {cm.rank} vs {cn.rank}")
    if cm.predicted_gorenstein != cn.predicted_gorenstein:
        falsifications.append(
            f"verdict differs: {cm.predicted_gorenstein} vs {cn.predicted_gorenstein}")
    return InvarianceReport(M, N, dims_m, dims_n, cm.rank, cn.rank,
                            cm.predicted_gorenstein, cn.predicted_gorenstein,
                            falsifications)
