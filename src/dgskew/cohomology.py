"""Degreewise cohomology of the differential: dimensions, representative
bases, class membership and products of classes.

Representatives are chosen deterministically: the reduced-echelon kernel
basis of d is projected off the boundary space and re-echelonized, so two
runs on the same input produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .dg import DGSpec, d, d_columns
from .errors import DegreeOverflowError
from .fields import check_same_field, normalized
from .linalg import RowSpan, columns_to_rows
from .skew import GradedElement, basis_index, degree_basis, degree_dim


@dataclass
class CohomologyClass:
    degree: int
    representative: GradedElement
    coordinates: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.coordinates)


@dataclass
class CohomologyReport:
    spec: DGSpec
    max_degree: int
    dims: list
    cocycle_ranks: list
    coboundary_ranks: list
    bases: list  # per degree, list of GradedElement representatives
    _boundaries: list = dataclass_field(default_factory=list, repr=False)
    _reps: list = dataclass_field(default_factory=list, repr=False)

    def class_of(self, z: GradedElement) -> CohomologyClass | None:
        """The class of a cocycle; None when z is not a cocycle.

        The zero class has all-zero coordinates.  The stored representative
        is the canonical combination of the report's basis representatives.
        """
        check_same_field(self.spec.field, z.field)
        deg = z.degree
        if deg > self.max_degree:
            raise DegreeOverflowError(f"degree {deg} beyond computed bound {self.max_degree}")
        if not d(self.spec, z).is_zero():
            return None
        F = self.spec.field
        idx = basis_index(deg)
        residue = self._boundaries[deg].reduce({idx[m]: c for m, c in z.terms.items()})
        coeffs = self._reps[deg].express(residue)
        if coeffs is None:
            raise AssertionError("cocycle outside boundary+representative span")
        rep = {}
        for c, basis_rep in zip(coeffs, self.bases[deg]):
            if c:
                for m, x in basis_rep.terms.items():
                    rep[m] = rep.get(m, 0) + c * x
        return CohomologyClass(deg, GradedElement(F, deg, normalized(F, rep)), tuple(coeffs))

    def class_product(self, u: CohomologyClass, v: CohomologyClass) -> CohomologyClass:
        """Class of representative(u) * representative(v)."""
        if u.degree + v.degree > self.max_degree:
            raise DegreeOverflowError(
                f"product degree {u.degree + v.degree} beyond bound {self.max_degree}")
        w = u.representative.mul(v.representative)
        cls = self.class_of(w)
        if cls is None:
            raise AssertionError("product of cocycles is not a cocycle")
        return cls

    def unit_class(self) -> CohomologyClass:
        return self.class_of(GradedElement.monomial(self.spec.field, (0, 0, 0)))

    def to_json(self) -> dict:
        return {
            "field": self.spec.field.name,
            "matrix": self.spec.matrix.to_json(),
            "max_degree": self.max_degree,
            "dims": list(self.dims),
            "cocycle_ranks": list(self.cocycle_ranks),
            "coboundary_ranks": list(self.coboundary_ranks),
            "bases": [[rep.render() for rep in degree] for degree in self.bases],
        }


def cohomology(spec: DGSpec, max_degree: int) -> CohomologyReport:
    """Exact dims and echelonized representative bases for degrees <= bound."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    F = spec.field
    dims, zr, br, bases = [], [], [], []
    boundary_spans, rep_spans = [], []
    prev_cols, prev_pivots = [], []  # d_{deg-1}: sparse columns, pivot columns

    for deg in range(max_degree + 1):
        width = degree_dim(deg)
        # the one elimination of d_deg: its rows, as sparse vectors on A^deg
        cols = d_columns(spec, deg)
        echelon = RowSpan(F, width)
        echelon.extend(columns_to_rows(cols, degree_dim(deg + 1)))
        # the pivot columns of d_{deg-1} are a basis of its image
        boundaries = RowSpan(F, width)
        boundaries.extend(prev_cols[j] for j in prev_pivots)
        z_rank = width - echelon.dim
        b_rank = boundaries.dim

        # representatives: kernel vectors minus their boundary projection,
        # kept in reduced echelon form for canonical output.  The residues of
        # any spanning set of the kernel span the same space, of dimension
        # z_rank - b_rank, so the scan stops once that is reached.
        reps = RowSpan(F, width)
        if z_rank > b_rank:
            for v in echelon.kernel_sparse():
                reps.add(boundaries.reduce(v))
                if reps.dim == z_rank - b_rank:
                    break
        basis = degree_basis(deg)
        basis_elems = [GradedElement(F, deg, {basis[j]: x for j, x in row.items()})
                       for row in reps.rows_sparse()]

        dims.append(z_rank - b_rank)
        zr.append(z_rank)
        br.append(b_rank)
        bases.append(basis_elems)
        boundary_spans.append(boundaries)
        rep_spans.append(reps)
        prev_cols, prev_pivots = cols, echelon.pivots

    report = CohomologyReport(spec, max_degree, dims, zr, br, bases)
    report._boundaries = boundary_spans
    report._reps = rep_spans
    return report
