"""Degreewise cohomology of the differential: dimensions, representative
bases, class membership and products of classes.

`cohomology()` eliminates each d_deg once, as the reduced row echelon form
of its rows, from the top degree down.  That settles the ranks up front:
Z^deg is the kernel of d_deg and B^deg the image of d_(deg-1), whose rank
is the rank of the previous echelon.  Below the top degree the elimination
takes only the rows of d_deg at the free (non-pivot) columns of the echelon
of d_(deg+1), at most dim Z^(deg+1) of them.  That is exact: d_(deg+1) d_deg
= 0 for every M, so each column of d_deg lies in ker d_(deg+1), where a
vector is fixed by its free coordinates.  The kept rows therefore have the
same kernel as all the rows, hence the same row space and, since reduced
echelon forms are unique, the same echelon.

A degree's boundary span and representative basis are built from the
stored echelon of d_deg and pivot columns of d_(deg-1) the first time
something reads them (`class_of`, `class_product` and `bases` or
`to_json`), and the stored elimination is then dropped.  The boundary span
eliminates the columns of d_(deg-1) afresh, so its dimension is checked
against the rank read off the rows: two independent eliminations must
agree.

Representatives are chosen deterministically: the reduced-echelon kernel
basis of d is projected off the boundary space and re-echelonized, so two
runs on the same input produce byte-identical reports, whatever order the
degrees are built in.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .dg import DGSpec, d, d_columns
from .errors import BoundInsufficientError
from .fields import check_same_field, normalized
from .linalg import RowSpan, columns_to_rows
from .skew import GradedElement, basis_position, degree_dim


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
    # per degree until it is built: (echelon of d_deg, pivot columns of d_(deg-1))
    _pending: list = dataclass_field(repr=False, compare=False)
    # per degree once it is built: (boundary span, representative span, basis)
    _built: list = dataclass_field(repr=False, compare=False)

    @property
    def bases(self) -> list:
        """Per degree, the list of GradedElement representatives; builds
        every degree."""
        return [self._degree(deg)[2] for deg in range(self.max_degree + 1)]

    def _degree(self, deg: int):
        """(boundary span, representative span, basis) of one degree, built
        from its stored elimination on first use."""
        built = self._built[deg]
        if built is not None:
            return built
        F = self.spec.field
        width = degree_dim(deg)
        echelon, image = self._pending[deg]
        z_rank, b_rank = self.cocycle_ranks[deg], self.coboundary_ranks[deg]
        boundaries = RowSpan(F, width)
        boundaries.extend(image)
        if boundaries.dim != b_rank:
            raise AssertionError(
                f"degree {deg}: boundary span of dim {boundaries.dim}, rank of d_{deg - 1} {b_rank}")

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
        basis_elems = [GradedElement.from_sparse(F, deg, row) for row in reps.rows_sparse()]
        # with the boundaries they span the kernel of the echelon, so a
        # kernel larger than Z^deg (an elimination that lost a row) leaves
        # one of them outside Z^deg; d itself decides
        if not all(d(self.spec, u).is_zero() for u in basis_elems):
            raise AssertionError(f"degree {deg}: a representative is not a cocycle")
        built = self._built[deg] = (boundaries, reps, basis_elems)
        self._pending[deg] = None
        return built

    def class_of(self, z: GradedElement) -> CohomologyClass | None:
        """The class of a cocycle; None when z is not a cocycle.

        The zero class has all-zero coordinates.  The stored representative
        is the canonical combination of the report's basis representatives.
        """
        check_same_field(self.spec.field, z.field)
        deg = z.degree
        if deg < 0:
            raise ValueError(f"degree {deg} is negative")
        if deg > self.max_degree:
            raise BoundInsufficientError("a class", deg, self.max_degree)
        if not d(self.spec, z).is_zero():
            return None
        F = self.spec.field
        boundaries, reps, basis_elems = self._degree(deg)
        residue = boundaries.reduce({basis_position(m): c for m, c in z.terms.items()})
        coeffs = reps.express(residue)
        if coeffs is None:
            raise AssertionError("cocycle outside boundary+representative span")
        rep = {}
        for c, basis_rep in zip(coeffs, basis_elems):
            if c:
                for m, x in basis_rep.terms.items():
                    rep[m] = rep.get(m, 0) + c * x
        return CohomologyClass(deg, GradedElement(F, deg, normalized(F, rep)), tuple(coeffs))

    def class_product(self, u: CohomologyClass, v: CohomologyClass) -> CohomologyClass:
        """Class of representative(u) * representative(v)."""
        if u.degree + v.degree > self.max_degree:
            raise BoundInsufficientError("a product", u.degree + v.degree, self.max_degree)
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
    """Exact dims and echelonized representative bases for degrees <= bound.

    Up front, one elimination of each d_deg, from the top degree down and
    on the rows at the free columns of d_(deg+1)'s echelon, gives
    `cocycle_ranks`, `coboundary_ranks` (the rank of d_(deg-1): column rank
    equals row rank) and `dims`.  Each degree's boundary span and `bases`
    entry are built on first use; building one raises AssertionError unless
    the span's dimension, from a second elimination of d_(deg-1), equals
    that rank.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    F = spec.field
    echelons = [None] * (max_degree + 1)
    # per degree, the pivot columns of d_(deg-1): a basis of its image
    images = [[] for _ in range(max_degree + 2)]
    free = None  # non-pivot columns of the echelon of d_(deg+1); None at the top

    for deg in range(max_degree, -1, -1):
        # the one elimination of d_deg, on its rows at `free`: its columns lie
        # in ker d_(deg+1), where a vector is fixed by its free coordinates,
        # so those rows have the full kernel and hence the full echelon
        cols = d_columns(spec, deg)
        rows = columns_to_rows(cols, degree_dim(deg + 1))
        echelon = RowSpan(F, degree_dim(deg))
        echelon.extend(rows if free is None else (rows[f] for f in free))
        echelons[deg] = echelon
        images[deg + 1] = [cols[j] for j in echelon.pivots]
        free = echelon.free

    zr = [e.width - e.dim for e in echelons]
    br = [0] + [e.dim for e in echelons[:-1]]
    return CohomologyReport(spec, max_degree, [z - b for z, b in zip(zr, br)], zr, br,
                            list(zip(echelons, images)), [None] * (max_degree + 1))
