"""Degreewise cohomology of the differential: dimensions, representative
bases, class membership and products of classes.

`cohomology()` is the skew instance of `complexes.CochainComplex`: C^deg is
A^deg on its monomial basis and d^deg is `d_columns`.  A degree's
representatives, the complex's `classes` in reduced echelon form, are built
on first read by `CohomologyReport.basis`, which `class_of`, `class_product`,
`bases` and `to_json` go through, and must be cocycles of `d` itself;
reports are byte-identical whatever order the degrees are built in.  Both
cocycle tests, of the representatives and of a `class_of` input, run the
differential's kernel on the sparse vectors and test its sums for zero
(exactly over Q, mod p over F_p), without building d(z) as an element.
An element is its position vector, so `class_of` hands its input to the
spans as it is, and each representative, and a class's representative, is
the row or residue a `RowSpan` hands back, whose scalars are in normal form
already; the basis layout stays behind `skew` and `dg`.
"""

from __future__ import annotations

from .complexes import CochainComplex
from .dg import DGSpec, _d_kills, d_columns
from .errors import BoundInsufficientError
from .fields import check_same_field
from .skew import GradedElement, degree_dim


class CohomologyClass:
    """A class of degree `degree`: its canonical representative and its
    coordinates on the report's basis of that degree.  Equal when of equal
    degree, representative and coordinates."""

    def __init__(self, degree: int, representative: GradedElement, coordinates: tuple):
        self.degree = degree
        self.representative = representative
        self.coordinates = coordinates

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.degree, self.representative, self.coordinates)
                == (other.degree, other.representative, other.coordinates))

    @property
    def is_zero(self) -> bool:
        return not any(self.coordinates)


class CohomologyReport:
    def __init__(self, spec: DGSpec, max_degree: int, dims: list, cocycle_ranks: list,
                 coboundary_ranks: list, _complex: CochainComplex, _bases: dict | None = None):
        self.spec = spec
        self.max_degree = max_degree
        self.dims = dims
        self.cocycle_ranks = cocycle_ranks
        self.coboundary_ranks = coboundary_ranks
        self._complex = _complex
        # degree -> its representatives, once read
        self._bases = {} if _bases is None else _bases

    @property
    def bases(self) -> list:
        """Per degree, the list of GradedElement representatives; builds
        every degree on first read."""
        degrees = range(self.max_degree + 1)
        if len(self._bases) < len(degrees):
            for deg in degrees:
                self.basis(deg)
        return [self._bases[deg] for deg in degrees]

    def basis(self, n: int) -> list:
        """The GradedElement representatives of degree n, the complex's
        `classes(n)` in reduced echelon order; built on first use and
        stored, read-only to callers."""
        if n > self.max_degree:
            raise BoundInsufficientError("a basis", n, self.max_degree)
        built = self._bases.get(n)
        if built is None:
            rows = self._complex.classes(n).rows_sparse()
            # with the boundaries they span the kernel of the eliminated
            # rows, so a kernel larger than Z^n (an elimination that lost a
            # row) leaves one of them outside Z^n; d itself decides
            if not _d_kills(self.spec, n, rows):
                raise AssertionError(f"degree {n}: a representative is not a cocycle")
            built = [GradedElement(self.spec.field, n, row) for row in rows]
            self._bases[n] = built
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
        if not _d_kills(self.spec, deg, (z.vec,)):
            return None
        residue = self._complex.boundaries(deg).reduce(z.vec)
        self.basis(deg)     # the representatives pass d before their span is read
        coeffs = self._complex.classes(deg).express(residue)
        if coeffs is None:
            raise AssertionError("cocycle outside boundary+representative span")
        # the residue is the combination coeffs of the representatives
        return CohomologyClass(deg, GradedElement(self.spec.field, deg, residue), tuple(coeffs))

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

    Up front, one elimination of each d_deg, deg <= max_degree, gives
    `cocycle_ranks`, `coboundary_ranks` and `dims`; each degree's `bases`
    entry is built on first use.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    cx = CochainComplex(spec.field, degree_dim, lambda deg, skip: d_columns(spec, deg, skip))
    degrees = range(max_degree + 1)
    return CohomologyReport(spec, max_degree, [cx.dim(deg) for deg in degrees],
                            [degree_dim(deg) - cx.rank(deg) for deg in degrees],
                            [cx.boundaries(deg).dim for deg in degrees], cx)
