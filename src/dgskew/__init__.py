"""dgskew: exact cohomology of matrix differentials on the three-variable
skew polynomial algebra, rank-based classification of the cohomology rings,
and truncated-resolution Gorenstein certificates."""

from .classify import (Classification, case_presentation, classify, crosscheck,
                       cubic_cocycle_rank, normalize_rank_one, predicted_dims,
                       predicted_vs_certified, squares_ideal_analysis)
from .cohomology import CohomologyClass, CohomologyReport, cohomology
from .dg import DGSpec, d, d_generator, d_matrix, verify_dg
from .errors import BoundInsufficientError
from .fields import CANDIDATE_PRIMES, QQ, FieldMismatchError, PrimeField, field_from_name
from .linalg import Matrix, RowSpan
from .presentations import (AlgebraPresentation, Generator, TruncatedAlgebra,
                            parse_presentation, truncate)
from .resolution import (ExtTable, GorensteinVerdict, ResolutionReport,
                         ext_against_algebra, gorenstein_certificate, minimal_resolution)
from .skew import (GradedElement, Monomial, degree_basis, generators,
                   mul_monomials, parse_element)
from .transform import apply_transform, invariance_check

__all__ = [
    "AlgebraPresentation", "BoundInsufficientError", "CANDIDATE_PRIMES",
    "Classification", "CohomologyClass", "CohomologyReport", "DGSpec",
    "ExtTable", "FieldMismatchError", "Generator",
    "GorensteinVerdict", "GradedElement", "Matrix", "Monomial", "PrimeField",
    "QQ", "ResolutionReport", "RowSpan", "TruncatedAlgebra", "apply_transform",
    "case_presentation", "classify", "cohomology", "crosscheck",
    "cubic_cocycle_rank", "d", "d_generator", "d_matrix", "degree_basis",
    "ext_against_algebra", "field_from_name", "generators",
    "gorenstein_certificate", "invariance_check", "minimal_resolution",
    "mul_monomials", "normalize_rank_one", "parse_element", "parse_presentation",
    "predicted_dims", "predicted_vs_certified", "squares_ideal_analysis",
    "truncate", "verify_dg",
]
