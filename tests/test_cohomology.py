import hashlib
import json
import random
from itertools import product
from math import comb

import pytest

import dgskew
from dgskew import complexes
from dgskew.cohomology import cohomology
from dgskew.dg import DGSpec, d, d_columns
from dgskew.errors import BoundInsufficientError
from dgskew.fields import QQ, PrimeField
from dgskew.linalg import Matrix, RowSpan, columns_to_rows
from dgskew.sampling import random_rank_two
from dgskew.skew import GradedElement, Monomial, degree_basis, degree_dim, parse_element
from test_complexes import recording_kernels


def report_of(rows, bound=6):
    return cohomology(DGSpec(QQ, Matrix.from_rows(QQ, rows)), bound)


def test_identity_matrix_collapses():
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 8)
    assert rep.dims == [1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_zero_matrix_gives_the_whole_algebra():
    rep = report_of([[0] * 3] * 3, 4)
    assert rep.dims == [1, 3, 6, 10, 15]


def test_rank_one_dims_grow_linearly():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]], 6)
    assert rep.dims == [1, 2, 3, 4, 5, 6, 7]


def test_rank_bookkeeping():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]], 6)
    for d in range(7):
        assert rep.dims[d] == rep.cocycle_ranks[d] - rep.coboundary_ranks[d]
        if d < 6:
            # dim A^d = dim Z^d + rank of the outgoing differential
            assert degree_dim(d) == rep.cocycle_ranks[d] + rep.coboundary_ranks[d + 1]
    assert rep.dims[0] == 1  # connectedness


def test_class_of_coboundary_is_zero_class():
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cls = rep.class_of(GradedElement.monomial(QQ, Monomial(2, 0, 0)))
    assert cls is not None and cls.is_zero


def test_class_of_non_cocycle_is_none():
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rep.class_of(parse_element(QQ, "x1 x2")) is None


def test_class_of_zero_normal_form():
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z = parse_element(QQ, "x1 x2").add(parse_element(QQ, "-x1 x2"))
    cls = rep.class_of(z)
    assert cls is not None and cls.is_zero


def test_rank_two_generator_spans_h1():
    M = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    rep = report_of(M)
    cls = rep.class_of(parse_element(QQ, "x3"))
    assert cls is not None and not cls.is_zero
    assert rep.dims[1] == 1


def test_square_probe_both_branches():
    # pairing nonzero: the degree-1 class squares to a nonzero class
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 6)
    xi = rep.class_of(parse_element(QQ, "x3"))
    assert not rep.class_product(xi, xi).is_zero
    # pairing zero: the square dies but the degree-2 kernel class survives
    rep0 = report_of([[1, 0, 0], [0, 0, 1], [0, 0, 0]], 6)
    xi0 = rep0.class_of(parse_element(QQ, "x3"))
    assert rep0.class_product(xi0, xi0).is_zero
    eta = rep0.class_of(parse_element(QQ, "x2^2"))
    assert eta is not None and not eta.is_zero


def test_unit_class_is_neutral():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    one = rep.unit_class()
    xi = rep.class_of(parse_element(QQ, "x1 - x2"))
    prod = rep.class_product(one, xi)
    assert prod.coordinates == xi.coordinates


def test_class_product_associative_on_samples():
    rep = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 6)
    xi = rep.class_of(parse_element(QQ, "x3"))
    sq = rep.class_product(xi, xi)
    left = rep.class_product(sq, xi)
    right = rep.class_product(xi, sq)
    assert left.coordinates == right.coordinates


def test_degree_overflow():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]], 3)
    xi = rep.class_of(parse_element(QQ, "x1 - x2"))
    sq = rep.class_product(xi, xi)
    with pytest.raises(BoundInsufficientError):
        rep.class_product(sq, sq)


def test_rank_one_h1_basis_is_two_dimensional():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    xi = rep.class_of(parse_element(QQ, "x1 - x2"))
    eta = rep.class_of(parse_element(QQ, "x1 - x3"))
    assert not xi.is_zero and not eta.is_zero
    assert xi.coordinates != eta.coordinates


def test_kernel_square_class_powers_stay_nonzero():
    # pairing-zero branch: powers of the degree-2 class survive to the bound
    rep = report_of([[1, 0, 0], [0, 0, 1], [0, 0, 0]], 8)
    s_class = rep.class_of(parse_element(QQ, "x2^2"))
    power = s_class
    for _ in range(3):
        power = rep.class_product(power, s_class)
        assert not power.is_zero


def test_report_json_is_deterministic():
    a = json.dumps(report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]]).to_json(), sort_keys=True)
    b = json.dumps(report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]]).to_json(), sort_keys=True)
    assert a == b


def test_random_rank_two_dims_all_one():
    rng = random.Random(3)
    for _ in range(3):
        M = random_rank_two(QQ, rng)
        rep = cohomology(DGSpec(QQ, M), 5)
        assert rep.dims == [1] * 6


def test_dims_agree_between_q_and_large_prime():
    # the same integer matrix run through both scalar backends
    from dgskew.fields import CANDIDATE_PRIMES, PrimeField
    fp = PrimeField(CANDIDATE_PRIMES[1])
    rng = random.Random(4)
    for _ in range(3):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        dq = cohomology(DGSpec(QQ, Matrix.from_rows(QQ, rows)), 5).dims
        dp = cohomology(DGSpec(fp, Matrix.from_rows(fp, rows)), 5).dims
        assert dq == dp


def test_degree_overflow_is_the_package_error():
    rep = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]], 3)
    xi = rep.class_of(parse_element(QQ, "x1 - x2"))
    sq = rep.class_product(xi, xi)
    with pytest.raises(dgskew.BoundInsufficientError):
        rep.class_of(parse_element(QQ, "x1^4"))
    with pytest.raises(dgskew.BoundInsufficientError):
        rep.class_product(sq, sq)


# one matrix per rank, every entry nonzero except for rank 0
RANK_MATRICES = {
    0: [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    1: [[2, -1, 3], [4, -2, 6], [-2, 1, -3]],
    2: [[1, -2, 3], [2, 1, -1], [4, -3, 5]],
    3: [[2, -1, 3], [1, 3, -2], [-3, 2, 1]],
}

# non-integral entries, so that the pins below also see denominators; the
# third row of the rank-2 matrix is 2/7 times the first minus 5/3 times the
# second
RATIONAL_MATRICES = {
    "rational-2": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"], ["-67/21", "-11/21", "53/21"]],
    "rational-3": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"], ["-3/7", "2", "1"]],
}

# sha256 of the indented, key-sorted JSON of cohomology(spec, 10), as the
# dense elimination produced it (the rational ones as the sparse `Fraction`
# elimination produced them); reduced echelon forms are unique, so any exact
# elimination must reproduce these bytes
REPORT_DIGESTS = {
    ("Q", 0): "46c6d066c2f253b5a6be707648e916c531381e5862ade7e1e8e714348dc87cf5",
    ("Q", 1): "8dcca86a33145e9280be87b1cb6dd5787a86ec228a2f212ef3a41d12902b20b8",
    ("Q", 2): "ccf6a728802236af38af1f65c6bbafc68ff32670538acf91a564d86bc08dc207",
    ("Q", 3): "a224e048c4ce521c65f72facf79561a61359e72abeeacff18f198dd2fe66a647",
    ("Q", "rational-2"): "114c473c47e912d4307e613f09fac16895953d5f4cd752bfb4f2133d86bfd55d",
    ("Q", "rational-3"): "9fd476d5cce443459769a0938e258d55e5bdc4bb06d23879aa0c68429fa599de",
    ("Fp:2147483659", 0): "9ea45911c40521a5da9aa5ce74301cb6023a4dd1d114b3c48fb0e709117fc923",
    ("Fp:2147483659", 1): "9d7ab0962d7b5d7fc5457ce01a64f1318e043d556bf5351fd4a143dd32992b8d",
    ("Fp:2147483659", 2): "dd661a08c34c8ab21cf94162d7df9bbb028814a9d933a2cbb7c74f422581fbbe",
    ("Fp:2147483659", 3): "299cfcee843e7defc0dc473acbb79e861e9e634c3fde2201810766799393c20b",
}


@pytest.mark.parametrize("field_name,matrix", sorted(REPORT_DIGESTS, key=str))
def test_report_bytes_are_pinned(field_name, matrix):
    F = dgskew.field_from_name(field_name)
    rows = {**RANK_MATRICES, **RATIONAL_MATRICES}[matrix]
    report = cohomology(DGSpec.from_rows(F, rows), 10)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[(field_name, matrix)]


@pytest.mark.parametrize("F,top", [(QQ, 32), (PrimeField(2147483659), 32)], ids=["Q", "Fp"])
@pytest.mark.parametrize("rank", [2, 3])
def test_dims_follow_the_koszul_closed_form(F, top, rank):
    # (A, d) is the Koszul complex of three linear forms in the central
    # squares, so dim H^n is the t^n coefficient of (1 - t)^-(3 - rank M)
    k = 3 - rank
    want = [comb(n + k - 1, k - 1) if k else int(n == 0) for n in range(top + 1)]
    assert cohomology(DGSpec.from_rows(F, RANK_MATRICES[rank]), top).dims == want


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
@pytest.mark.parametrize("rank", sorted(RANK_MATRICES))
def test_one_elimination_per_differential_in_any_order(monkeypatch, field_name, rank):
    made = []

    class CountingRowSpan(RowSpan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(complexes, "RowSpan", CountingRowSpan)
    F = dgskew.field_from_name(field_name)
    spec = DGSpec.from_rows(F, RANK_MATRICES[rank])
    top = 7
    fresh = cohomology(spec, top)
    want = json.dumps(fresh.to_json(), indent=2, sort_keys=True)
    made.clear()
    report = cohomology(spec, top)
    assert report.dims == fresh.dims
    # B^0 = 0, then one column elimination of each d_deg, deg <= top
    assert len(made) == top + 2
    assert made == report._complex._boundaries

    # per degree, the sum of the basis representatives plus a boundary
    rng = random.Random(rank)
    built = set()
    degrees = list(range(top + 1))
    rng.shuffle(degrees)
    for k in degrees:
        z = GradedElement.zero(F, k) if k else GradedElement.monomial(F, Monomial(0, 0, 0))
        for rep in fresh.bases[k]:
            z = z.add(rep)
        if k:
            z = z.add(d(spec, GradedElement.from_terms(
                F, k - 1, [(m, rng.randint(-3, 3)) for m in degree_basis(k - 1)])))
        # a class query builds the classes of every degree up to its own
        # that is not built yet: one row elimination and one span each
        new = sum(1 for deg in range(k + 1) if deg not in built)
        built.update(range(k + 1))
        before = len(made)
        got = report.class_of(z)
        assert len(made) - before == 2 * new
        assert got == fresh.class_of(z)
        assert report.class_of(z) == got and len(made) - before == 2 * new
    assert json.dumps(report.to_json(), indent=2, sort_keys=True) == want
    assert len(made) == top + 2 + 2 * (top + 1)


def _full_row_echelon(F, spec, deg):
    echelon = RowSpan(F, degree_dim(deg))
    echelon.extend(columns_to_rows(d_columns(spec, deg), range(degree_dim(deg + 1))))
    return echelon


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
@pytest.mark.parametrize("rank", sorted(RANK_MATRICES))
def test_stored_echelons_match_a_full_row_elimination(field_name, rank):
    # the complex eliminates the columns of d_deg off the pivots of B^deg,
    # and its kernels on the rows of d_deg at the pivots of B^(deg+1) only;
    # the elimination of all its columns, and of all its rows, must agree.
    # The classes' kernel, eliminated with those columns indexed last-first,
    # is their reduced echelon as it comes, in descending order of pivot
    F = dgskew.field_from_name(field_name)
    spec = DGSpec.from_rows(F, RANK_MATRICES[rank])
    top = 8
    report = cohomology(spec, top)
    cx = report._complex
    handed = recording_kernels(cx)
    for deg in range(top + 1):
        image = RowSpan(F, degree_dim(deg + 1))
        image.extend(d_columns(spec, deg))
        assert cx.boundaries(deg + 1).rows_sparse() == image.rows_sparse(), deg
        full = _full_row_echelon(F, spec, deg)
        assert cx.cocycles(deg) == full.kernel_sparse(), deg
        # the classes: the reduced residues of the full kernel modulo B^deg
        residues = RowSpan(F, degree_dim(deg))
        residues.extend(cx.boundaries(deg).reduce(v) for v in full.kernel_sparse())
        assert cx.classes(deg).rows_sparse() == residues.rows_sparse(), deg
        kept, last_first = handed[deg]
        skip = cx.boundaries(deg).pivots
        assert kept == [j for j in reversed(range(degree_dim(deg))) if j not in skip], deg
        assert cx.classes(deg).rows_sparse() == last_first[::-1], deg


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
@pytest.mark.parametrize("rank", sorted(RANK_MATRICES))
def test_elimination_of_d_receives_at_most_the_next_cocycle_rank_rows(monkeypatch,
                                                                      field_name, rank):
    received = []

    class CountingRowSpan(RowSpan):
        def extend(self, vectors):
            vectors = list(vectors)
            received.append((self.width, len(vectors)))
            super().extend(vectors)

    monkeypatch.setattr(complexes, "RowSpan", CountingRowSpan)
    F = dgskew.field_from_name(field_name)
    top = 8
    report = cohomology(DGSpec.from_rows(F, RANK_MATRICES[rank]), top)
    br = report.coboundary_ranks
    # up front: the columns of each d_deg off the pivots of B^deg
    assert received == [(degree_dim(deg + 1), degree_dim(deg) - br[deg])
                        for deg in range(top + 1)]
    for deg in range(top):
        # a kernel of d_deg: its rank-many rows at the pivots of B^(deg+1)
        received.clear()
        report._complex.cocycles(deg)
        assert received == ([(degree_dim(deg), br[deg + 1])] if br[deg + 1] else []), deg
        assert br[deg + 1] <= report.cocycle_ranks[deg + 1], deg


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
@pytest.mark.parametrize("rank", sorted(RANK_MATRICES))
def test_boundary_spans_are_never_back_substituted(monkeypatch, field_name, rank):
    # B^n is read for its pivots, its dim and residues, which its forward
    # echelon gives as it stands: a full pass with class queries must never
    # reduce it, while the kernel eliminations, whose rows are read, may be
    reads = []
    back_substitute = RowSpan._back_substitute

    def counting(span):
        reads.append((span, span._reduced))
        back_substitute(span)

    monkeypatch.setattr(RowSpan, "_back_substitute", counting)
    F = dgskew.field_from_name(field_name)
    spec = DGSpec.from_rows(F, RANK_MATRICES[rank])
    top = 14
    report = cohomology(spec, top)
    bases = report.bases
    rng = random.Random(rank)
    classes = []
    for n in range(1, top + 1):
        # a coboundary plus every representative of the degree
        u = GradedElement.from_terms(F, n - 1, [(m, rng.randint(-3, 3))
                                                for m in degree_basis(n - 1)])
        z = d(spec, u)
        for rep in bases[n]:
            z = z.add(rep)
        cls = report.class_of(z)
        assert cls.coordinates == (1,) * len(bases[n]), n
        classes.append(cls)
    for u, v in product(classes[:4], repeat=2):
        assert report.class_product(u, v).degree == u.degree + v.degree
    boundaries = report._complex._boundaries
    assert len(boundaries) == top + 2
    assert not [n for n, b in enumerate(boundaries) for span, _ in reads if span is b]
    # the boundary spans stay forward echelons: some tail holds a pivot
    forward = [n for n, b in enumerate(boundaries)
               if any(q in tail for tail in b._rows.values() for q in b.pivots)]
    assert bool(forward) == (rank > 0)
    assert any(not reduced for _, reduced in reads) == (rank > 0)


def test_an_elimination_that_lost_a_row_is_caught(monkeypatch):
    # empty the first nonzero row of d_2, which sits at the first pivot of
    # B^3: the rows of d_2 at those pivots then fall short of its column
    # rank.  Over rank 1 the classes of degree 2 are not empty: the check
    # fires on the last-first elimination before any of them is served.
    # The kernel asks for the rows at B^3's pivots; the double counts the
    # calls it empties, so a double that never fires fails on that count
    full = complexes.columns_to_rows
    b3_pivots = []
    emptied = []

    def lossy(columns, indices):
        out = full(columns, indices)
        if list(indices) == b3_pivots[-1]:
            out[0] = {}
            emptied.append(len(b3_pivots))
        return out

    monkeypatch.setattr(complexes, "columns_to_rows", lossy)
    for field_name, (rank, dims, dim_b3) in product(("Q", "Fp:2147483659"),
                                                    [(3, [1, 0, 0, 0, 0], 3),
                                                     (1, [1, 2, 3, 4, 5], 2)]):
        F = dgskew.field_from_name(field_name)
        report = cohomology(DGSpec.from_rows(F, RANK_MATRICES[rank]), 4)
        b3_pivots.append(list(report._complex.boundaries(3).pivots))
        assert report.dims == dims
        assert report.unit_class().coordinates == (1,)
        with pytest.raises(AssertionError, match=rf"degree 2: the rows of d\^2 at the pivots "
                                                 rf"of B\^3 have rank {dim_b3 - 1}, its columns "
                                                 rf"{dim_b3}$"):
            report.to_json()
        assert emptied == list(range(1, len(b3_pivots) + 1))


def test_class_of_rejects_a_negative_degree():
    report = report_of([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 4)
    with pytest.raises(ValueError, match="degree -1 is negative"):
        report.class_of(GradedElement.zero(QQ, -1))
    report = report_of([[1, 2, 3], [0, 1, 4], [5, 6, 0]], 3)
    with pytest.raises(ValueError, match="degree -1 is negative"):
        report.class_of(GradedElement.zero(QQ, -1))
    # the top degree's stored data is untouched
    assert report._bases == {}
    assert report.class_of(GradedElement.zero(QQ, 3)).is_zero


def test_a_basis_read_stores_only_its_degree():
    report = report_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]], 6)
    basis = report.basis(3)
    assert len(basis) == report.dims[3] == 4
    assert report._bases == {3: basis}
    assert report.bases[3] is basis
    assert sorted(report._bases) == list(range(7))
    with pytest.raises(BoundInsufficientError, match="a basis needs degree 7, beyond bound 6"):
        report.basis(7)
    with pytest.raises(ValueError, match="degree -1 is negative"):
        report.basis(-1)


def _short_of_its_last_row(cx, n):
    span = cx.boundaries(n)
    lost = RowSpan(span.field, span.width)
    lost.extend(span.rows_sparse()[:-1])
    cx._boundaries[n] = lost


def test_boundary_span_is_checked_against_the_rank():
    # a stored B^3 that lost a row: the classes of degree 3, the cocycles
    # vanishing at its pivots, would then hold a coboundary, which d does
    # not see.  They are built after those of degree 2, whose kernel, on
    # the rows of d_2 at B^3's pivots, is then larger than Z^2: d_2 itself
    # refuses it before degree 3 is served
    spec = DGSpec.from_rows(QQ, RANK_MATRICES[1])
    report = cohomology(spec, 4)
    _short_of_its_last_row(report._complex, 3)
    with pytest.raises(AssertionError, match=r"degree 2: d\^2 does not kill the kernel"):
        report.class_of(d(spec, parse_element(QQ, "x1 x2")))


def test_boundary_span_above_the_queried_degree_is_checked():
    # a stored B^4 that lost a row: the kernel of d_3 on the rows at its
    # pivots then holds a vector outside Z^3, and the representatives of
    # degree 3 must be refused
    spec = DGSpec.from_rows(QQ, RANK_MATRICES[1])
    report = cohomology(spec, 4)
    _short_of_its_last_row(report._complex, 4)
    with pytest.raises(AssertionError, match=r"degree 3: d\^3 does not kill the kernel"):
        report.class_of(d(spec, parse_element(QQ, "x1 x2")))


def _spoiled_classes(F, n, spoil):
    """A rank-1 report to degree 4 whose kernel basis for the classes of
    degree n is passed through spoil, and the representatives of a report
    left as it is."""
    spec = DGSpec.from_rows(F, [[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    report = cohomology(spec, 4)
    cx = report._complex
    kernel = cx._kernel

    def spoiled(k, kept, columns):
        vectors = kernel(k, kept, columns)
        return spoil(vectors) if k == n else vectors

    cx._kernel = spoiled
    return report, cohomology(spec, 4).basis(n)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_a_class_span_that_lost_a_vector_is_caught_by_class_of(F):
    # the classes of degree 2 short of one vector still pass d; the
    # missing representative then lies outside the boundaries plus the
    # representatives, and class_of refuses it
    report, reps = _spoiled_classes(F, 2, lambda vectors: vectors[1:])
    assert len(report.basis(2)) == len(reps) - 1
    with pytest.raises(AssertionError, match="cocycle outside boundary\\+representative span"):
        for rep in reps:
            report.class_of(rep)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_representatives_that_are_not_cocycles_are_caught(F):
    # each kernel vector cut down to its first coordinate: still a reduced
    # echelon basis, which the class span stores as it is, but d refuses
    # the representatives
    def units(vectors):
        assert any(len(v) > 1 for v in vectors)
        return [{min(v): F.one} for v in vectors]

    report, _ = _spoiled_classes(F, 2, units)
    with pytest.raises(AssertionError, match="^degree 2: a representative is not a cocycle$"):
        report.basis(2)
