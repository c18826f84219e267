"""The cochain-complex engine on random complexes with known ranks.

Each map is d^n = P_(n+1) D_n P_n^-1: D_n is a 0/1 standard form that
sends the r_n unit vectors after the first r_(n-1) of C^n to the first r_n
of C^(n+1), so D_(n+1) D_n = 0, and P_n is a random invertible matrix.
rank d^n = r_n and dim H^n = dim C^n - r_(n-1) - r_n are then known.

The engine's two instances, the skew cohomology and the dual of a minimal
resolution, are checked for a negative degree and for the column requests
a full read of their classes makes.  Complexes that share a store of
boundary spaces are checked against the same complexes without one, and a
stored span of the wrong shape must be refused.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_inverse, dense_kernel, span_echelon, span_reduce

from dgskew.cohomology import cohomology
from dgskew.complexes import CochainComplex
from dgskew.dg import DGSpec
from dgskew.fields import QQ, PrimeField, field_from_name
from dgskew.linalg import Matrix, RowSpan, apply_columns, columns_to_rows, dense
from dgskew.presentations import parse_presentation, truncate
from dgskew.resolution import ext_against_algebra, gorenstein_certificate, minimal_resolution


def _invertible(draw, F, n):
    while True:
        rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
        inverse = dense_inverse(F, [[F.coerce(x) for x in row] for row in rows])
        if inverse is not None:
            return Matrix.from_rows(F, rows), Matrix.from_rows(F, inverse)


@st.composite
def complexes(draw):
    """(field, widths, ranks, dense matrices of d^0..d^(N-1))."""
    F = draw(st.sampled_from([QQ, PrimeField(7)]))
    widths, ranks = [], []
    for _ in range(draw(st.integers(1, 5))):
        below = ranks[-1] if ranks else 0
        widths.append(draw(st.integers(below, below + 4)))
        ranks.append(draw(st.integers(0, widths[-1] - below)))
    ranks[-1] = 0                              # d^N maps to C^(N+1) = 0
    bases = [_invertible(draw, F, c) for c in widths]
    maps = []
    for n in range(len(widths) - 1):
        below = ranks[n - 1] if n else 0
        std = Matrix(F, widths[n + 1], widths[n],
                     tuple(tuple(F.one if j == below + i and i < ranks[n] else F.zero
                                 for j in range(widths[n])) for i in range(widths[n + 1])))
        maps.append(bases[n + 1][0].mul(std).mul(bases[n][1]))
    return F, widths, ranks, maps


def _engine(F, widths, maps):
    def width(n):
        return widths[n] if 0 <= n < len(widths) else 0

    def columns(n, skip):
        return [{i: x for i, x in enumerate(maps[n].col(j)) if x}
                for j in range(widths[n]) if j not in skip]
    return CochainComplex(F, width, columns)


def recording_kernels(cx):
    """Wrap the kernel elimination of cx; the dict returned then holds, per
    degree, the (indices of C^n in elimination order, kernel vectors) that
    its last call handed over; the class span copies them, so they stay as
    the elimination built them."""
    handed = {}
    kernel = cx._kernel

    def record(n, kept, columns):
        vectors = kernel(n, kept, columns)
        handed[n] = (list(kept), list(vectors))
        return vectors

    cx._kernel = record
    return handed


@given(complexes())
@settings(max_examples=80, deadline=None)
def test_ranks_boundaries_and_classes(complex_data):
    F, widths, ranks, maps = complex_data
    cx = _engine(F, widths, maps)
    handed = recording_kernels(cx)
    top = len(widths) - 1
    for n, c in enumerate(widths):
        below = ranks[n - 1] if n else 0
        assert cx.rank(n) == ranks[n]
        assert cx.boundaries(n).dim == below
        assert cx.dim(n) == c - below - ranks[n]
        boundaries = cx.boundaries(n)
        # B^n against a dense elimination of all the columns of d^(n-1)
        echelon = span_echelon(F, maps[n - 1].transpose().entries, c) if n else []
        assert [dense(F, c, row) for row in boundaries.rows_sparse()] == [list(r) for _, r in
                                                                            echelon]
        # the cocycles: the kernel of the full reference elimination of d^n
        rows = maps[n].entries if n < top else []
        kernel = dense_kernel(F, rows, c)
        assert [tuple(dense(F, c, v)) for v in cx.cocycles(n)] == kernel
        classes = cx.classes(n).rows_sparse()
        assert len(classes) == cx.dim(n)
        # eliminated last-first, the kernel is the classes' reduced echelon
        # as it comes, in descending order of pivot
        kept, last_first = handed[n]
        assert kept == [j for j in reversed(range(c)) if j not in boundaries.pivots]
        assert classes == last_first[::-1]
        for v in classes:
            assert n == top or not any(maps[n].apply(dense(F, c, v)))
        # independent modulo boundaries
        span = RowSpan(F, c)
        span.extend(boundaries.rows_sparse() + classes)
        assert span.dim == below + len(classes)
        # and the reduced echelon of the full kernel's residues modulo B^n
        residues = [span_reduce(F, echelon, v)[0] for v in kernel]
        want = [list(r) for _, r in span_echelon(F, residues, c)]
        assert [dense(F, c, v) for v in classes] == want
    # a stored B^n short of its last row leaves the kernel of d^(n-1) on the
    # rows at its pivots too large: refused before the classes of n are read
    for n in range(1, top + 1):
        if ranks[n - 1]:
            short = _engine(F, widths, maps)
            span = short.boundaries(n)
            lost = RowSpan(F, span.width)
            lost.extend(span.rows_sparse()[:-1])
            short._boundaries[n] = lost
            with pytest.raises(AssertionError, match=rf"degree {n - 1}: d\^{n - 1} does not kill"):
                short.classes(n)


@given(complexes(), st.data())
@settings(max_examples=40, deadline=None)
def test_one_multiple_of_the_map_per_call_changes_nothing(complex_data, data):
    # a callback may hand back any nonzero multiple of d^n, a different one
    # on each call, as the resolution's dual complexes do over Q
    F, widths, ranks, maps = complex_data
    plain = _engine(F, widths, maps)
    scales = st.integers(-6, 6).filter(lambda s: F.coerce(s) != F.zero)

    def scaled_columns(n, skip):
        s = F.coerce(data.draw(scales))
        return [{i: F.mul(s, x) for i, x in col.items()} for col in plain.columns(n, skip)]

    scaled = CochainComplex(F, plain.width, scaled_columns)
    for n in range(len(widths)):
        assert scaled.rank(n) == plain.rank(n)
        assert scaled.boundaries(n).rows_sparse() == plain.boundaries(n).rows_sparse()
        assert scaled.cocycles(n) == plain.cocycles(n)
        assert scaled.classes(n).rows_sparse() == plain.classes(n).rows_sparse()


@given(complexes(), st.data())
@settings(max_examples=60, deadline=None)
def test_shared_columns_are_read_only_to_every_receiver(complex_data, data):
    # the resolution hands the cached product columns themselves to the
    # engine and to the linear algebra: none of them may change a column,
    # whatever form its scalars come in (over Q a Fraction, integral or
    # not; over F_p an int outside [0, p)).  The columns of d^n that
    # boundaries(n + 1) keeps are the callback's own, and classes(n) reads
    # them again; `extend`, `reduce`, `add` and `express` copy what they
    # are given
    F, widths, ranks, maps = complex_data
    if F is QQ:
        # Fractions throughout, or the canonical scalars, the span's own
        # working form wherever a column is integral
        raw = data.draw(st.sampled_from([Fraction, QQ.coerce]))
    else:
        def raw(x):
            return x + F.p * data.draw(st.integers(-3, 3))
    stored = [[{i: raw(x) for i, x in enumerate(m.col(j)) if x} for j in range(m.ncols)]
              for m in maps]

    def snapshot():
        return [[[(i, type(x), x) for i, x in col.items()] for col in cols] for cols in stored]

    before = snapshot()
    cx = CochainComplex(F, lambda n: widths[n] if 0 <= n < len(widths) else 0,
                        lambda n, skip: [c for j, c in enumerate(stored[n]) if j not in skip])
    for n, c in enumerate(widths):
        assert cx.dim(n) == c - (ranks[n - 1] if n else 0) - ranks[n]
        kept = cx._columns.get(n, [])
        assert all(any(col is own for own in stored[n]) for col in kept)
        cx.cocycles(n)
        cx.classes(n)
        assert n not in cx._columns
    assert snapshot() == before
    for n, cols in enumerate(stored):
        rows = columns_to_rows(cols, range(widths[n + 1]))
        span = RowSpan(F, widths[n + 1])
        span.extend(cols)
        for col in cols:
            span.reduce(col)
            span.express(col)
            span.add(col)
        for row in rows:
            apply_columns(F, cols, row)
    assert snapshot() == before


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_a_shared_store_changes_nothing(complex_data):
    # the complex and its shift by one degree name each d^n by its matrix
    # and share one store, so the second to reach a map reuses the first's
    # B^(n+1): every boundary space, cocycle basis and class must be those
    # of the same complex built with no store
    F, widths, ranks, maps = complex_data
    store = {}
    keyed, plain = [], []
    for shift in (0, 1):
        ws, ms = widths[shift:], maps[shift:]
        cx = _engine(F, ws, ms)
        plain.append(cx)
        # past the last map d^n is the zero map to C^(n+1) = 0
        keyed.append(CochainComplex(F, cx.width, cx.columns,
                                    lambda n, ms=ms, cx=cx: ms[n] if n < len(ms) else cx.width(n),
                                    store))
    for cx, ref in zip(keyed, plain):
        for n in range(len(widths)):
            assert cx.boundaries(n).pivots == ref.boundaries(n).pivots
            assert cx.boundaries(n).rows_sparse() == ref.boundaries(n).rows_sparse()
            assert cx.dim(n) == ref.dim(n)
            assert cx.cocycles(n) == ref.cocycles(n)
            assert cx.classes(n).rows_sparse() == ref.classes(n).rows_sparse()
    # each matrix was eliminated once, by whichever complex read it first
    if len(maps) > 1:
        assert keyed[0].boundaries(2) is keyed[1].boundaries(1)


def _two_maps(store):
    """Q -> Q^2 -> Q, d^0 = (1, 0), d^1 = (0 1), both named "d"."""
    F = QQ
    maps = [Matrix.from_rows(F, [[1], [0]]), Matrix.from_rows(F, [[0, 1]])]
    cx = _engine(F, [1, 2, 1], maps)
    return CochainComplex(F, cx.width, cx.columns, lambda n: "d", store)


def test_a_reused_span_of_the_wrong_width_is_refused():
    # B^1 = im d^0, of width 2, is stored under "d" and offered as B^2
    cx = _two_maps({})
    assert cx.boundaries(1).dim == 1
    with pytest.raises(AssertionError, match=r"^degree 1: the stored image of d\^1 has width 2 "
                                             r"and dim 1, but C\^2 has width 1"):
        cx.boundaries(2)


def test_a_reused_span_of_too_high_a_rank_is_refused():
    # d^0 on C^0 = Q has rank at most 1: a stored image of dim 2 is refused
    span = RowSpan(QQ, 2)
    span.extend([{0: 1}, {1: 1}])
    with pytest.raises(AssertionError, match=r"^degree 0: the stored image of d\^0 has width 2 "
                                             r"and dim 2, but C\^1 has width 2 and d\^0 rank "
                                             r"at most 1$"):
        _two_maps({"d": span}).rank(0)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
@pytest.mark.parametrize("spoil", ["scaled", "summed"])
def test_classes_span_any_basis_of_the_kernel(F, spoil):
    # classes(n) hands its kernel basis to `extend`, which takes the last-
    # first reduced echelon with no arithmetic; any other basis of the same
    # kernel (a vector times 2, a vector plus another) gives the same span
    M = [[1, 1, 0], [1, 1, 0], [1, 1, 0]]
    clean = cohomology(DGSpec.from_rows(F, M), 4)._complex
    cx = cohomology(DGSpec.from_rows(F, M), 4)._complex
    kernel = cx._kernel

    def spoiled(n, kept, columns):
        vectors = kernel(n, kept, columns)
        if n == 2:
            first, second = vectors[0], vectors[1]
            if spoil == "scaled":
                vectors[0] = {j: F.add(x, x) for j, x in first.items()}
            else:
                vectors[0] = {j: F.add(first.get(j, F.zero), second.get(j, F.zero))
                              for j in first.keys() | second.keys()}
        return vectors

    cx._kernel = spoiled
    assert cx.classes(2).dim == clean.classes(2).dim == 3
    assert cx.classes(2).pivots == clean.classes(2).pivots
    assert cx.classes(2).rows_sparse() == clean.classes(2).rows_sparse()


NEGATIVE_DEGREE_COMPLEXES = {
    "cohomology": lambda: cohomology(DGSpec.from_rows(QQ, [[1, 2, 3], [0, 1, 4], [5, 6, 0]]),
                                     4)._complex,
    "dual": lambda: minimal_resolution(truncate(parse_presentation(QQ, "gen x:1, y:1; rel x^2"),
                                                8), 4).dual(-1),
}


@pytest.mark.parametrize("method", ["boundaries", "rank", "dim", "cocycles", "classes"])
@pytest.mark.parametrize("instance", sorted(NEGATIVE_DEGREE_COMPLEXES))
def test_a_negative_degree_is_refused(instance, method):
    # a list index would wrap around: dim(-1) read -8 on the skew instance
    # and 5 on the dual one
    cx = NEGATIVE_DEGREE_COMPLEXES[instance]()
    with pytest.raises(ValueError, match=r"^degree -1 is negative$"):
        getattr(cx, method)(-1)


def _counting_columns(monkeypatch):
    """Wrap the columns callback of every complex built from now on; the
    Counters returned count the requests per (complex, degree) and the
    columns handed over per (complex, degree, index)."""
    requests, indices = Counter(), Counter()
    init = CochainComplex.__init__

    def counting(self, field, width, columns, *store):
        def counted(n, skip):
            requests[id(self), n] += 1
            indices.update((id(self), n, j) for j in range(width(n)) if j not in skip)
            return columns(n, skip)
        init(self, field, width, counted, *store)

    monkeypatch.setattr(CochainComplex, "__init__", counting)
    return requests, indices


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
def test_cohomology_requests_each_map_once(monkeypatch, field_name):
    # boundaries(n + 1) eliminates the columns of d^n off B^n's pivots and
    # classes(n) reads the same ones: one request per degree, not two
    requests, _ = _counting_columns(monkeypatch)
    top = 8
    spec = DGSpec.from_rows(field_from_name(field_name), [[1, -2, 3], [2, 1, -1], [4, -3, 5]])
    report = cohomology(spec, top)
    report.to_json()
    cx = report._complex
    assert requests == {(id(cx), n): 1 for n in range(top + 1)}
    assert cx._columns == {}


def test_a_dual_complex_requests_each_map_once(monkeypatch):
    # the one-sided witnesses sit at hom degree 1: the classes of degrees
    # 0 and 1 read the columns that B^1 and B^2 were built from, those of
    # d^0 and d^1 off the pivots of B^0 and B^1, at m = -1, where B^1 = 0,
    # and at m = 0.  The cocycles of degree 1 then ask for all of d^1 once
    requests, indices = _counting_columns(monkeypatch)
    text = "gen x:1, y:1; rel y^2"
    witnesses = gorenstein_certificate(parse_presentation(QQ, text)).witness
    assert {(w.hom_degree, w.internal_degree) for w in witnesses} == {(1, -1), (1, 0)}
    res = minimal_resolution(truncate(parse_presentation(QQ, text), 10), 6)
    for m in (-1, 0):
        requests.clear()
        indices.clear()
        cx = res.dual(m)
        assert (cx.boundaries(1).dim == 0) == (m == -1)
        cx.classes(1)
        assert requests == {(id(cx), 0): 1, (id(cx), 1): 1}, m
        assert indices == {(id(cx), n, j): 1 for n in (0, 1) for j in range(cx.width(n))
                           if j not in cx.boundaries(n).pivots}, m
        assert cx._columns == {}
        requests.clear()
        indices.clear()
        cx.cocycles(1)
        assert requests == {(id(cx), 1): 1}, m
        assert indices == {(id(cx), 1, j): 1 for j in range(cx.width(1))}, m
    # the whole table asks once for each distinct dual map into a nonzero
    # C^(i+1): 33 requests, not one per complex and degree (65 of the 75
    # B^i, i >= 1, that the report's 15 complexes read): d^i at m is
    # d^(i-1) at m + 1 for i >= 3, where every entry is y
    res = minimal_resolution(truncate(parse_presentation(QQ, text), 10), 6)
    requests.clear()
    ext_against_algebra(res)
    assert set(requests.values()) == {1}
    assert len(requests) == sum(1 for s in res._spans.values() if s.width) == 33
    assert len(res._spans) == 36
    read = [b for cx in res._duals.values() for b in cx._boundaries[1:]]
    assert (len(read), sum(1 for b in read if b.width)) == (75, 65)
    # at m = 0, B^4 = im d^3 came from the store, from d^2 at m = 1, so
    # classes(3) asks for the columns of d^3 off B^3's pivots, which no
    # elimination read, once, and the cocycles of degree 3 for all of d^3
    cx = res.dual(0)
    assert sorted(cx._columns) == [0, 1, 2]
    requests.clear()
    indices.clear()
    cx.classes(3)
    assert requests == {(id(cx), 3): 1}
    assert indices == {(id(cx), 3, j): 1 for j in range(cx.width(3))
                       if j not in cx.boundaries(3).pivots}
    assert cx._columns == {}
    requests.clear()
    indices.clear()
    cx.cocycles(3)
    assert requests == {(id(cx), 3): 1}
    assert indices == {(id(cx), 3, j): 1 for j in range(cx.width(3))}
