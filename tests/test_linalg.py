from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (dense_inverse, dense_kernel, dense_rref, span_echelon, span_kernel,
                     span_reduce)

from dgskew.fields import CANDIDATE_PRIMES, QQ, PrimeField, normalized
from dgskew.linalg import Matrix, RowSpan, apply_columns, dense, kills

FP = PrimeField(CANDIDATE_PRIMES[0])
# a small prime, so that integer entries and eliminations often vanish mod p
FIELDS = [QQ, FP, PrimeField(7)]

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                           min_size=n, max_size=n)))


def test_rank_examples():
    assert Matrix.zero(QQ, 3, 3).rank() == 0
    assert Matrix.identity(QQ, 3).rank() == 3


def test_kernel_examples():
    assert Matrix.identity(QQ, 3).kernel_basis() == []
    k = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]).kernel_basis()
    assert k == [(0, 0, 1)]
    k = Matrix.from_rows(QQ, [[1, 1, 0], [1, 1, 0], [1, 1, 0]]).kernel_basis()
    assert len(k) == 2
    # reduced form: each vector has a leading 1 in its own free coordinate
    assert k[0] == (-1, 1, 0)
    assert k[1] == (0, 0, 1)


def test_inverse():
    A = Matrix.from_rows(QQ, [[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    assert A.inverse().mul(A).entries == Matrix.identity(QQ, 3).entries
    with pytest.raises(ValueError):
        Matrix.from_rows(QQ, [[1, 1], [1, 1]]).inverse()


@given(matrices)
@settings(max_examples=60)
def test_rank_nullity(rows):
    A = Matrix.from_rows(QQ, rows)
    assert A.rank() + len(A.kernel_basis()) == A.ncols
    for v in A.kernel_basis():
        assert all(QQ.is_zero(x) for x in A.apply(v))


@given(matrices)
@settings(max_examples=40)
def test_rank_agrees_with_large_prime(rows):
    # over F_p and Q the rank of an integer matrix agrees for all but
    # finitely many p; entries here are far below the modulus
    assert Matrix.from_rows(QQ, rows).rank() == Matrix.from_rows(FP, rows).rank()


def test_rowspan_reduce_and_express():
    span = RowSpan(QQ, 3)
    assert span.add([1, 1, 0])
    assert span.add([0, 1, 1])
    assert not span.add([1, 2, 1])  # dependent
    assert span.contains([2, 3, 1])
    coeffs = span.express([2, 3, 1])
    assert coeffs is not None and len(coeffs) == 2
    assert span.express([0, 0, 1]) is None


# -- the sparse kernel against the dense reference elimination -------------

nonzero = st.integers(-9, 9).filter(bool)


@st.composite
def int_matrices(draw, nrows=None, ncols=None):
    """Integer matrices of three kinds: at least 90% zeros, every entry
    nonzero, or a product of two thin random factors (rank deficient)."""
    n = nrows or draw(st.integers(1, 9))
    m = ncols or draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["sparse", "dense", "low_rank"]))
    if kind == "sparse":
        rows = [[0] * m for _ in range(n)]
        for _ in range(draw(st.integers(0, n * m // 10))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(nonzero)
        return rows
    if kind == "dense":
        return [[draw(nonzero) for _ in range(m)] for _ in range(n)]
    k = draw(st.integers(1, max(1, min(n, m) - 1)))
    a = [[draw(nonzero) for _ in range(k)] for _ in range(n)]
    b = [[draw(nonzero) for _ in range(m)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def scalings(n):
    """n nonzero scale factors: quotients p/q with |p|, q <= 12, or integers
    up to 10^10 in magnitude."""
    small = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    huge = st.integers(1, 10 ** 10)
    signed = st.tuples(st.sampled_from([1, -1]), st.one_of(small, huge)).map(
        lambda t: t[0] * t[1])
    return st.lists(signed, min_size=n, max_size=n)


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """`int_matrices` with every row and every column scaled by its own
    factor from `scalings`: the zero pattern and the rank stay, and the
    entries get denominators up to 144 or magnitudes up to about 10^21."""
    rows = draw(int_matrices(nrows, ncols))
    r = draw(scalings(len(rows)))
    c = draw(scalings(len(rows[0])))
    return [[x * ri * cj for x, cj in zip(row, c)] for row, ri in zip(rows, r)]


# each field with its entry strategy; Q also runs on non-integral entries
CASES = [(F, int_matrices()) for F in FIELDS] + [(QQ, rational_matrices())]
CASE_IDS = [str(F) for F in FIELDS] + ["QQ-rational"]


def as_text(F, rows):
    return [[F.to_str(x) for x in row] for row in rows]


def canonical(x):
    """x is a Q scalar in canonical form: an int, or a `Fraction` whose
    denominator is > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_exact(F, vectors):
    """Over Q every scalar handed back is in canonical form."""
    if F == QQ:
        for v in vectors:
            values = v.values() if isinstance(v, dict) else v
            assert all(canonical(x) for x in values), v


@pytest.mark.parametrize("F,matrices", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rref_rank_kernel_match_reference(F, matrices, data):
    A = Matrix.from_rows(F, data.draw(matrices))
    ech, pivots = A.rref()
    want, want_pivots = dense_rref(F, A.entries, A.ncols)
    assert pivots == want_pivots
    assert as_text(F, ech) == as_text(F, want)
    assert A.rank() == len(want_pivots)
    kernel = A.kernel_basis()
    assert as_text(F, kernel) == as_text(F, dense_kernel(F, A.entries, A.ncols))
    assert_exact(F, ech + kernel)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_reference(F, data):
    n = data.draw(st.integers(1, 6))
    A = Matrix.from_rows(F, data.draw(int_matrices(n, n)))
    want = dense_inverse(F, A.entries)
    if want is None:
        with pytest.raises(ValueError):
            A.inverse()
    else:
        assert as_text(F, A.inverse().entries) == as_text(F, want)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@given(rows=int_matrices(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_mul_and_apply_match_the_definition(F, rows, data):
    A = Matrix.from_rows(F, rows)
    B = Matrix.from_rows(F, data.draw(int_matrices(nrows=A.ncols)))

    def dot(row, col):
        acc = F.zero
        for a, b in zip(row, col):
            acc = F.add(acc, F.mul(a, b))
        return acc

    want = [[dot(A.row(i), B.col(j)) for j in range(B.ncols)] for i in range(A.nrows)]
    assert as_text(F, A.mul(B).entries) == as_text(F, want)
    assert as_text(F, [A.apply(B.col(0))]) == as_text(F, [[row[0] for row in want]])


@pytest.mark.parametrize("F,matrices", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rowspan_matches_reference(F, matrices, data):
    vectors, probes = data.draw(matrices), data.draw(matrices)
    width = len(vectors[0])
    vectors = [[F.coerce(x) for x in v] for v in vectors]
    probes = [[F.coerce(x) for x in (p + [0] * width)[:width]] for p in probes]
    span = RowSpan(F, width)
    for k, v in enumerate(vectors):
        before = len(span_echelon(F, vectors[:k], width))
        after = len(span_echelon(F, vectors[:k + 1], width))
        assert span.add(v) == (after > before)
        assert span.dim == after
    echelon = span_echelon(F, vectors, width)
    bulk = RowSpan(F, width)
    bulk.extend(vectors)
    rows, kernel = span.rows_sparse(), span.kernel_sparse()
    assert as_text(F, [dense(F, width, r) for r in rows]) == as_text(F, [r for _, r in echelon])
    assert (as_text(F, [dense(F, width, r) for r in bulk.rows_sparse()])
            == as_text(F, [r for _, r in echelon]))
    assert (as_text(F, [dense(F, width, v) for v in kernel])
            == as_text(F, span_kernel(F, echelon, width)))
    assert_exact(F, rows + kernel)
    # with labels each coordinate k is keyed labels[k], in the same order
    labels = [3 * (width - k) for k in range(width)]
    labelled = span.kernel_sparse(labels)
    assert ([list(v.items()) for v in labelled]
            == [[(labels[k], x) for k, x in v.items()] for v in kernel])
    # members of the span, then arbitrary vectors
    members = [[F.add(x, y) for x, y in zip(v, w)] for v, w in zip(vectors, vectors[1:])]
    for vec in members + probes:
        residue, coeffs = span_reduce(F, echelon, vec)
        inside = all(F.is_zero(x) for x in residue)
        reduced = span.reduce(vec)
        assert as_text(F, [dense(F, width, reduced)]) == as_text(F, [residue])
        sparse = span.reduce({j: x for j, x in enumerate(vec) if x})
        assert sparse == reduced
        assert span.contains(vec) == inside
        got = span.express(vec)
        assert (got is not None) == inside
        if inside:
            assert as_text(F, [got]) == as_text(F, [coeffs])
            assert_exact(F, [got])
        assert_exact(F, [reduced, sparse])


def assert_span_matches_reference(F, span, vectors, probes):
    """The rows, kernel and residues of span against the dense reference
    elimination of vectors."""
    width = span.width
    echelon = span_echelon(F, vectors, width)
    assert span.pivots == [q for q, _ in echelon]
    assert (as_text(F, [dense(F, width, r) for r in span.rows_sparse()])
            == as_text(F, [r for _, r in echelon]))
    assert (as_text(F, [dense(F, width, v) for v in span.kernel_sparse()])
            == as_text(F, span_kernel(F, echelon, width)))
    for vec in probes:
        residue, _ = span_reduce(F, echelon, vec)
        assert as_text(F, [dense(F, width, span.reduce(vec))]) == as_text(F, [residue])


def leading(vec):
    return next(j for j, x in enumerate(vec) if x)


@pytest.mark.parametrize("F,matrices", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rowspan_back_eliminates_in_ascending_order(F, matrices, data):
    # earliest leading coordinate first, the order `extend` avoids: each new
    # pivot may lie in the tails of the rows already stored
    vectors, probes = data.draw(matrices), data.draw(matrices)
    width = len(vectors[0])
    vectors = [[F.coerce(x) for x in v] for v in vectors]
    vectors = sorted((v for v in vectors if any(v)), key=leading)
    probes = [[F.coerce(x) for x in (p + [0] * width)[:width]] for p in probes]
    span = RowSpan(F, width)
    for v in vectors:
        span.add(v)
    assert_span_matches_reference(F, span, vectors, probes)


@pytest.mark.parametrize("F", [QQ, FP], ids=str)
def test_rowspan_back_elimination_clears_new_pivots(F):
    # every row after the first has its pivot in the tails of all rows
    # before it, so reading the rows back-substitutes into every stored row
    vectors = [[F.coerce(x) for x in v]
               for v in ([2, 1, 3, 1, 5], [0, 3, 1, -1, 2], [0, 0, 7, 2, -3], [0, 0, 0, 4, 1])]
    span = RowSpan(F, 5)
    for v in vectors:
        assert span.add(v)
    probes = [[F.coerce(x) for x in p] for p in ([1, 1, 1, 1, 1], [0, 2, -1, 3, 1])]
    # before any read the rows are a forward echelon, which already gives
    # the pivots, the dim and the residues
    echelon = span_echelon(F, vectors, 5)
    assert span.pivots == [q for q, _ in echelon]
    assert span.dim == len(echelon)
    for vec in probes:
        residue, _ = span_reduce(F, echelon, vec)
        assert as_text(F, [dense(F, 5, span.reduce(vec))]) == as_text(F, [residue])
    span.rows_sparse()
    assert all(q not in tail for tail in span._rows.values() for q in span.pivots)
    assert_span_matches_reference(F, span, vectors, probes)


# -- the canonical form of Q scalars ---------------------------------------

# ints and quotients, integral ones such as 4/2 among them
q_scalars = st.one_of(st.integers(-12, 12),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))
q_vectors = st.lists(q_scalars, min_size=4, max_size=4)


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def assert_canonical(got, want):
    """got, a sparse dict or a list, holds the exact values of want, each
    in canonical form."""
    assert got == want
    values = got.values() if isinstance(got, dict) else got
    assert all(canonical(x) for x in values), got


@given(st.lists(q_vectors, min_size=1, max_size=5), q_vectors, q_scalars, q_scalars)
@settings(max_examples=150, deadline=None)
def test_q_scalars_come_back_canonical(vectors, probe, a, b):
    assert_canonical(normalized(QQ, probe), sparse(probe))
    assert_canonical(normalized(QQ, dict(enumerate(probe))), sparse(probe))
    assert_canonical([QQ.coerce(a), QQ.coerce(str(Fraction(a)))], [a, a])
    if b:
        assert_canonical([QQ.inv(b), QQ.div(a, b)], [1 / Fraction(b), Fraction(a) / b])
    span = RowSpan(QQ, 4)
    span.extend(vectors)
    echelon = span_echelon(QQ, vectors, 4)
    for got, (_, want) in zip(span.rows_sparse(), echelon, strict=True):
        assert_canonical(got, sparse(want))
    for got, want in zip(span.kernel_sparse(), span_kernel(QQ, echelon, 4), strict=True):
        assert_canonical(got, sparse(want))
    member = [x + y for x, y in zip(vectors[0], vectors[-1])]
    for vec in (member, probe):
        residue, coeffs = span_reduce(QQ, echelon, vec)
        assert_canonical(span.reduce(vec), sparse(residue))
        got = span.express(vec)
        if any(residue):
            assert got is None
        else:
            assert_canonical(got, coeffs)


# -- reduce on read: a forward echelon between reads -----------------------

READERS = ("reduce", "contains", "rows_sparse", "kernel_sparse", "express")


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rowspan_reads_between_insertions_match_reference(F, data):
    # insertions leave the rows a forward echelon and the readers of rows
    # back-substitute; reads come between insertions in any order, and every
    # step checks the span against the dense reference elimination of all
    # the vectors inserted so far
    width = data.draw(st.integers(1, 6))
    entries = q_scalars if F == QQ else st.integers(-9, 9)
    vectors = st.lists(entries, min_size=width, max_size=width).map(
        lambda v: [F.coerce(x) for x in v])
    span, inserted, echelon = RowSpan(F, width), [], []
    for step in data.draw(st.lists(st.sampled_from(("add", "extend") + READERS),
                                   min_size=1, max_size=12)):
        dim = len(echelon)
        if step == "add":
            inserted.append(data.draw(vectors))
            grew = span.add(inserted[-1])
        elif step == "extend":
            batch = data.draw(st.lists(vectors, max_size=4))
            inserted.extend(batch)
            span.extend(batch)
        echelon = span_echelon(F, inserted, width) if inserted else []
        pivots = [q for q, _ in echelon]
        assert span.pivots == pivots
        assert span.dim == len(echelon)
        assert span.free == [f for f in range(width) if f not in pivots]
        if span._reduced:
            # the flag both insertion paths keep: no stored tail holds a pivot
            assert all(span._rows.keys().isdisjoint(tail) for tail in span._rows.values())
        if step == "add":
            assert grew == (len(echelon) > dim)
        elif step == "rows_sparse":
            assert (as_text(F, [dense(F, width, r) for r in span.rows_sparse()])
                    == as_text(F, [r for _, r in echelon]))
        elif step == "kernel_sparse":
            assert (as_text(F, [dense(F, width, v) for v in span.kernel_sparse()])
                    == as_text(F, span_kernel(F, echelon, width)))
        elif step != "extend":
            # a member of the span or an arbitrary vector
            weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(inserted),
                                         max_size=len(inserted)))
            member = [F.zero] * width
            for c, v in zip(weights, inserted):
                member = [F.add(x, F.mul(F.coerce(c), y)) for x, y in zip(member, v)]
            vec = data.draw(st.sampled_from([member, data.draw(vectors)]))
            residue, coeffs = span_reduce(F, echelon, vec)
            inside = all(F.is_zero(x) for x in residue)
            if step == "reduce":
                got = span.reduce(vec)
                assert as_text(F, [dense(F, width, got)]) == as_text(F, [residue])
                assert_exact(F, [got])
            elif step == "contains":
                assert span.contains(vec) == inside
            else:
                got = span.express(vec)
                assert (got is not None) == inside
                if inside:
                    assert as_text(F, [got]) == as_text(F, [coeffs])
                    assert_exact(F, [got])


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_extend_places_new_leads_without_clearing(F, monkeypatch):
    # a span with pivots 1 and 4 takes one batch of every kind of vector;
    # no lead is a multiple of 7, so the leads are the same over F_7
    base = [[0, 2, 0, 1, -3, 0, 1], [0, 0, 0, 0, 5, 2, 0]]
    new_leads = [[0, 0, 0, 0, 0, 0, Fraction(-2, 3)],
                 [0, 0, Fraction(-3, 2), 1, 0, 0, 4],
                 [-1, 0, 0, 0, Fraction(1, 3), 0, 0]]
    old_leads = [[0, 4, 1, 0, 0, 0, 0], [0, 0, 0, 0, 3, Fraction(1, 2), 1]]
    units = [[0, 0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0, 0]]
    zero = [[0] * 7]
    batch = new_leads + old_leads + units + zero
    base, batch = ([[F.coerce(x) for x in v] for v in vs] for vs in (base, batch))
    span = RowSpan(F, 7)
    span.extend(base)
    assert span.pivots == [1, 4]
    inserted = []
    insert = RowSpan._insert

    def counting(self, w):
        inserted.append(min(w))
        return insert(self, w)

    monkeypatch.setattr(RowSpan, "_insert", counting)
    span.extend(batch)
    # only the vectors led at a pivot (one at 4, two at 1, the unit e_1
    # among them) are cleared; the new leads 6, 5, 2 and 0 are stored as
    # they come
    assert sorted(inserted) == [1, 1, 4]
    monkeypatch.undo()
    one_at_a_time = RowSpan(F, 7)
    for v in base + batch:
        one_at_a_time.add(v)
    assert_span_matches_reference(F, span, base + batch, batch)
    assert span.pivots == one_at_a_time.pivots
    assert span.rows_sparse() == one_at_a_time.rows_sparse()
    assert span.kernel_sparse() == one_at_a_time.kernel_sparse()
    assert_exact(F, span.rows_sparse() + span.kernel_sparse())


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kills_is_apply_columns_tested_for_zero(F, data):
    entries = (q_scalars if F == QQ else st.integers(1, 6)).filter(bool)
    ncols = data.draw(st.integers(1, 4))
    columns = data.draw(st.lists(st.dictionaries(st.integers(0, 2), entries, max_size=3),
                                 min_size=ncols, max_size=ncols))
    vec = data.draw(st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols))
    cancelled = data.draw(st.booleans())
    if cancelled:
        # one more column, at weight 1, that cancels every sum: over Q
        # exactly (1/2 + 1/2 - 1), over F_7 to an int sum that is a nonzero
        # multiple of 7
        sums = {}
        for c, x in vec.items():
            for r, y in columns[c].items():
                sums[r] = sums.get(r, 0) + x * y
        columns.append(normalized(F, {r: -s for r, s in sums.items()}))
        vec[ncols] = F.one
    assert kills(F, columns, vec) == (not apply_columns(F, columns, vec))
    if cancelled:
        assert kills(F, columns, vec)


# -- the copy rule: a span copies what it is given, hands back fresh ones --

def _handed_vectors(F, width):
    """Sparse vectors in the forms callers build them: over Q ints,
    `Fraction`s (integral ones among them) and zero entries, over F_p ints
    in [1, p), unreduced ones and multiples of p; nonzero ints in [1, p) on
    their own too, the span's own working form."""
    if F == QQ:
        raw = st.one_of(st.integers(-9, 9),
                        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
        working = st.integers(-9, 9).filter(bool)
    else:
        raw = st.one_of(st.integers(1, F.p - 1), st.integers(-2 * F.p, 3 * F.p),
                        st.integers(-2, 2).map(lambda k: k * F.p))
        working = st.integers(1, F.p - 1)
    keys = st.integers(0, width - 1)
    return st.one_of(st.dictionaries(keys, raw, max_size=width),
                     st.dictionaries(keys, working, max_size=width))


def _typed(vectors):
    """Each vector's entries with their types, to compare forms exactly."""
    return [None if v is None else [(j, type(x), x) for j, x in
                                    (sorted(v.items()) if isinstance(v, dict) else enumerate(v))]
            for v in vectors]


@pytest.mark.parametrize("F", [QQ, PrimeField(7), FP], ids=str)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_span_leaves_every_vector_it_is_handed_unchanged(F, data):
    # `extend`, `add`, `reduce`, `contains` and `express` copy what they are
    # given, in whatever form it comes, the span's working form included:
    # the inputs stay as they were, and a caller that later changes them,
    # or the vectors handed back, leaves the span as it was
    width = data.draw(st.integers(1, 6))
    vectors = st.lists(_handed_vectors(F, width), max_size=6)
    inserted, probes = data.draw(vectors), data.draw(vectors)
    if inserted:
        # a member of the span, as unreduced sums that may cancel to zero
        member = dict(inserted[0])
        for j, x in inserted[-1].items():
            member[j] = member.get(j, 0) + x
        probes.append(member)
    handed = inserted + probes
    before = _typed(handed)
    span = RowSpan(F, width)
    span.extend(inserted)
    for vec in probes:
        residue = span.reduce(vec)
        assert all(residue is not v for v in handed)
        residue[0] = F.one
        span.contains(vec)
        span.express(vec)
    for row in span.rows_sparse():
        row.clear()
    for vec in probes:
        span.add(vec)
    assert _typed(handed) == before
    reference = RowSpan(F, width)
    reference.extend([dict(v) for v in handed])
    for vec in handed:
        vec.clear()
    assert span.pivots == reference.pivots
    assert _typed(span.rows_sparse()) == _typed(reference.rows_sparse())


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=str)
def test_every_form_of_a_vector_loads_to_one_fresh_working_vector(F):
    # the one load path copies a vector already in working form as it
    # copies any other: each form of {0: 3, 2: 5} below loads to the same
    # (den, w), and w is never the vector handed in
    span = RowSpan(F, 4)
    own = {0: 3, 2: 5}
    # a Fraction or a zero entry over Q, an entry outside [1, p) over F_p;
    # a dense list too
    forms = ([{0: Fraction(6, 2), 2: 5}, {0: 3, 1: 0, 2: 5}, {0: 3, 2: 5, 3: Fraction(0)}]
             if F == QQ else [{0: 10, 2: -2}, {0: 3, 1: 7, 2: 5}, {0: -4, 2: 12}])
    for vec in [own] + forms + [[3, 0, 5, 0]]:
        before = _typed([vec])
        den, w = span._load(vec)
        assert w is not vec
        assert (den, w) == (1, own)
        assert _typed([vec]) == before
    # a Fraction with a denominator over Q loads scaled to integers
    if F == QQ:
        assert span._load({0: Fraction(3, 2), 2: Fraction(5, 2)}) == (2, own)
