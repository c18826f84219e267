"""Independent brute-force oracles the engine is checked against.

Everything here works on free words, full relation spans and plain dense
Gauss-Jordan elimination through the field's scalar methods, deliberately
avoiding the package's normal-form, incremental-quotient and sparse
elimination code paths.  The differential is unfolded letter by letter
through the Leibniz rule instead of the package's blockwise formula; those
products use `GradedElement.mul`, which the free-word oracle checks.
"""

from itertools import product

from dgskew.dg import d_generator
from dgskew.skew import GradedElement, Monomial, generators


def reduce_word(word):
    """Sort a word in generators 0,1,2 into normal form by brute force.

    Each transposition of distinct adjacent generators flips the sign, so the
    sign is the parity of inversions between distinct letters.
    """
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    exps = [0, 0, 0]
    for g in word:
        exps[g] += 1
    return sign, tuple(exps)


def element_product(u, v):
    """u * v as {exponent triple: nonzero coefficient}, term by term over
    free words: each pair of monomials is spelled out as a word, the
    concatenation is sorted into normal form by `reduce_word`, and the
    coefficients are combined with the field's scalar methods."""
    F = u.field
    out = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            sign, exps = reduce_word(_spelled(m1) + _spelled(m2))
            c = F.mul(c1, c2)
            out[exps] = F.add(out.get(exps, F.zero), c if sign > 0 else F.neg(c))
    return {m: c for m, c in out.items() if not F.is_zero(c)}


def permuted_by_words(u, perm):
    """The substitution x_i -> x_perm[i] on u as {exponent triple: nonzero
    coefficient}: each monomial spelled out as a word, its letters renamed,
    and the word sorted into normal form by `reduce_word`."""
    F = u.field
    return {exps: c if sign > 0 else F.neg(c)
            for m, c in u.terms.items()
            for sign, exps in [reduce_word([perm[g] for g in _spelled(m)])]}


def _spelled(m):
    """The normal-form word x1^a x2^b x3^c of an exponent triple."""
    return [g for g, e in enumerate(m) for _ in range(e)]


def linear_combination(F, pairs):
    """sum of c * u over the (scalar, element) pairs, as {exponent triple:
    nonzero coefficient}, with the field's scalar methods."""
    out = {}
    for c, u in pairs:
        c = F.coerce(c)
        for m, x in u.terms.items():
            m = tuple(m)
            out[m] = F.add(out.get(m, F.zero), F.mul(c, x))
    return {m: c for m, c in out.items() if not F.is_zero(c)}


def all_words(degree, letters=3):
    return product(range(letters), repeat=degree)


def free_words(gens_degrees, total):
    """All words over generators with the given degrees summing to total."""
    out = []

    def walk(prefix, rem):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for gi, d in enumerate(gens_degrees):
            if d <= rem:
                prefix.append(gi)
                walk(prefix, rem - d)
                prefix.pop()

    walk([], total)
    return out


def full_span_vectors(presentation, words):
    """The two-sided relation span {w1 * r * w2} in the degree of `words`,
    as dense vectors over those words."""
    F = presentation.field
    gd = [g.degree for g in presentation.generators]
    d = presentation.word_degree(words[0]) if words else 0
    index = {w: i for i, w in enumerate(words)}
    vectors = []
    for rel in presentation.relations:
        rdeg = presentation.word_degree(next(iter(rel)))
        if rdeg > d:
            continue
        for p in range(d - rdeg + 1):
            for w1 in free_words(gd, p):
                for w2 in free_words(gd, d - rdeg - presentation.word_degree(w1)):
                    vec = [F.zero] * len(words)
                    for w, c in rel.items():
                        k = index[w1 + w + w2]
                        vec[k] = F.add(vec[k], c)
                    vectors.append(vec)
    return vectors


def quotient_dims_full_span(presentation, bound):
    """Dims of the quotient computed from the full two-sided relation span
    {w1 * r * w2} inside the free algebra, degree by degree."""
    gd = [g.degree for g in presentation.generators]
    dims = []
    for d in range(bound + 1):
        words = free_words(gd, d)
        _, pivots = dense_rref(presentation.field, full_span_vectors(presentation, words),
                               len(words))
        dims.append(len(words) - len(pivots))
    return dims


def free_normal_forms(presentation, degree):
    """(basis, {word: normal form}) of the quotient in one degree, from the
    full two-sided relation span over all free words of that degree.

    The words are sorted and the span is echelonized with pivots at the
    right, so the non-pivot words are the lexicographically earliest
    complement: the basis.  A non-pivot word is its own normal form; a
    pivot word is congruent to minus the rest of its echelon row.  Normal
    forms are dense coordinates on the basis."""
    F = presentation.field
    words = sorted(free_words([g.degree for g in presentation.generators], degree))
    echelon = dict(span_echelon(F, full_span_vectors(presentation, words), len(words),
                                from_right=True))
    free = [i for i in range(len(words)) if i not in echelon]
    forms = {}
    for k, w in enumerate(words):
        if k in echelon:
            forms[w] = [F.neg(echelon[k][i]) for i in free]
        else:
            forms[w] = [F.one if i == k else F.zero for i in free]
    return [words[i] for i in free], forms


# -- reference elimination -------------------------------------------------

def dense_rref(F, rows, ncols):
    """Reduced row echelon form by dense Gauss-Jordan elimination, pivots at
    the first nonzero column; returns (rows, pivot_columns) with one row per
    input row, zero rows last."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows], tuple(pivots)


def dense_kernel(F, rows, ncols):
    """Kernel basis read off the reference echelon form: one vector per free
    column, 1 there and 0 at every other free column."""
    ech, pivots = dense_rref(F, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(ech[r][fc])
        basis.append(tuple(v))
    return basis


def dense_inverse(F, rows):
    """Rows of the inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    ident = [tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)]
    ech, pivots = dense_rref(F, [tuple(r) + e for r, e in zip(rows, ident)], 2 * n)
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in ech]


def span_echelon(F, vectors, width, from_right=False):
    """The reduced echelon basis of span(vectors) as (pivot, row) pairs
    sorted by pivot.  With from_right the pivot of a row is its last nonzero
    coordinate: the columns are reversed around the reference elimination."""
    if not from_right:
        ech, pivots = dense_rref(F, vectors, width)
        return list(zip(pivots, ech))
    ech, pivots = dense_rref(F, [tuple(v)[::-1] for v in vectors], width)
    return sorted((width - 1 - c, row[::-1]) for c, row in zip(pivots, ech))


def span_kernel(F, echelon, width):
    """The vectors orthogonal to a reduced echelon basis, one per non-pivot
    column f in ascending order: 1 at f, 0 at every other non-pivot, and
    minus the entry at f of each row at that row's pivot."""
    pivots = [p for p, _ in echelon]
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [F.zero] * width
        v[f] = F.one
        for p, row in echelon:
            v[p] = F.neg(row[f])
        basis.append(v)
    return basis


def span_reduce(F, echelon, vec):
    """Residue of vec modulo a reduced echelon basis: each row is zero at
    the other pivots, so its multiple is the entry of vec at its pivot."""
    v = [F.coerce(x) for x in vec]
    coeffs = [v[p] for p, _ in echelon]
    for c, (_, row) in zip(coeffs, echelon):
        v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return v, coeffs


def count_words_avoiding(degree, forbidden="yy"):
    """Number of x/y words of the given length with no forbidden factor."""
    total = 0
    for w in product("xy", repeat=degree):
        if forbidden not in "".join(w):
            total += 1
    return total


def leibniz_d(spec, m):
    """d(x1^a x2^b x3^c), unfolded letter by letter: d(w x) = d(w) x +
    (-1)^|w| w d(x), with d(x_i) from `d_generator` and every product taken
    by `GradedElement.mul`."""
    F = spec.field
    xs = generators(F)
    word = GradedElement.monomial(F, Monomial(0, 0, 0))
    dword = GradedElement.zero(F, 1)
    for i, e in enumerate(Monomial(*m)):
        for _ in range(e):
            step = word.mul(d_generator(spec, i + 1))
            dword = dword.mul(xs[i])
            dword = dword.sub(step) if word.degree % 2 else dword.add(step)
            word = word.mul(xs[i])
    return dword
