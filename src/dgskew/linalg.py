"""Exact linear algebra over a session field, on one sparse echelon kernel.

The kernel is `RowSpan`: a reduced row echelon form kept as sparse rows
(``{column: nonzero}``) indexed by their pivots and grown one vector at a
time by Gauss-Jordan steps.  Rows and vectors store only their nonzero
entries, so elimination work follows the nonzeros rather than the shape;
the matrices this engine meets are mostly ~97% zeros.  Over F_p the rows
hold ints reduced mod p.  Over Q they are fraction-free (Bareiss 1968): each
row is a primitive integer row over one positive denominator, vectors are
cleared of denominators when they come in, and elimination multiplies and
subtracts ints, so no `Fraction` arithmetic runs inside it; `Fraction`s are
built only for the scalars the span hands back.  The inner loops apply the
native operators directly, so every step is exact.

A span has exactly one reduced echelon form for a given pivot rule, and
pivots sit at the first (or, with ``pivot_from_right``, the last) nonzero
coordinate.  Echelon rows, kernel bases, residues and coefficient vectors
are therefore canonical: they depend on the span and the input, never on
the order of elimination.

`Matrix` is a dense immutable value; `rref`, `rank`, `kernel_basis`,
`solve` and `inverse` all run its rows through a `RowSpan`, and `mul` and
`apply` visit only nonzero entries.  Maps that are built column by column
stay sparse instead: `columns_to_rows` turns their columns into the rows a
`RowSpan` eliminates, and `apply_columns` applies them to a sparse vector.
Scalars come to normal form through `fields.normalized`; the only Field
methods called here are `coerce`, on the entries `Matrix.from_rows` and
`Matrix.solve` take from outside, and `to_str`, on output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .fields import _modulus, check_same_field, normalized


def _integral(vec):
    """(den, w) for a rational dense sequence or sparse dict: w is a fresh
    {index: nonzero int} and den > 0 the lcm of the denominators, so that
    vec = w / den.  Ints pass straight through."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    w, dens = {}, {}
    for j, x in items:
        if type(x) is not int:
            x, d = x.as_integer_ratio()
            if d != 1:
                dens[j] = d
        if x:
            w[j] = x
    if not dens:
        return 1, w
    den = lcm(*dens.values())
    for j in w:
        w[j] *= den // dens.get(j, 1)
    return den, w


def dense(field, width, vec):
    """The sparse vector vec as a fresh dense list of the given width."""
    out = [field.zero] * width
    for j, x in vec.items():
        out[j] = x
    return out


def _axpy(p, dst, c, src):
    """dst -= c * src on sparse vectors, in place; c is nonzero.  With p None
    the scalars are ints (or any exact numbers), otherwise ints mod p."""
    if p is None:
        nc = -c
        for j, b in src.items():
            x = dst.get(j)
            if x is None:
                dst[j] = nc * b
            else:
                x += nc * b
                if x:
                    dst[j] = x
                else:
                    del dst[j]
    else:
        nc = p - c
        for j, b in src.items():
            # nonzero whenever j is new to dst: p is prime
            x = (dst.get(j, 0) + nc * b) % p
            if x:
                dst[j] = x
            else:
                del dst[j]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a fixed session field."""

    field: object
    nrows: int
    ncols: int
    entries: tuple

    @classmethod
    def from_rows(cls, field, rows):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(field, nrows, ncols, data)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows,
                      tuple(tuple(self.entries[i][j] for i in range(self.nrows))
                            for j in range(self.ncols)))

    def mul(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        F = self.field
        p = _modulus(F)
        other_rows = [[(k, b) for k, b in enumerate(r) if b] for r in other.entries]
        out = []
        for r in self.entries:
            acc = [F.zero] * other.ncols
            for a, brow in zip(r, other_rows):
                if a:
                    for k, b in brow:
                        acc[k] += a * b
            out.append(tuple(acc) if p is None else tuple(x % p for x in acc))
        return Matrix(F, self.nrows, other.ncols, tuple(out))

    def apply(self, vec):
        """Matrix times column vector."""
        F = self.field
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        p = _modulus(F)
        nz = [(j, b) for j, b in enumerate(vec) if b]
        out = []
        for r in self.entries:
            acc = F.zero
            for j, b in nz:
                a = r[j]
                if a:
                    acc += a * b
            out.append(acc if p is None else acc % p)
        return tuple(out)

    def _echelon(self) -> "RowSpan":
        """The reduced row space of this matrix (pivots from the left)."""
        span = RowSpan(self.field, self.ncols)
        span.extend(self.entries)
        return span

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        span = self._echelon()
        rows = span.basis_rows()
        rows += [(self.field.zero,) * self.ncols] * (self.nrows - len(rows))
        return rows, tuple(span.pivots)

    def rank(self) -> int:
        return self._echelon().dim

    def kernel_basis(self):
        """Basis of {v : Av = 0}, one vector per free column, echelon-normalized.

        Vector j has a 1 in its free coordinate and 0 in every other free
        coordinate, so the result is deterministic and reduced.
        """
        return [tuple(dense(self.field, self.ncols, v)) for v in self._echelon().kernel_sparse()]

    def solve(self, b):
        """One solution of Ax = b, or None when inconsistent.

        Consistency is decided exactly by the rank of the augmented matrix;
        free coordinates of the particular solution are set to zero.
        """
        F = self.field
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        bb = [F.coerce(x) for x in b]
        aug = Matrix(F, self.nrows, self.ncols + 1,
                     tuple(tuple(r) + (x,) for r, x in zip(self.entries, bb)))
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [F.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.ncols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        F = self.field
        n = self.nrows
        aug = Matrix(F, n, 2 * n,
                     tuple(tuple(r) + tuple(F.one if i == j else F.zero for j in range(n))
                           for i, r in enumerate(self.entries)))
        rows, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(F, n, n, tuple(tuple(row[n:]) for row in rows))

    def to_json(self):
        return [[self.field.to_str(x) for x in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"


class RowSpan:
    """Incrementally maintained reduced row space, stored sparse.

    Each row is zero at every other row's pivot and 1 at its own, so the
    rows form the reduced echelon basis of the span and `reduce` residues
    are canonical.  Pivots sit at the first nonzero coordinate, or with
    ``pivot_from_right`` at the *last* one (used where the complement of a
    span must consist of the lexicographically smallest coordinates).

    A row is kept as its pivot q plus a tail ``{column: nonzero}``.  Over
    F_p the tail holds ints in [1, p).  Over Q the row is kept
    fraction-free: the tail holds ints and q also has a denominator c > 0
    that shares no common factor with them, standing for the row
    e_q + tail / c.  That form is unique, and all elimination over Q runs
    on ints: a vector is brought to one common denominator when it comes
    in, and `Fraction`s are built only for the scalars handed back.

    Vectors go in as dense sequences or as sparse ``{index: nonzero}``
    dicts.  The ``*_sparse`` methods return such dicts, holding normalized
    scalars (`Fraction` over Q, ints in [1, p) over F_p); the others return
    dense lists.
    """

    def __init__(self, field, width: int, pivot_from_right: bool = False):
        self.field = field
        self.width = width
        self.from_right = pivot_from_right
        self._p = _modulus(field)  # None over Q
        self._rows = {}       # pivot -> tail
        self._den = {}        # pivot -> denominator c of its row (Q only)
        self._pivots = None   # sorted pivots, rebuilt after a row is added

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        """Pivot columns, ascending: the pivots of `basis_rows`, in order."""
        if self._pivots is None:
            self._pivots = sorted(self._rows)
        return self._pivots

    def _load(self, vec):
        """(den, w): vec as a fresh sparse vector w over the working scalars
        (ints over Q, ints in [1, p) over F_p), with vec = w / den."""
        if self._p is None:
            return _integral(vec)
        return 1, normalized(self.field, vec)

    def _reduce(self, w):
        """Reduce the loaded vector w modulo the span in place; returns
        (w, s) with w / s the residue (s = 1 over F_p)."""
        rows = self._rows
        # a row is zero at every other pivot, so the pivots w hits now are
        # all it will ever hit, and each is cleared exactly once
        hits = [q for q in w if q in rows] if len(w) <= len(rows) else [q for q in rows if q in w]
        if not hits:
            return w, 1
        p = self._p
        if p is not None:
            for q in hits:
                _axpy(p, w, w.pop(q), rows[q])
            return w, 1
        # scale once so that every row denominator divides its entry
        den = self._den
        s = lcm(*(den[q] for q in hits))
        if s != 1:
            for j in w:
                w[j] *= s
        for q in hits:
            _axpy(None, w, w.pop(q) // den[q], rows[q])
        return w, s

    def _scalars(self, w, den):
        """The loaded vector w / den with normalized field scalars (a fresh
        dict over Q; w itself over F_p, where den is 1)."""
        if self._p is None:
            return {j: Fraction(x, den) for j, x in w.items()}
        return w

    def _insert(self, w) -> bool:
        """Insert the loaded vector w, which the span may keep and change."""
        w, _ = self._reduce(w)
        if not w:
            return False
        p = self._p
        q = max(w) if self.from_right else min(w)
        a = w.pop(q)
        rows = self._rows
        # the rows that meet the new pivot, which back-elimination clears
        hit = [r for r, tail in rows.items() if q in tail]
        if p is not None:
            if a != 1:
                inv = pow(a, -1, p)
                w = {j: x * inv % p for j, x in w.items()}
            for r in hit:
                tail = rows[r]
                _axpy(p, tail, tail.pop(q), w)
            rows[q] = w
        else:
            # the row e_q + w / a, made primitive with a positive denominator
            g = gcd(a, *w.values())
            if a < 0:
                g = -g
            c = a // g
            if g != 1:
                w = {j: x // g for j, x in w.items()}
            den = self._den
            for r in hit:
                tail = rows[r]
                b = tail.pop(q)
                # e_r + tail/cr - (b/cr)(e_q + w/c) = e_r + (c tail - b w)/(c cr)
                if c != 1:
                    for j in tail:
                        tail[j] *= c
                _axpy(None, tail, b, w)
                cr = den[r] * c
                h = gcd(cr, *tail.values())
                if h != 1:
                    cr //= h
                    for j in tail:
                        tail[j] //= h
                den[r] = cr
            rows[q] = w
            den[q] = c
        self._pivots = None
        return True

    def kernel_sparse(self):
        """Basis of the vectors orthogonal to every row, one per non-pivot
        column f in ascending order: 1 at f, 0 at every other non-pivot."""
        one = self.field.one
        p = self._p
        free = [f for f in range(self.width) if f not in self._rows]
        basis = {f: {f: one} for f in free}
        if p is None:
            for q, tail in self._rows.items():
                c = self._den[q]
                for f, x in tail.items():
                    basis[f][q] = Fraction(-x, c)
        else:
            for q, tail in self._rows.items():
                for f, x in tail.items():
                    basis[f][q] = p - x
        return [basis[f] for f in free]

    def reduce_sparse(self, v):
        """Residue of the vector v modulo the span, as a fresh sparse dict."""
        den, w = self._load(v)
        w, s = self._reduce(w)
        return self._scalars(w, den * s)

    def reduce(self, vec):
        """Residue of vec modulo the span (a fresh list)."""
        return dense(self.field, self.width, self.reduce_sparse(vec))

    def contains(self, vec) -> bool:
        return not self._reduce(self._load(vec)[1])[0]

    def add(self, vec) -> bool:
        """Insert vec; True when the span grew."""
        return self._insert(self._load(vec)[1])

    def extend(self, vectors):
        """Insert every vector.

        The span and its echelon rows do not depend on the order of
        insertion, so the vectors go in with the latest leading coordinate
        first (the earliest, with ``pivot_from_right``).  A new pivot then
        seldom lies in the tail of an older row, and the rows already
        stored rarely need back-elimination.  Each vector is loaded once.
        """
        vecs = [w for _, w in map(self._load, vectors) if w]
        if self.from_right:
            vecs.sort(key=max)
        else:
            vecs.sort(key=min, reverse=True)
        for w in vecs:
            self._insert(w)

    def express(self, vec):
        """Coefficients of vec over the stored rows, or None if outside.

        Row order follows `basis_rows` (sorted by pivot).  Every row is zero
        at the other rows' pivots, so the coefficient of a row is the entry
        of vec at its pivot.
        """
        den, w = self._load(vec)
        coeffs = [w.get(q, 0) for q in self.pivots]
        if self._reduce(w)[0]:
            return None
        if self._p is None:
            return [Fraction(x, den) for x in coeffs]
        return coeffs

    def rows_sparse(self):
        """The reduced echelon rows, sorted by pivot, as fresh sparse dicts."""
        one = self.field.one
        return [{q: one, **self._scalars(self._rows[q], self._den.get(q, 1))}
                for q in self.pivots]

    def basis_rows(self):
        return [tuple(dense(self.field, self.width, row)) for row in self.rows_sparse()]


def extend_independent(span: RowSpan, candidates):
    """Greedily pick candidates that enlarge `span`; returns the picked ones,
    as given.

    The span is mutated.  Deterministic: candidates are tried in the order
    given and the earliest independent ones win.
    """
    return [v for v in candidates if span.add(v)]


def columns_to_rows(columns, nrows):
    """The rows of the matrix with the given sparse columns ``{row: nonzero}``,
    as sparse ``{column: nonzero}`` dicts."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def apply_columns(field, columns, vec):
    """The sparse vector sum_c vec[c] * columns[c], for a sparse vec and
    sparse columns ``{row: nonzero}``; `columns` is anything indexed by the
    keys of vec."""
    out = {}
    get = out.get
    for c, x in vec.items():
        for r, y in columns[c].items():
            out[r] = get(r, 0) + x * y
    return normalized(field, out)
