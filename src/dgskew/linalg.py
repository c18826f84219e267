"""Exact linear algebra over a session field, on one sparse echelon kernel.

The kernel is `RowSpan`: a reduced row echelon form kept as sparse rows
(``{column: nonzero}``) indexed by their pivots and grown one vector at a
time by Gauss-Jordan steps.  Rows and vectors store only their nonzero
entries, so elimination work follows the nonzeros rather than the shape;
the matrices this engine meets are mostly ~97% zeros.  Q scalars are
`Fraction` and F_p scalars are ints reduced mod p; the inner loops apply
the native operators to them directly, so every step is exact.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import check_same_field


def _modulus(field):
    """p for F_p, None for Q."""
    return getattr(field, "p", None)


def _sparse(p, vec):
    """The nonzero entries of a dense sequence or a sparse dict, as a fresh
    {index: scalar} with each scalar a `Fraction` (p is None) or an int in
    [1, p)."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p is None:
        return {j: x if type(x) is Fraction else Fraction(x) for j, x in items if x}
    return {j: y for j, x in items if (y := x % p)}


def dense(field, width, vec):
    """The sparse vector vec as a fresh dense list of the given width."""
    out = [field.zero] * width
    for j, x in vec.items():
        out[j] = x
    return out


def _axpy(p, dst, c, src):
    """dst -= c * src on sparse vectors, in place; c is a nonzero scalar."""
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

    Each row is kept as its pivot plus a tail ``{column: nonzero}``; the
    pivot entry is 1 and every tail is zero at all other pivots, so the rows
    form the reduced echelon basis of the span and `reduce` residues are
    canonical.  With ``pivot_from_right`` pivots are taken at the *last*
    nonzero coordinate (used where the complement of a span must consist of
    the lexicographically smallest coordinates).

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

    def reduce_sparse(self, v):
        """Reduce the sparse vector v modulo the span in place; returns v."""
        rows = self._rows
        # a tail is zero at every other pivot, so the pivots v hits now are
        # all it will ever hit, and each is cleared exactly once
        hits = [q for q in v if q in rows] if len(v) <= len(rows) else [q for q in rows if q in v]
        p = self._p
        for q in hits:
            _axpy(p, v, v.pop(q), rows[q])
        return v

    def _insert(self, v) -> bool:
        """Insert the sparse vector v, which the span may keep and change."""
        self.reduce_sparse(v)
        if not v:
            return False
        p = self._p
        q = max(v) if self.from_right else min(v)
        c = v.pop(q)
        if c != 1:
            if p is None:
                inv = 1 / c
                v = {j: x * inv for j, x in v.items()}
            else:
                inv = pow(c, -1, p)
                v = {j: x * inv % p for j, x in v.items()}
        for row in self._rows.values():
            a = row.pop(q, None)
            if a is not None:
                _axpy(p, row, a, v)
        self._rows[q] = v
        self._pivots = None
        return True

    def kernel_sparse(self):
        """Basis of the vectors orthogonal to every row, one per non-pivot
        column f in ascending order: 1 at f, 0 at every other non-pivot."""
        one = self.field.one
        p = self._p
        free = [f for f in range(self.width) if f not in self._rows]
        basis = {f: {f: one} for f in free}
        for q, tail in self._rows.items():
            for f, x in tail.items():
                basis[f][q] = -x if p is None else p - x
        return [basis[f] for f in free]

    def reduce(self, vec):
        """Residue of vec modulo the span (a fresh list)."""
        return dense(self.field, self.width, self.reduce_sparse(_sparse(self._p, vec)))

    def contains(self, vec) -> bool:
        return not self.reduce_sparse(_sparse(self._p, vec))

    def add(self, vec) -> bool:
        """Insert vec; True when the span grew."""
        return self._insert(_sparse(self._p, vec))

    def extend(self, vectors):
        """Insert every vector.

        The span and its echelon rows do not depend on the order of
        insertion, so the vectors go in with the latest leading coordinate
        first (the earliest, with ``pivot_from_right``).  A new pivot then
        seldom lies in the tail of an older row, and the rows already
        stored rarely need back-elimination.
        """
        p = self._p
        vecs = [v for v in (_sparse(p, vec) for vec in vectors) if v]
        if self.from_right:
            vecs.sort(key=max)
        else:
            vecs.sort(key=min, reverse=True)
        for v in vecs:
            self.add(v)

    def express(self, vec):
        """Coefficients of vec over the stored rows, or None if outside.

        Row order follows `basis_rows` (sorted by pivot).  Every row is zero
        at the other rows' pivots, so the coefficient of a row is the entry
        of vec at its pivot.
        """
        v = _sparse(self._p, vec)
        zero = self.field.zero
        coeffs = [v.get(q, zero) for q in self.pivots]
        if self.reduce_sparse(v):
            return None
        return coeffs

    def rows_sparse(self):
        """The reduced echelon rows, sorted by pivot, as fresh sparse dicts."""
        one = self.field.one
        return [{q: one, **self._rows[q]} for q in self.pivots]

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
    return _sparse(_modulus(field), out)
