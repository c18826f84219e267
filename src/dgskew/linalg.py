"""Exact linear algebra over a session field, on one sparse echelon kernel.

The kernel is `RowSpan`: a row echelon form kept as sparse rows
(``{column: nonzero}``) indexed by their pivots and grown one vector at a
time.  A new vector is cleared only while its leading coordinate is a
pivot, so the rows stay a forward echelon, and one whose leading
coordinate is not a pivot is stored in one step, with no arithmetic: most
of what `RowSpan.extend` inserts goes in that way.  The rows are
back-substituted into the reduced echelon form only when a caller reads
the rows themselves (`rows_sparse`, `kernel_sparse`, `express`).
Pivots, ranks, residues and membership never need that step, and the
largest spans, the boundary spaces of `complexes`, are read for nothing
else.  Rows and vectors store only their nonzero entries, so elimination
work follows the nonzeros rather than the shape; the matrices this engine
meets are mostly ~97% zeros.
Over F_p the rows hold ints reduced mod p.  Over Q they are fraction-free
(Bareiss 1968): each row is a primitive integer row over one positive
denominator, vectors are cleared of denominators when they come in, and
elimination multiplies and subtracts ints, so no `Fraction` arithmetic runs
inside it.  The scalars the span hands back are in the canonical form of
`fields`: an int when integral, a `Fraction` only when a denominator is
left.  The inner loops apply the native operators directly, so every step
is exact.

A span copies every vector it is given and leaves the caller's as it was,
and every vector it hands back is a fresh one.

Pivots sit at the first nonzero coordinate, so a span has exactly one
reduced echelon form, and every echelon form of it has the same pivots and
leaves the same residues.  Echelon rows, kernel bases, residues and
coefficient vectors are therefore canonical: they depend on the span and
the input, never on the order of elimination or on whether the rows have
been reduced yet.

Every vector here is a sparse dict; `Matrix` is the one dense type, an
immutable value such as the defining matrix M.  `rref`, `rank`,
`kernel_basis` and `inverse` all run its rows through a `RowSpan` and
densify what it hands back, and `mul` and `apply` visit only nonzero
entries.  Maps that are built column by column stay sparse:
`columns_to_rows` turns their columns into the rows a `RowSpan` eliminates,
and `apply_columns` applies them to a sparse vector.  `integral_columns`
brings a map's columns over Q to ints over one least denominator, the form
of the product tables that the resolution's maps are built from, so those
maps load and are checked with no `Fraction`.  The checks that a
composite such as d o d vanishes call `kills`, which tests the same sums
for zero without building the image.
Scalars come to normal form through `fields.normalized` (one at a time,
in `Matrix.mul` and `apply`, through its scalar step `_rational`); the only
Field methods called here are `coerce`, on the entries `Matrix.from_rows` takes
from outside, and `to_str`, on output.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import itemgetter

from .fields import Frozen, _all_zero, _modulus, _rational, check_same_field, normalized


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


def _ratio(x, den):
    """The rational x / den in canonical form, for ints x and den > 0."""
    return x // den if x % den == 0 else Fraction(x, den)


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


class Matrix(Frozen):
    """Immutable dense matrix over a fixed session field."""

    def __init__(self, field, nrows: int, ncols: int, entries: tuple):
        vars(self).update(field=field, nrows=nrows, ncols=ncols, entries=entries)

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
            out.append(tuple(map(_rational, acc)) if p is None else tuple(x % p for x in acc))
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
            out.append(_rational(acc) if p is None else acc % p)
        return tuple(out)

    def _echelon(self) -> "RowSpan":
        """The row space of this matrix (pivots from the left)."""
        span = RowSpan(self.field, self.ncols)
        span.extend(self.entries)
        return span

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        F, n = self.field, self.ncols
        span = self._echelon()
        rows = [tuple(dense(F, n, row)) for row in span.rows_sparse()]
        rows += [(F.zero,) * n] * (self.nrows - len(rows))
        return rows, tuple(span.pivots)

    def rank(self) -> int:
        return self._echelon().dim

    def kernel_basis(self):
        """Basis of {v : Av = 0}, one vector per free column, echelon-normalized.

        Vector j has a 1 in its free coordinate and 0 in every other free
        coordinate, so the result is deterministic and reduced.
        """
        return [tuple(dense(self.field, self.ncols, v)) for v in self._echelon().kernel_sparse()]

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
    """Incrementally maintained row space, stored sparse as a forward
    echelon and reduced only when a caller reads its rows.

    Each row is 1 at its pivot, the first nonzero coordinate, and no two
    rows share a pivot.  An insertion clears a new vector only while its
    leading coordinate is a pivot and leaves the stored rows as they are,
    so a row's tail may still hold later pivots.  A vector whose leading
    coordinate is not a pivot is stored in one step: `extend` finds that
    coordinate once, as its sort key, and sends only the vectors led at a
    pivot through the clearing step.  `pivots`, `dim`, `free`,
    `reduce` and `contains` read that forward echelon as it stands: the
    pivots, the residues and membership are the same for every echelon
    form of a span.  `rows_sparse`, `kernel_sparse` and `express` read the
    rows themselves, so they first back-substitute into the reduced echelon
    form, where each row is zero at every other row's pivot; the span then
    counts as reduced until an insertion leaves a pivot in some tail.  A
    span has exactly one reduced echelon form, so every output is
    canonical.  A caller that wants pivots at the last nonzero coordinate
    indexes its coordinates in reverse.

    A row is kept as its pivot q plus a tail ``{column: nonzero}``.  Over
    F_p the tail holds ints in [1, p).  Over Q the row is kept
    fraction-free: the tail holds ints and q also has a denominator c > 0
    that shares no common factor with them, standing for the row
    e_q + tail / c.  That form is unique, and all elimination over Q runs
    on ints: a vector is brought to one common denominator when it comes
    in, and a `Fraction` is built only for a scalar handed back whose
    denominator does not cancel.

    Vectors are sparse ``{index: nonzero}`` dicts; the dense rows of a
    `Matrix` load as well.  A vector handed in is copied and left as it
    was.  Every vector handed back is a fresh sparse dict holding
    normalized scalars (over Q an int when integral, else a `Fraction`;
    over F_p ints in [1, p)); `express` hands back a list of coefficients,
    one per row.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self._p = _modulus(field)  # None over Q
        self._rows = {}       # pivot -> tail
        self._den = {}        # pivot -> denominator c of its row (Q only)
        self._pivots = []     # the pivots, kept sorted as rows are added
        self._reduced = True  # no tail holds a pivot

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        """Pivot columns, ascending: the pivots of `rows_sparse`, in order.

        The span's own sorted list, not a copy: read-only to callers."""
        return self._pivots

    def _load(self, vec):
        """(den, w): vec as a fresh sparse vector w over the working scalars
        (ints over Q, ints in [1, p) over F_p), with vec = w / den."""
        if self._p is None:
            return _integral(vec)
        return 1, normalized(self.field, vec)

    def _clear(self, w, q):
        """Clear the pivot coordinate q of the loaded vector w with q's row,
        in place; returns the factor w was scaled by (1 over F_p)."""
        x = w.pop(q)
        tail = self._rows[q]
        if not tail:
            # the unit row e_q, whose denominator is 1 over Q
            return 1
        if self._p is not None:
            _axpy(self._p, w, x, tail)
            return 1
        # w - x (e_q + tail / c), times c / gcd(x, c) to stay integral
        c = self._den[q]
        g = gcd(x, c)
        f = c // g
        if f != 1:
            for j in w:
                w[j] *= f
        _axpy(None, w, x // g, tail)
        return f

    def _clear_leading(self, w):
        """Clear the loaded vector w in place while its leading coordinate
        is a pivot; returns that coordinate once it is not, None once w is
        zero."""
        rows = self._rows
        while w:
            q = min(w)
            if q not in rows:
                return q
            self._clear(w, q)
        return None

    def _reduce(self, w):
        """Reduce the loaded vector w modulo the span in place; returns
        (w, s) with w / s the residue (s = 1 over F_p)."""
        rows = self._rows
        hits = list(w.keys() & rows.keys())
        if not hits:
            return w, 1
        # smallest pivot first: clearing q adds entries only past q, so a
        # cleared pivot never comes back, and only a forward tail brings new
        # ones
        heapify(hits)
        forward = not self._reduced
        s = 1
        while hits:
            q = heappop(hits)
            if q in w:
                if forward:
                    for r in rows[q].keys() & rows.keys():
                        heappush(hits, r)
                s *= self._clear(w, q)
        return w, s

    def _scalars(self, w, den):
        """The loaded vector w / den with normalized field scalars: w itself
        when den is 1 (always over F_p), else a fresh dict."""
        if den == 1:
            return w
        return {j: _ratio(x, den) for j, x in w.items()}

    def _insert(self, w) -> bool:
        """Insert the loaded vector w, which the span may keep and change."""
        q = self._clear_leading(w)
        if q is None:
            return False
        self._place(q, w)
        return True

    def _place(self, q, w):
        """Store the loaded nonzero vector w, whose leading coordinate q is
        not a pivot, as the row of the new pivot q; the span keeps w."""
        a = w.pop(q)
        rows = self._rows
        order = self._pivots
        i = bisect_left(order, q)
        if self._reduced:
            # a tail holds only columns past its pivot, so only rows pivoted
            # before q can hold q
            self._reduced = (rows.keys().isdisjoint(w)
                             and not (i and any(q in rows[r] for r in order[:i])))
        p = self._p
        if p is not None:
            if a != 1:
                inv = pow(a, -1, p)
                w = {j: x * inv % p for j, x in w.items()}
        else:
            # the row e_q + w / a, made primitive with a positive denominator
            g = gcd(a, *w.values())
            if a < 0:
                g = -g
            if g != 1:
                w = {j: x // g for j, x in w.items()}
            self._den[q] = a // g
        rows[q] = w
        order.insert(i, q)

    def _back_substitute(self):
        """Bring the rows to the reduced echelon form, unless they are in it.

        Largest pivot first: the rows a tail is cleared with are reduced by
        then, so each pivot in a tail is cleared once and brings no other."""
        if self._reduced:
            return
        rows = self._rows
        for q in reversed(self._pivots):
            tail = rows[q]
            hits = tail.keys() & rows.keys()
            if not hits:
                continue
            s = 1
            for r in hits:
                s *= self._clear(tail, r)
            if self._p is None:
                # the row e_q + tail / (c s), made primitive again
                c = self._den[q] * s
                h = gcd(c, *tail.values())
                if h != 1:
                    c //= h
                    for j in tail:
                        tail[j] //= h
                self._den[q] = c
        self._reduced = True

    @property
    def free(self):
        """The non-pivot columns, ascending, as a fresh list."""
        return [f for f in range(self.width) if f not in self._rows]

    def kernel_sparse(self, labels=None):
        """Basis of the vectors orthogonal to every row, one per non-pivot
        column f in ascending order: 1 at f, 0 at every other non-pivot.
        With `labels`, each vector keys its coordinate k as labels[k]."""
        self._back_substitute()
        one = self.field.one
        p = self._p
        free = self.free
        at = range(self.width) if labels is None else labels
        basis = {f: {at[f]: one} for f in free}
        if p is None:
            for q, tail in self._rows.items():
                c = self._den[q]
                key = at[q]
                for f, x in tail.items():
                    basis[f][key] = _ratio(-x, c)
        else:
            for q, tail in self._rows.items():
                key = at[q]
                for f, x in tail.items():
                    basis[f][key] = p - x
        return [basis[f] for f in free]

    def reduce(self, vec):
        """Residue of vec modulo the span, as a fresh sparse dict."""
        den, w = self._load(vec)
        w, s = self._reduce(w)
        return self._scalars(w, den * s)

    def contains(self, vec) -> bool:
        return self._clear_leading(self._load(vec)[1]) is None

    def add(self, vec) -> bool:
        """Insert vec; True when the span grew."""
        return self._insert(self._load(vec)[1])

    def extend(self, vectors):
        """Insert every vector.

        The span does not depend on the order of insertion, so the vectors
        go in with the latest leading coordinate first.  A new vector's
        leading coordinate is then seldom a pivot already, and such a
        vector is stored in one step, with no arithmetic and no second
        search for its lead; only a vector whose lead is already a pivot
        is cleared first.  Nor does a new pivot often lie in an older row's
        tail: the rows of a reduced echelon form go in this way with no
        arithmetic and leave the span reduced.  Each vector is loaded once
        and its leading coordinate found once.
        """
        leads = [(min(w), w) for _, w in map(self._load, vectors) if w]
        leads.sort(key=itemgetter(0), reverse=True)
        rows = self._rows
        for q, w in leads:
            if q in rows:
                self._insert(w)
            else:
                self._place(q, w)

    def express(self, vec):
        """Coefficients of vec over the reduced rows, or None if outside.

        Row order follows `rows_sparse` (sorted by pivot).  Every reduced
        row is zero at the other rows' pivots, so the coefficient of a row
        is the entry of vec at its pivot.
        """
        self._back_substitute()
        den, w = self._load(vec)
        coeffs = [w.get(q, 0) for q in self.pivots]
        if self._clear_leading(w) is not None:
            return None
        if den == 1:
            return coeffs
        return [_ratio(x, den) for x in coeffs]

    def rows_sparse(self):
        """The reduced echelon rows, sorted by pivot, as fresh sparse dicts."""
        self._back_substitute()
        one = self.field.one
        # `_scalars` may hand back the stored tail itself; ** copies it
        return [{q: one, **self._scalars(self._rows[q], self._den.get(q, 1))}
                for q in self.pivots]


def columns_to_rows(columns, indices):
    """The rows at `indices`, in that order, of the matrix with the given
    sparse columns ``{row: nonzero}``, as fresh sparse ``{column: nonzero}``
    dicts."""
    rows = defaultdict(dict)
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return [rows[i] for i in indices]


def integral_columns(columns, dens):
    """(den, cols) for the map over Q whose column c is columns[c] /
    dens[c], for sparse columns of rationals and a list of positive ints
    dens: cols are integral columns and den > 0 is the least denominator
    with cols / den the map.  Where no denominator occurs (every dens[c]
    is 1 and every entry an int, as over F_p) cols is `columns` itself,
    else a list of fresh columns."""
    if max(dens, default=1) == 1 and Fraction not in set(
            map(type, chain.from_iterable(map(dict.values, columns)))):
        return 1, columns
    loaded = [(d * e, w) for d, (e, w) in zip(dens, map(_integral, columns))]
    den = lcm(*(d for d, _ in loaded))
    common = den
    for d, w in loaded:
        f = den // d
        if f != 1:
            for j in w:
                w[j] *= f
        if common != 1:
            common = gcd(common, *w.values())
    if common != 1:
        den //= common
        for _, w in loaded:
            for j in w:
                w[j] //= common
    return den, [w for _, w in loaded]


def _column_sums(columns, vec):
    """The sums sum_c vec[c] * columns[c] as they come, unnormalized: over
    Q exact numbers, possibly zero, over F_p unreduced ints."""
    out = {}
    get = out.get
    for c, x in vec.items():
        for r, y in columns[c].items():
            out[r] = get(r, 0) + x * y
    return out


def apply_columns(field, columns, vec):
    """The sparse vector sum_c vec[c] * columns[c], for a sparse vec and
    sparse columns ``{row: nonzero}``; `columns` is anything indexed by the
    keys of vec.  To test only whether it is zero, `kills` does less."""
    return normalized(field, _column_sums(columns, vec))


def kills(field, columns, vec) -> bool:
    """True when `apply_columns` would give zero: the sums are tested as they
    come (exactly over Q, mod p over F_p), and no result is built."""
    return _all_zero(field, _column_sums(columns, vec).values())
