"""Cochain complexes over a session field, one column elimination per map.

A complex gives `width(n)`, the dimension of C^n (zero past its last
term), and `columns(n, skip)`: the sparse columns ``{row: nonzero}`` of
d^n: C^n -> C^(n+1) in index order, less those whose index is in `skip`.
A callback may return any nonzero multiple of d^n, one multiple per call:
the resolution's dual complexes over Q hand over integral columns, S times
d^n.  That is safe because every use of a call's columns is invariant under
one nonzero scalar: the span they give B^(n+1), the kernel of their rows,
the test that they kill a vector.  So every rank, boundary space, kernel
basis, class and witness is the same whichever multiple comes back, and
two calls for the same degree may return different multiples.

`CochainComplex` stores each boundary space B^n = im d^(n-1) as a
`RowSpan`, built once from B^0 = 0 upwards from only the columns of
d^(n-1) off B^(n-1)'s pivots: d^(n-1) kills B^(n-1), and the unit vectors
off its pivots complete its rows to a basis.  Every rank and dim is read
off the stored B^n, and B^n is read only for its pivots, its dim and
residues, so its rows stay the forward echelon they were inserted as and
are never reduced.

Kernels are eliminated on demand, on the rows of d^n at B^(n+1)'s pivots
only: every column of d^n lies in B^(n+1), where a vector is fixed by
those entries, so these rows have the kernel, hence the reduced echelon,
of all the rows (`cocycles(n)`).  On the columns off B^n's pivots that
kernel is {z in Z^n vanishing at B^n's pivots}, a canonical complement of
B^n in Z^n (`classes(n)`).  Each kernel is checked, raising AssertionError
that names the degree.  Its rows must have rank dim B^(n+1), as B^(n+1)
projects injectively onto its pivots: that refuses a B^(n+1) with a vector
too many.  And d^n itself must kill every kernel vector: that refuses one
short of a vector, whose kernel is too large.  `classes(n)` builds every
lower degree's first, so each B^k, k <= n, has passed both checks.

An elimination puts its pivots at the first nonzero in the order its
columns come in, so the kernel vector of a free column f is 1 at f, 0 at
every other free column and nonzero only at columns before f.  `cocycles`
takes the columns in the order of C^n: its basis is the one the
certificate's witnesses are read off.  `classes` takes them last-first: the
first nonzero of each kernel vector in C^n is then at its free column,
where every other vector is 0, so the basis is already the reduced echelon
of the classes, and it goes into the class span with no arithmetic.
`classes(n)` reads the columns of d^n off B^n's pivots that
`boundaries(n + 1)` eliminated, kept until then for it alone, so each is
built once.  `cocycles(n)` asks the callback for every column of d^n.  A
negative degree raises ValueError.

The engine only reads what the callback hands it, and every `RowSpan`
copies what it is given, so a callback may hand over columns it keeps,
such as cached product tables.

A caller may name the maps, `key(n)` a hashable name of d^n, and own a
dict `store` of boundary spaces by name, shared by every complex it gives
it.  B^(n+1) = im d^n depends on the map alone, not on the complex around
it nor on B^n, and every read of a boundary space (its dim, its pivots,
`reduce`) is canonical for the subspace: so a complex whose d^n has a name
in the store takes that span and eliminates nothing.  A reused span is
checked, raising AssertionError that names the degree, unless its width is
dim C^(n+1) and its dim at most dim C^n - dim B^n, the highest rank of a
map that kills B^n; `classes` then checks it against this complex's own
d^n as it checks every B^(n+1).  No columns of d^n were read for a reused
span, so `classes(n)` asks the callback for those off B^n's pivots.
"""

from __future__ import annotations

from .linalg import RowSpan, columns_to_rows, kills


def _nonnegative(n: int):
    """Refuse a negative degree, which list indexing would wrap around."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")


class CochainComplex:
    """One complex: its boundaries and classes, each built once, and its
    cocycles on demand."""

    def __init__(self, field, width, columns, key=None, store=None):
        self.field = field
        self.width = width
        self.columns = columns
        # key(n) names the map d^n; store, a dict the caller owns, keeps
        # B^(n+1) = im d^n under that name for every complex given it
        self._key = key
        self._store = store
        self._boundaries = [RowSpan(field, width(0))]     # B^0 = 0
        # n -> the columns of d^n off B^n's pivots, read by boundaries(n + 1)
        # and kept until classes(n), their one other reader, pops them
        self._columns = {}
        self._classes = []

    def boundaries(self, n: int) -> RowSpan:
        """B^n, built with every lower boundary space on first use; the
        stored span, read-only to callers."""
        _nonnegative(n)
        built = self._boundaries
        while len(built) <= n:
            k = len(built) - 1
            name = None if self._key is None else self._key(k)
            span = None if name is None else self._store.get(name)
            if span is None:
                span = RowSpan(self.field, self.width(k + 1))
                if span.width:
                    columns = self._columns[k] = self.columns(k, frozenset(built[k].pivots))
                    span.extend(columns)
                if name is not None:
                    self._store[name] = span
            else:
                # d^k kills B^k: its rank is at most dim C^k - dim B^k
                width, most = self.width(k + 1), self.width(k) - built[k].dim
                if span.width != width or span.dim > most:
                    raise AssertionError(
                        f"degree {k}: the stored image of d^{k} has width {span.width} "
                        f"and dim {span.dim}, but C^{k + 1} has width {width} and d^{k} "
                        f"rank at most {most}")
            built.append(span)
        return built[n]

    def rank(self, n: int) -> int:
        """The rank of d^n."""
        _nonnegative(n)
        return self.boundaries(n + 1).dim

    def dim(self, n: int) -> int:
        """dim H^n."""
        return self.width(n) - self.rank(n) - self.boundaries(n).dim

    def _kernel(self, n: int, kept, columns):
        """A basis of the kernel of d^n on `columns`, the columns of the
        indices `kept` of C^n in that order, built indexed as in C^n.

        Pivots sit at the first nonzero in the order of `kept`, so the
        vector of each free index f is 1 at f, 0 at every other free index
        and nonzero only at indices before f in that order.  `cocycles`
        keeps the order of C^n.  `classes` reverses it: each vector's first
        nonzero in C^n is then at its free index, and the basis is the
        reduced echelon of its span, which needs no further reduction."""
        image = self.boundaries(n + 1)
        echelon = RowSpan(self.field, len(kept))
        if image.dim:
            echelon.extend(columns_to_rows(columns, image.pivots))
        if echelon.dim != image.dim:
            raise AssertionError(f"degree {n}: the rows of d^{n} at the pivots of B^{n + 1} "
                                 f"have rank {echelon.dim}, its columns {image.dim}")
        kernel = echelon.kernel_sparse(kept)
        by_index = dict(zip(kept, columns))
        if not all(kills(self.field, by_index, v) for v in kernel):
            raise AssertionError(f"degree {n}: d^{n} does not kill the kernel of its rows "
                                 f"at the pivots of B^{n + 1}")
        return kernel

    def cocycles(self, n: int) -> list:
        """The kernel basis of d^n, one vector per free column of its
        reduced row echelon."""
        _nonnegative(n)
        kept = range(self.width(n))
        # past the last term d^n maps to C^(n+1) = 0: no columns to read
        columns = (self.columns(n, frozenset()) if self.boundaries(n + 1).width
                   else [{} for _ in kept])
        return self._kernel(n, kept, columns)

    def classes(self, n: int) -> RowSpan:
        """The reduced echelon complement of B^n in Z^n: the cocycles that
        vanish at B^n's pivots.  Built once, after every lower degree's;
        the stored span, read-only to callers."""
        _nonnegative(n)
        built = self._classes
        while len(built) <= n:
            k = len(built)
            skip = frozenset(self.boundaries(k).pivots)
            kept = [j for j in range(self.width(k)) if j not in skip]
            # past the last term no columns were read: d^k maps to C^(k+1) = 0;
            # a B^(k+1) from the store left none to read, so they are asked for
            if not self.boundaries(k + 1).width:
                columns = [{} for _ in kept]
            elif k in self._columns:
                columns = self._columns.pop(k)
            else:
                columns = self.columns(k, skip)
            span = RowSpan(self.field, self.width(k))
            span.extend(self._kernel(k, kept[::-1], columns[::-1]))
            built.append(span)
        return built[n]
