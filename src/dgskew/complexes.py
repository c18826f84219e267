"""Cochain complexes over a session field, one column elimination per map.

A complex gives `width(n)`, the dimension of C^n (zero past its last
term), and `columns(n, skip)`: the sparse columns ``{row: nonzero}`` of
d^n: C^n -> C^(n+1) in index order, less those whose index is in `skip`.

`CochainComplex` stores each boundary space B^n = im d^(n-1) as a reduced
row echelon, built once from B^0 = 0 upwards from only the columns of
d^(n-1) off B^(n-1)'s pivots: d^(n-1) kills B^(n-1), and the unit vectors
off its pivots complete its rows to a basis.  Every rank and dim is read
off the stored B^n.

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
"""

from __future__ import annotations

from .linalg import RowSpan, apply_columns, columns_to_rows


class CochainComplex:
    """One complex: its boundaries and classes, each built once, and its
    cocycles on demand."""

    def __init__(self, field, width, columns):
        self.field = field
        self.width = width
        self.columns = columns
        self._boundaries = [RowSpan(field, width(0))]     # B^0 = 0
        self._classes = []

    def boundaries(self, n: int) -> RowSpan:
        """B^n, built with every lower boundary space on first use; the
        stored span, read-only to callers."""
        built = self._boundaries
        while len(built) <= n:
            k = len(built) - 1
            span = RowSpan(self.field, self.width(k + 1))
            if span.width:
                span.extend(self.columns(k, frozenset(built[k].pivots)))
            built.append(span)
        return built[n]

    def rank(self, n: int) -> int:
        """The rank of d^n."""
        return self.boundaries(n + 1).dim

    def dim(self, n: int) -> int:
        """dim H^n."""
        return self.width(n) - self.rank(n) - self.boundaries(n).dim

    def _kernel(self, n: int, skip):
        """A basis of the kernel of d^n on the columns off `skip`, indexed
        as in C^n."""
        image = self.boundaries(n + 1)
        kept = [j for j in range(self.width(n)) if j not in skip]
        # past the last term d^n maps to C^(n+1) = 0: no columns to read
        columns = self.columns(n, skip) if image.width else [{} for _ in kept]
        echelon = RowSpan(self.field, len(kept))
        if image.dim:
            rows = columns_to_rows(columns, image.width)
            echelon.extend(rows[q] for q in image.pivots)
        if echelon.dim != image.dim:
            raise AssertionError(f"degree {n}: the rows of d^{n} at the pivots of B^{n + 1} "
                                 f"have rank {echelon.dim}, its columns {image.dim}")
        kernel = echelon.kernel_sparse()
        if any(apply_columns(self.field, columns, v) for v in kernel):
            raise AssertionError(f"degree {n}: d^{n} does not kill the kernel of its rows "
                                 f"at the pivots of B^{n + 1}")
        return [{kept[k]: x for k, x in v.items()} for v in kernel]

    def cocycles(self, n: int) -> list:
        """The kernel basis of d^n, one vector per free column of its
        reduced row echelon."""
        return self._kernel(n, frozenset())

    def classes(self, n: int) -> RowSpan:
        """The reduced echelon complement of B^n in Z^n: the cocycles that
        vanish at B^n's pivots.  Built once, after every lower degree's;
        the stored span, read-only to callers."""
        built = self._classes
        while len(built) <= n:
            k = len(built)
            span = RowSpan(self.field, self.width(k))
            span.extend(self._kernel(k, frozenset(self.boundaries(k).pivots)))
            built.append(span)
        return built[n]
