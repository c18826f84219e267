"""Truncated minimal free resolutions of the trivial module, graded Ext
against the algebra, and Gorenstein / non-Gorenstein certificates.

The resolution is built one internal degree at a time, in a single pass
per homological step: at degree j the kernel of d_{i-1} is known, and the
new generators of F_i are the kernel vectors outside the image of the
generators already chosen (all of lower degree), picked greedily in kernel
basis order.  That image is exactly (augmentation ideal) * kernel in degree
j, because by exactness below j every lower kernel vector is d_i of an
element of F_i, and d_i is a module map.  Every differential entry then has
positive degree, which is the defining property of a minimal resolution.

Each (i, j) step eliminates d_i once, on the lower generators and its rows
at the free coordinates of the stored echelon of d_{i-1} at j, and stores
its own (see `minimal_resolution`).  As each step completes,
`_assert_complex` checks d_{i-1} d_i = 0 at every internal degree.

Ext against the algebra is the cohomology of the dual complex at each
internal degree m, Hom(F_i, A)_m with d^i the dual of d_{i+1}: one
`complexes.CochainComplex` per m, kept on the report as
`ResolutionReport.dual(m)` and read by the certificate for its witnesses
and their independence.  The dual complexes of one report share one store
of boundary spaces, keyed by the map: B^(i+1) = im d^i depends on d^i
alone.  The resolution of k<x,y>/(q^2), q a linear form (the degenerate
quadratics and the NonGorenstein flagships' presentations), has the one
entry q at every step from 3 on, so there d^i at m is d^(i-1) at m + 1 and
is eliminated once (see `ResolutionReport.dual` and `complexes`).

Every vector is a sparse dict ``{index: nonzero}``: a differential entry
on its degree's algebra basis, a kernel element on a free module, a
functional on Hom(F_i, A).  Every map of free modules (d_i and its dual) is
built as a list of sparse columns ``{row: nonzero}`` of S times the map, one
per basis word of the source, read off the algebra's cached product tables;
S is the lcm of those tables' denominators, so over Q the columns are
integral and the eliminations and d o d checks on them run on ints (S is 1
over F_p and wherever no table has a denominator).  One multiple of a map
has the map's span, kernel and rank.  d_i is stored only as the entries of
F_i, from which `_map_columns` builds it at each degree.

The stages read six things from an algebra, a `TruncatedAlgebra` or any
object with the same names: `field`; `bound`, the top internal degree;
`basis`, read only for its per-degree lengths; `mul(u, p, v, q)`, the
vector of u v for u in A_p and v in A_q; `mul_columns(coeffs, degree, q,
left)`, the table of c u (left) or u c on A_q for the element c = coeffs of
A_degree, as `(den, columns)` with columns / den the products; and
`element_render(vec, degree)`, for the witnesses.  So
`certify(minimal_resolution(algebra, hom_bound))` certifies any such
algebra; `gorenstein_certificate` is that of a truncated presentation.

All positive statements are relative to the truncation: a report records,
per homological degree, the window of internal degrees where its data is
complete.  NonGorenstein verdicts are finitely witnessed (two classes
independent modulo coboundaries in the dualized complex, re-verified
against the kernels of the stored echelons); the absence of a second class
only ever yields "ConsistentUpToCutoff".
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import lcm
from typing import NamedTuple

from .complexes import CochainComplex
from .errors import BoundInsufficientError
from .linalg import RowSpan, columns_to_rows, integral_columns, kills
from .presentations import AlgebraPresentation, TruncatedAlgebra, truncate


class AlgElt(NamedTuple):
    """A homogeneous element of the truncated algebra: its degree and its
    sparse vector on that degree's basis."""

    degree: int
    vec: dict


class FreeStep:
    """One free module F_i: generator degrees, and for i >= 1 the entries of
    d_i: entries[a][b] is the coefficient of F_{i-1}'s generator b in the
    image of F_i's generator a (None when zero)."""

    def __init__(self, gen_degrees: list, entries: list | None):
        self.gen_degrees = gen_degrees
        self.entries = entries


def _entries_key(step: FreeStep):
    """F_i's entries as one hashable value, equal for equal entries."""
    return tuple(tuple(None if e is None else (e.degree, tuple(sorted(e.vec.items())))
                       for e in row) for row in step.entries)


def _block_dim(t: TruncatedAlgebra, j: int) -> int:
    return len(t.basis[j]) if 0 <= j <= t.bound else 0


def _module_dim(t: TruncatedAlgebra, degrees) -> int:
    """The dimension of the direct sum of the blocks A_q, q in `degrees`."""
    return sum(_block_dim(t, q) for q in degrees)


def _segments(t: TruncatedAlgebra, degrees, vec):
    """A sparse vector on a free module as a sparse vector on each of its
    blocks A_q, q in `degrees`."""
    out, offset = [], 0
    for q in degrees:
        n = _block_dim(t, q)
        out.append({k - offset: x for k, x in vec.items() if offset <= k < offset + n})
        offset += n
    return out


def _module_columns(t: TruncatedAlgebra, src_degrees, dst_degrees, coeff, left: bool,
                    skip=frozenset()):
    """(S, columns): the sparse columns of S times a map of free modules,
    block by block, leaving out the columns whose index is in `skip`, in a
    fresh list.

    Source block s is A_q for q = src_degrees[s], target block r is A_q for
    q = dst_degrees[r]; the map multiplies block s into block r by the
    element coeff(s, r) (None when zero), on the left or on the right.  S
    is the lcm of the denominators of the product tables the call reads
    (`TruncatedAlgebra.mul_columns`), so the columns are integral over Q;
    it is 1 over F_p and wherever no table has a denominator.  Where block
    s meets one target block, which starts at row 0 and whose table's
    denominator is S, its columns are the cached table's columns
    themselves, shared with the cache and every other map that reads them:
    read them only.  Any other column is built in one pass over its parts.
    """
    offsets = list(accumulate((_block_dim(t, q) for q in dst_degrees), initial=0))
    S = 1
    blocks = []  # (kept, parts) per source block with a kept column
    start = 0  # the index of block s's first column
    for s, q in enumerate(src_degrees):
        n = _block_dim(t, q)
        kept = [w for w in range(n) if start + w not in skip]
        start += n
        if not kept:
            continue
        parts = []  # (row offset, den, table) per target block
        for r, q_dst in enumerate(dst_degrees):
            c = coeff(s, r)
            if c is not None and _block_dim(t, q_dst):
                den, prods = t.mul_columns(c.vec, c.degree, q, left)
                S = lcm(S, den)
                parts.append((offsets[r], den, prods))
        blocks.append((kept, parts))
    cols = []
    for kept, parts in blocks:
        if len(parts) == 1 and parts[0][0] == 0 and parts[0][1] == S:
            # one target block, at row 0, over S: the table's columns themselves
            prods = parts[0][2]
            cols.extend(prods[w] for w in kept)
            continue
        for w in kept:
            col = {}
            for off, den, prods in parts:
                f = S // den
                col.update({off + k: f * x for k, x in prods[w].items()})
            cols.append(col)
    return S, cols


def _map_columns(t: TruncatedAlgebra, step: FreeStep, prev_gens, j: int):
    """(S, S times d at internal degree j): columns index (F_i)_j, rows
    (F_{i-1})_j."""
    return _module_columns(t, [j - g for g in step.gen_degrees], [j - h for h in prev_gens],
                           lambda a, b: step.entries[a][b], left=False)


class ResolutionReport:
    """The free modules F_0..F_n, d_i stored as the entries of F_i, plus per
    (i, j) the row echelon of d_i at internal degree j on the generators of
    degree < j (`echelons`): ker d_i at j vanishes on those of degree j, so
    it has dimension `width - dim` and basis `kernel_sparse()`.  (0, j) is
    the augmentation's, empty, of width dim A_j, for 0 < j."""

    def __init__(self, algebra: TruncatedAlgebra, hom_bound: int, int_bound: int, steps: list,
                 echelons: dict | None = None, stopped_at: int | None = None):
        self.algebra = algebra
        self.hom_bound = hom_bound
        self.int_bound = int_bound
        self.steps = steps                  # steps[0] = F_0
        self.echelons = {} if echelons is None else echelons
        self.stopped_at = stopped_at        # first i with no kernel generators <= bound
        self._duals = {}
        # map name -> B^(n+1) = im d^n, shared by every dual complex with that d^n
        self._spans = {}
        # i -> the hashable form of F_i's entries, part of every name of d_i^*
        self._entry_keys = {}

    @property
    def betti(self):
        """Internal degrees of minimal generators, per homological degree."""
        return [list(s.gen_degrees) for s in self.steps]

    def window(self, i: int) -> int:
        """Internal degrees <= window(i) carry complete data for Ext^i: the
        bound less the top generator degree of F_(i+1), or of the last F."""
        return self.int_bound - max(self.steps[min(i + 1, len(self.steps) - 1)].gen_degrees)

    def dual(self, m: int) -> CochainComplex:
        """Hom(F_., A)_m: C^i is Hom(F_i, A)_m, d^i the dual of d_{i+1}.
        Built on first use and kept on the report.

        Every dual complex of the report shares one store of boundary
        spaces, keyed by the map: d^i is named by its source block degrees
        m + h, h in F_i's generator degrees, its target block degrees
        m + g, g in F_(i+1)'s, each clipped to the truncation (an empty
        block is None), and F_(i+1)'s entries.  Equal names are equal maps,
        and B^(i+1) = im d^i depends on the map alone, so it is eliminated
        once per name: where two steps have the same entries and generator
        degrees one apart, d^i at m is d^(i-1) at m + 1."""
        if m not in self._duals:
            # the callbacks hold the algebra, the steps and the two stores,
            # not the report, so that no reference cycle keeps a report alive
            # past its last use
            t, steps, entry_keys = self.algebra, self.steps, self._entry_keys

            def width(i):
                gens = steps[i].gen_degrees if i < len(steps) else []
                return _module_dim(t, [m + g for g in gens])

            def blocks(i):
                gens = steps[i].gen_degrees if i < len(steps) else []
                return tuple(m + g if 0 <= m + g <= t.bound else None for g in gens)

            def key(i):
                if i + 1 not in entry_keys:
                    entry_keys[i + 1] = (_entries_key(steps[i + 1]) if i + 1 < len(steps)
                                         else None)
                return blocks(i), blocks(i + 1), entry_keys[i + 1]

            self._duals[m] = CochainComplex(
                t.field, width,
                lambda i, skip: _dual_columns(t, steps[i + 1], steps[i].gen_degrees, m, skip)[1],
                key, self._spans)
        return self._duals[m]

    def euler_defect(self, n: int) -> int:
        """sum_i (-1)^i dim (F_i)_n minus dim k_n; zero where exact."""
        total = 0
        for i, s in enumerate(self.steps):
            d = _module_dim(self.algebra, [n - g for g in s.gen_degrees])
            total += d if i % 2 == 0 else -d
        return total - (1 if n == 0 else 0)

    def to_json(self) -> dict:
        return {
            "hom_bound": self.hom_bound,
            "int_bound": self.int_bound,
            "betti": self.betti,
            "stopped_at": self.stopped_at,
            "windows": [self.window(i) for i in range(len(self.steps))],
        }

    def render_betti(self) -> str:
        lines = ["step  generator degrees"]
        for i, degs in enumerate(self.betti):
            lines.append(f"{i:>4}  {degs if degs else '[]'}")
        return "\n".join(lines)


def minimal_resolution(t: TruncatedAlgebra, hom_bound: int) -> ResolutionReport:
    """Minimal free resolution of the trivial module through `hom_bound`
    homological steps, exact per internal degree through the truncation's
    bound.  BoundInsufficientError is raised when a step below `hom_bound`
    has no internal degree left for the next.

    Step i walks the internal degrees j once.  The columns of d_i at j on
    the generators chosen so far span d_i((A+ . F_i)_j) = (A+ . ker d_{i-1})_j,
    since ker d_{i-1} is the image of d_i in every lower degree.  One row
    echelon of those columns, on the rows at the free coordinates of the
    echelon behind ker d_{i-1} at j, gives their rank and is stored for step
    i + 1; the augmentation's echelon is empty, so step 1 keeps every row.
    When the rank is below dim ker d_{i-1} at j, the kernel vectors outside
    the column span of the same columns become F_i's degree-j generators and
    complete d_i at j; an AssertionError naming (i, j) is raised unless they
    number exactly the shortfall.  The columns are those of S d_i for the S
    of `_map_columns` at j, the new ones too; where a new generator's
    kernel vector has a denominator S does not clear, every column of the
    degree is scaled by the least one that does, so over Q they hold ints.
    The generators' entries are d_i's own.

    The count check is also the row restriction's rank oracle: as d_{i-1}
    d_i = 0, the picks number dim ker d_{i-1} minus the column rank and the
    shortfall is dim ker d_{i-1} minus the rank of the kept rows, so it
    fires exactly when the restriction loses rank.
    """
    if hom_bound < 1:
        raise ValueError("hom_bound must be >= 1")
    D, F = t.bound, t.field

    report = ResolutionReport(t, hom_bound, D, [FreeStep([0], None)])
    # the augmentation kills all of A_j for j > 0
    for j in range(1, D + 1):
        report.echelons[(0, j)] = RowSpan(F, len(t.basis[j]))

    below_maps = {}  # d_{i-1} per internal degree, kept until d_i is complete
    for i in range(1, hom_bound + 1):
        prev = report.steps[i - 1].gen_degrees
        step, maps = FreeStep([], []), {}
        for j in range(min(prev) + 1, D + 1):
            # d_i of the generators chosen so far spans (A+ . ker d_{i-1})_j
            S, cols = _map_columns(t, step, prev, j)
            below = report.echelons[(i - 1, j)]
            kernel_dim = below.width - below.dim
            # eliminated on its rows at the free coordinates of d_{i-1}'s
            # echelon: the columns lie in ker d_{i-1}, where a vector is fixed
            # by those coordinates, so these rows have the full kernel
            echelon = RowSpan(F, len(cols))
            echelon.extend(columns_to_rows(cols, below.free))
            if echelon.dim < kernel_dim:
                # by exactness below j the old image lies in ker d_{i-1} at
                # j, so a generator is born here only when its rank falls short
                span = RowSpan(F, _module_dim(t, [j - h for h in prev]))
                span.extend(cols)
                picked = [v for v in below.kernel_sparse() if span.add(v)]
                if len(picked) != kernel_dim - echelon.dim:
                    raise AssertionError(
                        f"step ({i}, {j}): {len(picked)} new generators, but ker d_{i-1} "
                        f"has dimension {kernel_dim} and the lower generators span {echelon.dim}")
                for v in picked:
                    step.gen_degrees.append(j)
                    step.entries.append(
                        [AlgElt(j - h, seg) if seg else None
                         for h, seg in zip(prev, _segments(t, [j - h for h in prev], v))])
                # times S, as the lower columns, and then every column times
                # the least den that clears the new ones: maps[j] is one
                # integral multiple of d_i
                den, new = integral_columns(
                    [{k: S * x for k, x in v.items()} if S != 1 else v for v in picked],
                    [1] * len(picked))
                if den != 1:
                    cols = [{k: den * x for k, x in col.items()} for col in cols]
                cols.extend(new)
            if not step.gen_degrees:
                continue
            maps[j] = cols
            if j > step.gen_degrees[0]:
                # the new columns are independent modulo the old ones, so the
                # kernel of the completed d_i at j is that of the old columns
                report.echelons[(i, j)] = echelon

        if not step.gen_degrees:
            report.stopped_at = i
            break
        if any(e is not None and e.degree == 0 for row in step.entries for e in row):
            raise AssertionError("degree-0 differential entry breaks minimality")
        if i > 1:
            _assert_complex(F, i, below_maps, maps)
        below_maps = maps
        report.steps.append(step)
        if i < hom_bound and step.gen_degrees[0] + 1 > D:
            raise BoundInsufficientError(f"resolving past step {i}", step.gen_degrees[0] + 1,
                                         D, step=i)
    return report


def _assert_complex(F, i: int, below_maps: dict, maps: dict):
    """d_{i-1} o d_i = 0 within the truncation, per internal degree j: the
    columns below_maps[j] of d_{i-1} applied to every column maps[j] of d_i,
    each one nonzero multiple of its map."""
    for j, cols in maps.items():
        if not all(kills(F, below_maps[j], col) for col in cols):
            raise AssertionError(f"d_{i-1} o d_{i} != 0 at internal degree {j}")


class ExtTable:
    """Graded dimensions of Ext^i(k, A) per (homological, internal) degree
    inside the per-degree validity windows."""

    def __init__(self, hom_bound: int, int_bound: int, dims: dict, windows: list):
        self.hom_bound = hom_bound
        self.int_bound = int_bound
        self.dims = dims                # (i, m) -> dim, only nonzero entries
        self.windows = windows          # window per homological degree

    def total_within_windows(self) -> int:
        return sum(self.dims.values())

    def classes(self):
        return sorted((i, m, d) for (i, m), d in self.dims.items())

    def to_json(self) -> dict:
        return {"hom_bound": self.hom_bound, "int_bound": self.int_bound,
                "windows": self.windows,
                "classes": [[i, m, d] for i, m, d in self.classes()]}

    def render(self) -> str:
        lines = ["hom  internal  dim   (window)"]
        for i in range(len(self.windows)):
            entries = [(m, d) for (ii, m), d in sorted(self.dims.items()) if ii == i]
            if not entries:
                lines.append(f"{i:>3}  {'-':>8}  {0:>3}   (<= {self.windows[i]})")
            for m, d in entries:
                lines.append(f"{i:>3}  {m:>8}  {d:>3}   (<= {self.windows[i]})")
        return "\n".join(lines)


def _dual_columns(t: TruncatedAlgebra, step: FreeStep, prev_gens, m: int, skip=frozenset()):
    """(S, S times the dual of d_i at m), Hom(F_{i-1}, A)_m -> Hom(F_i, A)_m,
    for step = F_i, less the columns whose index is in `skip`.

    A functional is a block vector (phi_b in A_{m + g_b}); composing with d_i
    left-multiplies by the entries: (d_i^* phi)_a = sum_b c_{ab} phi_b.
    """
    return _module_columns(t, [m + h for h in prev_gens], [m + g for g in step.gen_degrees],
                           lambda b, a: step.entries[a][b], left=True, skip=skip)


def ext_against_algebra(report: ResolutionReport) -> ExtTable:
    """Graded dims of ker/im in the dualized complex, per internal degree
    within each homological degree's validity window."""
    windows = [report.window(i) for i in range(report.hom_bound)]
    dims = {}
    for i, step in enumerate(report.steps[:report.hom_bound]):
        for m in range(-max(step.gen_degrees), windows[i] + 1):
            if not _module_dim(report.algebra, [m + g for g in step.gen_degrees]):
                continue
            d = report.dual(m).dim(i)
            if d < 0:
                raise AssertionError("negative Ext dimension: broken complex")
            if d:
                dims[(i, m)] = d
    return ExtTable(report.hom_bound, report.int_bound, dims, windows)


class WitnessClass:
    def __init__(self, hom_degree: int, internal_degree: int, functional: dict, rendered: str):
        self.hom_degree = hom_degree
        self.internal_degree = internal_degree
        self.functional = functional    # sparse coordinates on Hom(F_i, A)_m
        self.rendered = rendered


class GorensteinVerdict:
    def __init__(self, verdict: str, table: ExtTable, witness: list | None = None,
                 detail: str = ""):
        self.verdict = verdict          # "NonGorenstein" | "ConsistentUpToCutoff"
        self.table = table
        self.witness = witness          # two WitnessClass when NonGorenstein
        self.detail = detail

    @property
    def is_refuted(self) -> bool:
        return self.verdict == "NonGorenstein"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "detail": self.detail,
               "ext": self.table.to_json()}
        if self.witness:
            out["witness"] = [{"hom_degree": w.hom_degree,
                               "internal_degree": w.internal_degree,
                               "functional": w.rendered} for w in self.witness]
        return out


def gorenstein_certificate(presentation: AlgebraPresentation, hom_bound: int = 6,
                           int_bound: int = 10) -> GorensteinVerdict:
    """Refute one-dimensionality of Ext(k, A) inside the window, or report
    consistency up to the cutoff.

    NonGorenstein needs two Ext classes independent modulo coboundaries;
    both functionals are re-verified as cocycles against the full kernels of
    the stored echelons before the verdict is emitted.  ConsistentUpToCutoff
    is explicitly not a proof: a truncation cannot certify dim Ext = 1
    globally.  This is the left-module certificate; the right-module one is
    that of `presentation.opposite()`.
    """
    return certify(minimal_resolution(truncate(presentation, int_bound), hom_bound))


def certify(report: ResolutionReport) -> GorensteinVerdict:
    """The certificate of `gorenstein_certificate`, read off a resolution
    already built, of any algebra with the six names of the module
    docstring: its Ext table within the windows, then two witnesses or
    ConsistentUpToCutoff."""
    table = ext_against_algebra(report)

    witnesses = list(islice((WitnessClass(i, m, phi, _render_functional(report, i, m, phi))
                             for i, m, _dim in table.classes()
                             for phi in _ext_class_functionals(report.dual(m), i)), 2))

    if len(witnesses) >= 2:
        _verify_cocycle(report, witnesses)
        _verify_independent(report, witnesses)
        total = table.total_within_windows()
        return GorensteinVerdict(
            "NonGorenstein", table, witnesses,
            f"{total} Ext classes inside the window refute total dimension 1")
    return GorensteinVerdict(
        "ConsistentUpToCutoff", table, None,
        f"{table.total_within_windows()} Ext class(es) found inside the window; "
        "no refutation up to the cutoff")


def _ext_class_functionals(cx: CochainComplex, i: int):
    """Representative functionals of Ext^i at one internal degree: the
    cocycles whose residues modulo B^i extend those of the cocycles before."""
    boundaries = cx.boundaries(i)
    residues = RowSpan(cx.field, boundaries.width)
    return [phi for phi in cx.cocycles(i) if residues.add(boundaries.reduce(phi))]


def _functional_blocks(report: ResolutionReport, i: int, m: int, phi):
    """(g, phi_g in A_{m + g}) for each generator degree g of F_i."""
    gens = report.steps[i].gen_degrees
    return list(zip(gens, _segments(report.algebra, [m + g for g in gens], phi)))


def _render_functional(report, i, m, phi) -> str:
    t = report.algebra
    parts = [f"e{i}.{k}* . ({t.element_render(blk, m + g)})"
             for k, (g, blk) in enumerate(_functional_blocks(report, i, m, phi)) if blk]
    return " + ".join(parts) if parts else "0"


def _verify_cocycle(report: ResolutionReport, witnesses):
    """Independent re-check: each functional kills the entire kernel of d_i
    (not only the chosen generators) wherever the product stays inside
    the truncation.  The products go through `TruncatedAlgebra.mul`, not
    through the module maps the resolution was built from; each stored
    echelon's kernel basis is built once, for every witness that reads it."""
    t = report.algebra
    F = t.field
    for (i, j), echelon in report.echelons.items():
        readers = [w for w in witnesses
                   if w.hom_degree == i and 0 <= w.internal_degree + j <= report.int_bound]
        kernel = echelon.kernel_sparse() if readers else []
        for w in readers:
            m = w.internal_degree
            blocks = _functional_blocks(report, i, m, w.functional)
            for kappa in kernel:
                prods = []
                for (g, phi_g), u in zip(blocks, _segments(t, [j - g for g, _ in blocks], kappa)):
                    if u and phi_g:
                        prods.append(t.mul(u, j - g, phi_g, m + g))
                # the sum of the block products: the columns prods applied to all ones
                if not kills(F, prods, dict.fromkeys(range(len(prods)), F.one)):
                    raise AssertionError(
                        f"witness at ({i},{m}) fails the cocycle re-verification")


def _verify_independent(report: ResolutionReport, witnesses):
    """The witnesses are independent modulo coboundaries: at each bidegree
    (classes of different bidegrees lie in different graded pieces) their
    coordinates over `report.dual(m).classes(i)` are independent.  Building
    those classes first checks the stored B^i against d^(i-1) itself."""
    coordinates = {}
    for w in witnesses:
        i, m = w.hom_degree, w.internal_degree
        classes = report.dual(m).classes(i)
        span = coordinates.setdefault((i, m), RowSpan(classes.field, classes.dim))
        coords = classes.express(report.dual(m).boundaries(i).reduce(w.functional))
        if coords is None or not span.add(coords):
            raise AssertionError(
                f"witnesses at ({i},{m}) are not independent classes modulo coboundaries")
