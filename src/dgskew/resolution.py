"""Truncated minimal free resolutions of the trivial module, graded Ext
against the algebra, and Gorenstein / non-Gorenstein certificates.

The resolution is built degreewise: the kernel of each differential is
computed per internal degree, and minimal generators of the kernel are a
complement of (augmentation ideal) * kernel, chosen greedily from the
echelonized kernel basis (lexicographically earliest complement).  Every
differential entry then has positive degree, which is the defining property
of a minimal resolution.

All positive statements are relative to the truncation: a report records,
per homological degree, the window of internal degrees where its data is
complete.  NonGorenstein verdicts are finitely witnessed (two classes
independent modulo coboundaries in the dualized complex, re-verified
against the stored kernels); the absence of a second class only ever yields
"ConsistentUpToCutoff".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

from .classify import Classification, classify
from .errors import BoundInsufficientError
from .linalg import Matrix, RowSpan, extend_independent
from .presentations import AlgebraPresentation, TruncatedAlgebra, truncate


class AlgElt(NamedTuple):
    """A homogeneous element of the truncated algebra: degree + coordinates."""

    degree: int
    vec: tuple


@dataclass
class FreeStep:
    """One free module F_i: generator degrees, and for i >= 1 the entries of
    d_i: entries[a][b] is the coefficient of F_{i-1}'s generator b in the
    image of F_i's generator a (None when zero)."""

    gen_degrees: list
    entries: list | None


def _block_dim(t: TruncatedAlgebra, j: int) -> int:
    return len(t.basis[j]) if 0 <= j <= t.bound else 0


def _module_dim(t: TruncatedAlgebra, gens, j: int) -> int:
    return sum(_block_dim(t, j - g) for g in gens)


def _map_matrix(t: TruncatedAlgebra, step: FreeStep, prev_gens, j: int) -> Matrix:
    """Matrix of d at internal degree j; rows = F_{i-1} coords, cols = F_i."""
    F = t.field
    nrows = _module_dim(t, prev_gens, j)
    cols = []
    for a, g in enumerate(step.gen_degrees):
        src = j - g
        if not (0 <= src <= t.bound):
            continue
        for wi in range(len(t.basis[src])):
            unit = [F.zero] * len(t.basis[src])
            unit[wi] = F.one
            col = []
            for b, h in enumerate(prev_gens):
                blk = _block_dim(t, j - h)
                if blk == 0:
                    continue
                entry = step.entries[a][b]
                if entry is None:
                    col.extend([F.zero] * blk)
                else:
                    col.extend(t.mul(unit, src, entry.vec, entry.degree))
            cols.append(tuple(col))
    ncols = len(cols)
    rows = tuple(tuple(cols[c][r] for c in range(ncols)) for r in range(nrows))
    return Matrix(F, nrows, ncols, rows)


def _left_mul_module(t: TruncatedAlgebra, gens, gi: int, v, j: int):
    """g * v for a module vector v of internal degree j; result at j + |g|."""
    F = t.field
    e = t.presentation.generators[gi].degree
    unit = [F.zero] * len(t.basis[e])
    unit[t.basis[e].index((gi,))] = F.one
    out = []
    offset = 0
    for g in gens:
        blk_in = _block_dim(t, j - g)
        blk_out = _block_dim(t, j + e - g)
        seg = list(v[offset:offset + blk_in])
        offset += blk_in
        if blk_out == 0:
            continue
        if blk_in == 0:
            out.extend([F.zero] * blk_out)
        else:
            out.extend(t.mul(unit, e, seg, j - g))
    return out


@dataclass
class ResolutionReport:
    algebra: TruncatedAlgebra
    hom_bound: int
    int_bound: int
    steps: list                      # steps[0] = F_0
    kernels: dict = dataclass_field(default_factory=dict, repr=False)
    stopped_at: int | None = None    # first i with no kernel generators <= bound

    @property
    def betti(self):
        """Internal degrees of minimal generators, per homological degree."""
        return [list(s.gen_degrees) for s in self.steps]

    def step_or_none(self, i: int) -> FreeStep | None:
        if 0 <= i < len(self.steps) and self.steps[i].gen_degrees:
            return self.steps[i]
        return None

    def window(self, i: int) -> int:
        """Internal degrees <= window(i) carry complete data for Ext^i."""
        nxt = self.step_or_none(i + 1)
        if nxt is not None:
            return self.int_bound - max(nxt.gen_degrees)
        cur = self.step_or_none(i)
        if cur is not None:
            return self.int_bound - max(cur.gen_degrees)
        return self.int_bound - max(self.steps[-1].gen_degrees)

    def euler_defect(self, n: int) -> int:
        """sum_i (-1)^i dim (F_i)_n minus dim k_n; zero where exact."""
        total = 0
        for i, s in enumerate(self.steps):
            d = _module_dim(self.algebra, s.gen_degrees, n)
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


def minimal_resolution(t: TruncatedAlgebra, hom_bound: int,
                       int_bound: int | None = None) -> ResolutionReport:
    """Minimal free resolution of the trivial module through `hom_bound`
    homological steps, exact per internal degree within the truncation."""
    if hom_bound < 1:
        raise ValueError("hom_bound must be >= 1")
    D = t.bound if int_bound is None else int_bound
    if D > t.bound:
        raise ValueError("int_bound exceeds the algebra truncation")
    F = t.field

    report = ResolutionReport(t, hom_bound, D, [FreeStep([0], None)])

    # kernel of the augmentation: everything in positive internal degrees
    for j in range(1, D + 1):
        n = len(t.basis[j])
        report.kernels[(0, j)] = [tuple(F.one if a == b else F.zero for a in range(n))
                                  for b in range(n)]

    for i in range(1, hom_bound + 1):
        prev = report.steps[i - 1]
        min_deg = min(prev.gen_degrees) + 1
        gen_vecs, gen_degs = [], []
        for j in range(min_deg, D + 1):
            kb = report.kernels.get((i - 1, j), [])
            if not kb:
                continue
            width = _module_dim(t, prev.gen_degrees, j)
            span = RowSpan(F, width)
            span.extend(_left_mul_module(t, prev.gen_degrees, gi, v, j - g.degree)
                        for gi, g in enumerate(t.presentation.generators)
                        for v in report.kernels.get((i - 1, j - g.degree), []))
            for v in extend_independent(span, kb):
                gen_vecs.append((j, v))
                gen_degs.append(j)

        if not gen_vecs:
            report.stopped_at = i
            break

        entries = []
        for j, v in gen_vecs:
            row = []
            offset = 0
            for h in prev.gen_degrees:
                blk = _block_dim(t, j - h)
                seg = tuple(v[offset:offset + blk])
                offset += blk
                if blk and any(not F.is_zero(x) for x in seg):
                    if j - h == 0:
                        raise AssertionError("degree-0 differential entry breaks minimality")
                    row.append(AlgElt(j - h, seg))
                else:
                    row.append(None)
            entries.append(row)
        step = FreeStep(gen_degs, entries)
        report.steps.append(step)

        if i < hom_bound and min(gen_degs) + 1 > D:
            raise BoundInsufficientError(i, min(gen_degs) + 1)

        for j in range(min(gen_degs) + 1, D + 1):
            mat = _map_matrix(t, step, prev.gen_degrees, j)
            report.kernels[(i, j)] = mat.kernel_basis()

    _assert_complex(report)
    return report


def _assert_complex(report: ResolutionReport):
    """d_{i-1} o d_i = 0 within the truncation, per internal degree."""
    t = report.algebra
    F = t.field
    for i in range(2, len(report.steps)):
        step, prev = report.steps[i], report.steps[i - 1]
        for j in range(min(step.gen_degrees), report.int_bound + 1):
            m1 = _map_matrix(t, prev, report.steps[i - 2].gen_degrees, j)
            m2 = _map_matrix(t, step, prev.gen_degrees, j)
            comp = m1.mul(m2)
            if any(not F.is_zero(x) for row in comp.entries for x in row):
                raise AssertionError(f"d_{i-1} o d_{i} != 0 at internal degree {j}")


@dataclass
class ExtTable:
    """Graded dimensions of Ext^i(k, A) per (homological, internal) degree
    inside the per-degree validity windows."""

    hom_bound: int
    int_bound: int
    dims: dict                      # (i, m) -> dim, only nonzero entries
    windows: list                   # window per homological degree
    ranges: list                    # (min_m, max_m) examined per i

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


def _dual_matrix(report: ResolutionReport, i: int, m: int) -> Matrix:
    """Matrix of the dualized differential Hom(F_{i-1}, A)_m -> Hom(F_i, A)_m.

    A functional is a block vector (phi_b in A_{m + g_b}); composing with d_i
    left-multiplies by the entries: (d_i^* phi)_a = sum_b c_{ab} phi_b.
    """
    t = report.algebra
    F = t.field
    step = report.steps[i]
    prev = report.steps[i - 1]
    src_dims = [_block_dim(t, m + g) for g in prev.gen_degrees]
    dst_dims = [_block_dim(t, m + g) for g in step.gen_degrees]
    nrows, ncols = sum(dst_dims), sum(src_dims)
    cols = []
    for b, gb in enumerate(prev.gen_degrees):
        for k in range(src_dims[b]):
            phi = [F.zero] * src_dims[b]
            phi[k] = F.one
            col = []
            for a, _ga in enumerate(step.gen_degrees):
                blk = dst_dims[a]
                if blk == 0:
                    continue
                entry = step.entries[a][b]
                if entry is None:
                    col.extend([F.zero] * blk)
                else:
                    col.extend(t.mul(entry.vec, entry.degree, phi, m + gb))
            cols.append(tuple(col))
    rows = tuple(tuple(cols[c][r] for c in range(ncols)) for r in range(nrows))
    return Matrix(F, nrows, ncols, rows)


def ext_against_algebra(report: ResolutionReport) -> ExtTable:
    """Graded dims of ker/im in the dualized complex, per internal degree
    within each homological degree's validity window."""
    t = report.algebra
    dims = {}
    windows, ranges = [], []
    for i in range(report.hom_bound):
        win = report.window(i)
        windows.append(win)
        cur = report.step_or_none(i)
        if cur is None:
            ranges.append((0, -1))
            continue
        lo = -max(cur.gen_degrees)
        ranges.append((lo, win))
        for m in range(lo, win + 1):
            dom = sum(_block_dim(t, m + g) for g in cur.gen_degrees)
            if dom == 0:
                continue
            nxt = report.step_or_none(i + 1)
            rank_next = _dual_matrix(report, i + 1, m).rank() if nxt else 0
            rank_cur = _dual_matrix(report, i, m).rank() if i >= 1 else 0
            d = dom - rank_next - rank_cur
            if d < 0:
                raise AssertionError("negative Ext dimension: broken complex")
            if d:
                dims[(i, m)] = d
    return ExtTable(report.hom_bound, report.int_bound, dims, windows, ranges)


@dataclass
class WitnessClass:
    hom_degree: int
    internal_degree: int
    functional: tuple
    rendered: str


@dataclass
class GorensteinVerdict:
    verdict: str                      # "NonGorenstein" | "ConsistentUpToCutoff"
    table: ExtTable
    witness: list | None = None       # two WitnessClass when NonGorenstein
    detail: str = ""

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
                           int_bound: int = 10, side: str = "left") -> GorensteinVerdict:
    """Refute one-dimensionality of Ext(k, A) inside the window, or report
    consistency up to the cutoff.

    NonGorenstein needs two Ext classes independent modulo coboundaries;
    both functionals are re-verified as cocycles against the full stored
    kernels before the verdict is emitted.  ConsistentUpToCutoff is
    explicitly not a proof: a truncation cannot certify dim Ext = 1
    globally.  side="right" runs the same engine on the opposite algebra.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    pres = presentation if side == "left" else presentation.opposite()
    t = truncate(pres, int_bound)
    report = minimal_resolution(t, hom_bound, int_bound)
    table = ext_against_algebra(report)

    witnesses = []
    for i, m, _dim in table.classes():
        if len(witnesses) >= 2:
            break
        for phi in _ext_class_functionals(report, i, m):
            witnesses.append(WitnessClass(i, m, phi,
                                          _render_functional(report, i, m, phi)))
            if len(witnesses) >= 2:
                break

    if len(witnesses) >= 2:
        for w in witnesses:
            _verify_cocycle(report, w)
        _verify_independent(report, witnesses[0], witnesses[1])
        total = table.total_within_windows()
        return GorensteinVerdict(
            "NonGorenstein", table, witnesses[:2],
            f"{total} Ext classes inside the window refute total dimension 1")
    return GorensteinVerdict(
        "ConsistentUpToCutoff", table, None,
        f"{table.total_within_windows()} Ext class(es) found inside the window; "
        "no refutation up to the cutoff")


def _ext_class_functionals(report: ResolutionReport, i: int, m: int):
    """Representative functionals of Ext^i at internal degree m."""
    t = report.algebra
    F = t.field
    cur = report.step_or_none(i)
    dom = sum(_block_dim(t, m + g) for g in cur.gen_degrees)
    nxt = report.step_or_none(i + 1)
    if nxt:
        kernel = _dual_matrix(report, i + 1, m).kernel_basis()
    else:
        kernel = [tuple(F.one if a == b else F.zero for a in range(dom))
                  for b in range(dom)]
    image = RowSpan(F, dom)
    if i >= 1:
        image.extend(_dual_matrix(report, i, m).transpose().entries)
    return extend_independent(image, kernel)


def _functional_blocks(report: ResolutionReport, i: int, m: int, phi):
    t = report.algebra
    blocks = []
    offset = 0
    for g in report.steps[i].gen_degrees:
        blk = _block_dim(t, m + g)
        blocks.append((g, list(phi[offset:offset + blk])))
        offset += blk
    return blocks


def _render_functional(report, i, m, phi) -> str:
    t = report.algebra
    F = t.field
    parts = []
    for k, (g, blk) in enumerate(_functional_blocks(report, i, m, phi)):
        if blk and any(not F.is_zero(x) for x in blk):
            parts.append(f"e{i}.{k}* . ({t.element_render(blk, m + g)})")
    return " + ".join(parts) if parts else "0"


def _verify_cocycle(report: ResolutionReport, w: WitnessClass):
    """Independent re-check: the functional kills the entire stored kernel of
    d_i (not only the chosen generators) wherever the product stays inside
    the truncation."""
    t = report.algebra
    F = t.field
    i, m = w.hom_degree, w.internal_degree
    blocks = _functional_blocks(report, i, m, w.functional)
    for (ii, j), kernel in report.kernels.items():
        if ii != i or m + j > report.int_bound or m + j < 0:
            continue
        for kappa in kernel:
            acc = [F.zero] * len(t.basis[m + j])
            offset = 0
            for (g, phi_g) in blocks:
                blk = _block_dim(t, j - g)
                seg = list(kappa[offset:offset + blk])
                offset += blk
                if blk and phi_g:
                    prod = t.mul(seg, j - g, phi_g, m + g)
                    for idx, x in enumerate(prod):
                        acc[idx] = F.add(acc[idx], x)
            if any(not F.is_zero(x) for x in acc):
                raise AssertionError(
                    f"witness at ({i},{m}) fails the cocycle re-verification")


def _verify_independent(report, w1: WitnessClass, w2: WitnessClass):
    """The two witnesses span dimension 2 modulo coboundaries."""
    if (w1.hom_degree, w1.internal_degree) != (w2.hom_degree, w2.internal_degree):
        return  # distinct bidegrees: each is already nonzero modulo its image
    t = report.algebra
    F = t.field
    i, m = w1.hom_degree, w1.internal_degree
    span = RowSpan(F, len(w1.functional))
    if i >= 1:
        span.extend(_dual_matrix(report, i, m).transpose().entries)
    base = span.dim
    span.add(w1.functional)
    span.add(w2.functional)
    if span.dim != base + 2:
        raise AssertionError("witness pair is not independent modulo coboundaries")


@dataclass
class CertificateComparison:
    classification: Classification
    certificate: GorensteinVerdict
    consistent: bool
    detail: str

    def to_json(self) -> dict:
        return {"classification": self.classification.to_json(),
                "certificate": self.certificate.to_json(),
                "consistent": self.consistent, "detail": self.detail}


def predicted_vs_certified(M: Matrix, hom_bound: int = 6,
                           int_bound: int = 10) -> CertificateComparison:
    """Classifier verdict versus the certificate on the predicted
    presentation: NonGorenstein must be refuted, Gorenstein must stay
    consistent up to the cutoff.  Mismatches are reported, not raised."""
    c = classify(M)
    cert = gorenstein_certificate(c.predicted_presentation, hom_bound, int_bound)
    predicted_bad = c.predicted_gorenstein == "NonGorenstein"
    consistent = predicted_bad == cert.is_refuted
    detail = (f"classifier={c.predicted_gorenstein}, certificate={cert.verdict}"
              + ("" if consistent else " (FALSIFICATION)"))
    return CertificateComparison(c, cert, consistent, detail)
