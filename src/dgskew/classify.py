"""Rank-based case analysis of the defining matrix.

From M the classifier computes the rank, canonical parameters, a predicted
presentation of the cohomology ring, and a predicted Gorenstein verdict:

  rank 0        R0   cohomology is the whole underlying algebra
  rank 3        R3   cohomology collapses to scalars
  rank 2        R2_pairing_nonzero / R2_pairing_zero, split by the scalar
                sum(s_i t_i^2) built from kernel vectors s of M, t of M^T
  rank 1        R1a..R1f, split by A := m12 l1^2 + m13 l2^2 against m11 and
                by vanishing of l1, l2 after writing M = u v^T (normalized so
                the first row is nonzero, permuting variables if needed)

Predicted verdicts: NonGorenstein exactly for R1c with m12 m13 = 0 and for
R1a with 4 m12 m13 l1^2 l2^2 = (A - m11)^2; Gorenstein otherwise.  These are
precisely the instances whose two-generator quadratic relation degenerates
to a perfect square, and there the displayed presentation strictly
over-counts the computed cohomology from degree 3 on; crosscheck() measures
that divergence instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import cohomology
from .dg import DGSpec
from .linalg import Matrix, RowSpan
from .presentations import AlgebraPresentation, case_presentation, truncate
from .skew import (GradedElement, Monomial, degree_dim, element_from_linear,
                   element_from_squares, generators, permute_element)

GORENSTEIN = "Gorenstein"
NON_GORENSTEIN = "NonGorenstein"

RANK_ONE_LABELS = ("R1a", "R1b", "R1c", "R1d", "R1e", "R1f")


@dataclass
class RankOneForm:
    """M after the variable permutation making the left factor's first entry
    nonzero: row = first row of the permuted matrix, (l1, l2) the multipliers
    of rows two and three, permutation the 0-based variable images."""

    row: tuple
    l1: object
    l2: object
    permutation: tuple
    matrix: Matrix


@dataclass
class Classification:
    field: object
    matrix: Matrix
    rank: int
    case_label: str
    parameters: dict
    predicted_presentation: AlgebraPresentation
    predicted_gorenstein: str
    generator_reps: list  # [(name, GradedElement)] in the original variables

    def to_json(self) -> dict:
        F = self.field
        params = {}
        for k, v in self.parameters.items():
            if isinstance(v, (tuple, list)):
                params[k] = [F.to_str(x) if not isinstance(x, int) else x for x in v]
            elif isinstance(v, int):
                params[k] = v
            else:
                params[k] = F.to_str(v)
        return {
            "field": F.name,
            "matrix": self.matrix.to_json(),
            "rank": self.rank,
            "case": self.case_label,
            "parameters": params,
            "presentation": self.predicted_presentation.render(),
            "gorenstein": self.predicted_gorenstein,
            "generator_representatives": [[n, g.render()] for n, g in self.generator_reps],
        }


def normalize_rank_one(M: Matrix) -> RankOneForm:
    """Write M = u v^T and permute variables so u[0] != 0.

    Deterministic: the first nonzero entry of u moves to position one via a
    transposition (a 0/1 monomial-matrix conjugation, rank and cohomology
    invariant).  Returns row = u[0] * v and l_i = u[i] / u[0] for the
    permuted matrix.
    """
    F = M.field
    if M.rank() != 1:
        raise ValueError("matrix does not have rank 1")

    def factor(mat):
        vrow = next(r for r in mat.entries if any(not F.is_zero(x) for x in r))
        j = next(j for j, x in enumerate(vrow) if not F.is_zero(x))
        u = tuple(F.div(mat[i, j], vrow[j]) for i in range(3))
        return u, vrow

    u, v = factor(M)
    perm = (0, 1, 2)
    mat = M
    if F.is_zero(u[0]):
        i = next(i for i, x in enumerate(u) if not F.is_zero(x))
        p = [0, 1, 2]
        p[0], p[i] = p[i], p[0]
        perm = tuple(p)
        mat = Matrix.from_rows(F, [[M[perm[r], perm[c]] for c in range(3)] for r in range(3)])
        u, v = factor(mat)
    row = tuple(F.mul(u[0], x) for x in v)
    return RankOneForm(row=row, l1=F.div(u[1], u[0]), l2=F.div(u[2], u[0]),
                       permutation=perm, matrix=mat)


def classify(M: Matrix) -> Classification:
    F = M.field
    rank = M.rank()

    if rank == 0:
        pres = case_presentation(F, "R0")
        reps = list(zip("xyz", generators(F)))
        return Classification(F, M, 0, "R0", {}, pres, GORENSTEIN, reps)

    if rank == 3:
        pres = case_presentation(F, "R3")
        return Classification(F, M, 3, "R3", {}, pres, GORENSTEIN, [])

    if rank == 2:
        s = M.kernel_basis()[0]
        t = M.transpose().kernel_basis()[0]
        pairing = F.zero
        for si, ti in zip(s, t):
            pairing = F.add(pairing, F.mul(si, F.mul(ti, ti)))
        label = "R2_pairing_nonzero" if not F.is_zero(pairing) else "R2_pairing_zero"
        pres = case_presentation(F, label)
        reps = [("x", element_from_linear(F, t))]
        if label == "R2_pairing_zero":
            reps.append(("y", element_from_squares(F, s)))
        params = {"s": s, "t": t, "pairing": pairing}
        return Classification(F, M, 2, label, params, pres, GORENSTEIN, reps)

    form = normalize_rank_one(M)
    m11, m12, m13 = form.row
    l1, l2 = form.l1, form.l2
    A = F.add(F.mul(m12, F.mul(l1, l1)), F.mul(m13, F.mul(l2, l2)))
    l1l2 = F.mul(l1, l2)
    if not F.is_zero(F.sub(A, m11)):
        label = "R1a" if not F.is_zero(l1l2) else "R1b"
    else:
        if not F.is_zero(l1l2):
            label = "R1c"
        elif not F.is_zero(l1):
            label = "R1d"
        elif not F.is_zero(l2):
            label = "R1e"
        else:
            label = "R1f"

    verdict = GORENSTEIN
    if label == "R1c" and F.is_zero(F.mul(m12, m13)):
        verdict = NON_GORENSTEIN
    if label == "R1a":
        lhs = F.mul(F.coerce(4), F.mul(F.mul(m12, m13), F.mul(F.mul(l1, l1), F.mul(l2, l2))))
        rhs = F.mul(F.sub(A, m11), F.sub(A, m11))
        if F.is_zero(F.sub(lhs, rhs)):
            verdict = NON_GORENSTEIN

    pres = case_presentation(F, label, row=form.row, l1=l1, l2=l2)
    reps = [(g.name, permute_element(rep, form.permutation))
            for g, rep in zip(pres.generators, _rank_one_reps(F, label, l1, l2))]
    params = {"row": form.row, "l1": l1, "l2": l2,
              "permutation": tuple(p + 1 for p in form.permutation)}
    return Classification(F, M, 1, label, params, pres, verdict, reps)


def _rank_one_reps(F, label: str, l1, l2):
    """Cocycle representatives for the case generators, in the normalized
    (permuted) variables, ordered like the presentation generators."""
    xi = element_from_linear(F, (l1, F.neg(F.one), F.zero))       # l1 x1 - x2
    eta = element_from_linear(F, (l2, F.zero, F.neg(F.one)))      # l2 x1 - x3
    x2 = element_from_linear(F, (F.zero, F.one, F.zero))
    x3 = element_from_linear(F, (F.zero, F.zero, F.one))
    sq1 = GradedElement.monomial(F, Monomial(2, 0, 0))
    if label in ("R1a", "R1b", "R1c"):
        return [xi, eta]
    if label == "R1d":
        return [xi, x3, sq1]
    if label == "R1e":
        return [eta, x2, sq1]
    return [x2, x3, sq1]  # R1f


def case_dim_formula(c: Classification, max_degree: int):
    """Closed-form cohomology dimensions implied by the case analysis."""
    if c.case_label == "R0":
        return [degree_dim(d) for d in range(max_degree + 1)]
    if c.case_label == "R3":
        return [1] + [0] * max_degree
    if c.rank == 2:
        return [1] * (max_degree + 1)
    return [d + 1 for d in range(max_degree + 1)]


def predicted_dims(c: Classification, max_degree: int):
    """Hilbert function of the predicted presentation, computed independently
    by the degreewise truncation."""
    return truncate(c.predicted_presentation, max_degree).dims


@dataclass
class Probe:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CrosscheckReport:
    classification: Classification
    max_degree: int
    computed_dims: list
    probes: list

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.probes)

    def failures(self):
        return [p for p in self.probes if not p.ok]

    def to_json(self) -> dict:
        return {
            "classification": self.classification.to_json(),
            "max_degree": self.max_degree,
            "computed_dims": list(self.computed_dims),
            "probes": [{"name": p.name, "ok": p.ok, "detail": p.detail} for p in self.probes],
            "ok": self.ok,
        }


def crosscheck(M: Matrix, max_degree: int = 8) -> CrosscheckReport:
    """Verify the case predictions against the computed cohomology.

    Probes: the case dimension law; the presentation's Hilbert function
    (which over-counts exactly on the NonGorenstein locus, reported as a
    falsification with a witness degree rather than as an exception); for
    rank 2 the squared-generator/pairing match plus the degree-3 constraint
    rank and the squares-ideal quotient; for rank 1 vanishing of every
    displayed relation in cohomology and the degree-2 dimension count.
    """
    F = M.field
    c = classify(M)
    spec = DGSpec(F, M)
    report = cohomology(spec, max_degree)
    probes = []

    formula = case_dim_formula(c, max_degree)
    probes.append(Probe("case_dim_formula", report.dims == formula,
                        f"computed={report.dims} expected={formula}"))

    hilbert = predicted_dims(c, max_degree)
    if report.dims == hilbert:
        probes.append(Probe("presentation_hilbert", True, f"{hilbert}"))
    else:
        mismatch = next(d for d in range(max_degree + 1) if report.dims[d] != hilbert[d])
        note = ("presentation over-counts (degenerate quadratic relation; "
                "NonGorenstein locus)" if c.predicted_gorenstein == NON_GORENSTEIN else
                "presentation Hilbert function diverges")
        probes.append(Probe("presentation_hilbert", False,
                            f"{note}: degree {mismatch}, computed {report.dims[mismatch]}, "
                            f"presentation {hilbert[mismatch]}"))

    if c.rank == 2:
        t_class = report.class_of(dict(c.generator_reps)["x"])
        square = report.class_product(t_class, t_class)
        pairing_nonzero = not F.is_zero(c.parameters["pairing"])
        probes.append(Probe("square_vs_pairing", (not square.is_zero) == pairing_nonzero,
                            f"pairing nonzero={pairing_nonzero}, square nonzero={not square.is_zero}"))
        probes.append(Probe("cubic_constraint_rank", cubic_cocycle_rank(M) == 5,
                            f"rank={cubic_cocycle_rank(M)}"))
        ideal = squares_ideal_analysis(M, bound=max_degree)
        probes.append(Probe("squares_ideal", ideal.ok, f"dims={ideal.quotient_dims}"))
        if c.case_label == "R2_pairing_zero":
            s_class = report.class_of(dict(c.generator_reps)["y"])
            ok = s_class is not None and not s_class.is_zero
            power = s_class
            deg = 2
            while ok and deg + 2 <= max_degree:
                power = report.class_product(power, s_class)
                deg += 2
                ok = not power.is_zero
            probes.append(Probe("square_class_powers", ok,
                                "powers of the degree-2 class stay nonzero"))

    if c.rank == 1:
        names = dict(c.generator_reps)
        h1_span = RowSpan(F, degree_dim(1))
        h1_reps = [rep for name, rep in c.generator_reps if rep.degree == 1]
        indep = all(h1_span.add(rep.vector()) for rep in h1_reps)
        probes.append(Probe("h1_generators_independent", indep, ""))
        for i, rel in enumerate(c.predicted_presentation.relations):
            elem = _evaluate_relation(F, rel, [names[g.name] for g in
                                               c.predicted_presentation.generators])
            cls = report.class_of(elem)
            ok = cls is not None and cls.is_zero
            probes.append(Probe(f"relation_{i}_vanishes", ok,
                                c.predicted_presentation.render_poly(rel)))
        probes.append(Probe("degree2_count", report.dims[2] == hilbert[2],
                            f"computed={report.dims[2]} presentation={hilbert[2]}"))

    if c.rank == 3:
        probes.append(Probe("cubic_constraint_rank", cubic_cocycle_rank(M) == 6,
                            f"rank={cubic_cocycle_rank(M)}"))

    return CrosscheckReport(c, max_degree, report.dims, probes)


def _evaluate_relation(F, rel, reps):
    """Cochain element of a relation: substitute representatives for words."""
    total = None
    for word, coeff in sorted(rel.items()):
        term = GradedElement.monomial(F, Monomial(0, 0, 0), coeff)
        for g in word:
            term = term.mul(reps[g])
        total = term if total is None else total.add(term)
    return total


def cubic_cocycle_rank(M: Matrix) -> int:
    """Rank of the 6x9 system cutting out degree-3 cocycles supported on the
    nine monomials {x_j^2 * x_i}.

    Columns follow the coefficient layout (q1..q9) of
    (q1 x1 + q2 x2 + q3 x3) x1^2 + (q4 x1 + q5 x2 + q6 x3) x2^2 +
    (q7 x1 + q8 x2 + q9 x3) x3^2; rows are the vanishing conditions on the
    degree-4 square monomials.  Rank 5 characterizes rank-2 matrices, rank 6
    the invertible ones.
    """
    F = M.field
    m = M.entries
    z = F.zero
    X = Matrix.from_rows(F, [
        [m[0][0], m[1][0], m[2][0], z, z, z, z, z, z],
        [m[0][1], m[1][1], m[2][1], m[0][0], m[1][0], m[2][0], z, z, z],
        [m[0][2], m[1][2], m[2][2], z, z, z, m[0][0], m[1][0], m[2][0]],
        [z, z, z, m[0][2], m[1][2], m[2][2], m[0][1], m[1][1], m[2][1]],
        [z, z, z, m[0][1], m[1][1], m[2][1], z, z, z],
        [z, z, z, z, z, z, m[0][2], m[1][2], m[2][2]],
    ])
    return X.rank()


@dataclass
class SquaresIdealReport:
    quotient_dims: list
    free_variable: str
    dependency: tuple  # third generator as a combination of the two pivots
    ok: bool

    def to_json(self):
        return {"quotient_dims": self.quotient_dims, "free_variable": self.free_variable,
                "ok": self.ok}


def squares_ideal_analysis(M: Matrix, bound: int = 10) -> SquaresIdealReport:
    """Treat the rows of a rank-2 matrix as linear forms r_i in commuting
    variables u_j (standing for the squares x_j^2) and verify the quotient by
    (r1, r2, r3) is a univariate polynomial ring: two independent forms, the
    third dependent, quotient Hilbert function all ones.
    """
    F = M.field
    if M.rank() != 2:
        raise ValueError("squares_ideal_analysis requires a rank-2 matrix")

    rows, pivots = M.rref()
    free = next(j for j in range(3) if j not in pivots)

    # dependency of the non-pivot row on the two independent ones
    pivot_rows = []
    seen = RowSpan(F, 3)
    for i in range(3):
        if seen.add(M.row(i)):
            pivot_rows.append(i)
    dep_index = next(i for i in range(3) if i not in pivot_rows)
    base = Matrix.from_rows(F, [M.row(j) for j in pivot_rows]).transpose()
    dep_coeffs = base.solve(M.row(dep_index))

    def monomials(n):
        out = []
        for e1 in range(n, -1, -1):
            for e2 in range(n - e1, -1, -1):
                out.append((e1, e2, n - e1 - e2))
        return out

    dims = []
    ok = True
    for n in range(bound + 1):
        monos = monomials(n)
        index = {m: i for i, m in enumerate(monos)}
        vecs = []
        if n >= 1:
            for m in monomials(n - 1):
                for i in range(3):
                    vec = [F.zero] * len(monos)
                    for j in range(3):
                        if not F.is_zero(M[i, j]):
                            e = list(m)
                            e[j] += 1
                            p = index[tuple(e)]
                            vec[p] = F.add(vec[p], M[i, j])
                    vecs.append(vec)
        span = RowSpan(F, len(monos))
        span.extend(vecs)
        q = len(monos) - span.dim
        dims.append(q)
        if q != 1:
            ok = False

    return SquaresIdealReport(dims, f"u{free + 1}", tuple(dep_coeffs or ()), ok)
