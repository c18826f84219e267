"""Rank-based case analysis of the defining matrix: the one owner of the
case chart.

From M the classifier computes the rank, canonical parameters, a predicted
presentation of the cohomology ring with a cocycle representative for each
generator (`case_presentation`), and a predicted Gorenstein verdict:

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
that divergence instead of hiding it, and predicted_vs_certified() sets
the predicted verdict against a resolution certificate of the predicted
presentation.
"""

from __future__ import annotations

from math import comb

from .cohomology import cohomology
from .dg import DGSpec
from .fields import QQ, normalized
from .linalg import Matrix, RowSpan
from .presentations import AlgebraPresentation, Generator, truncate
from .resolution import GorensteinVerdict, gorenstein_certificate
from .skew import (GradedElement, Monomial, degree_dim, element_from_linear,
                   element_from_squares, generators, permute_element)

GORENSTEIN = "Gorenstein"
NON_GORENSTEIN = "NonGorenstein"

RANK_ONE_LABELS = ("R1a", "R1b", "R1c", "R1d", "R1e", "R1f")


class RankOneForm:
    """M after the variable permutation making the left factor's first entry
    nonzero: row = first row of the permuted matrix, (l1, l2) the multipliers
    of rows two and three, permutation the 0-based variable images."""

    def __init__(self, row: tuple, l1, l2, permutation: tuple, matrix: Matrix):
        self.row = row
        self.l1 = l1
        self.l2 = l2
        self.permutation = permutation
        self.matrix = matrix


class Classification:
    def __init__(self, field, matrix: Matrix, rank: int, case_label: str, parameters: dict,
                 predicted_presentation: AlgebraPresentation, predicted_gorenstein: str,
                 generator_reps: list):
        self.field = field
        self.matrix = matrix
        self.rank = rank
        self.case_label = case_label
        self.parameters = parameters
        self.predicted_presentation = predicted_presentation
        self.predicted_gorenstein = predicted_gorenstein
        # [(name, GradedElement)] in the original variables
        self.generator_reps = generator_reps

    def to_json(self) -> dict:
        # the permutation holds indices and F_p scalars are ints, both JSON
        # numbers; Q scalars, integral ones included, are text
        F = self.field

        def out(k, x):
            return F.to_str(x) if F == QQ and k != "permutation" else x

        params = {k: [out(k, x) for x in v] if isinstance(v, (tuple, list)) else out(k, v)
                  for k, v in self.parameters.items()}
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
    invariant).  Returns row = u[0] * v, the first row of the permuted
    matrix, and l_i = u[i] / u[0].  Raises ValueError unless M has rank 1,
    read off the factorization itself: M is nonzero and equals u v^T.
    """
    F = M.field
    # row i of M is u[i] times v, its first nonzero row
    v = next((r for r in M.entries if any(r)), None)
    if v is None:
        raise ValueError("matrix does not have rank 1")
    j = next(j for j, x in enumerate(v) if x)
    u = tuple(F.div(row[j], v[j]) for row in M.entries)
    if any(normalized(F, [x - ui * vk for x, vk in zip(row, v)])
           for row, ui in zip(M.entries, u)):
        raise ValueError("matrix does not have rank 1")
    perm = (0, 1, 2)
    mat = M
    if not u[0]:
        i = next(i for i, x in enumerate(u) if x)
        p = [0, 1, 2]
        p[0], p[i] = p[i], p[0]
        perm = tuple(p)
        mat = Matrix.from_rows(F, [[M[perm[r], perm[c]] for c in range(3)] for r in range(3)])
        u = tuple(u[k] for k in perm)  # the permuted matrix factors with u o perm
    return RankOneForm(row=mat.row(0), l1=F.div(u[1], u[0]), l2=F.div(u[2], u[0]),
                       permutation=perm, matrix=mat)


def classify(M: Matrix) -> Classification:
    F = M.field
    kernel = M.kernel_basis()
    rank = 3 - len(kernel)
    label, params, verdict = f"R{rank}", {}, GORENSTEIN

    if rank == 2:
        s = kernel[0]
        t = M.transpose().kernel_basis()[0]
        pairing = normalized(F, {0: sum(si * ti * ti for si, ti in zip(s, t))}).get(0, F.zero)
        label = "R2_pairing_nonzero" if pairing else "R2_pairing_zero"
        params = {"s": s, "t": t, "pairing": pairing}
    elif rank == 1:
        form = normalize_rank_one(M)
        m11, m12, m13 = form.row
        l1, l2 = form.l1, form.l2
        shift = m12 * l1 * l1 + m13 * l2 * l2 - m11  # A - m11
        # the nonzero ones among the quantities the case chart tests
        nonzero = normalized(F, {"shift": shift, "l1l2": l1 * l2, "m12m13": m12 * m13,
                                 "square": 4 * m12 * m13 * (l1 * l2) ** 2 - shift * shift})
        if "shift" in nonzero:
            label = "R1a" if "l1l2" in nonzero else "R1b"
        elif "l1l2" in nonzero:
            label = "R1c"
        else:
            label = "R1d" if l1 else "R1e" if l2 else "R1f"
        if label == "R1c" and "m12m13" not in nonzero:
            verdict = NON_GORENSTEIN
        if label == "R1a" and "square" not in nonzero:
            verdict = NON_GORENSTEIN
        params = {"row": form.row, "l1": l1, "l2": l2,
                  "permutation": tuple(p + 1 for p in form.permutation)}

    pres, reps = case_presentation(F, label, params)
    return Classification(F, M, rank, label, params, pres, verdict, reps)


def case_presentation(field, label: str, params: dict):
    """The predicted cohomology presentation of a case, with a cocycle
    representative of each generator: (presentation, [(name, rep)]), from
    the case's `Classification.parameters`.

    The full three-generator algebra for rank 0, no generators for rank 3;
    for rank 2, k[x] or k[x, y]/(x^2) with y central of degree 2, built
    from the kernel vectors s of M and t of M^T: x = t.x and
    y = w1 x1^2 + w2 x2^2 + w3 x3^2 with w.s != 0 (w = s when s.s != 0,
    always so over Q, else the first unit vector not orthogonal to s);
    for rank 1, two degree-1 generators x, y with one quadratic relation in
    the normalized row and l1, l2, and a central degree-2 z = x1^2 when one
    of the degree-1 directions collapses.  The rank-1 representatives are
    written in the normalized variables and mapped back through the
    permutation.

    For the R1a case the mixed coefficient is
    (m12*l1^2 + m13*l2^2 - m11) / (2*l1*l2): with it the relation's cochain
    representative is exactly the coboundary of x1, which the degree-2
    boundary space pins down.
    """
    F = field
    one = F.one
    x, y, z = 0, 1, 2
    anticomm = {(x, y): one, (y, x): one}

    if label == "R0":
        gens = list(zip("xyz", generators(F)))
        rels = (anticomm, {(y, z): one, (z, y): one}, {(z, x): one, (x, z): one})
    elif label == "R3":
        gens, rels = [], ()
    elif label == "R2_pairing_nonzero":
        gens, rels = [("x", element_from_linear(F, params["t"]))], ()
    elif label == "R2_pairing_zero":
        s = params["s"]
        # sum w_i x_i^2 is a coboundary exactly when w lies in the row space
        # of M, the complement orthogonal to s: w = s fails only when s.s = 0
        # (never over Q), and then a unit vector with w.s != 0 serves
        w = s
        if not normalized(F, {0: sum(x * x for x in s)}):
            k = next(k for k, x in enumerate(s) if x)
            w = tuple(one if n == k else F.zero for n in range(3))
        gens = [("x", element_from_linear(F, params["t"])),
                ("y", element_from_squares(F, w))]
        rels = ({(x, x): one}, {(x, y): one, (y, x): -one})
    elif label in RANK_ONE_LABELS:
        m11, m12, m13 = (F.coerce(v) for v in params["row"])
        l1 = F.coerce(params["l1"])
        l2 = F.coerce(params["l2"])
        xi = element_from_linear(F, (l1, -1, 0))
        eta = element_from_linear(F, (l2, 0, -1))
        x2 = element_from_linear(F, (0, 1, 0))
        x3 = element_from_linear(F, (0, 0, 1))
        quad = {(x, x): m13, (y, y): m12} if label == "R1e" else {(x, x): m12, (y, y): m13}
        gens = [("x", xi), ("y", eta)]
        if label == "R1a":
            c = F.div(m12 * l1 * l1 + m13 * l2 * l2 - m11, 2 * l1 * l2)
            rels = ({**quad, (x, y): -c, (y, x): -c},)
        elif label == "R1b":
            rels = (anticomm,)
        elif label == "R1c":
            rels = (quad,)
        else:
            first, second = {"R1d": (xi, x3), "R1e": (eta, x2), "R1f": (x2, x3)}[label]
            gens = [("x", first), ("y", second),
                    ("z", GradedElement.monomial(F, Monomial(2, 0, 0)))]
            rels = (quad, anticomm,
                    {(z, x): one, (x, z): -one},
                    {(z, y): one, (y, z): -one})
        perm = [p - 1 for p in params["permutation"]]
        gens = [(name, permute_element(rep, perm)) for name, rep in gens]
    else:
        raise ValueError(f"unknown case label {label!r}")
    pres = AlgebraPresentation(F, tuple(Generator(name, rep.degree) for name, rep in gens), rels)
    return pres, gens


def case_dim_formula(c: Classification, max_degree: int):
    """Closed-form cohomology dimensions implied by the case analysis: the
    Hilbert function of a polynomial ring in k = 3 - rank variables."""
    k = 3 - c.rank
    return [comb(n + k - 1, k - 1) if k else int(n == 0) for n in range(max_degree + 1)]


def predicted_dims(c: Classification, max_degree: int):
    """Hilbert function of the predicted presentation, computed independently
    by the degreewise truncation."""
    return truncate(c.predicted_presentation, max_degree).dims


class Probe:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


class CrosscheckReport:
    def __init__(self, classification: Classification, max_degree: int, computed_dims: list,
                 probes: list):
        self.classification = classification
        self.max_degree = max_degree
        self.computed_dims = computed_dims
        self.probes = probes

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
        pairing_nonzero = bool(c.parameters["pairing"])
        probes.append(Probe("square_vs_pairing", (not square.is_zero) == pairing_nonzero,
                            f"pairing nonzero={pairing_nonzero}, square nonzero={not square.is_zero}"))
        cubic = cubic_cocycle_rank(M)
        probes.append(Probe("cubic_constraint_rank", cubic == 5, f"rank={cubic}"))
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
        reps = [rep for _, rep in c.generator_reps]
        h1_span = RowSpan(F, degree_dim(1))
        indep = all(h1_span.add(rep.vector()) for rep in reps if rep.degree == 1)
        probes.append(Probe("h1_generators_independent", indep, ""))
        for i, rel in enumerate(c.predicted_presentation.relations):
            elem = _evaluate_relation(F, rel, reps)
            cls = report.class_of(elem)
            ok = cls is not None and cls.is_zero
            probes.append(Probe(f"relation_{i}_vanishes", ok,
                                c.predicted_presentation.render_poly(rel)))
        probes.append(Probe("degree2_count", report.dims[2] == hilbert[2],
                            f"computed={report.dims[2]} presentation={hilbert[2]}"))

    if c.rank == 3:
        cubic = cubic_cocycle_rank(M)
        probes.append(Probe("cubic_constraint_rank", cubic == 6, f"rank={cubic}"))

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


class SquaresIdealReport:
    def __init__(self, quotient_dims: list, free_variable: str, ok: bool):
        self.quotient_dims = quotient_dims
        self.free_variable = free_variable
        self.ok = ok

    def to_json(self):
        return {"quotient_dims": self.quotient_dims, "free_variable": self.free_variable,
                "ok": self.ok}


def squares_ideal_analysis(M: Matrix, bound: int = 10) -> SquaresIdealReport:
    """Treat the rows of a rank-2 matrix as linear forms r_i in commuting
    variables u_j (standing for the squares x_j^2) and verify the quotient by
    (r1, r2, r3) is a univariate polynomial ring: two independent forms, the
    third dependent, quotient Hilbert function all ones through `bound`.

    The quotient is presented as `gen u1:1, u2:1, u3:1` with relations the
    two nonzero rows of rref(M), which span the same forms as r1, r2, r3,
    and the commutators u_i*u_j - u_j*u_i; its Hilbert function is read off
    the truncation, to max(bound, 2) since the commutators have degree 2.
    Raises ValueError for a negative bound or a matrix of rank other than 2.
    """
    if bound < 0:
        raise ValueError(f"bound {bound} is negative")
    F = M.field
    rows, pivots = M.rref()
    if len(pivots) != 2:
        raise ValueError("squares_ideal_analysis requires a rank-2 matrix")
    free = next(j for j in range(3) if j not in pivots)
    forms = [{(j,): x for j, x in enumerate(row) if x} for row in rows[:2]]
    commutators = [{(i, j): F.one, (j, i): -F.one} for i in range(3) for j in range(i + 1, 3)]
    quotient = AlgebraPresentation(F, tuple(Generator(f"u{j + 1}", 1) for j in range(3)),
                                   (*forms, *commutators))
    dims = truncate(quotient, max(bound, 2)).dims[:bound + 1]
    return SquaresIdealReport(dims, f"u{free + 1}", all(q == 1 for q in dims))


class CertificateComparison:
    def __init__(self, classification: Classification, certificate: GorensteinVerdict,
                 consistent: bool, detail: str):
        self.classification = classification
        self.certificate = certificate
        self.consistent = consistent
        self.detail = detail

    def to_json(self) -> dict:
        return {"classification": self.classification.to_json(),
                "certificate": self.certificate.to_json(),
                "consistent": self.consistent, "detail": self.detail}


def predicted_vs_certified(M, hom_bound: int = 6,
                           int_bound: int = 10) -> CertificateComparison:
    """Classifier verdict for the defining `Matrix` M versus the certificate
    on the predicted presentation: NonGorenstein must be refuted, Gorenstein must stay
    consistent up to the cutoff.  Mismatches are reported, not raised."""
    c = classify(M)
    cert = gorenstein_certificate(c.predicted_presentation, hom_bound, int_bound)
    predicted_bad = c.predicted_gorenstein == NON_GORENSTEIN
    consistent = predicted_bad == cert.is_refuted
    detail = (f"classifier={c.predicted_gorenstein}, certificate={cert.verdict}"
              + ("" if consistent else " (FALSIFICATION)"))
    return CertificateComparison(c, cert, consistent, detail)
