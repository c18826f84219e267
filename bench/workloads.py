"""The three job streams of the dgskew benchmark.

Each workload turns the workload seed into a fixed list of jobs.  A job is a
callable that calls one public entry point of `dgskew` on inputs the
benchmark generated itself (integer matrices, integer coefficient vectors
and fixed presentation texts), plus a check that validates the output
without trusting the engine's own predictions.

Seeded variation is chosen so that a job's cost class does not move with the
seed: the cohomology matrices are fixed per rank and moved by a seeded
signed permutation (the unit-scalar part of the monomial-matrix action), and
the flagship certificate matrices are moved by a seeded signed permutation
that keeps their zero pattern, hence their case label and their cost.  The
sweep draws fresh random matrices per seed, but from a fixed mix of job kinds
and ranks, and averages over many small jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

FP_PRIME = 2147483659

WORKLOADS = ("cohomology-deep", "certificate", "sweep")


class CheckFailed(Exception):
    """A job returned, but its output is wrong."""


@dataclass
class Job:
    name: str                      # unique within the workload; keys the digests
    field: str                     # "Q" or "Fp:<p>"
    kind: str                      # the public entry point the job times
    run: Callable[[], object]
    check: Callable[[object], dict]  # output -> JSON payload, raises CheckFailed
    size: dict = field(default_factory=dict)
    sizer: Callable[[object], dict] | None = None  # untimed, after the check


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- independent oracles: plain elimination and closed forms --------------


def exact_rank(rows, p: int | None = None) -> int:
    """Rank of a small integer matrix over Q, or over F_p when p is given."""
    m = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c] if p is None else pow(m[rank][c], p - 2, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        rank += 1
    return rank


def koszul_dims(rank: int, top: int):
    """dim H^n = C(n+k-1, k-1) with k = 3 - rank M: (A, d) is the Koszul
    complex of three linear forms in the central squares, k of them free."""
    k = 3 - rank
    return [comb(n + k - 1, k - 1) if k else int(n == 0) for n in range(top + 1)]


def chain_dim(n: int) -> int:
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def rank_two_kernel(vectors):
    """A nonzero vector orthogonal to three vectors spanning a plane."""
    for i in range(3):
        for j in range(i + 1, 3):
            v = cross(vectors[i], vectors[j])
            if any(v):
                return v
    raise ValueError("vectors do not span a plane")


def rank_two_pairing(rows) -> int:
    """sum s_i t_i^2 for s spanning ker M and t spanning ker M^T (whether it
    vanishes does not depend on the scaling of s and t)."""
    s = rank_two_kernel(rows)
    t = rank_two_kernel([list(col) for col in zip(*rows)])
    return sum(si * ti * ti for si, ti in zip(s, t))


# -- seeded integer inputs -------------------------------------------------


def signed_permutation(rng, keep_zero_pattern_of=None):
    """A seeded 3x3 signed permutation matrix C; with a matrix given, only
    those C whose action keeps that matrix's zero pattern."""
    while True:
        perm = [0, 1, 2]
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(3)]
        C = [[signs[i] if j == perm[i] else 0 for j in range(3)] for i in range(3)]
        if keep_zero_pattern_of is None:
            return C
        moved = monomial_action(C, keep_zero_pattern_of)
        if all((x == 0) == (y == 0) for r, s in zip(moved, keep_zero_pattern_of)
               for x, y in zip(r, s)):
            return C


def monomial_action(C, M):
    """N = C^-1 M (c_ij^2) for a monomial matrix C, in exact arithmetic."""
    Cinv = [[Fraction(1, C[j][i]) if C[j][i] else Fraction(0) for j in range(3)]
            for i in range(3)]
    C2 = [[x * x for x in row] for row in C]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    N = mul(mul(Cinv, M), C2)
    if any(x.denominator != 1 for row in N for x in row):
        raise ValueError("action left the integers")
    return [[int(x) for x in row] for row in N]


def random_rank_matrix(rng, rank: int):
    """Small random integer matrix of the given rank (checked exactly)."""
    while True:
        if rank == 0:
            rows = [[0] * 3 for _ in range(3)]
        elif rank == 1:
            u = [rng.randint(-3, 3) for _ in range(3)]
            v = [rng.randint(-3, 3) for _ in range(3)]
            rows = [[a * b for b in v] for a in u]
        elif rank == 2:
            r1 = [rng.randint(-4, 4) for _ in range(3)]
            r2 = [rng.randint(-4, 4) for _ in range(3)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows = [r1, r2, [a * x + b * y for x, y in zip(r1, r2)]]
            rng.shuffle(rows)
        else:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if exact_rank(rows) == rank:
            return rows


def random_monomial(rng):
    perm = [0, 1, 2]
    rng.shuffle(perm)
    scalars = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]
    return [[scalars[i] if j == perm[i] else 0 for j in range(3)] for i in range(3)]


def sparse_coeffs(rng, length: int, nonzero: int = 4):
    vec = [0] * length
    for i in rng.sample(range(length), min(nonzero, length)):
        vec[i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return vec


def coords_json(cls):
    return [str(c) for c in cls.coordinates]


# -- cohomology-deep -------------------------------------------------------

# F_p jobs go two degrees higher, so that the median job of the mix is an
# elimination-heavy one on either side rather than the gap between them
COHOMOLOGY_TOP = {"Q": 14, "Fp": 16}
# one matrix per rank, every entry nonzero except for rank 0
COHOMOLOGY_BASE = {
    0: [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    1: [[2, -1, 3], [4, -2, 6], [-2, 1, -3]],
    2: [[1, -2, 3], [2, 1, -1], [4, -3, 5]],
    3: [[2, -1, 3], [1, 3, -2], [-3, 2, 1]],
}


QUERIES = {"boundary": 16, "representative": 16, "associativity": 4}


def _cohomology_queries(rng, rank: int, top: int):
    """Seeded class_of / class_product queries, all in integer data."""
    dims = koszul_dims(rank, top)
    live = [n for n in range(top + 1) if dims[n]]
    queries = []
    for _ in range(QUERIES["boundary"]):
        n = rng.randint(top // 2, top)
        queries.append(("boundary", n, sparse_coeffs(rng, chain_dim(n - 1), 12)))
    for _ in range(QUERIES["representative"]):
        n = rng.choice(live)
        extra = sparse_coeffs(rng, chain_dim(n - 1), 12) if n else None
        queries.append(("representative", n, rng.randrange(dims[n]), extra))
    for _ in range(QUERIES["associativity"]):
        low = [n for n in live if n <= top // 3]
        picks = tuple((n, rng.randrange(dims[n])) for n in (rng.choice(low) for _ in range(3)))
        queries.append(("associativity", picks))
    return queries


def cohomology_jobs(dg, seed: int):
    rng = random.Random(seed)
    fp = dg.PrimeField(FP_PRIME)
    jobs = []
    for rank, base in COHOMOLOGY_BASE.items():
        rows = monomial_action(signed_permutation(rng), base)
        for F, fname, top in ((dg.QQ, "Q", COHOMOLOGY_TOP["Q"]),
                              (fp, f"Fp:{FP_PRIME}", COHOMOLOGY_TOP["Fp"])):
            queries = _cohomology_queries(rng, rank, top)
            jobs.append(_cohomology_job(dg, F, fname, rows, top, queries))
    return jobs


def _cohomology_job(dg, F, fname, rows, top, queries):
    spec = dg.DGSpec.from_rows(F, rows)
    rank = exact_rank(rows, None if fname == "Q" else FP_PRIME)

    def run():
        report = dg.cohomology(spec, top)
        answers = []
        for q in queries:
            if q[0] == "boundary":
                _, n, coeffs = q
                z = dg.d(spec, dg.GradedElement.from_vector(F, n - 1, coeffs))
                answers.append((q, report.class_of(z)))
            elif q[0] == "representative":
                _, n, i, extra = q
                z = report.bases[n][i]
                if extra is not None:
                    z = z.add(dg.d(spec, dg.GradedElement.from_vector(F, n - 1, extra)))
                answers.append((q, report.class_of(z)))
            else:
                a, b, c = (report.class_of(report.bases[n][i]) for n, i in q[1])
                left = report.class_product(report.class_product(a, b), c)
                right = report.class_product(a, report.class_product(b, c))
                answers.append((q, (left, right)))
        return report, answers

    def check(out):
        report, answers = out
        want = koszul_dims(rank, top)
        expect(report.dims == want, f"dims {report.dims} != closed form {want}")
        for n in range(top):
            expect(report.cocycle_ranks[n] + report.coboundary_ranks[n + 1] == chain_dim(n),
                   f"rank-nullity fails for d_{n}")
        payload = []
        for q, ans in answers:
            if q[0] == "boundary":
                expect(ans is not None and ans.is_zero, f"boundary in degree {q[1]} has a nonzero class")
                payload.append(coords_json(ans))
            elif q[0] == "representative":
                unit = [int(k == q[2]) for k in range(want[q[1]])]
                expect(ans is not None and list(ans.coordinates) == unit,
                       f"representative {q[2]} in degree {q[1]} has the wrong class")
                payload.append(coords_json(ans))
            else:
                left, right = ans
                expect(left.degree == right.degree and left.coordinates == right.coordinates,
                       f"class products are not associative at {q[1]}")
                payload.append(coords_json(left))
        return {"report": report.to_json(), "queries": payload}

    def sizer(out):
        report, _ = out
        mat = dg.d_matrix(spec, top)
        return {"d_top_shape": [mat.nrows, mat.ncols],
                "d_top_nnz": sum(1 for r in mat.entries for x in r if x),
                "d_top_rank": chain_dim(top) - report.cocycle_ranks[top]}

    return Job(f"{fname}/rank{rank}/deg{top}", fname, "cohomology", run, check,
               {"matrix": rows, "rank": rank, "top_degree": top, "queries": len(queries)},
               sizer)


# -- certificate -----------------------------------------------------------

CERT_HOM_BOUND = 6
CERT_INT_BOUND = 10
FLAGSHIPS = (
    ("R1c", [[1, 1, 0], [1, 1, 0], [1, 1, 0]]),
    ("R1a", [[0, 1, 1], [0, 1, 1], [0, 1, 1]]),
    ("R1a", [[1, 1, 1], [1, 1, 1], [2, 2, 2]]),
)
DEGENERATE_QUADRATICS = (
    "gen x:1, y:1; rel y^2",
    "gen x:1, y:1; rel x^2 + x*y + y*x + y^2",
)
GORENSTEIN_SIDE = (
    ("R1d", [[4, 1, 2], [8, 2, 4], [0, 0, 0]]),
    ("R1e", [[4, 3, 1], [0, 0, 0], [8, 6, 2]]),
    ("R1f", [[0, 1, 1], [0, 0, 0], [0, 0, 0]]),
)
NON_GORENSTEIN = "NonGorenstein"
CONSISTENT = "ConsistentUpToCutoff"


def certificate_jobs(dg, seed: int):
    rng = random.Random(seed)
    hb, ib = CERT_HOM_BOUND, CERT_INT_BOUND
    jobs = []
    for k, (label, rows) in enumerate(FLAGSHIPS):
        C = signed_permutation(rng, keep_zero_pattern_of=rows)
        jobs.append(_matrix_certificate_job(dg, f"flagship{k + 1}", rows, C, label,
                                            NON_GORENSTEIN, hb, ib))
    for k, text in enumerate(DEGENERATE_QUADRATICS):
        jobs.append(_text_certificate_job(dg, f"degenerate{k + 1}", text, NON_GORENSTEIN, hb, ib))
    for label, rows in GORENSTEIN_SIDE:
        jobs.append(_matrix_certificate_job(dg, label, rows, None, label, CONSISTENT, hb, ib))
    return jobs


def _check_verdict(cert, verdict):
    expect(cert.verdict == verdict, f"verdict {cert.verdict}, known {verdict}")
    if verdict == NON_GORENSTEIN:
        expect(cert.witness is not None and len(cert.witness) == 2, "NonGorenstein without two witnesses")
        expect(cert.table.total_within_windows() >= 2, "NonGorenstein with fewer than two Ext classes")
    else:
        expect(cert.witness is None, "witnesses on a consistent verdict")


def _matrix_certificate_job(dg, name, rows, C, label, verdict, hb, ib):
    M = dg.Matrix.from_rows(dg.QQ, rows)
    Cm = dg.Matrix.from_rows(dg.QQ, C) if C is not None else None

    def run():
        N = dg.apply_transform(Cm, M) if Cm is not None else M
        c = dg.classify(N)
        return c, dg.gorenstein_certificate(c.predicted_presentation, hb, ib)

    def check(out):
        c, cert = out
        expect(c.rank == exact_rank(rows) == 1, f"rank {c.rank}, expected 1")
        expect(c.case_label == label, f"case {c.case_label}, known {label}")
        expect(c.predicted_gorenstein == ("NonGorenstein" if verdict == NON_GORENSTEIN else "Gorenstein"),
               f"classifier verdict {c.predicted_gorenstein}")
        _check_verdict(cert, verdict)
        return {"classification": c.to_json(), "certificate": cert.to_json()}

    size = {"matrix": rows, "transform": C, "hom_bound": hb, "int_bound": ib}
    return Job(name, "Q", "gorenstein_certificate", run, check, size, _certificate_sizer)


def _text_certificate_job(dg, name, text, verdict, hb, ib):
    def run():
        return dg.gorenstein_certificate(dg.parse_presentation(dg.QQ, text), hb, ib)

    def check(cert):
        _check_verdict(cert, verdict)
        return {"certificate": cert.to_json()}

    size = {"presentation": text, "hom_bound": hb, "int_bound": ib}
    return Job(name, "Q", "gorenstein_certificate", run, check, size, _certificate_sizer)


def _certificate_sizer(out):
    cert = out[1] if isinstance(out, tuple) else out
    return {"ext_classes": cert.table.total_within_windows()}


# -- sweep -----------------------------------------------------------------

SWEEP_DEGREE = 6
# the mix below is drawn this many times per pass, so that the cost of a
# pass averages over many random matrices
SWEEP_ROUNDS = 3


def sweep_jobs(dg, seed: int):
    """A fixed mix of small jobs (kind x rank); matrices drawn from the seed."""
    rng = random.Random(seed)
    fp = dg.PrimeField(FP_PRIME)
    jobs = []

    def add(job):
        job.name = f"{len(jobs):02d}/{job.name}"
        jobs.append(job)

    for _ in range(SWEEP_ROUNDS):
        for rank in (0, 1, 2, 3):
            add(_classify_job(dg, random_rank_matrix(rng, rank)))
        # crosscheck dominates, as in scripts/classification_sweep.py
        for rank, degree, count in ((0, 6, 1), (1, 6, 4), (2, 6, 3), (3, 6, 2),
                                    (1, 8, 2), (2, 8, 1), (3, 8, 1)):
            for _ in range(count):
                add(_crosscheck_job(dg, random_rank_matrix(rng, rank), degree))
        for _ in range(3):
            add(_square_pairing_job(dg, random_rank_matrix(rng, 2)))
        for rank in (2, 2, 3, 3):
            add(_cubic_rank_job(dg, random_rank_matrix(rng, rank)))
        for _ in range(2):
            add(_squares_ideal_job(dg, random_rank_matrix(rng, 2)))
        for rank in (0, 1, 2, 3):
            add(_invariance_job(dg, random_rank_matrix(rng, rank), random_monomial(rng)))
        for rank in (0, 1, 2, 3):
            add(_verify_dg_job(dg, dg.QQ, "Q", random_rank_matrix(rng, rank)))
        for rank in (1, 3):
            add(_verify_dg_job(dg, fp, f"Fp:{FP_PRIME}", random_rank_matrix(rng, rank)))
    return jobs


def _classify_job(dg, rows):
    M = dg.Matrix.from_rows(dg.QQ, rows)
    rank = exact_rank(rows)

    def check(c):
        expect(c.rank == rank, f"rank {c.rank}, expected {rank}")
        prefix = {0: "R0", 1: "R1", 2: "R2_", 3: "R3"}[rank]
        expect(c.case_label.startswith(prefix), f"case {c.case_label} for rank {rank}")
        return c.to_json()

    return Job(f"classify/rank{rank}", "Q", "classify", lambda: dg.classify(M), check,
               {"matrix": rows, "rank": rank})


def _crosscheck_job(dg, rows, degree):
    M = dg.Matrix.from_rows(dg.QQ, rows)
    rank = exact_rank(rows)

    def check(r):
        want = koszul_dims(rank, degree)
        expect(r.computed_dims == want, f"dims {r.computed_dims} != closed form {want}")
        degenerate = r.classification.predicted_gorenstein == NON_GORENSTEIN
        for p in r.failures():
            # on the NonGorenstein locus the displayed presentation
            # over-counts by design; every other probe must pass
            expect(degenerate and p.name == "presentation_hilbert", f"probe {p.name} failed: {p.detail}")
        return r.to_json()

    return Job(f"crosscheck/rank{rank}/deg{degree}", "Q", "crosscheck",
               lambda: dg.crosscheck(M, degree), check,
               {"matrix": rows, "rank": rank, "degree": degree})


def _square_pairing_job(dg, rows):
    """Rank 2: the degree-1 class t1 x1 + t2 x2 + t3 x3 (t in ker M^T)
    squares to zero exactly when the kernel pairing vanishes."""
    F = dg.QQ
    spec = dg.DGSpec.from_rows(F, rows)
    x = dg.GradedElement.from_vector(F, 1, rank_two_kernel([list(col) for col in zip(*rows)]))
    pairing_nonzero = rank_two_pairing(rows) != 0

    def run():
        report = dg.cohomology(spec, 8)
        cls = report.class_of(x)
        return cls, report.class_product(cls, cls)

    def check(out):
        cls, square = out
        expect(cls is not None and not cls.is_zero, "the degree-1 kernel class is missing")
        expect((not square.is_zero) == pairing_nonzero,
               f"square nonzero={not square.is_zero}, pairing nonzero={pairing_nonzero}")
        return {"class": coords_json(cls), "square": coords_json(square)}

    return Job("square_pairing/rank2/deg8", "Q", "class_product", run, check,
               {"matrix": rows, "rank": 2, "degree": 8})


def _cubic_rank_job(dg, rows):
    M = dg.Matrix.from_rows(dg.QQ, rows)
    rank = exact_rank(rows)
    want = {2: 5, 3: 6}[rank]

    def check(r):
        expect(r == want, f"constraint rank {r}, expected {want}")
        return r

    return Job(f"cubic_cocycle_rank/rank{rank}", "Q", "cubic_cocycle_rank",
               lambda: dg.cubic_cocycle_rank(M), check, {"matrix": rows, "rank": rank})


def _squares_ideal_job(dg, rows, bound=10):
    M = dg.Matrix.from_rows(dg.QQ, rows)

    def check(r):
        expect(r.ok and r.quotient_dims == [1] * (bound + 1), f"quotient dims {r.quotient_dims}")
        return r.to_json()

    return Job("squares_ideal/rank2", "Q", "squares_ideal_analysis",
               lambda: dg.squares_ideal_analysis(M, bound=bound), check,
               {"matrix": rows, "rank": 2, "bound": bound})


def _invariance_job(dg, rows, C):
    M = dg.Matrix.from_rows(dg.QQ, rows)
    Cm = dg.Matrix.from_rows(dg.QQ, C)
    rank = exact_rank(rows)

    def check(r):
        expect(r.ok, f"falsifications {r.falsifications}")
        expect(r.dims_before == koszul_dims(rank, SWEEP_DEGREE), f"dims {r.dims_before}")
        expect(r.rank_before == rank, f"rank {r.rank_before}, expected {rank}")
        return r.to_json()

    return Job(f"invariance_check/rank{rank}", "Q", "invariance_check",
               lambda: dg.invariance_check(M, Cm, SWEEP_DEGREE), check,
               {"matrix": rows, "transform": C, "rank": rank, "degree": SWEEP_DEGREE})


def _verify_dg_job(dg, F, fname, rows):
    spec = dg.DGSpec.from_rows(F, rows)

    def run():
        return dg.verify_dg(spec, max_degree=6, samples=20, rng=random.Random(1))

    def check(r):
        expect(r.ok, f"verify_dg failures {r.failures[:2]}")
        return {"ok": r.ok, "failures": r.failures}

    return Job(f"verify_dg/{fname}/rank{exact_rank(rows)}", fname, "verify_dg", run, check,
               {"matrix": rows, "max_degree": 6, "samples": 20})


JOB_LISTS = {
    "cohomology-deep": cohomology_jobs,
    "certificate": certificate_jobs,
    "sweep": sweep_jobs,
}
