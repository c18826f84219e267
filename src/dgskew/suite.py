"""The acceptance suite: every shipped guarantee of the engine as one
runnable criterion, each with its stated tolerance (exact equality
throughout) and runtime budget where one applies.

Exposed through the CLI as the `paper-suite` subcommand and exercised by
tests/test_acceptance.py.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .classify import (classify, crosscheck, cubic_cocycle_rank,
                       predicted_dims, squares_ideal_analysis)
from .cohomology import cohomology
from .dg import DGSpec, verify_dg
from .fields import CANDIDATE_PRIMES, QQ, PrimeField
from .linalg import Matrix
from .presentations import parse_presentation, truncate
from .resolution import gorenstein_certificate, minimal_resolution, predicted_vs_certified
from .sampling import (random_full_rank, random_matrix, random_monomial_matrix,
                       random_rank_one, random_rank_two)
from .transform import invariance_check

# one hand-picked generic representative per rank-1 case (a)-(f); all six sit
# in the branch where the predicted presentation's Hilbert function equals
# the computed dimensions
CASE_REPRESENTATIVES = {
    "R1a": [[1, 1, 1], [1, 1, 1], [3, 3, 3]],
    "R1b": [[1, 2, 3], [1, 2, 3], [0, 0, 0]],
    "R1c": [[2, 1, 1], [2, 1, 1], [2, 1, 1]],
    "R1d": [[4, 1, 2], [8, 2, 4], [0, 0, 0]],
    "R1e": [[4, 3, 1], [0, 0, 0], [8, 6, 2]],
    "R1f": [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
}

# the three defining matrices whose cohomology rings the engine certifies as
# non-Gorenstein
NON_GORENSTEIN_TRIO = (
    [[1, 1, 0], [1, 1, 0], [1, 1, 0]],
    [[0, 1, 1], [0, 1, 1], [0, 1, 1]],
    [[1, 1, 1], [1, 1, 1], [2, 2, 2]],
)

GORENSTEIN_SIDE_INSTANCES = (
    ("rank2 pairing nonzero", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    ("rank2 pairing zero", [[1, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ("R1b", CASE_REPRESENTATIVES["R1b"]),
    ("R1d", CASE_REPRESENTATIVES["R1d"]),
    ("R1e", CASE_REPRESENTATIVES["R1e"]),
    ("R1f", CASE_REPRESENTATIVES["R1f"]),
    ("R1a generic", CASE_REPRESENTATIVES["R1a"]),
    ("R1c generic", CASE_REPRESENTATIVES["R1c"]),
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:>2}: {self.name} ({self.seconds:.2f}s) {self.detail}"


def _result(number, name, started, passed, detail=""):
    return CriterionResult(number, name, passed, detail, time.perf_counter() - started)


def _mat(field, rows):
    return Matrix.from_rows(field, rows)


def criterion_01(field=QQ) -> CriterionResult:
    """Invertible defining matrices: cohomology collapses to scalars."""
    started = time.perf_counter()
    rng = random.Random(101)
    expected = [1] + [0] * 8
    for _ in range(25):
        M = random_full_rank(field, rng)
        dims = cohomology(DGSpec(field, M), 8).dims
        if dims != expected:
            return _result(1, "rank-3 vanishing", started, False,
                           f"dims {dims} for {M}")
    elapsed = time.perf_counter() - started
    return _result(1, "rank-3 vanishing", started, elapsed < 30.0,
                   "25 matrices, dims [1,0,...,0], within the 30s budget")


def criterion_02(field=QQ) -> CriterionResult:
    """Rank 2: every dimension is 1 and the squared degree-1 class vanishes
    exactly when the kernel pairing does."""
    started = time.perf_counter()
    rng = random.Random(202)
    for _ in range(25):
        M = random_rank_two(field, rng)
        c = classify(M)
        report = cohomology(DGSpec(field, M), 8)
        if report.dims != [1] * 9:
            return _result(2, "rank-2 dimension law", started, False,
                           f"dims {report.dims} for {M}")
        t_class = report.class_of(dict(c.generator_reps)["x"])
        square = report.class_product(t_class, t_class)
        pairing_nonzero = bool(c.parameters["pairing"])
        if (not square.is_zero) != pairing_nonzero:
            return _result(2, "rank-2 dimension law", started, False,
                           f"square/pairing mismatch for {M}")
    return _result(2, "rank-2 dimension law", started, True,
                   "25 matrices, dims all 1, square probe matches pairing")


def _generic_rank_one(field, rng):
    # the Hilbert-function match is the generic (Gorenstein-branch) statement;
    # on the degenerate locus the displayed presentation over-counts
    while True:
        M = random_rank_one(field, rng)
        if classify(M).predicted_gorenstein == "Gorenstein":
            return M


def criterion_03(field=QQ) -> CriterionResult:
    """Rank 1: dims are 1,2,3,... and match the presentation's Hilbert function."""
    started = time.perf_counter()
    rng = random.Random(303)
    expected = list(range(1, 10))
    mats = [_mat(field, rows) for rows in CASE_REPRESENTATIVES.values()]
    mats += [_generic_rank_one(field, rng) for _ in range(10)]
    for M in mats:
        c = classify(M)
        dims = cohomology(DGSpec(field, M), 8).dims
        if dims != expected:
            return _result(3, "rank-1 dimension law", started, False,
                           f"dims {dims} for {M}")
        if predicted_dims(c, 8) != dims:
            return _result(3, "rank-1 dimension law", started, False,
                           f"presentation Hilbert mismatch for {M} ({c.case_label})")
    return _result(3, "rank-1 dimension law", started, True,
                   "6 case representatives + 10 random rank-1 matrices")


def criterion_04(field=QQ) -> CriterionResult:
    """Case representatives: displayed relations vanish in cohomology and the
    degree-2 dimension equals the presentation's count."""
    started = time.perf_counter()
    for label, rows in CASE_REPRESENTATIVES.items():
        report = crosscheck(_mat(field, rows), 6)
        if report.classification.case_label != label:
            return _result(4, "relation probes", started, False,
                           f"{rows} classified {report.classification.case_label}, wanted {label}")
        if not report.ok:
            fails = ", ".join(p.name for p in report.failures())
            return _result(4, "relation probes", started, False,
                           f"{label}: failing probes: {fails}")
    return _result(4, "relation probes", started, True,
                   "all probes pass on the six case representatives")


def criterion_05(field=QQ) -> CriterionResult:
    """Degree-3 constraint matrix: rank 5 on rank-2 input, 6 on rank-3 input."""
    started = time.perf_counter()
    rng = random.Random(505)
    for _ in range(50):
        M = random_rank_two(field, rng)
        if cubic_cocycle_rank(M) != 5:
            return _result(5, "constraint-matrix rank", started, False, f"{M}")
    for _ in range(10):
        M = random_full_rank(field, rng)
        if cubic_cocycle_rank(M) != 6:
            return _result(5, "constraint-matrix rank", started, False, f"{M}")
    return _result(5, "constraint-matrix rank", started, True,
                   "50 rank-2 -> 5, 10 rank-3 -> 6")


def criterion_06(field=QQ) -> CriterionResult:
    """Squares-ideal quotient of a rank-2 matrix is a univariate polynomial
    ring: Hilbert function all ones through degree 10."""
    started = time.perf_counter()
    rng = random.Random(606)
    for _ in range(20):
        M = random_rank_two(field, rng)
        report = squares_ideal_analysis(M, bound=10)
        if not report.ok or report.quotient_dims != [1] * 11:
            return _result(6, "squares-ideal quotient", started, False, f"{M}")
    return _result(6, "squares-ideal quotient", started, True, "20 rank-2 matrices")


def criterion_07(field=QQ) -> CriterionResult:
    """The non-Gorenstein trio: classifier verdict plus a verified two-class
    witness with homological degree <= 2 and internal degree <= 5, under 10s
    each."""
    started = time.perf_counter()
    for rows in NON_GORENSTEIN_TRIO:
        t0 = time.perf_counter()
        M = _mat(field, rows)
        c = classify(M)
        if c.predicted_gorenstein != "NonGorenstein":
            return _result(7, "non-Gorenstein trio", started, False,
                           f"{rows} predicted {c.predicted_gorenstein}")
        cert = gorenstein_certificate(c.predicted_presentation, hom_bound=6, int_bound=10)
        if not cert.is_refuted:
            return _result(7, "non-Gorenstein trio", started, False,
                           f"{rows}: certificate says {cert.verdict}")
        for w in cert.witness:
            if w.hom_degree > 2 or w.internal_degree > 5:
                return _result(7, "non-Gorenstein trio", started, False,
                               f"witness at ({w.hom_degree},{w.internal_degree}) out of range")
        if time.perf_counter() - t0 >= 10.0:
            return _result(7, "non-Gorenstein trio", started, False,
                           f"{rows} exceeded the 10s budget")
    return _result(7, "non-Gorenstein trio", started, True,
                   "all three matrices refuted with in-range witnesses")


def _betti_and_entries(pres_text, field, hom_bound, int_bound):
    pres = parse_presentation(field, pres_text)
    t = truncate(pres, int_bound)
    return pres, minimal_resolution(t, hom_bound, int_bound)


def criterion_08(field=QQ) -> CriterionResult:
    """Degenerate quadratic y^2: resolution has F_1 of rank 2, then rank-1
    steps with differential 'multiply by y'; Ext vanishes outside homological
    degree 1 inside the window and Ext^1 is spread over >= 2 internal degrees."""
    started = time.perf_counter()
    name = "one-sided degenerate quadratic"
    _, res = _betti_and_entries("gen x:1, y:1; rel y^2", field, 6, 10)
    t = res.algebra
    y_vec = tuple(t.word_vector((1,)))
    if res.betti[1] != [1, 1]:
        return _result(8, name, started, False, f"F1 degrees {res.betti[1]}")
    for n in range(2, 7):
        if res.betti[n] != [n]:
            return _result(8, name, started, False, f"F{n} degrees {res.betti[n]}")
        entries = [e for e in res.steps[n].entries[0] if e is not None]
        if len(entries) != 1 or entries[0].degree != 1 or tuple(entries[0].vec) != y_vec:
            return _result(8, name, started, False, f"d_{n} is not multiplication by y")
    if res.steps[2].entries[0][0] is not None:
        return _result(8, name, started, False, "d_2 hits the x-generator slot")
    from .resolution import ext_against_algebra
    table = ext_against_algebra(res)
    ext0 = [m for (i, m) in table.dims if i == 0]
    if ext0:
        return _result(8, name, started, False, f"Ext^0 nonzero at {ext0}")
    high = [(i, m) for (i, m) in table.dims if 2 <= i <= 5]
    if high:
        return _result(8, name, started, False, f"Ext^i nonzero at {high}")
    ext1_degrees = sorted(m for (i, m) in table.dims if i == 1)
    if len(ext1_degrees) < 2:
        return _result(8, name, started, False, f"Ext^1 only at {ext1_degrees}")
    return _result(8, name, started, True,
                   f"betti 1,2,1,1,1,1,1; Ext^1 at internal degrees {ext1_degrees[:4]}...")


def criterion_09(field=QQ) -> CriterionResult:
    """Fully degenerate quadratic (x+y)^2 shape: rank-1 tail with
    differential 'multiply by x+y', non-Gorenstein certificate, Hilbert
    function 1,2,3,5,8,13."""
    started = time.perf_counter()
    name = "two-sided degenerate quadratic"
    pres, res = _betti_and_entries("gen x:1, y:1; rel x^2 + x*y + y*x + y^2", field, 6, 10)
    t = res.algebra
    if t.dims[:6] != [1, 2, 3, 5, 8, 13]:
        return _result(9, name, started, False, f"Hilbert {t.dims[:6]}")
    xy_vec = t.normal_form({(0,): 1, (1,): 1})
    if res.betti[1] != [1, 1]:
        return _result(9, name, started, False, f"F1 degrees {res.betti[1]}")
    for n in range(2, 7):
        if res.betti[n] != [n]:
            return _result(9, name, started, False, f"F{n} degrees {res.betti[n]}")
    d2 = [e for e in res.steps[2].entries[0] if e is not None]
    if len(d2) != 2 or not all(_proportional(field, e.vec, xy_vec) for e in d2):
        return _result(9, name, started, False, "d_2 entries are not multiples of x+y")
    for n in range(3, 7):
        entries = [e for e in res.steps[n].entries[0] if e is not None]
        scaled = _proportional(field, entries[0].vec if len(entries) == 1 else None, xy_vec)
        if not scaled:
            return _result(9, name, started, False, f"d_{n} is not multiplication by x+y")
    cert = gorenstein_certificate(pres, hom_bound=6, int_bound=10)
    if not cert.is_refuted:
        return _result(9, name, started, False, f"certificate says {cert.verdict}")
    return _result(9, name, started, True,
                   "betti shape, x+y differentials, NonGorenstein certificate, Hilbert 1,2,3,5,8,13")


def _proportional(field, v, w):
    """v is a nonzero multiple of w; both hold normalized scalars."""
    if v is None or len(v) != len(w):
        return False
    pairs = [(a, b) for a, b in zip(v, w) if a or b]
    return (bool(pairs) and all(a and b for a, b in pairs)
            and len({field.div(a, b) for a, b in pairs}) == 1)


def criterion_10(field=QQ) -> CriterionResult:
    """Transform invariance: dims, rank and verdict agree between M and
    C^-1 M (c_ij^2) for random monomial C."""
    started = time.perf_counter()
    rng = random.Random(1010)
    for k in range(20):
        M = random_matrix(field, rng)
        C = random_monomial_matrix(field, rng)
        report = invariance_check(M, C, max_degree=8)
        if not report.ok:
            return _result(10, "transform invariance", started, False,
                           f"pair {k}: {report.falsifications}")
    return _result(10, "transform invariance", started, True, "20 random pairs")


def criterion_11(field=QQ) -> CriterionResult:
    """Differential validity for 50 random matrices over Q and a large prime
    field, with agreeing ranks."""
    started = time.perf_counter()
    rng = random.Random(1111)
    fp = PrimeField(CANDIDATE_PRIMES[0])
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        mq = Matrix.from_rows(QQ, rows)
        mp = Matrix.from_rows(fp, rows)
        rq = verify_dg(DGSpec(QQ, mq), max_degree=6, samples=20, rng=random.Random(1))
        rp = verify_dg(DGSpec(fp, mp), max_degree=6, samples=20, rng=random.Random(1))
        if not (rq.ok and rp.ok):
            return _result(11, "differential validity", started, False,
                           f"{rows}: {rq.failures + rp.failures}")
        if mq.rank() != mp.rank():
            return _result(11, "differential validity", started, False,
                           f"{rows}: rank disagrees between Q and F_p")
    return _result(11, "differential validity", started, True,
                   "50 matrices over Q and F_p, all checks pass, ranks agree")


def criterion_12(field=QQ) -> CriterionResult:
    """Every Gorenstein-verdict instance stays ConsistentUpToCutoff at
    hom_bound 5, int_bound 10."""
    started = time.perf_counter()
    for name, rows in GORENSTEIN_SIDE_INSTANCES:
        M = _mat(field, rows)
        comparison = predicted_vs_certified(M, hom_bound=5, int_bound=10)
        if comparison.classification.predicted_gorenstein != "Gorenstein":
            return _result(12, "positive-direction consistency", started, False,
                           f"{name} unexpectedly {comparison.classification.predicted_gorenstein}")
        if not comparison.consistent:
            return _result(12, "positive-direction consistency", started, False,
                           f"{name}: {comparison.detail}")
    return _result(12, "positive-direction consistency", started, True,
                   f"{len(GORENSTEIN_SIDE_INSTANCES)} instances consistent")


CRITERIA = (criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
            criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
            criterion_11, criterion_12)


@dataclass
class SuiteReport:
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        status = "ALL CRITERIA PASS" if self.all_passed else "FAILURES PRESENT"
        lines.append(f"-- {status} ({sum(r.passed for r in self.results)}/{len(self.results)})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        # timings stay in the text table; the JSON report is byte-identical
        # across runs on identical inputs
        return {"all_passed": self.all_passed,
                "results": [{"number": r.number, "name": r.name, "passed": r.passed,
                             "detail": r.detail} for r in self.results]}


def run_suite(field=QQ, numbers=None) -> SuiteReport:
    results = []
    for i, crit in enumerate(CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        results.append(crit(field))
    return SuiteReport(results)
