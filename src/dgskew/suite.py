"""The acceptance suite: every shipped guarantee of the engine as one
runnable criterion, each with its stated tolerance (exact equality
throughout) and runtime budget where one applies.

Each criterion is one row of `CRITERIA`: its number, its name, its
whole-criterion runtime budget (or none) and a check(field) returning
(passed, detail).  `run_suite` times every check and fails a criterion that
runs over its row's budget.  A budget on each input of a criterion, such
as 10 s per matrix, is a condition of the check and stays inside it.

Criteria 1-3, 5 and 6 are case-chart laws that `crosscheck` probes: each
draws its matrices and requires named probes of their crosscheck reports to
pass (`_probes_pass`).

Exposed through the CLI as the `paper-suite` subcommand and exercised by
tests/test_acceptance.py.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from .classify import classify, crosscheck, predicted_vs_certified
from .dg import DGSpec, verify_dg
from .fields import CANDIDATE_PRIMES, QQ, Frozen, PrimeField
from .linalg import Matrix
from .presentations import parse_presentation, truncate
from .resolution import certify, ext_against_algebra, minimal_resolution
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


class CriterionResult:
    def __init__(self, number: int, name: str, passed: bool, detail: str, seconds: float):
        self.number = number
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:>2}: {self.name} ({self.seconds:.2f}s) {self.detail}"


def _probes_pass(matrices, probes, passed_detail, max_degree=8):
    """Crosscheck each matrix to `max_degree` and require every named probe
    to pass: (True, passed_detail), or (False, the first failure naming the
    probe, the matrix and the probe's detail).  A report without a named
    probe fails too, so a renamed probe cannot pass unchecked."""
    for M in matrices:
        found = {p.name: p for p in crosscheck(M, max_degree).probes}
        for name in probes:
            probe = found.get(name)
            if probe is None:
                return False, f"{name}: no such probe for {M}"
            if not probe.ok:
                return False, f"{name} fails for {M}: {probe.detail}"
    return True, passed_detail


def _rank_three_vanishing(field):
    """Invertible defining matrices: cohomology collapses to scalars."""
    rng = random.Random(101)
    return _probes_pass([random_full_rank(field, rng) for _ in range(25)], ("case_dim_formula",),
                        "25 matrices, dims [1,0,...,0], within the 30s budget")


def _rank_two_dimension_law(field):
    """Rank 2: every dimension is 1 and the squared degree-1 class vanishes
    exactly when the kernel pairing does."""
    rng = random.Random(202)
    return _probes_pass([random_rank_two(field, rng) for _ in range(25)],
                        ("case_dim_formula", "square_vs_pairing"),
                        "25 matrices, dims all 1, square probe matches pairing")


def _generic_rank_one(field, rng):
    # the Hilbert-function match is the generic (Gorenstein-branch) statement;
    # on the degenerate locus the displayed presentation over-counts
    while True:
        M = random_rank_one(field, rng)
        if classify(M).predicted_gorenstein == "Gorenstein":
            return M


def _rank_one_dimension_law(field):
    """Rank 1: dims are 1,2,3,... and match the presentation's Hilbert function."""
    rng = random.Random(303)
    mats = [Matrix.from_rows(field, rows) for rows in CASE_REPRESENTATIVES.values()]
    mats += [_generic_rank_one(field, rng) for _ in range(10)]
    return _probes_pass(mats, ("case_dim_formula", "presentation_hilbert"),
                        "6 case representatives + 10 random rank-1 matrices")


def _relation_probes(field):
    """Case representatives: displayed relations vanish in cohomology and the
    degree-2 dimension equals the presentation's count."""
    for label, rows in CASE_REPRESENTATIVES.items():
        report = crosscheck(Matrix.from_rows(field, rows), 6)
        if report.classification.case_label != label:
            return False, f"{rows} classified {report.classification.case_label}, wanted {label}"
        if not report.ok:
            fails = ", ".join(p.name for p in report.failures())
            return False, f"{label}: failing probes: {fails}"
    return True, "all probes pass on the six case representatives"


def _constraint_matrix_rank(field):
    """Degree-3 constraint matrix: rank 5 on rank-2 input, 6 on rank-3 input."""
    rng = random.Random(505)
    mats = [random_rank_two(field, rng) for _ in range(50)]
    mats += [random_full_rank(field, rng) for _ in range(10)]
    return _probes_pass(mats, ("cubic_constraint_rank",), "50 rank-2 -> 5, 10 rank-3 -> 6")


def _squares_ideal_quotient(field):
    """Squares-ideal quotient of a rank-2 matrix is a univariate polynomial
    ring: Hilbert function all ones through degree 10."""
    rng = random.Random(606)
    return _probes_pass([random_rank_two(field, rng) for _ in range(20)], ("squares_ideal",),
                        "20 rank-2 matrices", max_degree=10)


def _non_gorenstein_trio(field):
    """The non-Gorenstein trio: classifier verdict plus a verified two-class
    witness with homological degree <= 2 and internal degree <= 5, under 10s
    each."""
    for rows in NON_GORENSTEIN_TRIO:
        t0 = time.perf_counter()
        comparison = predicted_vs_certified(Matrix.from_rows(field, rows), hom_bound=6,
                                            int_bound=10)
        verdict = comparison.classification.predicted_gorenstein
        if verdict != "NonGorenstein":
            return False, f"{rows} predicted {verdict}"
        cert = comparison.certificate
        if not cert.is_refuted:
            return False, f"{rows}: certificate says {cert.verdict}"
        for w in cert.witness:
            if w.hom_degree > 2 or w.internal_degree > 5:
                return False, f"witness at ({w.hom_degree},{w.internal_degree}) out of range"
        if time.perf_counter() - t0 >= 10.0:
            return False, f"{rows} exceeded the 10s budget"
    return True, "all three matrices refuted with in-range witnesses"


def _betti_and_entries(pres_text, field, hom_bound, int_bound):
    return minimal_resolution(truncate(parse_presentation(field, pres_text), int_bound),
                              hom_bound)


def _one_sided_degenerate_quadratic(field):
    """Degenerate quadratic y^2: resolution has F_1 of rank 2, then rank-1
    steps with differential 'multiply by y'; Ext vanishes outside homological
    degree 1 inside the window and Ext^1 is spread over >= 2 internal degrees."""
    res = _betti_and_entries("gen x:1, y:1; rel y^2", field, 6, 10)
    t = res.algebra
    y_vec = t.normal_form({(1,): field.one})
    if res.betti[1] != [1, 1]:
        return False, f"F1 degrees {res.betti[1]}"
    for n in range(2, 7):
        if res.betti[n] != [n]:
            return False, f"F{n} degrees {res.betti[n]}"
        entries = [e for e in res.steps[n].entries[0] if e is not None]
        if len(entries) != 1 or entries[0].degree != 1 or entries[0].vec != y_vec:
            return False, f"d_{n} is not multiplication by y"
    if res.steps[2].entries[0][0] is not None:
        return False, "d_2 hits the x-generator slot"
    table = ext_against_algebra(res)
    ext0 = [m for (i, m) in table.dims if i == 0]
    if ext0:
        return False, f"Ext^0 nonzero at {ext0}"
    high = [(i, m) for (i, m) in table.dims if 2 <= i <= 5]
    if high:
        return False, f"Ext^i nonzero at {high}"
    ext1_degrees = sorted(m for (i, m) in table.dims if i == 1)
    if len(ext1_degrees) < 2:
        return False, f"Ext^1 only at {ext1_degrees}"
    return True, f"betti 1,2,1,1,1,1,1; Ext^1 at internal degrees {ext1_degrees[:4]}..."


def _two_sided_degenerate_quadratic(field):
    """Fully degenerate quadratic (x+y)^2 shape: rank-1 tail with
    differential 'multiply by x+y', non-Gorenstein certificate, Hilbert
    function 1,2,3,5,8,13."""
    res = _betti_and_entries("gen x:1, y:1; rel x^2 + x*y + y*x + y^2", field, 6, 10)
    t = res.algebra
    if t.dims[:6] != [1, 2, 3, 5, 8, 13]:
        return False, f"Hilbert {t.dims[:6]}"
    xy_vec = t.normal_form({(0,): 1, (1,): 1})
    if res.betti[1] != [1, 1]:
        return False, f"F1 degrees {res.betti[1]}"
    for n in range(2, 7):
        if res.betti[n] != [n]:
            return False, f"F{n} degrees {res.betti[n]}"
    d2 = [e for e in res.steps[2].entries[0] if e is not None]
    if len(d2) != 2 or not all(_proportional(field, e.vec, xy_vec) for e in d2):
        return False, "d_2 entries are not multiples of x+y"
    for n in range(3, 7):
        entries = [e for e in res.steps[n].entries[0] if e is not None]
        scaled = _proportional(field, entries[0].vec if len(entries) == 1 else None, xy_vec)
        if not scaled:
            return False, f"d_{n} is not multiplication by x+y"
    cert = certify(res)
    if not cert.is_refuted:
        return False, f"certificate says {cert.verdict}"
    return True, ("betti shape, x+y differentials, NonGorenstein certificate, "
                  "Hilbert 1,2,3,5,8,13")


def _proportional(field, v, w):
    """The sparse vector v is a nonzero multiple of the sparse vector w."""
    return (v is not None and bool(w) and v.keys() == w.keys()
            and len({field.div(v[k], w[k]) for k in w}) == 1)


def _transform_invariance(field):
    """Transform invariance: dims, rank and verdict agree between M and
    C^-1 M (c_ij^2) for random monomial C."""
    rng = random.Random(1010)
    for k in range(20):
        M = random_matrix(field, rng)
        C = random_monomial_matrix(field, rng)
        report = invariance_check(M, C, max_degree=8)
        if not report.ok:
            return False, f"pair {k}: {report.falsifications}"
    return True, "20 random pairs"


def _differential_validity(field):
    """Differential validity for 50 random matrices over Q and a large prime
    field, with agreeing ranks."""
    rng = random.Random(1111)
    fp = PrimeField(CANDIDATE_PRIMES[0])
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        mq = Matrix.from_rows(QQ, rows)
        mp = Matrix.from_rows(fp, rows)
        rq = verify_dg(DGSpec(QQ, mq), max_degree=6, samples=20, rng=random.Random(1))
        rp = verify_dg(DGSpec(fp, mp), max_degree=6, samples=20, rng=random.Random(1))
        if not (rq.ok and rp.ok):
            return False, f"{rows}: {rq.failures + rp.failures}"
        if mq.rank() != mp.rank():
            return False, f"{rows}: rank disagrees between Q and F_p"
    return True, "50 matrices over Q and F_p, all checks pass, ranks agree"


def _positive_direction_consistency(field):
    """Every Gorenstein-verdict instance stays ConsistentUpToCutoff at
    hom_bound 5, int_bound 10."""
    for name, rows in GORENSTEIN_SIDE_INSTANCES:
        M = Matrix.from_rows(field, rows)
        comparison = predicted_vs_certified(M, hom_bound=5, int_bound=10)
        verdict = comparison.classification.predicted_gorenstein
        if verdict != "Gorenstein":
            return False, f"{name} unexpectedly {verdict}"
        if not comparison.consistent:
            return False, f"{name}: {comparison.detail}"
    return True, f"{len(GORENSTEIN_SIDE_INSTANCES)} instances consistent"


class Criterion(Frozen):
    """One row of the suite: check(field) -> (passed, detail), and the
    whole-criterion runtime budget in seconds, if the criterion has one."""

    def __init__(self, number: int, name: str, check: Callable, budget: float | None = None):
        vars(self).update(number=number, name=name, check=check, budget=budget)


CRITERIA = (
    Criterion(1, "rank-3 vanishing", _rank_three_vanishing, budget=30.0),
    Criterion(2, "rank-2 dimension law", _rank_two_dimension_law),
    Criterion(3, "rank-1 dimension law", _rank_one_dimension_law),
    Criterion(4, "relation probes", _relation_probes),
    Criterion(5, "constraint-matrix rank", _constraint_matrix_rank),
    Criterion(6, "squares-ideal quotient", _squares_ideal_quotient),
    Criterion(7, "non-Gorenstein trio", _non_gorenstein_trio),
    Criterion(8, "one-sided degenerate quadratic", _one_sided_degenerate_quadratic),
    Criterion(9, "two-sided degenerate quadratic", _two_sided_degenerate_quadratic),
    Criterion(10, "transform invariance", _transform_invariance),
    Criterion(11, "differential validity", _differential_validity),
    Criterion(12, "positive-direction consistency", _positive_direction_consistency),
)


class SuiteReport:
    def __init__(self, results: list):
        self.results = results

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
    """Run the criteria whose numbers are in `numbers` (all of them when it
    is empty or None) over `field`.  Raises ValueError naming any number
    that is not a criterion's."""
    unknown = sorted(set(numbers or ()) - {c.number for c in CRITERIA})
    if unknown:
        raise ValueError(f"no criterion numbered {', '.join(map(str, unknown))}")
    results = []
    for c in CRITERIA:
        if numbers and c.number not in numbers:
            continue
        started = time.perf_counter()
        passed, detail = c.check(field)
        seconds = time.perf_counter() - started
        within_budget = c.budget is None or seconds < c.budget
        results.append(CriterionResult(c.number, c.name, passed and within_budget, detail,
                                       seconds))
    return SuiteReport(results)
