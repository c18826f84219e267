import hashlib
import itertools
import json
import random

import pytest

from dgskew.classify import (classify, crosscheck, cubic_cocycle_rank,
                             normalize_rank_one, predicted_dims,
                             squares_ideal_analysis)
from dgskew.fields import QQ, field_from_name
from dgskew.linalg import Matrix, RowSpan
from dgskew.sampling import random_full_rank, random_rank_one, random_rank_two
from dgskew.skew import basis_position, degree_basis, degree_dim


def mat(rows):
    return Matrix.from_rows(QQ, rows)


def test_flagship_rank_one_cases():
    c = classify(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
    assert (c.rank, c.case_label, c.predicted_gorenstein) == (1, "R1c", "NonGorenstein")
    assert c.parameters["l1"] == 1 and c.parameters["l2"] == 1

    c = classify(mat([[1, 1, 1], [1, 1, 1], [2, 2, 2]]))
    assert (c.case_label, c.predicted_gorenstein) == ("R1a", "NonGorenstein")

    c = classify(mat([[0, 1, 1], [0, 1, 1], [0, 1, 1]]))
    assert (c.case_label, c.predicted_gorenstein) == ("R1a", "NonGorenstein")


def test_rank_two_example():
    c = classify(mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    assert (c.rank, c.case_label) == (2, "R2_pairing_nonzero")
    assert c.predicted_gorenstein == "Gorenstein"
    assert c.parameters["s"] == (0, 0, 1) and c.parameters["t"] == (0, 0, 1)


def test_rank_zero_and_three():
    assert classify(mat([[0] * 3] * 3)).case_label == "R0"
    assert classify(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).case_label == "R3"


def test_normalize_rank_one_identity_permutation():
    form = normalize_rank_one(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
    assert form.row == (1, 1, 0)
    assert (form.l1, form.l2) == (1, 1)
    assert form.permutation == (0, 1, 2)


def test_normalize_rank_one_permuted():
    # first row zero: a variable swap moves a nonzero multiplier to the front
    form = normalize_rank_one(mat([[0, 0, 0], [0, 1, 1], [0, 2, 2]]))
    assert form.permutation == (1, 0, 2)
    assert form.row == (1, 0, 1)
    assert (form.l1, form.l2) == (0, 2)
    assert form.matrix.rank() == 1


def test_normalize_rejects_other_ranks():
    # rank 2, the zero matrix, and rank 2 with a nonzero first row
    for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0] * 3] * 3,
                 [[1, 2, 3], [2, 4, 6], [0, 0, 1]]):
        with pytest.raises(ValueError):
            normalize_rank_one(mat(rows))


def test_rank_one_outer_product_feeds_r1f():
    # u = (1,0,0), v = (0,1,1): row (0,1,1), l1 = l2 = 0, m11 = 0
    c = classify(mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))
    assert c.case_label == "R1f"
    assert c.predicted_gorenstein == "Gorenstein"


def test_case_chart_branches():
    cases = {
        "R1a": [[1, 1, 1], [1, 1, 1], [3, 3, 3]],
        "R1b": [[1, 2, 3], [1, 2, 3], [0, 0, 0]],
        "R1c": [[2, 1, 1], [2, 1, 1], [2, 1, 1]],
        "R1d": [[4, 1, 2], [8, 2, 4], [0, 0, 0]],
        "R1e": [[4, 3, 1], [0, 0, 0], [8, 6, 2]],
        "R1f": [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
    }
    for label, rows in cases.items():
        assert classify(mat(rows)).case_label == label


def test_classification_invariant_under_scaling():
    rng = random.Random(21)
    for _ in range(5):
        M = random_rank_one(QQ, rng)
        base = classify(M)
        for c in (2, -3, 7):
            scaled = classify(mat([[c * x for x in row] for row in M.entries]))
            assert scaled.rank == base.rank
            assert scaled.case_label == base.case_label
            assert scaled.predicted_gorenstein == base.predicted_gorenstein


def test_classification_under_variable_permutations():
    # permuting variables is an isomorphism, so rank and verdict never move;
    # the case label itself is a coordinate artifact and may change (the two
    # degenerate flagship matrices are permutations of each other yet land in
    # R1c and R1a)
    rng = random.Random(22)
    mats = [random_rank_one(QQ, rng) for _ in range(4)]
    mats.append(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
    mats.append(mat([[4, 1, 2], [8, 2, 4], [0, 0, 0]]))
    for M in mats:
        base = classify(M)
        for perm in itertools.permutations(range(3)):
            P = mat([[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)])
            N = P.inverse().mul(M).mul(P)
            c = classify(N)
            assert c.rank == base.rank
            assert c.predicted_gorenstein == base.predicted_gorenstein


def test_label_is_stable_under_the_normalization_permutation():
    # classifying an unnormalized matrix and its normalized form agree
    M = mat([[0, 0, 0], [0, 1, 1], [0, 2, 2]])
    form = normalize_rank_one(M)
    assert classify(M).case_label == classify(form.matrix).case_label


def test_swapping_the_last_two_variables_mirrors_d_and_e():
    M = mat([[4, 1, 2], [8, 2, 4], [0, 0, 0]])
    assert classify(M).case_label == "R1d"
    P = mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert classify(P.inverse().mul(M).mul(P)).case_label == "R1e"


def test_predicted_dims_examples():
    assert predicted_dims(classify(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])), 5) == \
        [1, 0, 0, 0, 0, 0]
    assert predicted_dims(classify(mat([[1, 0, 0], [0, 0, 1], [0, 0, 0]])), 5) == [1] * 6
    assert predicted_dims(classify(mat([[1, 2, 3], [1, 2, 3], [0, 0, 0]])), 4) == \
        [1, 2, 3, 4, 5]


def test_cubic_cocycle_rank_values():
    assert cubic_cocycle_rank(mat([[0] * 3] * 3)) == 0
    rng = random.Random(23)
    for _ in range(5):
        assert cubic_cocycle_rank(random_rank_two(QQ, rng)) == 5
        assert cubic_cocycle_rank(random_full_rank(QQ, rng)) == 6


def test_cubic_rank_matches_degree_three_cocycles():
    # dim Z^3 = (9 - rank of the constraint system) when the x1x2x3
    # coefficient is forced to zero, which happens for rank >= 2
    from dgskew.dg import DGSpec, d_matrix
    rng = random.Random(24)
    for sampler in (random_rank_two, random_full_rank):
        M = sampler(QQ, rng)
        z3 = 10 - d_matrix(DGSpec(QQ, M), 3).rank()
        assert z3 == 9 - cubic_cocycle_rank(M)


def test_squares_ideal_examples():
    rep = squares_ideal_analysis(mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), bound=6)
    assert rep.ok and rep.free_variable == "u3"
    assert rep.quotient_dims == [1] * 7
    rep = squares_ideal_analysis(mat([[1, 0, 0], [0, 0, 1], [0, 0, 0]]), bound=6)
    assert rep.ok and rep.free_variable == "u2"
    with pytest.raises(ValueError):
        squares_ideal_analysis(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_squares_ideal_dependency_row():
    M = mat([[1, 0, 0], [0, 1, 0], [2, 3, 0]])
    assert M.rank() == 2
    rep = squares_ideal_analysis(M, bound=5)
    assert rep.ok


def test_squares_ideal_matches_the_ideal_of_all_three_rows():
    # the analysis presents the quotient by the two nonzero rows of rref(M)
    # as a noncommutative algebra with commutators; the ideal of all three
    # rows of M in the commutative monomials u^e (the exponent triples of
    # degree_basis) must have the same quotient dims at every bound,
    # including the bounds 0 and 1 below the commutators' degree
    rng = random.Random(16)
    for F in (QQ, field_from_name("Fp:7")):
        for _ in range(10):
            M = random_rank_two(F, rng)
            want = []
            for n in range(11):
                span = RowSpan(F, degree_dim(n))
                for m in degree_basis(n - 1):
                    up = [basis_position([e + (k == j) for k, e in enumerate(m)])
                          for j in range(3)]
                    span.extend({up[j]: x for j, x in enumerate(row) if x}
                                for row in M.entries)
                want.append(degree_dim(n) - span.dim)
            for bound in range(11):
                assert squares_ideal_analysis(M, bound=bound).quotient_dims == want[:bound + 1]


def test_squares_ideal_rejects_a_negative_bound():
    # a negative bound would check no degree at all and still report ok
    M = mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="bound -1"):
        squares_ideal_analysis(M, bound=-1)
    assert squares_ideal_analysis(M, bound=0).quotient_dims == [1]
    assert squares_ideal_analysis(M, bound=1).quotient_dims == [1, 1]


def test_crosscheck_passes_on_isotropic_pairing_zero_matrices():
    # y = sum s_i x_i^2 is a coboundary when s.s = 0, which happens over
    # F_p; the y generator must then use a w with w.s != 0
    F7 = field_from_name("Fp:7")
    rep = crosscheck(Matrix.from_rows(F7, [[5, 6, 0], [3, 3, 6], [4, 6, 2]]), 6)
    assert rep.classification.case_label == "R2_pairing_zero"
    assert rep.ok, [p.name for p in rep.failures()]
    assert rep.computed_dims == [1] * 7

    F3 = field_from_name("Fp:3")
    isotropic = 0
    for entries in itertools.product(range(3), repeat=9):
        M = Matrix.from_rows(F3, [entries[:3], entries[3:6], entries[6:]])
        c = classify(M)
        if c.case_label != "R2_pairing_zero" or sum(x * x for x in c.parameters["s"]) % 3:
            continue
        isotropic += 1
        rep = crosscheck(M, 6)
        assert rep.ok, (entries, [p.name for p in rep.failures()])
    assert isotropic == 768


def test_crosscheck_passes_on_generic_representatives():
    for rows in ([[2, 1, 1], [2, 1, 1], [2, 1, 1]],
                 [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        rep = crosscheck(mat(rows), 6)
        assert rep.ok, [p.name for p in rep.failures()]


def test_crosscheck_with_nontrivial_normalization_permutation():
    # zero first row forces the variable swap; the relation probes then run
    # on representatives mapped back through the permutation
    for rows in ([[0, 0, 0], [1, 0, 1], [0, 0, 0]],      # R1f after the swap
                 [[0, 0, 0], [5, 4, 1], [10, 8, 2]],     # R1e after the swap
                 [[0, 0, 0], [0, 1, 1], [0, 2, 2]]):     # R1b after the swap
        rep = crosscheck(mat(rows), 6)
        assert rep.classification.parameters["permutation"] != (1, 2, 3)
        assert rep.ok, [p.name for p in rep.failures()]


def test_crosscheck_reports_presentation_overcount_on_degenerate_locus():
    # the NonGorenstein instances have a rank-one quadratic relation; their
    # two-generator presentation over-counts from degree 3 on, and the
    # crosscheck must say so rather than hide it
    rep = crosscheck(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]]), 6)
    failing = {p.name for p in rep.failures()}
    assert failing == {"presentation_hilbert"}
    by_name = {p.name: p for p in rep.probes}
    assert by_name["case_dim_formula"].ok
    assert by_name["relation_0_vanishes"].ok
    assert "over-counts" in by_name["presentation_hilbert"].detail


def test_classification_json_round_trip():
    import json
    c = classify(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
    payload = json.dumps(c.to_json(), sort_keys=True)
    again = json.dumps(classify(mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]])).to_json(),
                       sort_keys=True)
    assert payload == again
    assert '"case": "R1c"' in payload
    assert '"gorenstein": "NonGorenstein"' in payload


def test_integral_q_parameters_print_as_text():
    # Q scalars are text even when integral; the permutation's indices and
    # F_p scalars are JSON numbers
    rows = [[0, 1, 1], [0, 1, 1], [0, 1, 1]]
    params = classify(mat(rows)).to_json()["parameters"]
    assert (params["l1"], params["l2"]) == ("1", "1")
    assert params["row"] == ["0", "1", "1"] and params["permutation"] == [1, 2, 3]
    params = classify(Matrix.from_rows(field_from_name("Fp:7"), rows)).to_json()["parameters"]
    assert (params["l1"], params["l2"], params["row"]) == (1, 1, [0, 1, 1])


# one matrix per case label; the rational ones see denominators, and the
# R1b one has a zero first row, so its normalization permutes variables
CASE_MATRICES = {
    "R0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "R3": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"], ["-3/7", "2", "1"]],
    "R2_pairing_nonzero": [["1/2", "-2/3", "3"], ["2", "1/5", "-1"],
                           ["-67/21", "-11/21", "53/21"]],
    "R2_pairing_zero": [[0, 0, 0], [3, 0, 0], [0, 0, "2/5"]],
    "R1a": [["1/2", "-1", "5/4"], ["1/3", "-2/3", "5/6"], ["-3/2", "3", "-15/4"]],
    "R1b": [[0, 0, 0], ["10/3", "-1/6", "4/3"], ["-5", "1/4", "-2"]],
    "R1c": [[1, 1, 0], [1, 1, 0], [1, 1, 0]],
    "R1d": [[4, 1, 2], [8, 2, 4], [0, 0, 0]],
    "R1e": [[4, 3, 1], [0, 0, 0], [8, 6, 2]],
    "R1f": [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
}

# sha256 of the indented, key-sorted JSON of classify(M) and of
# crosscheck(M, 6), as recorded before the case formulae moved from the
# Field methods to native operators
CLASSIFY_DIGESTS = {
    ("R0", "Q"): ("6c70d260c16ef72a5a785b273f174c6fb8c6520e2173dc2012180cb3ffde4db6",
        "ef0512af4c82a99e711c7906e776cd3bbcf79b7c716f780e15ddb741c60712f1"),
    ("R3", "Q"): ("9388ab94bdf87d0afa75a46fcc8f0bdd9d91f0ae44cdd27bcbc90b08543c2a99",
        "7373f6f7ec555bab49ae38426999f15077cf01f45416f168b8a840fc8cb2d0d8"),
    ("R2_pairing_nonzero", "Q"): ("f3da2a68e1681b1c677079b3fd96d0a5e25ae771ec0a3573f9fe0663f4eedbed",
        "cd07688638c6493737e4cbb23b67c6388ae0ab9e0943c6a751f372a6c37bdf2d"),
    ("R2_pairing_zero", "Q"): ("3cb1287d25afd1dbfdd3aaa4c31c193c0864da2e988719caa3708d16a12b9610",
        "4ff2f693197955466f1702a6d3e00d697f924613e0d65f2712108bfa8b71eb23"),
    ("R1a", "Q"): ("8363a2cea1bc21668c258d323636d93a88177bd43dc25aa9989d42e0610be258",
        "e886c9ec2912e8e3cf1f3852e27bc280cdbcd39d97d3f41e35fef25b7d8f445b"),
    ("R1b", "Q"): ("7300fb46f18ebc0230ca201aa49a9339735d9419643b6ee09c7bfbba64154824",
        "59fceb19f06d1b241dbbf74752e7bed1b0d0fa983e38d542e70066ec5d73f003"),
    ("R1c", "Q"): ("8998e7eb722e341c924e27a0503eef5891888eac59288232f07a6a963353c4ca",
        "dbd7825fd09e97027adb3f8dc61cbc03a41291669cb14efb228e41ce8831b440"),
    ("R1d", "Q"): ("a7df69f566dd101db46dc1e8bf317d0bc7293cbc6f9904bac630e372b2f1853a",
        "1f8104e51136b095141554a9b66ad0abac7deb045301f50611375bf69d0f995b"),
    ("R1e", "Q"): ("bcf0882518bdbc06569301db172f05a481bde396f4732c1b601ea2fc58db9d55",
        "3a306476f6331654bb7d2921b8e03ea4117fbeeb7a44a58eeae7474df4692696"),
    ("R1f", "Q"): ("f84e845164a6ee3aa235d445b5de960b27ed4876fa896512afe65e938994d421",
        "c1f00ac03e924b799134d0b7cdd4ef3166f252cee2e7b7e03331e308f02e079f"),
    ("R0", "Fp:2147483659"): ("e0f347a6fd1d1ffbbbad9824d6905837cd90e8a8cc281a2d5695c54bbd6326fb",
        "d4984f8240307e01324a3b42969975e65394d411758a45f369bf0213a9e48383"),
    ("R3", "Fp:2147483659"): ("4a80f45b013aca2843bea2b314c05c4cfca54ddb62c0ce8d3d4f054b553c09e2",
        "e0f9b3165ac4bbb2c56223588927b1f1a2833c73b2f0dddb23d429936d893705"),
    ("R2_pairing_nonzero", "Fp:2147483659"): ("767ded84d4040bc01c028396e164af8749ea7d425b788b60d9c6fa59e5f89939",
        "2dd4b16ed5cac5d386356b73c2dbf1c2acf7e02ab35ef046967a9686dafa43d2"),
    ("R2_pairing_zero", "Fp:2147483659"): ("4eae89e1f5621417438ab5f9b1bf95e1d0fffcb1d948b2616bce320795c2d003",
        "8cfedfecacdba40f5120231fc3ca976fb41589a0c551c16e20ae81d4b3b38ec0"),
    ("R1a", "Fp:2147483659"): ("cb2c8faf6cd543dc453f1383dab1c19fbd54384c9634a06a47c6e5fafa8c2a22",
        "a9bde9735e58e5c933ad62d26fec9300092b3a59b8a2c48788527369884f6bf8"),
    ("R1b", "Fp:2147483659"): ("863406626509280f75297a19438227f572781f53eb21cc53843b599b60bd3a92",
        "4a93ba1fc2fd5024fee5ad9690f9002ce421054239abb826d268bfff8c67f4f4"),
    ("R1c", "Fp:2147483659"): ("29f473f7575bb7981ad7489bed5d576363be6cf59ad131281f23df4ce8843f54",
        "7e1f8c29b10e27278dcd99aad6cd18f5cab5e2eac607ace08b94d9b6e2e04c78"),
    ("R1d", "Fp:2147483659"): ("da6e6766b775ecfceca4a5a3d798642bcd06851fe594bf47396e8bba4447055e",
        "d9a58adc9d97c3acc4ce0dd8ef4f981f706263cdf05ea7dac5c60a12763493b9"),
    ("R1e", "Fp:2147483659"): ("923959b52a4f6c80e2eae66df373db154fb7db07c4c6af501d405d180b281db2",
        "18abbdf238a061b843f50fd9f72e929e7c051b46bcf4be2346f59784b2daff9a"),
    ("R1f", "Fp:2147483659"): ("02db4ea1d96d4d1ebe073a49b23dd32ab3912fe438143ad9a5167b2a1cdb1e8e",
        "8a96d9bd49b3c9fe33c1f902cdca6f2ec22e10174d2a95dafcfbbcfd0d5fbc4e"),
}


@pytest.mark.parametrize("label,field_name", sorted(CLASSIFY_DIGESTS))
def test_classification_bytes_are_pinned(label, field_name):
    M = Matrix.from_rows(field_from_name(field_name), CASE_MATRICES[label])
    c = classify(M)
    assert c.case_label == label

    def digest(obj):
        text = json.dumps(obj, indent=2, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    assert (digest(c.to_json()), digest(crosscheck(M, 6).to_json())) == \
        CLASSIFY_DIGESTS[(label, field_name)]
