import ast
import gc
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from dgskew.classify import case_presentation, classify, predicted_vs_certified
from dgskew.errors import BoundInsufficientError
from dgskew.fields import QQ, PrimeField, field_from_name
from dgskew import complexes, resolution
from dgskew.linalg import Matrix, RowSpan, columns_to_rows
from dgskew.presentations import parse_presentation, truncate
from dgskew.resolution import (WitnessClass, ext_against_algebra, gorenstein_certificate,
                               minimal_resolution,
                               _assert_complex, _block_dim, _dual_columns, _map_columns,
                               _module_dim, _segments, _verify_cocycle, _verify_independent)

ONE_SIDED = "gen x:1, y:1; rel y^2"
TWO_SIDED = "gen x:1, y:1; rel x^2 + x*y + y*x + y^2"
SKEW_PLANE = "gen x:1, y:1; rel x*y + y*x"
DUAL_NUMBERS = "gen x:1; rel x^2"
EXTERIOR = "gen x:1, y:1; rel x^2; rel y^2; rel x*y + y*x"


def resolve(text, hom_bound=6, int_bound=10):
    t = truncate(parse_presentation(QQ, text), int_bound)
    return minimal_resolution(t, hom_bound)


def _kernel(res, i, j):
    """The kernel basis of d_i at j read off its stored echelon; none where
    no echelon is stored."""
    echelon = res.echelons.get((i, j))
    return echelon.kernel_sparse() if echelon is not None else []


def _maps(res):
    """d_i at j, rebuilt from the entries of F_i as one multiple S d_i (S = 1
    unless a product table over Q has a denominator), keyed (i, j) for every
    i >= 1 and every j from F_i's lowest generator degree through the bound."""
    return {(i, j): _map_columns(res.algebra, step, res.steps[i - 1].gen_degrees, j)[1]
            for i, step in enumerate(res.steps[1:], start=1)
            for j in range(step.gen_degrees[0], res.int_bound + 1)}


def _hom_dim(res, i, m):
    """dim Hom(F_i, A)_m."""
    return _module_dim(res.algebra, [m + g for g in res.steps[i].gen_degrees])


def test_one_sided_degenerate_shape():
    res = resolve("gen x:1, y:1; rel y^2")
    assert res.betti == [[0], [1, 1], [2], [3], [4], [5], [6]]
    t = res.algebra
    y_vec = t.normal_form({(1,): QQ.one})
    # d_2 hits only the y slot, every later differential is multiplication by y
    assert res.steps[2].entries[0][0] is None
    assert res.steps[2].entries[0][1].vec == y_vec
    for n in range(3, 7):
        assert res.steps[n].entries[0][0].vec == y_vec


def test_two_sided_degenerate_shape():
    res = resolve("gen x:1, y:1; rel x^2 + x*y + y*x + y^2")
    assert res.betti == [[0], [1, 1], [2], [3], [4], [5], [6]]


def test_skew_plane_finite_resolution():
    res = resolve("gen x:1, y:1; rel x*y + y*x", hom_bound=5)
    assert res.betti == [[0], [1, 1], [2]]
    assert res.stopped_at == 3
    table = ext_against_algebra(res)
    assert table.classes() == [(2, -2, 1)]


def test_single_polynomial_generator():
    res = resolve("gen x:1", hom_bound=5)
    assert res.betti == [[0], [1]]
    assert res.stopped_at == 2
    table = ext_against_algebra(res)
    assert table.classes() == [(1, -1, 1)]


def test_minimality_every_entry_has_positive_degree():
    res = resolve("gen x:1, y:1; rel x^2 + x*y + y*x + y^2")
    for step in res.steps[1:]:
        for row in step.entries:
            for entry in row:
                if entry is not None:
                    assert entry.degree >= 1


def test_exactness_per_internal_degree():
    # independent bookkeeping: the kernel of d_i equals the image of d_{i+1}
    # dimensionwise in every internal degree inside the truncation
    res = resolve("gen x:1, y:1; rel y^2", hom_bound=5)
    t = res.algebra
    for i in range(1, 5):
        nxt = res.steps[i + 1]
        for j in range(min(nxt.gen_degrees), res.int_bound + 1):
            rows = res.steps[i].gen_degrees
            image = RowSpan(t.field, _module_dim(t, [j - h for h in rows]))
            image.extend(_map_columns(t, nxt, rows, j)[1])
            echelon = res.echelons[(i, j)]
            assert echelon.width - echelon.dim == len(echelon.kernel_sparse()) == image.dim


def test_euler_characteristic_bookkeeping():
    for text in ("gen x:1, y:1; rel y^2",
                 "gen x:1, y:1; rel x^2 + x*y + y*x + y^2"):
        res = resolve(text, hom_bound=6)
        for n in range(0, 7):
            assert res.euler_defect(n) == 0, (text, n)


def test_ext_table_one_sided_degenerate():
    res = resolve("gen x:1, y:1; rel y^2")
    table = ext_against_algebra(res)
    assert all(i == 1 for (i, m) in table.dims)
    ext1 = sorted(m for (i, m) in table.dims if i == 1)
    assert ext1[0] == -1 and len(ext1) >= 2
    assert table.dims[(1, -1)] == 1 and table.dims[(1, 0)] == 2


def test_certificates_on_the_degenerate_quadratics():
    bad = gorenstein_certificate(parse_presentation(QQ, "gen x:1, y:1; rel y^2"))
    assert bad.verdict == "NonGorenstein"
    assert len(bad.witness) == 2
    assert {(w.hom_degree, w.internal_degree) for w in bad.witness} == {(1, -1), (1, 0)}

    good = gorenstein_certificate(parse_presentation(QQ, "gen x:1, y:1; rel x*y + y*x"))
    assert good.verdict == "ConsistentUpToCutoff"
    assert good.table.total_within_windows() == 1


def test_right_side_via_opposite_algebra():
    p = parse_presentation(QQ, "gen x:1, y:1; rel y^2")
    right = gorenstein_certificate(p.opposite())
    assert right.verdict == "NonGorenstein"


def test_three_generator_case_certificate_consistent():
    p, _ = case_presentation(QQ, "R1f", {"row": (0, 1, 1), "l1": 0, "l2": 0,
                                         "permutation": (1, 2, 3)})
    cert = gorenstein_certificate(p, hom_bound=5, int_bound=10)
    assert cert.verdict == "ConsistentUpToCutoff"


def test_predicted_vs_certified_on_flagships():
    for rows in ([[1, 1, 0], [1, 1, 0], [1, 1, 0]],
                 [[0, 1, 1], [0, 1, 1], [0, 1, 1]],
                 [[1, 1, 1], [1, 1, 1], [2, 2, 2]]):
        cmp = predicted_vs_certified(Matrix.from_rows(QQ, rows), 5, 10)
        assert cmp.consistent
        assert cmp.certificate.is_refuted


def test_predicted_vs_certified_on_gorenstein_side():
    cmp = predicted_vs_certified(Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]), 5, 10)
    assert cmp.consistent
    assert cmp.classification.predicted_gorenstein == "Gorenstein"
    assert cmp.certificate.verdict == "ConsistentUpToCutoff"


def test_bound_insufficient_is_reported_with_location():
    t = truncate(parse_presentation(QQ, "gen x:1, y:1; rel y^2"), 3)
    with pytest.raises(BoundInsufficientError) as err:
        minimal_resolution(t, 6)
    assert err.value.step == 3
    assert err.value.degree == 4


def test_windows_shrink_with_the_generator_degrees():
    res = resolve("gen x:1, y:1; rel y^2", hom_bound=4)
    assert [res.window(i) for i in range(4)] == [9, 8, 7, 6]


def test_report_json_and_text():
    res = resolve("gen x:1, y:1; rel y^2", hom_bound=3)
    payload = res.to_json()
    assert payload["betti"][1] == [1, 1]
    assert "step" in res.render_betti()
    table = ext_against_algebra(res)
    assert "hom  internal" in table.render()
    assert table.to_json()["classes"]


def _unit_products(t, src_degrees, dst_degrees, coeff, left):
    """Columns of a block map of free modules the slow way: each basis word a
    unit vector pushed through TruncatedAlgebra.mul, block by block."""
    F = t.field
    cols = []
    for s, q in enumerate(src_degrees):
        for w in range(_block_dim(t, q)):
            unit = {w: F.one}
            col, offset = {}, 0
            for r, q_dst in enumerate(dst_degrees):
                blk = _block_dim(t, q_dst)
                c = coeff(s, r)
                if c is not None and blk:
                    prod = (t.mul(c.vec, c.degree, unit, q) if left
                            else t.mul(unit, q, c.vec, c.degree))
                    col.update((offset + k, x) for k, x in prod.items())
                offset += blk
            cols.append(col)
    return cols


def _scale_of(F, scaled, cols):
    """The S of `scaled` = (S, columns), after checking that the columns
    are S times `cols` for one positive int S, every entry an int over Q
    and S = 1 over F_p."""
    S, scaled_cols = scaled
    assert type(S) is int and S > 0
    assert scaled_cols == [{k: S * x for k, x in col.items()} for col in cols]
    if F == QQ:
        assert all(type(x) is int for col in scaled_cols for x in col.values())
    else:
        assert S == 1
    return S


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("text", [ONE_SIDED, TWO_SIDED, "gen x:1, y:1; rel x^2 - 2*y*x"])
def test_sparse_maps_match_dense_products(F, text):
    # the stored d_i and the dual maps against unit vectors through mul: each
    # call hands back one integral multiple S of the map, S read from it
    res = minimal_resolution(truncate(parse_presentation(F, text), 7), 4)
    t = res.algebra
    scales = set()
    for i in range(1, len(res.steps)):
        step, prev = res.steps[i], res.steps[i - 1].gen_degrees
        for j in range(step.gen_degrees[0], res.int_bound + 1):
            scales.add(_scale_of(F, _map_columns(t, step, prev, j), _unit_products(
                t, [j - g for g in step.gen_degrees], [j - h for h in prev],
                lambda a, b: step.entries[a][b], left=False)))
        for m in range(-max(step.gen_degrees), res.window(i - 1) + 1):
            scales.add(_scale_of(F, _dual_columns(t, step, prev, m), _unit_products(
                t, [m + h for h in prev], [m + g for g in step.gen_degrees],
                lambda b, a: step.entries[a][b], left=True)))
    # y*x = x^2 / 2 puts denominators into the products over Q
    assert max(scales) > 1 if F == QQ and "2*y*x" in text else scales == {1}


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("text", ["R1d", "gen x:1, y:1; rel x^2 - 2*y*x"])
def test_each_checked_map_is_one_multiple_of_d(F, text, monkeypatch):
    # minimal_resolution keeps d_i at j, the new generators' columns too, as
    # one multiple s of d_i, the d o d check reading it as d_i and as d_(i-1)
    checked = {}
    check = resolution._assert_complex

    def record(field, i, below_maps, maps):
        checked.update(((i, j), cols) for j, cols in maps.items())
        check(field, i, below_maps, maps)

    monkeypatch.setattr(resolution, "_assert_complex", record)
    pres = (case_presentation(F, "R1d", R1D_PARAMS)[0] if text == "R1d"
            else parse_presentation(F, text))
    res = minimal_resolution(truncate(pres, 8), 4)
    t = res.algebra
    scales = set()
    for (i, j), cols in checked.items():
        step, prev = res.steps[i], res.steps[i - 1].gen_degrees
        true = _unit_products(t, [j - g for g in step.gen_degrees], [j - h for h in prev],
                              lambda a, b: step.entries[a][b], left=False)
        x, y = next((col[k], d[k]) for col, d in zip(cols, true) for k in d)
        s = F.div(x, y)
        assert cols == [{k: F.mul(s, z) for k, z in d.items()} for d in true], (i, j)
        scales.add(s)
    assert max(scales) > 1 if F == QQ else scales == {1}


def test_assert_complex_sees_a_corrupted_differential():
    for F in (QQ, PrimeField(7)):
        res = minimal_resolution(truncate(parse_presentation(F, ONE_SIDED), 10), 4)
        maps = _maps(res)
        j = min(res.steps[3].gen_degrees)
        d2, d3 = {j: maps[(2, j)]}, {j: maps[(3, j)]}
        _assert_complex(F, 3, d2, d3)
        row = next(r for r, col in enumerate(d2[j]) if col)
        if F != QQ:
            # adding 7 names the same element of F_7: still a complex
            d3[j][0][row] = d3[j][0].get(row, 0) + 7
            _assert_complex(F, 3, d2, d3)
        # add a term to one column of d_3 where d_2 does not vanish
        d3[j][0][row] = d3[j][0].get(row, 0) + 1
        with pytest.raises(AssertionError, match="d_2 o d_3"):
            _assert_complex(F, 3, d2, d3)


def test_independence_check_rejects_a_coboundary_or_zero_witness():
    # the one-sided witnesses sit at the distinct bidegrees (1, -1) and (1, 0)
    res = resolve(ONE_SIDED)
    low, high = sorted(gorenstein_certificate(parse_presentation(QQ, ONE_SIDED)).witness,
                       key=lambda w: w.internal_degree)
    assert (low.internal_degree, high.internal_degree) == (-1, 0)
    _verify_independent(res, [low, high])
    # d_1^* of the unit functional on F_0: a coboundary at (1, 0)
    coboundary = _dual_columns(res.algebra, res.steps[1], res.steps[0].gen_degrees, 0)[1][0]
    assert coboundary
    for group in ([low, WitnessClass(1, 0, coboundary, "")],
                  [WitnessClass(1, -1, {}, ""), high],
                  [WitnessClass(1, 0, {k: 2 * x for k, x in high.functional.items()}, ""), high]):
        with pytest.raises(AssertionError, match="not independent"):
            _verify_independent(res, group)


def test_independence_check_refuses_a_boundary_space_short_of_a_row():
    # B^1 at m = 0 stored without its last row: that row, a coboundary,
    # then has a nonzero residue.  Before the witnesses' coordinates are
    # read, the classes of degree 0 are built on the rows of d^0 at the
    # short span's pivots, and d^0 itself refuses their kernel
    res = resolve(ONE_SIDED)
    high = max(gorenstein_certificate(parse_presentation(QQ, ONE_SIDED)).witness,
               key=lambda w: w.internal_degree)
    assert (high.hom_degree, high.internal_degree) == (1, 0)
    span = res.dual(0).boundaries(1)
    lost = RowSpan(QQ, span.width)
    lost.extend(span.rows_sparse()[:-1])
    res.dual(0)._boundaries[1] = lost
    coboundary = WitnessClass(1, 0, span.rows_sparse()[-1], "")
    assert lost.reduce(coboundary.functional)
    with pytest.raises(AssertionError, match=r"degree 0: d\^0 does not kill the kernel"):
        _verify_independent(res, [high, coboundary])


def test_cocycle_check_rejects_a_perturbed_witness():
    res = resolve(ONE_SIDED)
    low = min(gorenstein_certificate(parse_presentation(QQ, ONE_SIDED)).witness,
              key=lambda w: w.internal_degree)
    assert (low.hom_degree, low.internal_degree) == (1, -1)
    _verify_cocycle(res, [low])
    # coordinate 1 is the dual of F_1's y generator: phi(e_y) = 1 does not
    # kill y * e_y, the kernel vector the relation y^2 gives in degree 2
    bad = WitnessClass(1, -1, {**low.functional, 1: QQ.one}, "")
    with pytest.raises(AssertionError, match="fails the cocycle re-verification"):
        _verify_cocycle(res, [bad])


def test_the_cocycle_check_builds_each_kernel_once(monkeypatch):
    # both R1c witnesses sit at hom degree 1 and read the same stored
    # echelons: each kernel basis is built once, not once per witness
    pres = classify(Matrix.from_rows(QQ, FLAGSHIPS["R1c"])).predicted_presentation
    witnesses = gorenstein_certificate(pres).witness
    assert {w.hom_degree for w in witnesses} == {1}
    res = minimal_resolution(truncate(pres, 10), 6)
    read = {(i, j) for w in witnesses for i, j in res.echelons
            if i == w.hom_degree and 0 <= w.internal_degree + j <= res.int_bound}
    assert len(read) == 9
    built = []
    kernel_sparse = RowSpan.kernel_sparse

    def count(span):
        built.append(span)
        return kernel_sparse(span)

    monkeypatch.setattr(RowSpan, "kernel_sparse", count)
    _verify_cocycle(res, witnesses)
    assert sorted(map(id, built)) == sorted(id(res.echelons[k]) for k in read)


def test_linear_relation_resolves_as_a_polynomial_ring():
    # x - y identifies the generators: the algebra is k[x]
    p = parse_presentation(QQ, "gen x:1, y:1; rel x - y")
    res = resolve(p.render(), hom_bound=4)
    assert res.betti == [[0], [1]]
    cert = gorenstein_certificate(p)
    assert cert.table.classes() == [(1, -1, 1)]
    assert cert.verdict == "ConsistentUpToCutoff"


def _decomposables(res, i, j):
    """(A+ . ker d_{i-1})_j, the route the resolution no longer takes: each
    algebra generator's normal form times each lower kernel vector, block by
    block through TruncatedAlgebra.mul."""
    t = res.algebra
    prev = res.steps[i - 1].gen_degrees
    span = RowSpan(t.field, _module_dim(t, [j - h for h in prev]))
    for gi, g in enumerate(t.presentation.generators):
        g_vec = t.normal_form({(gi,): t.field.one})
        for kappa in _kernel(res, i - 1, j - g.degree):
            prod, offset = {}, 0
            for h, seg in zip(prev, _segments(t, [j - g.degree - h for h in prev], kappa)):
                if seg:
                    prod.update((offset + k, x) for k, x in
                                t.mul(g_vec, g.degree, seg, j - g.degree - h).items())
                offset += _block_dim(t, j - h)
            span.add(prod)
    return span


def _generator_vector(t, prev, j, row):
    """A degree-j generator's image in (F_{i-1})_j, from its differential entries."""
    vec, offset = {}, 0
    for h, entry in zip(prev, row):
        if entry is not None:
            vec.update((offset + k, x) for k, x in entry.vec.items())
        offset += _block_dim(t, j - h)
    return vec


@pytest.mark.parametrize("text, betti_i, socle, verdict", [
    (DUAL_NUMBERS, lambda i: [i], [(0, 1, 1)], "ConsistentUpToCutoff"),
    (EXTERIOR, lambda i: [i] * (i + 1), [(0, 2, 1)], "ConsistentUpToCutoff"),
    ("gen x:1, y:1; rel x^2; rel y^2; rel x*y", lambda i: [i] * (i + 1), None, "NonGorenstein"),
], ids=["dual-numbers", "exterior", "square-zero"])
def test_finite_dimensional_algebras_resolve(text, betti_i, socle, verdict, monkeypatch):
    # A_j = 0 above the socle, so (F_i)_j can vanish while (F_{i+1})_j does
    # not: d_i is still kept there, as an empty map, for the complex check
    checked = {}
    check = resolution._assert_complex

    def record(F, i, below_maps, maps):
        checked.update(((i, j), (below_maps[j], cols)) for j, cols in maps.items())
        check(F, i, below_maps, maps)

    monkeypatch.setattr(resolution, "_assert_complex", record)
    res = resolve(text)
    assert res.betti == [betti_i(i) for i in range(7)]
    # the check reads d_{i-1} and d_i at every j where d_i is defined, i >= 2
    maps = _maps(res)
    assert checked == {(i, j): (maps[(i - 1, j)], cols)
                       for (i, j), cols in maps.items() if i > 1}
    assert any(below == [] for below, _cols in checked.values())
    cert = gorenstein_certificate(parse_presentation(QQ, text))
    assert cert.verdict == verdict
    if socle is not None:
        assert cert.table.classes() == socle


R1F_PARAMS = {"row": (0, 1, 1), "l1": 0, "l2": 0, "permutation": (1, 2, 3)}


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("text", [ONE_SIDED, TWO_SIDED, "gen x:1, y:1; rel x - y", "R1f",
                                  DUAL_NUMBERS, EXTERIOR])
def test_generators_complement_the_decomposables(F, text):
    # the degree-j generators of F_i are independent modulo (A+ . ker d_{i-1})_j
    # and, with it, span ker d_{i-1} at j, in every degree inside the bound
    pres = (case_presentation(F, "R1f", R1F_PARAMS)[0] if text == "R1f"
            else parse_presentation(F, text))
    if text == "R1f":
        assert max(g.degree for g in pres.generators) == 2
    res = minimal_resolution(truncate(pres, 8), 4)
    t = res.algebra
    resolved = len(res.steps) + (res.stopped_at is not None)
    for i in range(1, resolved):
        prev = res.steps[i - 1].gen_degrees
        step = res.steps[i] if i < len(res.steps) else None
        for j in range(min(prev) + 1, res.int_bound + 1):
            span = _decomposables(res, i, j)
            base = span.dim
            gens = [] if step is None else [
                _generator_vector(t, prev, j, row)
                for g, row in zip(step.gen_degrees, step.entries) if g == j]
            span.extend(gens)
            assert span.dim == base + len(gens), (i, j)
            kernel = _kernel(res, i - 1, j)
            assert all(span.contains(v) for v in kernel), (i, j)
            assert span.dim == len(kernel), (i, j)


R1D_PARAMS = {"row": (4, 1, 2), "l1": 2, "l2": 0, "permutation": (1, 2, 3)}


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("text", [ONE_SIDED, TWO_SIDED, "R1d", EXTERIOR])
def test_kernels_and_generator_counts_match_the_full_map(F, text):
    # the resolution eliminates only the columns of the lower generators;
    # here every stored kernel is recomputed from the completed d_i, and the
    # degree-j generators of F_i are counted against the rank of the lower
    # generators' columns, found by a column span
    pres = (case_presentation(F, "R1d", R1D_PARAMS)[0] if text == "R1d"
            else parse_presentation(F, text))
    res = minimal_resolution(truncate(pres, 8), 4)
    t = res.algebra
    if text == "R1d":
        assert all(len(set(s.gen_degrees)) == 2 for s in res.steps[1:])
    maps = _maps(res)
    for (i, j), cols in maps.items():
        full = RowSpan(F, len(cols))
        prev = res.steps[i - 1].gen_degrees
        full.extend(columns_to_rows(cols, range(_module_dim(t, [j - h for h in prev]))))
        assert _kernel(res, i, j) == full.kernel_sparse(), (i, j)
    resolved = len(res.steps) + (res.stopped_at is not None)
    for i in range(1, resolved):
        prev = res.steps[i - 1].gen_degrees
        gens = res.steps[i].gen_degrees if i < len(res.steps) else []
        for j in range(min(prev) + 1, res.int_bound + 1):
            lower = _module_dim(t, [j - g for g in gens if g < j])
            image = RowSpan(F, _module_dim(t, [j - h for h in prev]))
            image.extend(maps.get((i, j), [])[:lower])
            born = gens.count(j)
            assert born == len(_kernel(res, i - 1, j)) - image.dim, (i, j)


def _full_dual_rank(res, i, m):
    """The rank of d_i^* at m from all of its columns (zero for i = 0)."""
    if not 1 <= i < len(res.steps):
        return 0
    span = RowSpan(res.algebra.field, _hom_dim(res, i, m))
    span.extend(_dual_columns(res.algebra, res.steps[i], res.steps[i - 1].gen_degrees, m)[1])
    return span.dim


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("text", [ONE_SIDED, TWO_SIDED, "R1d", EXTERIOR])
def test_ext_dims_match_ranks_of_the_full_dual_maps(F, text):
    # ext_against_algebra builds only the columns of d_i^* off the pivots of
    # the image of d_{i-1}^*; here every rank comes from all the columns
    pres = (case_presentation(F, "R1d", R1D_PARAMS)[0] if text == "R1d"
            else parse_presentation(F, text))
    res = minimal_resolution(truncate(pres, 8), 4)
    want = {}
    for i, step in enumerate(res.steps[:res.hom_bound]):
        for m in range(-max(step.gen_degrees), res.window(i) + 1):
            ext = (_hom_dim(res, i, m) - _full_dual_rank(res, i + 1, m)
                   - _full_dual_rank(res, i, m))
            if ext:
                want[(i, m)] = ext
    assert want
    assert ext_against_algebra(res).dims == want


def test_a_certificate_eliminates_each_dual_map_once(monkeypatch):
    # every RowSpan the engine makes is a stored B^n, one column elimination
    # per distinct map d^(n-1) that the table reads (B^0 = 0 is made by each
    # complex), or the one row elimination behind the cocycles at a witness
    # bidegree
    made = []

    class CountingRowSpan(RowSpan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    kept = []
    ext = resolution.ext_against_algebra

    def keep(report):
        kept.append(report)
        return ext(report)

    monkeypatch.setattr(complexes, "RowSpan", CountingRowSpan)
    monkeypatch.setattr(resolution, "ext_against_algebra", keep)
    cert = gorenstein_certificate(parse_presentation(QQ, ONE_SIDED))
    assert cert.is_refuted
    [res] = kept
    read = {}                       # m -> the highest i whose Ext^i at m is read
    for i in range(res.hom_bound):
        for m in range(-max(res.steps[i].gen_degrees), res.window(i) + 1):
            if _hom_dim(res, i, m):
                read[m] = max(read.get(m, i), i)
    # the certificate reads no dual complex that the table did not build
    assert sorted(res._duals) == sorted(read)
    stored, classes = [], []
    for m in read:
        cx = res.dual(m)
        # B^0 up to B^(i+1): Ext^i needs the ranks of d^(i-1) and d^i
        assert len(cx._boundaries) == read[m] + 2, m
        stored += cx._boundaries
        classes += cx._classes
    witnessed = {(w.hom_degree, w.internal_degree) for w in cert.witness}
    assert len(witnessed) == 2
    # the independence check builds the classes of every degree up to the
    # witness's at its m: one row elimination and one span each
    assert len(classes) == sum(i + 1 for i, _m in witnessed)
    # B^i at m + 1 is B^(i+1) at m for i >= 3 (every entry is y there): 90
    # reads of 51 spans, 15 B^0 and one per name in the report's store
    distinct = list({id(b): b for b in stored}.values())
    assert (len(stored), len(distinct)) == (90, 51)
    assert len(distinct) == len(read) + len(res._spans)
    assert len(made) == len(distinct) + len(witnessed) + 2 * len(classes)
    assert all(any(s is b for b in made) for s in stored + classes)


def test_generator_count_check_fires(monkeypatch):
    # the picks are counted against dim ker d_{i-1} minus the rank of the
    # lower generators: let the second kernel read offer no candidates, at
    # (2, 2), where the one pick is then missing
    kernel = RowSpan.kernel_sparse
    calls = []

    def empty_on_second_call(self):
        calls.append(None)
        return kernel(self) if len(calls) != 2 else []

    monkeypatch.setattr(RowSpan, "kernel_sparse", empty_on_second_call)
    with pytest.raises(AssertionError, match=r"step \(2, 2\): 0 new generators"):
        resolve(ONE_SIDED, hom_bound=4)


@pytest.mark.parametrize("F", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_generator_count_check_refuses_a_lossy_row_restriction(F, monkeypatch):
    # an echelon on too few rows has too low a rank: emptying one row of d_1
    # at j = 2, which step 1 keeps, is refused at that step
    to_rows = resolution.columns_to_rows

    def lossy(columns, indices):
        rows = to_rows(columns, indices)
        if len(indices) == 3 and len(columns) == 4:   # d_1 at j = 2
            rows[0] = {}
        return rows

    monkeypatch.setattr(resolution, "columns_to_rows", lossy)
    with pytest.raises(AssertionError, match=r"step \(1, 2\): 0 new generators, but ker d_0 "
                                             r"has dimension 3 and the lower generators span 2"):
        minimal_resolution(truncate(parse_presentation(F, ONE_SIDED), 6), 3)


def test_a_report_is_freed_without_the_cycle_collector():
    # the dual complexes a report keeps hold its algebra and steps, not the
    # report, so the last reference frees it with the cycle collector off
    gc.disable()
    try:
        res = resolve(ONE_SIDED)
        ext_against_algebra(res)
        assert res._duals
        ref = weakref.ref(res)
        del res
        assert ref() is None
    finally:
        gc.enable()


FLAGSHIPS = {"R1c": [[1, 1, 0], [1, 1, 0], [1, 1, 0]], "R1a": [[0, 1, 1], [0, 1, 1], [0, 1, 1]]}
# predicted presentations whose normal forms over Q carry denominators
# (y^2 = -x^2/2 for R1d, -x^2/3 for R1e)
GORENSTEIN_SIDE = {"R1d": [[4, 1, 2], [8, 2, 4], [0, 0, 0]],
                   "R1e": [[4, 3, 1], [0, 0, 0], [8, 6, 2]]}
# a NonGorenstein quadratic whose append maps over Q carry denominators
DENOMINATORS = "gen x:1, y:1; rel x^2 - 2*x*y - 2*y*x + 4*y^2"

# sha256 of gorenstein_certificate(...).to_json(), recorded before the
# resolution's maps became sparse columns; hom_bound 6, int_bound 10
CERTIFICATE_DIGESTS = {
    (ONE_SIDED, "Q"): "f4f014cd505ee5d390e9c817976071f608b556454f458482ce70972967b730fd",
    (ONE_SIDED, "Fp:2147483659"): "f4f014cd505ee5d390e9c817976071f608b556454f458482ce70972967b730fd",
    (TWO_SIDED, "Q"): "4179e9422313fc4c114b15654196c3bdd67486ef7088c25d3d6977063596301d",
    (TWO_SIDED, "Fp:2147483659"): "2182007a622026edff90cf18240093b6362a1bd734339ebad075f6f43437a815",
    (SKEW_PLANE, "Q"): "e690549d0dd00306e99208bcd1dfdd4a494ac4696c83f7ab3a3ce3ba69ce5bf7",
    (SKEW_PLANE, "Fp:2147483659"): "e690549d0dd00306e99208bcd1dfdd4a494ac4696c83f7ab3a3ce3ba69ce5bf7",
    ("R1c", "Q"): "5aabeef125d95feb6084f922c625a1272951634b463f42ca7699ab1b7614c52e",
    ("R1a", "Q"): "4f1785e4cc331ef1b97425cdbf29195786c29249141025cb256581c4b8fa9e45",
    ("R1a", "Fp:2147483659"): "bbe946bfe33df5ec26d8db88ec87ed42c34d31834931c36c4d44302d273f8606",
    # recorded before the module maps over Q became integer multiples
    (DENOMINATORS, "Q"): "4b49389427ffd7269c8f926c85b20a581d7fda2c05722feb8f1f9d113db5a75f",
    (DENOMINATORS, "Fp:2147483659"):
        "7dc11c7f44b4fe6be003d97cf8d3dbb5d042b7d0ac3f05a91c6a9bdb86a48c52",
    ("R1d", "Q"): "0d87280e45df20ac542ff31764102c85db489be694bb11e5cefb904c9c101c12",
    ("R1e", "Q"): "0d87280e45df20ac542ff31764102c85db489be694bb11e5cefb904c9c101c12",
}


@pytest.mark.parametrize("name,field_name", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes_are_pinned(name, field_name):
    F = field_from_name(field_name)
    rows = {**FLAGSHIPS, **GORENSTEIN_SIDE}.get(name)
    if rows is not None:
        pres = classify(Matrix.from_rows(F, rows)).predicted_presentation
    else:
        pres = parse_presentation(F, name)
    text = json.dumps(gorenstein_certificate(pres).to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[(name, field_name)]


def _bench_certificate_sources():
    """The matrices (as rows) and presentation texts of the benchmark's
    eight certificate jobs, read from bench/workloads.py, by job name."""
    constants = {node.targets[0].id: ast.literal_eval(node.value)
                 for node in ast.parse(BENCH_WORKLOADS.read_text()).body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", None) in
                 ("FLAGSHIPS", "DEGENERATE_QUADRATICS", "GORENSTEIN_SIDE")}
    sources = {f"flagship{k + 1}": rows for k, (_, rows) in enumerate(constants["FLAGSHIPS"])}
    sources.update((f"degenerate{k + 1}", text)
                   for k, text in enumerate(constants["DEGENERATE_QUADRATICS"]))
    sources.update(constants["GORENSTEIN_SIDE"])
    return sources


BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
# the entries of F_i alternate between diag(y, x) and diag(x, y): d^i at m
# and d^(i-1) at m + 1 have the same block degrees but are different maps
ALTERNATING = "gen x:1, y:1; rel x*y; rel y*x"
SHARED_SPAN_SOURCES = {**_bench_certificate_sources(),
                       **{name: {**FLAGSHIPS, **GORENSTEIN_SIDE}.get(name, name)
                          for name, _ in CERTIFICATE_DIGESTS},
                       ALTERNATING: ALTERNATING}


@pytest.mark.parametrize("field_name", ["Q", "Fp:2147483659"])
@pytest.mark.parametrize("name", sorted(SHARED_SPAN_SOURCES))
def test_shared_dual_spans_match_complexes_without_a_store(monkeypatch, name, field_name):
    # each dual map is eliminated once per report and its B^(n+1) shared by
    # every dual complex with the same map: every B^n the certificate reads
    # must have the dim and pivots of the same complex built with no store,
    # and the Ext table must be the one those complexes give
    F = field_from_name(field_name)
    source = SHARED_SPAN_SOURCES[name]
    if isinstance(source, str):
        pres = parse_presentation(F, source)
    else:
        pres = classify(Matrix.from_rows(F, source)).predicted_presentation
    kept = []
    ext = resolution.ext_against_algebra

    def keep(report):
        kept.append((report, ext(report)))
        return kept[-1][1]

    monkeypatch.setattr(resolution, "ext_against_algebra", keep)
    gorenstein_certificate(pres)
    [(res, table)] = kept
    # every resolution here but the skew plane's, which stops at F_2,
    # repeats its entries from step 3 on, and some spans are then shared
    reads = sum(len(cx._boundaries) - 1 for cx in res._duals.values())
    assert (len(res._spans) < reads) == (source != SKEW_PLANE), (len(res._spans), reads)
    plain = {m: complexes.CochainComplex(cx.field, cx.width, cx.columns)
             for m, cx in res._duals.items()}
    for m, cx in res._duals.items():
        for n, span in enumerate(cx._boundaries):
            want = plain[m].boundaries(n)
            assert (span.width, span.dim, span.pivots) == (want.width, want.dim, want.pivots), \
                (m, n)
    dims = {}
    for i, step in enumerate(res.steps[:res.hom_bound]):
        for m in range(-max(step.gen_degrees), table.windows[i] + 1):
            if _hom_dim(res, i, m) and plain[m].dim(i):
                dims[(i, m)] = plain[m].dim(i)
    assert table.dims == dims


# sha256 of gorenstein_certificate(R1c flagship, 6, 14).to_json(), recorded
# before left products stopped reading word tables: past the pins above,
# where the left products run longer chains of append steps
DEEP_CERTIFICATE_DIGESTS = {
    "Q": "62865164e778809722a820f1d2af4208e7a3da270222ae9ddbbe03cc4b6ef0fa",
    "Fp:2147483659": "62865164e778809722a820f1d2af4208e7a3da270222ae9ddbbe03cc4b6ef0fa",
}


@pytest.mark.parametrize("field_name", sorted(DEEP_CERTIFICATE_DIGESTS))
def test_deep_certificate_bytes_are_pinned(field_name):
    F = field_from_name(field_name)
    pres = classify(Matrix.from_rows(F, FLAGSHIPS["R1c"])).predicted_presentation
    text = json.dumps(gorenstein_certificate(pres, 6, 14).to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_CERTIFICATE_DIGESTS[field_name]


def _sparse_items(vec):
    return [[k, str(x)] for k, x in sorted(vec.items())]


# sha256 of the key-sorted JSON of the betti numbers and of every stored
# kernel basis and map column of minimal_resolution(truncate(R1c flagship,
# 12), 6, 12), recorded before the decomposables were read off d_i itself;
# the certificate JSON does not show a change of generator or kernel basis
RESOLUTION_DIGESTS = {
    "Q": "34efc0fce269c340f3a2d8bea652179c05737adc1436c087e5a06dbd9bfbc935",
    "Fp:2147483659": "34efc0fce269c340f3a2d8bea652179c05737adc1436c087e5a06dbd9bfbc935",
}


@pytest.mark.parametrize("field_name", sorted(RESOLUTION_DIGESTS))
def test_resolution_internals_are_pinned(field_name):
    F = field_from_name(field_name)
    pres = classify(Matrix.from_rows(F, FLAGSHIPS["R1c"])).predicted_presentation
    res = minimal_resolution(truncate(pres, 12), 6)
    payload = {"betti": res.betti,
               "kernels": [[i, j, [_sparse_items(v) for v in _kernel(res, i, j)]]
                           for i, j in sorted(res.echelons)],
               "maps": [[i, j, [_sparse_items(c) for c in cols]]
                        for (i, j), cols in sorted(_maps(res).items())]}
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RESOLUTION_DIGESTS[field_name]


# sha256 of the key-sorted JSON of the betti numbers, the differential
# entries of every F_i and every stored kernel basis of
# minimal_resolution(truncate(R1d over Q, 10), 6), recorded before the
# module maps over Q became integer multiples; the map columns are left
# out, as they are pinned only up to one scalar per map
R1D_RESOLUTION_DIGEST = "f75a0201789a0d23f0a1226d0ace56286f00b6dbb7b0eff44eb0a9aa96efc099"


def test_resolution_internals_with_denominators_are_pinned():
    pres = classify(Matrix.from_rows(QQ, GORENSTEIN_SIDE["R1d"])).predicted_presentation
    res = minimal_resolution(truncate(pres, 10), 6)
    entries = [[i, [[None if e is None else [e.degree, _sparse_items(e.vec)] for e in row]
                    for row in step.entries]]
               for i, step in enumerate(res.steps) if step.entries is not None]
    payload = {"betti": res.betti, "entries": entries,
               "kernels": [[i, j, [_sparse_items(v) for v in _kernel(res, i, j)]]
                           for i, j in sorted(res.echelons)]}
    text = json.dumps(payload, sort_keys=True)
    assert any("/" in x for _i, _j, vecs in payload["kernels"] for v in vecs for _k, x in v)
    assert hashlib.sha256(text.encode()).hexdigest() == R1D_RESOLUTION_DIGEST
