#!/usr/bin/env python3
"""Walk the three flagship non-Gorenstein matrices end to end: cohomology
dimensions, classification, the truncated minimal resolution of the
predicted cohomology ring, its Ext table, and the two-class witnesses.

Also shows that the first two matrices are related by a variable
permutation (one lands in case R1c, the other in R1a), and that the naive
two-generator presentation over-counts the computed cohomology from degree
3 on -- exactly the degeneration the certificate turns into a refutation.

Usage: python scripts/certify_flagships.py
"""

from dgskew import (QQ, DGSpec, Matrix, classify, cohomology,
                    gorenstein_certificate, minimal_resolution, predicted_dims,
                    truncate)
from dgskew.resolution import ext_against_algebra
from dgskew.transform import apply_transform, permutation_matrix

FLAGSHIPS = (
    [[1, 1, 0], [1, 1, 0], [1, 1, 0]],
    [[0, 1, 1], [0, 1, 1], [0, 1, 1]],
    [[1, 1, 1], [1, 1, 1], [2, 2, 2]],
)


def main():
    for rows in FLAGSHIPS:
        M = Matrix.from_rows(QQ, rows)
        print("=" * 64)
        print("matrix:", rows)
        report = cohomology(DGSpec(QQ, M), 8)
        print("cohomology dims:", report.dims)
        c = classify(M)
        print(f"case {c.case_label}, verdict {c.predicted_gorenstein}")
        print("predicted presentation:", c.predicted_presentation.render())
        print("presentation Hilbert:  ", predicted_dims(c, 8),
              " <- over-counts from degree 3 (degenerate quadratic)")

        t = truncate(c.predicted_presentation, 10)
        res = minimal_resolution(t, 6)
        print(res.render_betti())
        cert = gorenstein_certificate(c.predicted_presentation, 6, 10)
        print("certificate:", cert.verdict, "--", cert.detail)
        for w in cert.witness or ():
            print(f"  witness (hom {w.hom_degree}, internal {w.internal_degree}):",
                  w.rendered)
        print(ext_against_algebra(res).render())

    print("=" * 64)
    P = permutation_matrix(QQ, (2, 0, 1))
    moved = apply_transform(P, Matrix.from_rows(QQ, FLAGSHIPS[0]))
    print("flagship 1 under a cyclic variable permutation:", moved.to_json())
    print("(equals flagship 2: the R1c and R1a shapes are one orbit)")


if __name__ == "__main__":
    main()
