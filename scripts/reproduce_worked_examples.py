#!/usr/bin/env python3
"""Recompute every number of the two reference staircases end to end.

Covers: the two bracket determinants, the four counting methods, ring
data (cells, vertices, Krull dimension), the cone certificate, the
canonical-module generator lists, and the Hilbert series numerators.
"""

from fusscat.brackets import GFC_METHODS, gfc
from fusscat.canonical import cm_type_stair, hilbert_numerator, stair_generators
from fusscat.cone import verify_h_representation
from fusscat.paths import path_count_matrix, staircase_bounds
from fusscat.polyomino import StairSpec, krull_dim, render_ascii, stair, vertex_set


def show_matrix(rows):
    width = max(len(str(x)) for row in rows for x in row)
    for row in rows:
        print("   [" + " ".join(f"{x:>{width}}" for x in row) + "]")


def main():
    for n, t, p, numer_degree in ((3, 1, 3, 3), (3, 2, 3, 6)):
        spec = StairSpec.uniform(n, t, p)
        P = stair(spec)
        print(f"=== staircase u={spec.u} r={spec.r}  (n={n}, t={t}, p={p}) ===")
        print(render_ascii(P))
        print(f"cells: {len(P)}, vertices: {len(vertex_set(P))}, "
              f"Krull dimension: {krull_dim(P)}")

        bounds = staircase_bounds(n, t, p)
        print(f"path bounds a = {bounds.a}")
        print("counting matrix:")
        show_matrix(path_count_matrix(bounds))
        values = {m: gfc(n, t, p, m) for m in GFC_METHODS}
        print(f"bracket [{n} {t}]_{p} by method: {values}")

        report = verify_h_representation(spec)
        print(f"cone: {report['generator_count']} generators, "
              f"{report['normal_count']} halfspaces, certificate "
              f"{'OK' if report['all_passed'] else 'FAILED'}")

        gens = stair_generators(n, t, p)
        print(f"Cohen-Macaulay type: {cm_type_stair(n, t, p)}")
        print("first/last canonical generators:",
              gens[0].monomial(), "...", gens[-1].monomial())

        numerator = hilbert_numerator(spec, numer_degree)
        terms = " + ".join(f"{c}t^{k}" if k else str(c)
                           for k, c in enumerate(numerator))
        print(f"Hilbert series: ({terms}) / (1-t)^{krull_dim(P)}")
        print()


if __name__ == "__main__":
    main()
