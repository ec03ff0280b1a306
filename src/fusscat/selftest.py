"""Replay of every shipped reference value at desk scale.

Each check_* function runs one acceptance criterion and returns a
CheckResult; run_all executes the lot in order. The CLI's selftest
subcommand prints one line per criterion and fails loudly on any
mismatch. All comparisons are exact integer equality.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from importlib import resources
from itertools import combinations_with_replacement, product

from . import brackets, canonical, cone, paths, polyomino
from .exactmat import binomial, fuss_catalan

EXAMPLE_MATRIX_T1 = (
    (3, 3, 1),
    (1, 5, 10),
    (0, 1, 7),
)
EXAMPLE_MATRIX_T2 = (
    (2, 1, 0, 0, 0, 0),
    (1, 2, 1, 0, 0, 0),
    (0, 1, 3, 3, 1, 0),
    (0, 0, 1, 3, 3, 1),
    (0, 0, 0, 1, 4, 6),
    (0, 0, 0, 0, 1, 4),
)
P1_SPEC = polyomino.StairSpec((3, 3, 3), (1, 1, 1))
P2_SPEC = polyomino.StairSpec((3, 3, 3), (2, 2, 2))
P1_NUMERATOR = [1, 18, 66, 55]
P2_NUMERATOR = [1, 36, 318, 960, 1071, 444, 55]


CheckResult = namedtuple("CheckResult", "number name passed seconds detail")


def _timed(number, name, fn) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(number, name, passed, time.perf_counter() - start, detail)


def load_generator_golden(n: int, t: int, p: int) -> list[tuple[int, ...]]:
    """The transcribed reference generator exponents for (n, t, p)."""
    name = f"omega_generators_n{n}_t{t}_p{p}.txt"
    text = resources.files("fusscat.data").joinpath(name).read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(tuple(int(x) for x in line.split()))
    return out


def check_example(t, matrix):
    """Criteria 1 and 2: the bracket at (3, t, 3) is 55 by all four
    methods and the determinant route uses the reference matrix."""
    values = {m: brackets.gfc(3, t, 3, m) for m in brackets.GFC_METHODS}
    rows = paths.path_count_matrix(paths.staircase_bounds(3, t, 3))
    ok = all(v == 55 for v in values.values()) and rows == matrix
    return ok, f"values={values}, matrix_match={rows == matrix}"


def check_symmetry_and_methods(n_max=6, p_max=4):
    """Criterion 3: bracket symmetry in t and agreement of all four
    methods over the sweep range. The sweep is fixed, so it runs under
    the estimate of its largest enumeration; at the defaults that is
    binom(24, 12) compositions of 13 entries at (6, 3, 4), above the
    default cap (the walk there lists 1,205,961 of them). Symmetry
    compares the det values of the sweep at t and n - t."""
    bad = []
    cap = max(paths.enum_volume(n, t, p) for n in range(2, n_max + 1)
              for p in range(1, p_max + 1) for t in range(1, n))
    for n in range(2, n_max + 1):
        for p in range(1, p_max + 1):
            values = {}
            for t in range(1, n):
                per_method = {m: brackets.gfc(n, t, p, m, cap) for m in brackets.GFC_METHODS}
                if len(set(per_method.values())) != 1:
                    bad.append((n, t, p, "methods", per_method))
                values[t] = per_method["det"]
            if any(values[t] != values[n - t] for t in values):
                bad.append((n, p, "symmetry"))
    return not bad, f"checked n<={n_max}, p<={p_max}, mismatches={bad!r}"


def check_specializations():
    """Criterion 4: [n 1]_p is the Fuss-Catalan number C_{p+1}(n) and
    [n t]_1 is a plain binomial coefficient."""
    bad = []
    for n in range(2, 7):
        for p in range(1, 5):
            left, right = brackets.gfc(n, 1, p), fuss_catalan(p + 1, n)
            if left != right:
                bad.append(("fuss", n, p, left, right))
    for n in range(2, 9):
        for t in range(1, n):
            left, right = brackets.gfc(n, t, 1), binomial(n, t)
            if left != right:
                bad.append(("binomial", n, t, left, right))
    return not bad, f"mismatches={bad!r}"


def check_generator_goldens():
    """Criterion 5: the closed-form generator lists match the transcribed
    reference lists exponent by exponent."""
    bad = []
    for n, t, p in ((3, 1, 3), (3, 2, 3)):
        got = [g.alpha for g in canonical.stair_generators(n, t, p)]
        want = load_generator_golden(n, t, p)
        if got != want or len(want) != 55:
            bad.append((n, t, p, len(got), len(want)))
    return not bad, f"mismatches={bad!r}"


def check_dimensions():
    """Criterion 6: Krull dimensions 13 and 16 for the two reference
    staircases."""
    d1 = polyomino.krull_dim(polyomino.stair(P1_SPEC))
    d2 = polyomino.krull_dim(polyomino.stair(P2_SPEC))
    return (d1, d2) == (13, 16), f"dims=({d1},{d2}), expected (13,16)"


def iter_stair_specs(p_max: int, entry_max: int):
    for p in range(1, p_max + 1):
        for u in product(range(1, entry_max + 1), repeat=p):
            for r in product(range(1, entry_max + 1), repeat=p):
                yield polyomino.StairSpec(u, r)


def check_cone_certificates(p_max=4, entry_max=3):
    """Criterion 7: the halfspace description of every staircase cone in
    the sweep range is certified (containment, extremality, facets,
    dimension, completeness)."""
    specs = list(iter_stair_specs(p_max, entry_max))
    failed = sorted((s.u, s.r) for s in specs
                    if not cone.verify_h_representation(s)["all_passed"])
    # the sweep must reach every spec: entry_max**(2p) of them at length p
    complete = len(specs) == sum(entry_max ** (2 * p) for p in range(1, p_max + 1))
    return complete and not failed, f"specs={len(specs)}, failed={failed!r}"


def _random_bounds(rng, n_max, height_max):
    n = rng.randint(1, n_max)
    a = sorted(rng.randint(0, height_max) for _ in range(n))
    b = sorted(rng.randint(0, height_max) for _ in range(n))
    a = [max(x, y) for x, y in zip(a, b)]
    return paths.HeightBounds.from_rows(a, b)


def check_path_counters(samples=200, seed=20260808):
    """Criterion 8: determinant and DP counters agree on random bounds,
    and both match exhaustive enumeration on every small instance."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        bounds = _random_bounds(rng, 8, 10)
        if paths.count_paths_det(bounds) != paths.count_paths_dp(bounds):
            bad.append(("random", bounds.a, bounds.b))
    for n in range(1, 6):
        seqs = list(combinations_with_replacement(range(7), n))
        for b in seqs:
            for a in seqs:
                if any(x < y for x, y in zip(a, b)):
                    continue
                bounds = paths.HeightBounds.from_rows(a, b)
                count = paths.count_paths_dp(bounds)
                if paths.count_paths_det(bounds) != count:
                    bad.append(("det", a, b))
                elif sum(1 for _ in paths.iter_height_sequences(bounds)) != count:
                    bad.append(("enumeration", a, b))
    return not bad, f"mismatches={bad!r}"


def check_minimal_generator_search():
    """Criterion 9: the relative-interior search recovers exactly the
    closed-form generators one past the first possible degree, and finds
    nothing new at the next degree."""
    bad = []
    for n, t, p in ((3, 1, 3), (3, 2, 3), (2, 1, 2), (3, 1, 2), (3, 2, 2)):
        spec = polyomino.StairSpec.uniform(n, t, p)
        low = p * n + 1
        found = canonical.minimal_generators_search(spec, low + 1)
        expected = sorted(
            g.exponent_vector() for g in canonical.stair_generators(n, t, p)
        )
        if found != expected or any(sum(z) != 2 * low for z in found):
            bad.append((n, t, p, len(found), len(expected)))
    return not bad, f"mismatches={bad!r}"


def check_hilbert_numerators():
    """Criterion 10: Hilbert series numerators of the two reference
    staircases."""
    num1 = canonical.hilbert_numerator(P1_SPEC, len(P1_NUMERATOR) - 1)
    num2 = canonical.hilbert_numerator(P2_SPEC, len(P2_NUMERATOR) - 1)
    ok = num1 == P1_NUMERATOR and num2 == P2_NUMERATOR
    return ok, f"got {num1} and {num2}"


def check_inner_minor_identity(p_max=3, entry_max=3):
    """Criterion 11: the vertex-to-exponent map kills every inner
    2-minor: vec(a) + vec(b) == vec(c) + vec(d) on each inner interval.
    That identity holds on any rectangle, so the intervals must also be
    as many as spec.inner_interval_count(), and each must have its
    top-left cell in P: columns never get shorter to the right, so a
    rectangle's left column is its shortest."""
    bad = []
    for spec in iter_stair_specs(p_max, entry_max):
        P = polyomino.stair(spec)
        m, n = spec.ambient_box()
        intervals = polyomino.inner_intervals(P)
        if len(intervals) != spec.inner_interval_count():
            bad.append((spec.u, spec.r, "count", len(intervals)))
        for iv in intervals:
            left = sorted((iv.a[0], m + iv.a[1], iv.b[0], m + iv.b[1]))
            right = sorted((iv.c[0], m + iv.c[1], iv.d[0], m + iv.d[1]))
            if left != right or (iv.a[0], iv.b[1] - 1) not in P:
                bad.append((spec.u, spec.r, iv))
                break
    return not bad, f"failures={bad!r}"


CHECKS = (
    (1, "bracket (3,1,3) by four methods with the exact 3x3 matrix",
     lambda: check_example(1, EXAMPLE_MATRIX_T1)),
    (2, "bracket (3,2,3) with the exact 6x6 matrix", lambda: check_example(2, EXAMPLE_MATRIX_T2)),
    (3, "symmetry and cross-method agreement, n<=6, p<=4", check_symmetry_and_methods),
    (4, "Fuss-Catalan and binomial specializations", check_specializations),
    (5, "closed-form generators match the transcribed lists", check_generator_goldens),
    (6, "Krull dimensions 13 and 16", check_dimensions),
    (7, "cone halfspace certificates, p<=4, entries<=3", check_cone_certificates),
    (8, "path counters: det vs dp vs enumeration", check_path_counters),
    (9, "minimal generator search matches the closed form", check_minimal_generator_search),
    (10, "Hilbert numerators of the reference staircases", check_hilbert_numerators),
    (11, "inner 2-minors vanish under the exponent map", check_inner_minor_identity),
)


def run_all() -> list[CheckResult]:
    return [_timed(num, name, fn) for num, name, fn in CHECKS]
