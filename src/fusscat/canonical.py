"""Canonical-module generators and Hilbert data for staircase rings.

The ring attached to a staircase polyomino is generated by the vertex
monomials x_i * y_j. Its canonical ideal is spanned by the monomials
whose exponent vectors are integer points in the relative interior of
the exponent cone, and for the uniform staircase (u_i = n, r_i = t)
those generators have a closed form: x^alpha * y_1...y_{pn+1} with
every alpha_i >= 1, sum(alpha) = p*n + 1 and the prefix sums
sum(alpha[:k*t]) <= k*n for k = 1..p-1. Shifting alpha down by one
lands exactly on the composition model of the bracket, so
stair_generators lists them by the bracket's own walk with every entry
raised by one (paths.composition_walk with shift 1), under the same cap.

The Cohen-Macaulay type is computed without those compositions. The
ring is a one-sided ladder determinantal ring, so the coefficient h_k
of its Hilbert series numerator counts the lattice paths through the
vertex set with k NE turns. The top coefficient h_s counts the
canonical generators of lowest degree, and the uniform ring is level
(its closed-form generators share one degree), so h_s is its type: a
DP over the vertices, independent of the bracket's other routes.

The Hilbert data of any staircase, uniform or not, comes by one of two
routes, read off its StairSpec (u, r) with no polyomino or cone built.
The turn-count route counts the paths by their turns, all h_k at once,
with each vertex's polynomial packed into one int (_turn_polynomial).
The lattice-point route fills one DP table over the pair of x- and
y-prefix sums and multiplies its H by (1 - t)^dim. hilbert_numerator
is the one function that picks a route: it takes the one with the
smaller cost estimate, which is also the one compared against the cap.
The turn-count route's grows with the vertex count times min(s, D) + 1
and with the length of its numbers, the table's with (D + 1)^2, so the
table wins only at low degree on large staircases. Every H comes from
that h by one conversion, hilbert_from_numerator, which multiplies
h_0 .. h_min(s, D) by the series of 1 / (1 - t)^dim. The whole h-vector
is hilbert_numerator(spec, spec.top_degree()). top_turn_count runs the
same recurrence on each polynomial's top term alone, in O(|V|) work on
small ints. The general search keeps a relative-interior point by a
rule on the staircase's blocks and its tight steps.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, islice, repeat
from operator import add, mul

from .caps import check_volume
from .exactmat import binomial, binomial_series
from .paths import composition_walk, iter_bounded_compositions, validate_triple
from .polyomino import ExpVec, StairSpec


class CanonicalGenerator(namedtuple("CanonicalGenerator", "alpha y_len")):
    """Exponent data of one canonical-module generator x^alpha * y."""

    __slots__ = ()

    def exponent_vector(self) -> ExpVec:
        return tuple(self.alpha) + (1,) * self.y_len

    def monomial(self) -> str:
        parts = []
        for i, e in enumerate(self.alpha, start=1):
            parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        parts.append("y")
        return "*".join(parts)

    def as_json_dict(self) -> dict:
        return {
            "x": list(self.alpha),
            "y": [1] * self.y_len,
            "monomial": self.monomial(),
        }


def stair_generators(n: int, t: int, p: int,
                     max_volume: int | None = None) -> list[CanonicalGenerator]:
    """All canonical-module generators of the uniform staircase ring,
    lexicographically sorted by alpha: the bracket's compositions
    shifted up by one, listed directly by the bracket's walk with shift 1
    (paths.composition_walk), under the same cap. They are the
    compositions of p*n + 1 into p*t + 1 parts >= 1 with
    sum(alpha[:k*t]) <= k*n for k = 1..p-1."""
    walk = composition_walk(n, t, p, 1, max_volume)
    # the walk's total, p*n + 1, is also the length of y
    y_len = walk[0]
    alphas = iter_bounded_compositions(*walk)
    # tuple.__new__ builds each named tuple at C speed
    return list(map(tuple.__new__, repeat(CanonicalGenerator), zip(alphas, repeat(y_len))))


def cm_type_stair(n: int, t: int, p: int, max_volume: int | None = None) -> int:
    """Cohen-Macaulay type of the uniform staircase ring: the top
    coefficient h_s (s = p*t) of its Hilbert numerator, by the turn-count
    DP. The ring is level, so h_s counts every canonical generator."""
    validate_triple(n, t, p)
    return top_turn_count(StairSpec.uniform(n, t, p), max_volume)[1]


def top_turn_count(spec: StairSpec, max_volume: int | None = None) -> tuple[int, int]:
    """(s, h_s): the most NE turns of a lattice path through the vertex
    set, and the number of paths with that many.

    The paths run from (1, 1) to (B_p, A_p) by unit N and E steps and
    stay under the top of each vertex column: A_k for the columns
    B_(k-1) .. B_k - 1, and A_p for column B_p. An NE turn is an N step
    followed by an E step. The paths with k NE turns number h_k, the
    k-th coefficient of the Hilbert numerator of the one-sided ladder
    ring (Conca, JPAA 98, 1995; Krattenthaler-Prohaska, Trans. AMS 351,
    1999), so h_s is the number of canonical generators of the lowest
    degree, dim - s. The DP runs the column recurrence of _turn_polynomial
    on the top term (degree, coefficient) of each vertex's T alone: every
    coefficient is positive, so the top term of a sum is the sum of the
    highest-degree top terms. It visits each vertex once and is refused
    when the vertex count exceeds the cap.
    """
    check_volume(spec.vertex_count(), max_volume, what="ladder turn-count DP")
    # a column 0 that holds just the start, the empty path
    T = [(0, 1)]
    for top in spec.column_tops():
        column = []
        # the top term of t * (T(x - 1, 1) + ... + T(x - 1, y - 1)), 0 at y = 1
        m, c = -1, 0
        for d, e in T:
            if m > d:
                column.append((m, c))
            elif m == d:
                column.append((d, e + c))
            else:
                column.append((d, e))
            d += 1
            if d > m:
                m, c = d, e
            elif d == m:
                c += e
        column += [column[-1]] * (top - len(column))
        T = column
    return T[-1]


def minimal_generators_search(spec: StairSpec, degree_max: int,
                              max_volume: int | None = None) -> list[ExpVec]:
    """Search the relative interior of the exponent cone degree by degree
    for minimal canonical-module generators of the staircase (u, r), with
    no cone built.

    A relative-interior integer point z is kept when z - g leaves the
    relative interior for every cone generator g, an edge e_i + e_j; by
    normality that is exactly minimality in the monomial ideal. Block k
    holds the x-coordinates B_(k-1) .. B_k - 1 (the last block also B_p),
    whose edges reach y_1 .. y_(A_k). A unit normal blocks every edge
    with an end at 1. The step normal s blocks the edges with x_i >= B_s
    and y_j <= A_s when it is tight, Y_(A_s) = X_(B_s - 1) + 1. So with
    cover_k = A_s for the largest tight s < k (0 if none), z is kept iff
    no block k with an x-coordinate above 1 has a y-coordinate above 1
    among y_(cover_k + 1) .. y_(A_k). Refused when the point-count
    estimate, summed degree by degree, exceeds the cap.
    """
    m, ny = spec.ambient_box()
    # the degrees below max(m, ny) hold no point
    estimate = 0
    for d in range(max(m, ny), degree_max + 1):
        estimate += binomial(d - 1, m - 1) * binomial(d - 1, ny - 1)
        check_volume(estimate, max_volume, what="relative-interior point search")
    checkpoints = spec.step_checkpoints()
    # block k holds the x-coordinates starts[k] + 1 .. ends[k]
    ends = [blen for blen, _ in checkpoints] + [m]
    starts = [0] + ends[:-1]
    heights = spec.heights()

    found: list[ExpVec] = []
    for d in range(max(m, ny), degree_max + 1):
        for xs in iter_bounded_compositions(d, m, 1):
            xpre = list(accumulate(xs, initial=0))
            # the step inequalities pin a floor on each Y_(A_s) once x is
            # fixed; step s is tight when Y_(A_s) sits on it
            floors = [xpre[blen] + 1 for blen, _ in checkpoints]
            # per block: its height A_k, whether it holds an x above 1,
            # and the floor of the step at its top (None for the last)
            blocks = [(A, xpre[end] - xpre[start] > end - start, floor)
                      for A, start, end, floor in zip(heights, starts, ends, floors + [None])]
            for ys in iter_bounded_compositions(d, ny, 1, lower=dict(zip(heights, floors))):
                ypre = list(accumulate(ys, initial=0))
                cover = 0
                for A, x_open, floor in blocks:
                    # a y above 1 among y_(cover + 1) .. y_A leaves an open edge unblocked
                    if x_open and ypre[A] - ypre[cover] > A - cover:
                        break
                    if ypre[A] == floor:
                        cover = A
                else:
                    found.append(xs + ys)
    return sorted(found)


def _turn_polynomial(spec: StairSpec, degree_max: int) -> list[int]:
    """h_0 .. h_degree_max by one DP over the vertex columns.

    Column x keeps, per height y, the turn polynomial T(x, y) of the
    paths from (1, 1) to (x, y), as one int: the coefficient of t^k sits
    in the k-th slot of w bits. A path to (x, y) enters column x by one E
    step from some (x - 1, y'), y' <= y up to the previous column's top,
    and then goes straight up, which adds no turn. That E step is a turn
    when the path to (x - 1, y') ends with N, that is, when it is a path
    to (x - 1, y' - 1) plus one N step. The paths that do not turn there
    telescope over y', so
    T(x, y) = T(x - 1, y) + t * (T(x - 1, 1) + ... + T(x - 1, y - 1)),
    and above the previous column's top T(x, y) stays at its last value.
    """
    m, n = spec.ambient_box()
    # no path count exceeds binom(m + n - 2, m - 1), so no slot carries
    # into the next
    w = binomial(m + n - 2, m - 1).bit_length() + 1
    # a shift by w multiplies by t; the mask drops the slots past degree_max
    mask = (1 << w * (degree_max + 1)) - 1
    # a column 0 that holds just the start, the empty path
    T = [1]
    for top in spec.column_tops():
        T = [v + (below << w & mask) for v, below in zip(T, accumulate(T, initial=0))]
        T += [T[-1]] * (top - len(T))
    slot = (1 << w) - 1
    return [T[-1] >> w * k & slot for k in range(degree_max + 1)]


def hilbert_function(spec: StairSpec, degree_max: int,
                     max_volume: int | None = None) -> list[int]:
    """[H(0), ..., H(degree_max)]: the number of degree-d monomials of the
    staircase ring for each d up to degree_max, from the numerator of
    hilbert_numerator, under its route and its cap."""
    return hilbert_from_numerator(hilbert_numerator(spec, degree_max, max_volume),
                                  spec.krull_dim())


def _hilbert_table(spec: StairSpec, degree_max: int) -> list[int]:
    """[H(0), ..., H(degree_max)] by counting the integer points of the
    exponent cone by x-part degree, with no cap.

    A DP over the pair (X, Y) of x- and y-prefix sums: each coordinate is
    a running sum along its axis, and after each block of coordinates up
    to a step checkpoint the cells breaking Y >= X are zeroed. Every
    update moves counts to a larger X or Y only, so the one
    (degree_max + 1)^2 table holds each H(d) in its diagonal cell (d, d).
    """
    m, ny = spec.ambient_box()
    size = degree_max + 1
    # ways[X][Y] = number of (x-prefix, y-prefix) pairs with these sums
    ways = [[1] + [0] * degree_max] + [[0] * size for _ in range(degree_max)]
    xlen = ylen = 0
    for blen, alen in (*spec.step_checkpoints(), (m, ny)):
        for _ in range(blen - xlen):
            ways = list(accumulate(ways, lambda acc, row: list(map(add, acc, row))))
        for _ in range(alen - ylen):
            ways = [list(accumulate(row)) for row in ways]
        for X, row in enumerate(ways):
            row[:X] = [0] * X
        xlen, ylen = blen, alen
    return [ways[d][d] for d in range(size)]


def hilbert_numerator(spec: StairSpec, degree_max: int,
                      max_volume: int | None = None) -> list[int]:
    """Coefficients h_0..h_{degree_max} of the Hilbert series numerator,
    i.e. of (sum_d H(d) t^d) * (1 - t)^dim truncated at degree_max, by the
    cheaper of two routes, refused when that route's estimate exceeds the
    cap. The turn-count DP computes h up to min(s, degree_max), the rest
    is zeros; the (X, Y) table counts H(0) .. H(degree_max) and multiplies
    them by (1 - t)^dim.

    The DP costs |V| additions per coefficient, and H(d) then takes
    min(s, d) + 1 products each. Those act on numbers up to H(D) <=
    binom(D + dim - 1, dim - 1) * (number of paths) < 2^(D + 2 dim - 2),
    so each step counts as (D + 2 dim) // 64 + 1 words of 64 bits: for
    large D the output itself is what grows. The table costs
    (B_p + A_p) * (D + 1)^2 cell updates. The DP wins unless D is small
    against s and |V|, as on a large rectangle at degree 1.
    """
    if degree_max < 0:
        raise ValueError(f"degree must be >= 0, got {degree_max}")
    top = min(spec.top_degree(), degree_max)
    words = (degree_max + 2 * spec.krull_dim()) // 64 + 1
    turns = (spec.vertex_count() + degree_max) * (top + 1) * words
    table = sum(spec.ambient_box()) * (degree_max + 1) ** 2
    if turns <= table:
        check_volume(turns, max_volume, what="Hilbert turn-count DP")
        return _turn_polynomial(spec, top) + [0] * (degree_max - top)
    check_volume(table, max_volume, what="Hilbert-function lattice point count")
    return numerator_from_hilbert(_hilbert_table(spec, degree_max), spec.krull_dim())


def hilbert_from_numerator(h: list[int], dim: int) -> list[int]:
    """[H(0), ..., H(len(h) - 1)] from the numerator coefficients h: the
    product of h and binomial_series' (1 - t)^(-dim), truncated at degree
    len(h) - 1, so H(d) = sum_k h_k * binom(d - k + dim - 1, dim - 1). The
    zero tail of h is not multiplied: a staircase's h is positive up to s
    and zero past it, so each of h_0 .. h_min(s, D) takes one pass."""
    top = len(h)
    while top and not h[top - 1]:
        top -= 1
    series = list(islice(binomial_series(-dim, -1), len(h)))
    return _times_series(h[:top], series)


def numerator_from_hilbert(H: list[int], dim: int) -> list[int]:
    """The coefficients of (sum_d H[d] t^d) * (1 - t)^dim up to degree
    len(H) - 1, from the Hilbert function values H[0..] and the terms
    (-1)^j binom(dim, j) of (1 - t)^dim that binomial_series yields."""
    signed = list(islice(binomial_series(dim, -1), min(dim + 1, len(H))))
    return _times_series(signed, H)


def _times_series(poly: list[int], series: list[int]) -> list[int]:
    """The product of the polynomial poly and the power series series,
    truncated at degree len(series) - 1: one pass over series per
    coefficient of poly, so the cost grows linearly with len(series)."""
    out = [0] * len(series)
    for j, c in enumerate(poly):
        out[j:] = map(add, out[j:], map(mul, repeat(c), series))
    return out
