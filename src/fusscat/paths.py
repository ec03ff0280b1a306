"""Counting monotone lattice paths with per-step height bounds.

A path from (0, b_1) to (n, a_n) built from unit horizontal and vertical
steps is determined by the heights y_1 <= ... <= y_n of its horizontal
steps, so everything here works on weakly increasing integer sequences
with b_i <= y_i <= a_i. A level run is a stretch of rows with equal a_i
and equal b_i; inside one, nothing constrains the heights but their
order, so their counts are binomials; _level_runs finds the first and
the last run. Three routes are provided: a dynamic program that builds
each row of prefix counts with one accumulate, writes the row that ends
the first level run in closed form and folds the last level run into one
weighted sum, capped on its n * (a_n - b_1 + 1) cells; the binomial
determinant identity, by the leading minors of its Hessenberg matrix,
capped on its work (check_det): one closed form per run of equal a while
b is level (_level_minors), the plain recurrence on the columns of
_columns where b rises. For small instances there is exhaustive
enumeration on the package's one composition walker, _walk.

_walk visits the internal nodes of the prefix-sum tree of the bounded
compositions. A node is a fixed prefix of prefix sums plus the range
first..top that the last free prefix sum runs over, so each node stands
for top - first + 1 compositions. Three views read the nodes:
iter_bounded_compositions lists one tuple per value of the range (the
bracket's compositions, the canonical-module generators and the search's
lattice points), count_bounded_compositions walks only to the last
bounded prefix sum and counts the free tail by one binomial difference
per node, without building a tuple (the bracket's enum route), and
iter_height_sequences reads the heights off the prefix sums. The walk
over the bracket's set A(n, t, p) is set up in one place,
composition_walk: it checks the triple (validate_triple), refuses under
the listing's cap (enum_volume, check_enum) and gives the walk's
arguments with every entry raised by a shift, 0 for the bracket's
compositions and 1 for the canonical generators, so that brackets and
canonical both take it, and the selftest the cap, from this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, chain, islice, repeat
from math import comb, isqrt
from operator import gt, lt, mul, sub

from .caps import check_volume
from .exactmat import binomial, binomial_series


class HeightBounds(namedtuple("HeightBounds", "a b")):
    """Upper bounds a and lower bounds b for the horizontal-step heights.

    Both sequences must be weakly increasing with a_i >= b_i. Negative
    heights are allowed by the model; the staircase constructors always
    use b = 0.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = tuple(a), tuple(b)
        problems = []
        if len(a) != len(b):
            problems.append(f"len(a)={len(a)} differs from len(b)={len(b)}")
        if len(a) == 0:
            problems.append("bounds must have length >= 1")
        if any(map(gt, a, a[1:])):
            problems.append(f"a is not weakly increasing: {a}")
        if any(map(gt, b, b[1:])):
            problems.append(f"b is not weakly increasing: {b}")
        if any(map(lt, a, b)):
            crossing = [i for i, (x, y) in enumerate(zip(a, b)) if x < y]
            problems.append(f"a_i < b_i at positions {crossing} (0-based)")
        if problems:
            raise ValueError("invalid height bounds: " + "; ".join(problems))
        return super().__new__(cls, a, b)

    @property
    def n(self) -> int:
        return len(self.a)


def validate_triple(n: int, t: int, p: int):
    """Raise ValueError unless 1 <= t < n and p >= 1."""
    if not 1 <= t < n:
        raise ValueError(f"require 1 <= t < n, got t={t}, n={n}")
    if p < 1:
        raise ValueError(f"require p >= 1, got p={p}")


def enum_volume(n: int, t: int, p: int) -> int:
    """The cap estimate of iter_A(n, t, p): the unconstrained
    stars-and-bars count times the tuple length p*t + 1, i.e. the entries
    a full listing holds; the prefix constraints only shrink the true
    search tree."""
    parts = p * t + 1
    total = p * (n - t)
    return binomial(total + parts - 1, parts - 1) * parts


def check_enum(n: int, t: int, p: int, max_volume: int | None = None):
    """Refuse the walk over A(n, t, p) (composition_walk) when enum_volume
    exceeds the cap, at the first of its increasing partial products
    binom(total + i, i) * parts above it, drawn from (1 - x)^(-total - 1)."""
    parts = p * t + 1
    total = p * (n - t)
    what = f"composition enumeration for (n,t,p)=({n},{t},{p})"
    for c in islice(binomial_series(-total - 1, -1), parts):
        check_volume(c * parts, max_volume, what)


def composition_walk(n: int, t: int, p: int, shift: int, max_volume: int | None = None):
    """The arguments (total, parts, minimum, upper) of the composition
    walk over A(n, t, p) with every entry raised by shift, after
    validate_triple and under the cap of check_enum.

    A(n, t, p) holds the compositions of p*(n - t) into p*t + 1 parts
    whose first k*t entries sum to at most k*(n - t), k = 1..p-1. Raising
    each entry by shift adds shift*(p*t + 1) to the total and shift*k*t
    to each bound: shift 0 walks the bracket's compositions (iter_A and
    the enum route), shift 1 the exponents of the canonical generators
    (stair_generators), the same tree node for node.
    """
    validate_triple(n, t, p)
    check_enum(n, t, p, max_volume)
    parts = p * t + 1
    upper = {k * t: k * (n - t + shift * t) for k in range(1, p)}
    return p * (n - t) + shift * parts, parts, shift, upper


def staircase_bounds(n: int, t: int, p: int) -> HeightBounds:
    """Bounds for the staircase family: a_i = ceil(i/t)*(n-t), b_i = 0.

    Length is p*t. Calling with t -> n-t yields the reflected bounds
    a'_i = ceil(i/(n-t))*t of length p*(n-t).
    """
    validate_triple(n, t, p)
    a = tuple(chain.from_iterable(repeat(k * (n - t), t) for k in range(1, p + 1)))
    return HeightBounds(a, (0,) * (p * t))


def _level_runs(a, b) -> tuple[int, int]:
    """(r, L): rows 0..r-1 form the first level run (a_i = a_0 and
    b_i = b_0) and rows L..n-1 the last (a_i = a_(n-1) and b_i = b_(n-1)).
    Both sequences are weakly increasing, so each end is one bisection.
    L >= r unless the first run is every row (r = n, L = 0)."""
    r = min(bisect_right(a, a[0]), bisect_right(b, b[0]))
    L = max(bisect_left(a, a[-1]), bisect_left(b, b[-1]))
    return r, L


def count_paths_dp(bounds: HeightBounds, max_volume: int | None = None) -> int:
    """Number of admissible height sequences, by prefix-sum DP; refused
    when its n * (a_n - b_1 + 1) cells exceed the cap.

    Only the rows between the first and the last level run (a run of rows
    with equal a_i and equal b_i, see _level_runs) are added cell by
    cell. After the r rows of the first run, a prefix ends at height
    lo + h in binom(h + r - 1, r - 1) ways, lo = b_1; when that run is
    every row, the count is binom(a_1 - b_1 + n, n). After row L
    (0-based), the one that starts the last run, the k = n - 1 - L
    heights left rise from that row's height y to at most a_n under no
    other bound: binom(a_n - y + k, k) ways. On staircase bounds, a in p
    runs of t and b level, that leaves the rows of the p - 2 middle runs.
    """
    a, b = bounds.a, bounds.b
    n = bounds.n
    check_volume(n * (a[-1] - b[0] + 1), max_volume,
                 what="path-count DP (--method det has its own cap)")
    lo = b[0]
    r, L = _level_runs(a, b)
    if r == n:
        return binomial(a[0] - lo + n, n)
    # row[h]: admissible prefixes y_1..y_i ending at height lo + h <= a_i,
    # first for i = r, from (1 - x)^(-r)
    row = list(islice(binomial_series(-r, -1), a[0] - lo + 1))
    for i in range(r, L + 1):
        # y_i >= y_(i-1): prefix sums of the old row, then its total for
        # the heights above a_(i-1), then zero below b_i
        row = list(accumulate(row))
        row += [row[-1]] * (a[i] - a[i - 1])
        row[: b[i] - lo] = [0] * (b[i] - lo)
    # the prefix at m below a_n weighs binom(m + k, k), k = n - 1 - L: the
    # coefficients of (1 - x)^(L - n)
    return sum(map(mul, reversed(row), binomial_series(L - n, -1)))


def _run_starts(a) -> list[int]:
    """The rows 0 = s_0 < s_1 < ... that start a run of equal a_i, then n,
    by one bisection per run, as a is weakly increasing."""
    starts = [s := 0]
    while s < len(a):
        s = bisect_right(a, a[s], s)
        starts.append(s)
    return starts


def _columns(a, b):
    """Yield rows 0..k of each column k of the path matrix
    binom(a_i - b_k + 1, k - i + 1), down to its diagonal.

    The matrix repeats down its diagonals: where a_i == a_(i-1) and
    b_k == b_(k-1), entry (i, k) equals entry (i-1, k-1). So while b stays
    level, column k is column k-1 shifted down one row, and only the rows
    that start a run of equal a (_run_starts) take one exact step from row
    i of column k-1 (row k from the subdiagonal 1): binom(N, K) =
    binom(N, K - 1) * (N - K + 1) / K, with N = a_i - b_k + 1 and
    K = k - i + 1. A zero entry (N < 0 or K > N) stays zero under both
    moves, so this keeps the zero convention. On staircase bounds a has p
    runs, so a column costs one list shift and at most p steps. The first
    column, and a column where b changes, are built entry by entry with
    binomial.
    """
    starts = _run_starts(a)
    for k, bk in enumerate(b):
        if k and bk == b[k - 1]:
            prev = col
            col = [0, *prev]
            # N - K + 1 = (a_i + i) - (b_k + k - 1)
            base = bk + k - 1
            for i in starts:
                if i > k:
                    break
                col[i] = (prev[i] if i < k else 1) * (a[i] + i - base) // (k - i + 1)
        else:
            col = [binomial(a[i] - bk + 1, k - i + 1) for i in range(k + 1)]
        yield col


def path_count_matrix(bounds: HeightBounds) -> tuple[tuple[int, ...], ...]:
    """The rows of the n x n matrix binom(a_i - b_j + 1, j - i + 1) whose
    determinant counts the paths: the rows i <= j of each column from
    _columns, then the subdiagonal 1 and zeros (see count_paths_det)."""
    n = bounds.n
    columns = [(col + [1] + [0] * n)[:n] for col in _columns(bounds.a, bounds.b)]
    return tuple(zip(*columns))


def check_det(bounds: HeightBounds, max_volume: int | None = None):
    """Refuse count_paths_det when its work exceeds the cap, estimated as
    its big-int products and series steps times the 64-bit words of the
    largest count it can reach, binom(a_n - b_1 + n, n), bounded without
    computing it, plus one binomial of that size.

    With b level (_level_minors), a run of equal a on rows s..e-1 takes
    (e - s) * s products and e steps of (1 + x)^(-N), the last run s
    products, and each gap between two runs one series of at most n + 1
    terms; of q runs there are at most min(q(q - 1)/2, a_n - a_1) gaps.
    So one level run costs the binomial alone. When b rises, the
    recurrence takes n(n + 1)/2 products. math.comb's time grows about as
    words^1.8, so the binomial is priced at words * isqrt(isqrt(words))^3,
    about words^1.75 and equal to words below 16 words. Returns the run
    starts of a (_run_starts) when b is level, else None.
    """
    a, b = bounds.a, bounds.b
    n = len(a)
    if b[0] == b[-1]:
        starts = _run_starts(a)
        ends = starts[1:-1]
        q = len(starts) - 1
        # the gaps between runs are distinct integers in 1..a_n - a_1
        gaps = min(q * (q - 1) // 2, a[-1] - a[0])
        work = (sum(map(mul, map(sub, ends, starts), starts)) + starts[-2]
                + sum(ends) + gaps * (n + 1))
    else:
        starts = None
        work = n * (n + 1) // 2
    # binom(N, K) <= (e N / K)^K < (3 N / K)^K, with N = a_n - b_1 + n and
    # K = min(n, a_n - b_1)
    height = a[-1] - b[0]
    K = min(n, height)
    bits = K * (-(-3 * (height + n) // K)).bit_length() if K else 1
    words = bits // 64 + 1
    check_volume((work + isqrt(isqrt(words)) ** 3) * words, max_volume,
                 what="path determinant")
    return starts


def _level_minors(a, b, starts) -> list[int]:
    """alt[k] = (-1)^k D_k for k < L and then alt[n], where D_k is the
    k-th leading minor of the path matrix for level b and L starts the
    last run of equal a (starts from _run_starts).

    M[i][k] = binom(N_i, k - i + 1) with N_i = a_i - b + 1 >= 1, a
    coefficient of (1 + x)^(N_i), so count_paths_det's recurrence says
    sum_(i<=n) alt[i] x^i (1 + x)^(N_i) = 1 mod x^(n+1) (alt[n] counts
    only through its x^n term, so N_n is any). Take a run of equal a on
    rows s..e-1. Below degree e the rows from e on add nothing, so
    multiplying by (1 + x)^(-N_s) there gives, for s <= k < e,
    alt[k] = binom(-N_s, k) - sum_(i<s) alt[i] binom(a_i - a_s, k - i),
    generalized binomials read off binomial_series, one series per gap
    a_s - a_i > 0, shared by the runs with that gap. Of the last run only
    alt[n] is formed, whose first term is binom(-N, n) =
    (-1)^n binom(a_n - b + n, n). So the first run takes no product, and
    one run is that binomial alone.
    """
    n = len(a)
    alt = []
    # gap a_s - a_i -> binom(a_i - a_s, d) for d <= n - s2, where the run of
    # row i starts at s2; pairs of runs with equal gaps come in order of
    # s2, so the first pair needs the most terms
    gaps = {}
    runs = list(zip(starts, starts[1:]))
    for j, (s, e) in enumerate(runs):
        if e < n:
            ks = range(s, e)
            alt += islice(binomial_series(b - 1 - a[s]), s, e)
        else:
            ks = (n,)
            alt.append((-1) ** n * comb(a[s] - b + n, n))
        # alt[k] less sum_(i<s) alt[i] binom(a_i - a_s, k - i), run by run
        for s2, e2 in runs[:j]:
            gap = a[s] - a[s2]
            terms = gaps.get(gap)
            if terms is None:
                terms = gaps[gap] = list(islice(binomial_series(-gap), n + 1 - s2))
            part = alt[s2:e2]
            for x, k in enumerate(ks, s):
                alt[x] -= sum(map(mul, part, terms[k - s2:k - e2:-1]))
    return alt


def count_paths_det(bounds: HeightBounds, max_volume: int | None = None) -> int:
    """Number of admissible height sequences, by the determinant identity,
    under the cap of check_det.

    The path matrix M is upper Hessenberg with a unit subdiagonal: below
    it j - i + 1 < 0, and on it M[i][i-1] = binom(a_i - b_(i-1) + 1, 0) = 1
    as a_i >= a_(i-1) >= b_(i-1). So with alt[i] = (-1)^i D_i, D_i its
    leading minors, expanding along the last column gives alt[0] = 1 and
    alt[k+1] = -sum_(i<=k) M[i][k] alt[i] (0-based), with no matrix
    built. Where b rises, that recurrence runs on the columns of _columns,
    O(n^2) products; where b is level, the minors of each run of equal a
    are one closed form (_level_minors).
    """
    starts = check_det(bounds, max_volume)
    a, b = bounds.a, bounds.b
    if starts is None:
        alt = [1]
        for col in _columns(a, b):
            alt.append(-sum(map(mul, col, alt)))
    else:
        alt = _level_minors(a, b[0], starts)
    return -alt[-1] if len(a) % 2 else alt[-1]


def _walk(total: int, parts: int, minimum: int = 0,
          upper: dict[int, int] | None = None, lower: dict[int, int] | None = None):
    """Yield (prefix, comp, span) at each internal node of the prefix-sum
    tree of the compositions that iter_bounded_compositions lists, in
    lexicographic order.

    A node fixes the prefix sums prefix[1..parts-2] (prefix[0] = 0), and
    comp[:parts-2] holds their entries; its leaves are the compositions
    whose last free prefix sum s = sum(c[:parts-1]) runs over the range
    span, with c[parts-2] = s - prefix[parts-2] and c[parts-1] = total - s.
    span is never empty. prefix and comp are the same lists at every node,
    valid until the next one. With fewer than two parts there is no free
    prefix sum, and a feasible walk has one node whose span holds one
    value. The walk is iterative, so the number of parts is not limited by
    the interpreter's recursion depth. It floors every prefix sum at 0, so
    a negative minimum raises ValueError.
    """
    if minimum < 0:
        raise ValueError(f"minimum must be >= 0, got {minimum}")
    # hi[k], lo[k]: range of the prefix sum of the first k entries. hi is
    # tightened backwards because each later entry adds at least minimum;
    # then every prefix kept inside the ranges has a completion, and the
    # walk never enters a dead end.
    hi = [total] * (parts + 1)
    lo = [0] * parts + [total]
    for k, bound in (upper or {}).items():
        hi[k] = min(hi[k], bound)
    for k, bound in (lower or {}).items():
        lo[k] = max(lo[k], bound)
    for k in range(parts - 1, -1, -1):
        hi[k] = min(hi[k], hi[k + 1] - minimum)
    # the empty prefix sums to 0, which lo[0] and hi[0] must allow
    if not lo[0] <= 0 <= hi[0] or any(map(gt, lo, hi)):
        return
    prefix = [0] * parts
    comp = [0] * parts
    if parts < 2:
        yield prefix, comp, range(1)
        return

    last = parts - 1
    first, stop = lo[last], hi[last] + 1
    k = 0
    while True:
        # fill positions k+1 .. last-1 with their smallest prefix sums
        for j in range(k + 1, last):
            s = prefix[j - 1] + minimum
            if s < lo[j]:
                s = lo[j]
            prefix[j] = s
            comp[j - 1] = s - prefix[j - 1]
        s = prefix[last - 1] + minimum
        yield prefix, comp, range(s if s > first else first, stop)
        # advance the deepest earlier prefix sum still below its bound
        k = last - 1
        while k > 0 and prefix[k] == hi[k]:
            k -= 1
        if k <= 0:
            return
        prefix[k] += 1
        comp[k - 1] += 1


def iter_bounded_compositions(total: int, parts: int, minimum: int = 0,
                              upper: dict[int, int] | None = None,
                              lower: dict[int, int] | None = None):
    """Yield the compositions of total into the given number of parts in
    lexicographic order.

    Every entry is >= minimum, which must be >= 0, and lower[k] <=
    sum(c[:k]) <= upper[k] for each prefix length k that the mappings
    ``lower`` and ``upper`` name.
    This is the listing view of _walk: each node yields one tuple per
    value of its span.
    """
    last = parts - 1
    for prefix, comp, span in _walk(total, parts, minimum, upper, lower):
        if last < 1:
            yield (total,) * parts
            return
        before = prefix[last - 1]
        for s in span:
            comp[last - 1] = s - before
            comp[last] = total - s
            yield tuple(comp)


def count_bounded_compositions(total: int, parts: int, minimum: int = 0,
                               upper: dict[int, int] | None = None,
                               lower: dict[int, int] | None = None) -> int:
    """len(list(iter_bounded_compositions(...))) with the same arguments,
    without building a tuple.

    The counting view walks only to K, the largest prefix length below
    parts that a bound names (0 if none), whose top is tightened to
    R = total - (parts - K) * minimum. From prefix sum v there, the free
    tail of parts - K entries completes in binom(R - v + j, j) ways,
    j = parts - K - 1, so by the hockey-stick identity a node whose span
    runs over a..b adds binom(R - a + j + 1, j + 1) - binom(R - b + j, j + 1).
    """
    if parts < 1 or minimum < 0:
        # no free entry; or a minimum that _walk refuses
        return sum(len(span) for _, _, span in _walk(total, parts, minimum, upper, lower))
    upper, lower = dict(upper or {}), dict(lower or {})
    if not lower.pop(parts, total) <= total <= upper.pop(parts, total):
        return 0
    K = max((k for k in chain(upper, lower) if k < parts), default=0)
    j = parts - K - 1
    R = total - (parts - K) * minimum
    upper[K] = min(upper.get(K, R), R)
    return sum(comb(R - span.start + j + 1, j + 1) - comb(R - span.stop + j + 1, j + 1)
               for _, _, span in _walk(total, K + 1, minimum, upper, lower))


def iter_height_sequences(bounds: HeightBounds, max_volume: int | None = None):
    """Yield all admissible height sequences in lexicographic order.

    A sequence is the prefix sums, shifted by base = min(b_1, 0), of n + 1
    nonnegative increments summing to a_n - base, read off the walk's
    nodes: y_1 .. y_(n-1) from the node's fixed prefix sums, y_n from its
    span. Refused when the entries a full listing holds exceed the cap,
    estimated as the box volume prod(a_i - b_i + 1) times n + 1: n heights
    per sequence, plus the sequence itself. That also bounds the walk,
    which takes at most n steps per sequence, so n has no other limit.
    """
    a, b = bounds.a, bounds.b
    n = bounds.n
    volume = n + 1
    for x, y in zip(a, b):
        volume *= x - y + 1
    check_volume(volume, max_volume, what="height-sequence enumeration")

    base = min(b[0], 0)
    upper = {k: a[k - 1] - base for k in range(1, n + 1)}
    lower = {k: b[k - 1] - base for k in range(1, n + 1)}
    for prefix, _, span in _walk(a[-1] - base, n + 1, 0, upper, lower):
        head = tuple([base + h for h in prefix[1:n]] if base else prefix[1:n])
        for y in range(span.start + base, span.stop + base):
            yield head + (y,)
