"""The generalized Fuss-Catalan bracket.

For 1 <= t < n and p >= 1 the bracket counts weak compositions alpha of
p*(n-t) into p*t+1 parts whose prefix sums obey
sum(alpha[:k*t]) <= k*(n-t) for k = 1..p-1. Four routes compute it:
direct enumeration of the compositions, the bounded-path DP, the path
determinant, and the Cohen-Macaulay type of the uniform staircase ring,
the top coefficient of its Hilbert numerator, the top term of the
count of lattice paths through the vertex set by NE turns. They are four
independent computations (dp and det count the same paths by different
algorithms), so their agreement is a check: they must always agree, and
[n 1]_p specializes to the Fuss-Catalan number C_{p+1}(n).

The composition entries are nonnegative. Enumeration order is
lexicographic and deterministic so listings can be diffed. The enum
route lists no composition: it walks the listing's prefix-sum tree only
to the last bounded prefix sum, (p-1)*t, and counts the t+1 free entries
after it by one binomial difference per node
(paths.count_bounded_compositions), under the listing's cap. That cap,
enum_volume and check_enum, lives in paths next to the walker and is
imported here with the canonical route, which imports nothing from
this module.
"""

from __future__ import annotations

from .canonical import check_turn_count, cm_type_stair
from .caps import GFC_METHODS
from .paths import (check_dp, check_enum, count_bounded_compositions, count_paths_det,
                    count_paths_dp, enum_volume, iter_bounded_compositions, staircase_bounds,
                    validate_triple)
from .polyomino import StairSpec


def check_methods(n: int, t: int, p: int, max_volume: int | None = None):
    """Raise SearchCapExceeded for the first method, in GFC_METHODS
    order, whose cap estimate exceeds the cap, so that a request for all
    of them is refused before any of them runs. det has no cap."""
    validate_triple(n, t, p)
    check_enum(n, t, p, max_volume)
    check_dp(staircase_bounds(n, t, p), max_volume)
    check_turn_count(StairSpec.uniform(n, t, p), max_volume)


def _walk_args(n: int, t: int, p: int, max_volume: int | None = None):
    """The arguments (total, parts, minimum, upper) of the composition
    walk over A(n, t, p), after validation and under the cap of
    check_enum."""
    validate_triple(n, t, p)
    check_enum(n, t, p, max_volume)
    return p * (n - t), p * t + 1, 0, {k * t: k * (n - t) for k in range(1, p)}


def iter_A(n: int, t: int, p: int, max_volume: int | None = None):
    """Yield the admissible composition vectors in lexicographic order,
    under the cap of check_enum."""
    yield from iter_bounded_compositions(*_walk_args(n, t, p, max_volume))


def enumerate_A(n: int, t: int, p: int, max_volume: int | None = None):
    """All admissible composition vectors, lexicographically sorted."""
    return list(iter_A(n, t, p, max_volume))


def gfc(n: int, t: int, p: int, method: str = "det",
        max_volume: int | None = None) -> int:
    """The bracket value for (n, t, p) by the requested method."""
    validate_triple(n, t, p)
    if method == "enum":
        return count_bounded_compositions(*_walk_args(n, t, p, max_volume))
    if method == "dp":
        return count_paths_dp(staircase_bounds(n, t, p), max_volume)
    if method == "det":
        return count_paths_det(staircase_bounds(n, t, p))
    if method == "canonical":
        return cm_type_stair(n, t, p, max_volume)
    raise ValueError(f"unknown method {method!r}, expected one of {GFC_METHODS}")


def check_symmetry(n: int, p: int, method: str = "det") -> dict:
    """Compare the bracket at t and n-t for every t.

    Returns a report dict with one entry per t in [1, n-1] and an
    aggregate flag.
    """
    if n < 2:
        raise ValueError(f"require n >= 2, got n={n}")
    if p < 1:
        raise ValueError(f"require p >= 1, got p={p}")
    pairs = []
    all_equal = True
    for t in range(1, n):
        value = gfc(n, t, p, method)
        mirror = gfc(n, n - t, p, method)
        equal = value == mirror
        all_equal = all_equal and equal
        pairs.append({"t": t, "value": str(value), "mirror_t": n - t,
                      "mirror_value": str(mirror), "equal": equal})
    return {"n": n, "p": p, "method": method, "pairs": pairs,
            "all_equal": all_equal}
