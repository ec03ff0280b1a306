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
(paths.count_bounded_compositions), under the listing's cap. The
walk's arguments, the triple check and that cap come from
paths.composition_walk with shift 0; canonical lists its generators
from the same call with shift 1 and imports nothing from this module.
Each route validates the triple and refuses under its own cap as it
starts (composition_walk, staircase_bounds, cm_type_stair), so a
request for all four runs them in GFC_METHODS order until the first
refusal.
"""

from __future__ import annotations

from .canonical import cm_type_stair
from .caps import GFC_METHODS
from .paths import (composition_walk, count_bounded_compositions, count_paths_det,
                    count_paths_dp, iter_bounded_compositions, staircase_bounds)


def iter_A(n: int, t: int, p: int, max_volume: int | None = None):
    """Yield the admissible composition vectors in lexicographic order,
    under the cap of paths.check_enum."""
    yield from iter_bounded_compositions(*composition_walk(n, t, p, 0, max_volume))


def gfc(n: int, t: int, p: int, method: str = "det",
        max_volume: int | None = None) -> int:
    """The bracket value for (n, t, p) by the requested method."""
    if method == "enum":
        return count_bounded_compositions(*composition_walk(n, t, p, 0, max_volume))
    if method == "dp":
        return count_paths_dp(staircase_bounds(n, t, p), max_volume)
    if method == "det":
        return count_paths_det(staircase_bounds(n, t, p), max_volume)
    if method == "canonical":
        return cm_type_stair(n, t, p, max_volume)
    raise ValueError(f"unknown method {method!r}, expected one of {GFC_METHODS}")
