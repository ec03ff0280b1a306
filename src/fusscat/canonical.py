"""Canonical-module generators and Hilbert data for staircase rings.

The ring attached to a staircase polyomino is generated by the vertex
monomials x_i * y_j. Its canonical ideal is spanned by the monomials
whose exponent vectors are integer points in the relative interior of
the exponent cone, and for the uniform staircase (u_i = n, r_i = t)
those generators have a closed form: x^alpha * y_1...y_{pn+1} with
every alpha_i >= 1, sum(alpha) = p*n + 1 and the prefix sums
sum(alpha[:k*t]) <= k*n for k = 1..p-1. Shifting alpha down by one
lands exactly on the composition model of the bracket, so the number of
generators (the Cohen-Macaulay type of the ring) is the bracket value.

The general search and the Hilbert counters work on any staircase,
uniform or not, via the cone's halfspace description.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .caps import check_volume
from .cone import ExpVec, in_relint, stair_cone
from .exactmat import binomial
from .paths import iter_bounded_compositions
from .polyomino import Polyomino, StairSpec, krull_dim, stair, stair_spec_from_polyomino


@dataclass(frozen=True)
class CanonicalGenerator:
    """Exponent data of one canonical-module generator x^alpha * y."""

    alpha: tuple[int, ...]
    y_len: int

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


def _validate(n: int, t: int, p: int):
    if not 1 <= t < n:
        raise ValueError(f"require 1 <= t < n, got t={t}, n={n}")
    if p < 1:
        raise ValueError(f"require p >= 1, got p={p}")


def iter_stair_alphas(n: int, t: int, p: int, max_volume: int | None = None):
    """Yield the generator exponents alpha in lexicographic order."""
    _validate(n, t, p)
    parts = p * t + 1
    total = p * n + 1
    check_volume(binomial(total - 1, parts - 1), max_volume,
                 what=f"canonical-generator enumeration for (n,t,p)=({n},{t},{p})")

    upper = {k * t: k * n for k in range(1, p)}  # strict bound < k*n + 1
    yield from iter_bounded_compositions(total, parts, 1, upper)


def stair_generators(n: int, t: int, p: int,
                     max_volume: int | None = None) -> list[CanonicalGenerator]:
    """All canonical-module generators of the uniform staircase ring,
    lexicographically sorted by alpha."""
    y_len = p * n + 1
    return [CanonicalGenerator(alpha, y_len)
            for alpha in iter_stair_alphas(n, t, p, max_volume)]


def cm_type_stair(n: int, t: int, p: int, max_volume: int | None = None) -> int:
    """Cohen-Macaulay type: the number of canonical-module generators."""
    return sum(1 for _ in iter_stair_alphas(n, t, p, max_volume))


def _as_stair_spec(P) -> StairSpec:
    if isinstance(P, StairSpec):
        return P
    if isinstance(P, Polyomino):
        return stair_spec_from_polyomino(P)
    raise TypeError(f"expected a Polyomino or StairSpec, got {type(P).__name__}")


def _step_constraints(spec: StairSpec) -> list[tuple[int, int]]:
    """(x-prefix length B_s - 1, y-prefix length A_s) per inner step."""
    heights = spec.heights()
    breaks = spec.breaks()
    return [(breaks[s] - 1, heights[s - 1]) for s in range(1, spec.p)]


def minimal_generators_search(P, degree_max: int,
                              max_volume: int | None = None) -> list[ExpVec]:
    """Search the relative interior of the exponent cone degree by degree
    for minimal canonical-module generators.

    Works on staircase polyominoes (or their specs), where the cone's
    halfspace description is available. A relative-interior integer
    point z of degree d is kept when z - g leaves the relative interior
    for every cone generator g; by normality that is exactly minimality
    in the monomial ideal.
    """
    spec = _as_stair_spec(P)
    cone = stair_cone(spec)
    m, ny = cone.x_len, cone.y_len
    constraints = _step_constraints(spec)

    estimate = sum(
        binomial(d - 1, m - 1) * binomial(d - 1, ny - 1)
        for d in range(degree_max + 1)
    )
    check_volume(estimate, max_volume, what="relative-interior point search")

    found: list[ExpVec] = []
    for d in range(max(m, ny), degree_max + 1):
        for xs in iter_bounded_compositions(d, m, 1):
            xpre = list(accumulate(xs, initial=0))
            # dot(z, step normal s) >= 1 pins a lower bound on each
            # y-prefix once x is fixed.
            y_floor = {alen: xpre[blen] + 1 for blen, alen in constraints}
            for ys in iter_bounded_compositions(d, ny, 1, lower=y_floor):
                z = xs + ys
                if all(not in_relint(cone, _sub(z, g)) for g in cone.gens):
                    found.append(z)
    return sorted(found)


def _sub(u: ExpVec, v: ExpVec) -> ExpVec:
    return tuple(a - b for a, b in zip(u, v))


def hilbert_function(P, d: int, max_volume: int | None = None) -> int:
    """Number of degree-d monomials of the staircase ring.

    Counts integer points of the exponent cone with x-part degree d:
    x-part compositions are enumerated, y-parts are counted by a DP over
    positions with the step constraints applied at their checkpoints.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    spec = _as_stair_spec(P)
    heights = spec.heights()
    breaks = spec.breaks()
    m, ny = breaks[-1], heights[-1]
    check_volume(binomial(d + m - 1, m - 1), max_volume,
                 what="Hilbert-function lattice point count")

    constraints = _step_constraints(spec)
    total = 0
    for xs in iter_bounded_compositions(d, m):
        xpre = list(accumulate(xs, initial=0))
        floors = {alen: xpre[blen] for blen, alen in constraints}
        # dp[s] = number of y-prefixes with sum s so far
        dp = [1] + [0] * d
        for pos in range(1, ny + 1):
            run = 0
            new = [0] * (d + 1)
            for s in range(d + 1):
                run += dp[s]
                new[s] = run
            floor = floors.get(pos)
            if floor is not None:
                for s in range(min(floor, d + 1)):
                    new[s] = 0
            dp = new
        total += dp[d]
    return total


def hilbert_numerator(P, degree_max: int,
                      max_volume: int | None = None) -> list[int]:
    """Coefficients h_0..h_{degree_max} of the Hilbert series numerator,
    i.e. of (sum_d H(d) t^d) * (1 - t)^dim truncated at degree_max."""
    spec = _as_stair_spec(P)
    H = [hilbert_function(spec, d, max_volume) for d in range(degree_max + 1)]
    return numerator_from_hilbert(H, krull_dim(stair(spec)))


def numerator_from_hilbert(H: list[int], dim: int) -> list[int]:
    """The coefficients of (sum_d H[d] t^d) * (1 - t)^dim up to degree
    len(H) - 1, from the Hilbert function values H[0..]."""
    coeffs = []
    for k in range(len(H)):
        acc = 0
        for j in range(k + 1):
            acc += (-1) ** j * binomial(dim, j) * H[k - j]
        coeffs.append(acc)
    return coeffs
