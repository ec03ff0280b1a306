"""Exact integer combinatorics and dense exact linear algebra.

Python's native int is the arbitrary-precision integer used everywhere;
all determinants, ranks and counts below are exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def binomial(m: int, k: int) -> int:
    """Binomial coefficient with the zero convention.

    Returns 0 when k < 0, m < 0 or k > m, else m!/(k!(m-k)!). The zero
    convention for a negative upper index matters: the generalized
    (falling-factorial) extension gives wrong bounded-path counts, which
    the property tests against the DP counter would catch.
    """
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def fuss_catalan(p: int, n: int) -> int:
    """Fuss-Catalan number C_p(n) = binom(n*p, p) / ((n-1)*p + 1).

    The division is exact for all p, n >= 1; this is asserted rather
    than truncated.
    """
    if p <= 0 or n <= 0:
        raise ValueError(f"fuss_catalan requires p >= 1 and n >= 1, got p={p}, n={n}")
    num = binomial(n * p, p)
    den = (n - 1) * p + 1
    q, rem = divmod(num, den)
    assert rem == 0, f"Fuss-Catalan division not exact for p={p}, n={n}"
    return q


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def det_exact(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate entries are minors of the input, so every division is
    exact and growth stays polynomial in the entry sizes.
    """
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            ai = a[i]
            ak = a[k]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (piv * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def rank_exact(m: Matrix) -> int:
    """Exact rank over the rationals, fraction-free with row pivoting.

    Same Bareiss update as det_exact, with column skipping for rank
    deficiency.
    """
    rows = [list(m.row(i)) for i in range(m.rows) if any(m.row(i))]
    ncols = m.cols
    rank = 0
    prev = 1
    for col in range(ncols):
        piv_at = -1
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv_at = i
                break
        if piv_at < 0:
            continue
        rows[rank], rows[piv_at] = rows[piv_at], rows[rank]
        prow = rows[rank]
        piv = prow[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            y = ri[col]
            for j in range(col, ncols):
                ri[j] = (piv * ri[j] - y * prow[j]) // prev
        prev = piv
        rank += 1
        if rank == len(rows):
            break
    return rank
