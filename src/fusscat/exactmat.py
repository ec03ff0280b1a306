"""Exact integer combinatorics and dense exact linear algebra.

Python's native int is the arbitrary-precision integer used everywhere;
all determinants, ranks and counts below are exact by construction.
Every run of binomials, in the path counters' closed forms, the enum
cap and the Hilbert conversions, is read off one binomial_series.
Fraction-free (Bareiss) elimination is the one general elimination,
behind both det_exact and rank_exact; the path determinant of ``paths``
needs none, because its matrix is Hessenberg.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import count


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


def binomial_series(top: int, sign: int = 1, start: int = 0):
    """Yield sign^j binom(top, j), j = start, start + 1, ..., the
    coefficients of (1 + sign*x)^top (sign 1 or -1) for any integer top,
    without end: for top = -m < 0 the generalized binom(-m, j) =
    (-1)^j binom(m + j - 1, j), for top >= 0 zeros past degree top. The
    first term is one math.comb; each step after it is one big-int product
    by the small factor f and one exact division."""
    c = math.comb(top, start) if top >= 0 else math.comb(start - top - 1, start)
    if start % 2 and (sign < 0) != (top < 0):
        c = -c
    f = sign * (top - start)
    for j in count(start + 1):
        yield c
        c = c * f // j
        f -= sign


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


class Matrix(namedtuple("Matrix", "rows cols entries")):
    """Dense row-major matrix of exact integers."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        return super().__new__(cls, rows, cols, entries)

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


def _eliminate(m: Matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination with row pivoting: every
    division is exact, as the entries are minors of the input.

    Drops zero rows, skips columns without a pivot and stops once every
    row holds a pivot. Returns the rank and the last pivot times the sign
    of the row swaps: the determinant of a square matrix of full rank.
    """
    rows = [list(r) for r in map(m.row, range(m.rows)) if any(r)]
    ncols = m.cols
    rank = 0
    prev = sign = 1
    for col in range(ncols):
        for i in range(rank, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        if i != rank:
            rows[rank], rows[i] = rows[i], rows[rank]
            sign = -sign
        prow = rows[rank]
        piv = prow[col]
        for ri in rows[rank + 1 :]:
            y = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (piv * ri[j] - y * prow[j]) // prev
        prev = piv
        rank += 1
        if rank == len(rows):
            break
    return rank, sign * prev


def det_exact(m: Matrix) -> int:
    """Exact determinant of a square matrix by Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    rank, pivot = _eliminate(m)
    return pivot if rank == m.rows else 0


def rank_exact(m: Matrix) -> int:
    """Exact rank over the rationals by Bareiss elimination."""
    return _eliminate(m)[0]
