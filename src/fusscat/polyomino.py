"""Grid-cell geometry: convex polyominoes and the staircase family.

A cell is identified with its lower-left corner (x, y), x, y >= 1. A
polyomino is a finite, edge-connected, nonempty set of cells. The
staircase family is built from positive integer lists u and r: reading
left to right it has r_1 columns of height A_1 - 1, then r_2 columns of
height A_2 - 1, and so on, where A_k = 1 + u_1 + ... + u_k and
B_k = 1 + r_1 + ... + r_k mark the height and column breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, repeat

Cell = tuple[int, int]
Point = tuple[int, int]
# an exponent vector: the x-part, then the y-part
ExpVec = tuple[int, ...]


class Polyomino(frozenset):
    """A polyomino as the frozenset of its cells: it equals and hashes as
    that frozenset, and len(P) is the number of cells."""

    __slots__ = ()

    def __new__(cls, cells):
        self = super().__new__(cls, map(tuple, cells))
        if not self:
            raise ValueError("a polyomino needs at least one cell")
        for x, y in self:
            if x < 1 or y < 1:
                raise ValueError(f"cell {x, y} outside the positive quadrant")
        if not _connected(self):
            raise ValueError("cells are not edge-connected")
        return self

    def __repr__(self):
        return f"Polyomino(cells={frozenset(self)!r})"


def _connected(cells) -> bool:
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


class StairSpec(namedtuple("StairSpec", "u r")):
    """Parameters (u, r) of a staircase polyomino."""

    __slots__ = ()

    def __new__(cls, u, r):
        u, r = tuple(u), tuple(r)
        if len(u) != len(r) or not u:
            raise ValueError("u and r must be nonempty lists of equal length")
        if any(x < 1 for x in u) or any(x < 1 for x in r):
            raise ValueError("all entries of u and r must be >= 1")
        return super().__new__(cls, u, r)

    @property
    def p(self) -> int:
        return len(self.u)

    def heights(self) -> tuple[int, ...]:
        """A_1..A_p with A_k = 1 + sum(u[:k])."""
        return tuple(1 + s for s in accumulate(self.u))

    def breaks(self) -> tuple[int, ...]:
        """B_0..B_p with B_0 = 1 and B_k = 1 + sum(r[:k])."""
        return (1,) + tuple(1 + s for s in accumulate(self.r))

    def ambient_box(self) -> tuple[int, int]:
        """(B_p, A_p): the smallest (m, n) with every vertex of the
        staircase inside [(1, 1), (m, n)]."""
        return 1 + sum(self.r), 1 + sum(self.u)

    def column_tops(self) -> Iterator[int]:
        """The top of each vertex column x = 1..B_p, lazily: A_k for each
        of the r_k columns B_(k-1) .. B_k - 1 of step k, then A_p for the
        last column B_p. Column x holds the vertices (x, 1) .. (x, top)."""
        heights = self.heights()
        for A, r in zip(heights, self.r):
            yield from repeat(A, r)
        yield heights[-1]

    def cells(self) -> Iterator[Cell]:
        """The cells of the staircase in sorted (x, y) order, lazily:
        column x = 1 .. B_p - 1 holds (x, 1) .. (x, top(x) - 1)."""
        for x, top in zip(range(1, self.ambient_box()[0]), self.column_tops()):
            for y in range(1, top):
                yield x, y

    def render(self) -> str:
        """render_ascii(stair(self)), read off the column tops: they never
        fall, so row y of the picture is a '.' for each column whose top
        is at most y, then a '#' for each of the others."""
        tops = list(self.column_tops())[:-1]
        width = len(tops)
        return "\n".join("." * (c := bisect_right(tops, y)) + "#" * (width - c)
                         for y in range(tops[-1] - 1, 0, -1))

    def step_checkpoints(self) -> tuple[tuple[int, int], ...]:
        """(B_s - 1, A_s) per inner step s = 1..p-1: the x- and y-prefix
        lengths of the step inequality Y_(A_s) >= X_(B_s - 1) of the cone."""
        return tuple(zip((b - 1 for b in self.breaks()[1:-1]), self.heights()[:-1]))

    def krull_dim(self) -> int:
        """B_p + A_p - 1, the Krull dimension |V| - |cells| of the
        staircase, read off (u, r) without building it."""
        m, n = self.ambient_box()
        return m + n - 1

    def top_degree(self) -> int:
        """s, the degree of the Hilbert numerator: the most NE turns of a
        lattice path through the vertex set, in O(p).

        A turn is an N step followed by an E step. At most B_p - B_k
        turns end with an E step into a column right of B_k, and each of
        the others has its own N step in a column left of B_k, where the
        tops are at most A_k: so s <= (B_p - B_k) + (A_k - 1) for each
        k = 0..p, with B_0 = A_0 = 1. The least of these bounds is s."""
        B = self.breaks()
        return min(B[-1] - b + A - 1 for b, A in zip(B, (1, *self.heights())))

    def vertex_count(self) -> int:
        """Number of vertices of the staircase: a column B_(k-1) .. B_k - 1
        holds A_k of them, and the last column B_p holds A_p."""
        heights = self.heights()
        return sum(A * r for A, r in zip(heights, self.r)) + heights[-1]

    def cell_count(self) -> int:
        """Number of cells of the staircase: r_k columns of height A_k - 1
        per step k."""
        return sum(r * (A - 1) for A, r in zip(self.heights(), self.r))

    def inner_interval_count(self) -> int:
        """Number of inner intervals of the staircase. Column heights never
        decrease to the right, so a rectangle of cells whose lowest-left
        cell sits in column x, of height h(x) = top(x) - 1, is inside iff
        its top is at most h(x) + 1: column x starts (B_p - x) *
        binom(h(x) + 1, 2) of them, none for the last vertex column B_p."""
        m = self.ambient_box()[0]
        return sum((m - x) * (top * (top - 1) // 2)
                   for x, top in enumerate(self.column_tops(), start=1))

    @classmethod
    def uniform(cls, n: int, t: int, p: int) -> "StairSpec":
        """The spec with u_i = n and r_i = t for all i."""
        return cls((n,) * p, (t,) * p)


def format_stair_spec(spec: StairSpec) -> str:
    return "u={};r={}".format(",".join(map(str, spec.u)), ",".join(map(str, spec.r)))


def stair(spec: StairSpec) -> Polyomino:
    """The staircase polyomino of a spec, built from spec.cells()."""
    return Polyomino(spec.cells())


def vertex_set(P: Polyomino) -> list[Point]:
    """All corners of all cells, lexicographically sorted."""
    pts = set()
    for x, y in P:
        pts.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    return sorted(pts)


def is_convex(P: Polyomino) -> bool:
    """Row and column convexity of the cell set."""
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for x, y in P:
        by_row.setdefault(y, []).append(x)
        by_col.setdefault(x, []).append(y)
    for xs in by_row.values():
        if max(xs) - min(xs) + 1 != len(xs):
            return False
    for ys in by_col.values():
        if max(ys) - min(ys) + 1 != len(ys):
            return False
    return True


class InnerInterval(namedtuple("InnerInterval", "a b c d")):
    """A rectangle [a, b] fully inside the polyomino, with its
    anti-diagonal corners c and d."""

    __slots__ = ()


def inner_intervals(P: Polyomino) -> list[InnerInterval]:
    """All intervals [a, b] of P with a < b componentwise.

    Containment of each candidate rectangle is tested in O(1) against a
    2-D prefix count of the occupied cells.
    """
    max_x = max(x for x, _ in P) + 1
    max_y = max(y for _, y in P) + 1
    # occupancy prefix counts: pref[x][y] = #cells in [1..x] x [1..y]
    pref = [[0] * (max_y + 1) for _ in range(max_x + 1)]
    for x in range(1, max_x + 1):
        row = pref[x]
        prow = pref[x - 1]
        for y in range(1, max_y + 1):
            row[y] = (
                prow[y] + row[y - 1] - prow[y - 1]
                + (1 if (x, y) in P else 0)
            )

    def rect_full(x1, y1, x2, y2) -> bool:
        # cells with lower-left in [x1, x2] x [y1, y2], all present?
        count = (
            pref[x2][y2] - pref[x1 - 1][y2] - pref[x2][y1 - 1] + pref[x1 - 1][y1 - 1]
        )
        return count == (x2 - x1 + 1) * (y2 - y1 + 1)

    verts = vertex_set(P)
    out = []
    for ai, a in enumerate(verts):
        for b in verts[ai + 1 :]:
            if a[0] < b[0] and a[1] < b[1]:
                if rect_full(a[0], a[1], b[0] - 1, b[1] - 1):
                    out.append(
                        InnerInterval(a, b, (a[0], b[1]), (b[0], a[1]))
                    )
    return out


def krull_dim(P: Polyomino) -> int:
    """|V(P)| - |cells|; only meaningful (and only allowed) for convex P."""
    if not is_convex(P):
        raise ValueError("dimension formula requires a convex polyomino")
    return len(vertex_set(P)) - len(P)


def render_ascii(P: Polyomino) -> str:
    """Character-grid picture, one '#' per cell, origin at lower left."""
    max_x = max(x for x, _ in P)
    max_y = max(y for _, y in P)
    lines = []
    for y in range(max_y, 0, -1):
        lines.append("".join("#" if (x, y) in P else "." for x in range(1, max_x + 1)))
    return "\n".join(lines)

