"""Exponent cones of staircase polyominoes and their halfspace data.

Each vertex (i, j) of the staircase of (u, r), with (m, n) = (B_p, A_p)
its ambient box, maps to the 0/1 exponent vector e_i + e_{m+j} in
Z^{m+n} (x-part first, then y-part). A cone holds its generators as
that edge list, the pairs (i - 1, m + j - 1) of 0-based coordinates,
and builds no dense vector. Column i holds the vertices
(i, 1) .. (i, top(i)), so the edges are read off the column tops of
(u, r) with no polyomino built. The cone they span is cut out, inside
the hyperplane "x-degree = y-degree", by the unit halfspaces together
with one extra normal per inner step of the staircase.

The certificate works on the bipartite (Ferrers) graph G whose edges are
the generators; the rank of a set of edge vectors is the number of
vertices it touches minus its connected components (Valencia-Villarreal,
Eur. J. Combin. 24, 2003). The face of the unit normal e_k holds the
edges that miss k, so it has rank ambient_dim - 2, i.e. is a facet,
iff G - k is connected (on its ambient_dim - 1 >= 2 vertices). One
iterative lowpoint pass over G finds its cut vertices, and so decides
every unit normal at once. The p - 1 step normals and the dimension
check count their ranks by union-find. Containment and extremality see
an edge (i, j) only through the entries of nu and of the step normals at
i and j and through whether unit normals cover them, so the certificate
decides both once per pair of such coordinate classes that the edges
meet (at most p(p + 1)/2 pairs on a staircase cone), not once per edge.
Extremality runs an exact elimination on the columns that no unit normal
covers, memoised per active matrix on the ConeRep instance.
Completeness compares each x-coordinate's neighbours with the y-prefix
that the normals allow. A cone with |E| edges and p - 1 step normals
costs O(|E|·p) edge steps plus one extremality rank per class pair.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import itemgetter, mul

from .caps import check_volume
from .exactmat import Matrix, rank_exact
from .polyomino import ExpVec, StairSpec, format_stair_spec


def dot(u: ExpVec, v: ExpVec) -> int:
    return sum(map(mul, u, v))


def stair_normals(spec: StairSpec) -> tuple[list[ExpVec], ExpVec]:
    """Inequality normals and the equality normal of a staircase cone.

    Returns (N, nu) where N lists, in order, one normal per inner step
    (s = 1..p-1) followed by the unit normals, and nu is the equality
    normal separating x-degree from y-degree. The step normal for s has
    -1 on x-coordinates 1..B_s - 1 and +1 on y-coordinates 1..A_s.
    """
    m, n = spec.ambient_box()
    ambient = m + n
    normals: list[ExpVec] = [
        (-1,) * blen + (0,) * (m - blen) + (1,) * alen + (0,) * (n - alen)
        for blen, alen in spec.step_checkpoints()
    ]
    for k in range(ambient):
        vec = [0] * ambient
        vec[k] = 1
        normals.append(tuple(vec))
    nu = tuple([1] * m + [-1] * n)
    return normals, nu


class ConeRep(namedtuple("ConeRep", "edges normals nu x_len y_len")):
    """A cone given by its generators, as an edge list, plus a candidate
    halfspace description.

    The generators are the edge vectors e_i + e_j of the edges (i, j);
    every edge has 0 <= i < x_len <= j < x_len + y_len, which is checked
    on construction and by _replace. Certified by verify_h_representation
    and the tests, not re-checked on construction: every generator g
    satisfies dot(g, nu) == 0 and dot(g, a) >= 0 for every a in normals.
    The instances keep a __dict__ for the cached properties, which are
    derived from the fields once per instance; `rank_memo` maps each
    active matrix that is_extreme_generator has ranked to its rank, so it
    lives and dies with the instance (a `_replace` copy starts with an
    empty one).
    """

    def __new__(cls, edges, normals, nu, x_len, y_len):
        ambient = x_len + y_len
        for edge in edges:
            i, j = edge
            if not 0 <= i < x_len <= j < ambient:
                raise ValueError(f"edge {edge} is not an x-y edge (i, j) with "
                                 f"0 <= i < {x_len} <= j < {ambient}")
        return super().__new__(cls, edges, normals, nu, x_len, y_len)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make; check its edges too
        return cls(*iterable)

    @property
    def ambient_dim(self) -> int:
        return self.x_len + self.y_len

    @cached_property
    def unit_coords(self) -> dict[ExpVec, int | None]:
        """Each normal, mapped to k if it is the unit normal e_k and to
        None otherwise."""
        return {a: a.index(1) if a.count(0) == len(a) - 1 and 1 in a else None
                for a in self.normals}

    @cached_property
    def unit_facets(self) -> frozenset[int]:
        """The k for which G - k, the edge graph without vertex k, is
        connected on its ambient_dim - 1 >= 2 vertices.

        A connected G loses connectivity exactly at its cut vertices,
        found by one iterative lowpoint DFS (Hopcroft-Tarjan): a non-root
        v is a cut vertex iff some DFS child w has low[w] >= order[v], the
        root iff it has two DFS children. A disconnected G - k arises from
        a disconnected G unless G is one component plus the isolated
        vertex k.
        """
        size = self.ambient_dim
        adjacent: list[list[int]] = [[] for _ in range(size)]
        for i, j in self.edges:
            adjacent[i].append(j)
            adjacent[j].append(i)
        isolated = [k for k in range(size) if not adjacent[k]]
        if size < 3 or len(isolated) > 1:
            return frozenset()
        root = next(k for k in range(size) if adjacent[k])
        order = [0] * size
        low = [0] * size
        order[root] = low[root] = visited = 1
        cut = set()
        root_children = 0
        stack = [(root, iter(adjacent[root]))]
        while stack:
            v, neighbours = stack[-1]
            for w in neighbours:
                if not order[w]:
                    visited += 1
                    order[w] = low[w] = visited
                    stack.append((w, iter(adjacent[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if parent == root:
                        root_children += 1
                    elif low[v] >= order[parent]:
                        cut.add(parent)
        if visited < size - len(isolated):
            return frozenset()
        if isolated:
            return frozenset(isolated)
        if root_children > 1:
            cut.add(root)
        return frozenset(range(size)).difference(cut)

    @cached_property
    def uncovered(self) -> tuple[int, ...]:
        """The coordinates k whose unit normal e_k is not listed."""
        units = set(self.unit_coords.values())
        return tuple(k for k in range(self.ambient_dim) if k not in units)

    @cached_property
    def other_normals(self) -> tuple[ExpVec, ...]:
        """The normals that are not unit normals, in order."""
        return tuple(a for a in self.normals if self.unit_coords[a] is None)

    @cached_property
    def rank_memo(self) -> dict[tuple[tuple[int, ...], ...], int]:
        return {}


def stair_cone(spec: StairSpec, max_volume: int | None = None) -> ConeRep:
    """The exponent cone of the staircase of spec with the normals of
    stair_normals, for the certificate; the search and the Hilbert data
    build no cone. The generators are the edges (i, m + j), j < top(i),
    in the lexicographic order of the vertices. Refused before any
    column is visited when its |V| generators times its p - 1 + B_p + A_p
    normals exceed the cap. That bounds the certificate's edge steps
    (one pass over the edges per normal) and the entries of its
    normals."""
    m, n = spec.ambient_box()
    check_volume(spec.vertex_count() * (spec.p - 1 + m + n), max_volume,
                 what="staircase cone (generators x normals)")
    edges = [(i, m + j) for i, top in enumerate(spec.column_tops()) for j in range(top)]
    normals, nu = stair_normals(spec)
    return ConeRep(tuple(edges), tuple(normals), nu, m, n)


def edge_vector(c: ConeRep, edge: tuple[int, int]) -> ExpVec:
    """The dense generator e_i + e_j of the edge (i, j) of c."""
    return tuple(int(k in edge) for k in range(c.ambient_dim))


def _check_dim(c: ConeRep, z: ExpVec):
    if len(z) != c.ambient_dim:
        raise ValueError(
            f"vector of length {len(z)} in ambient dimension {c.ambient_dim}"
        )


def contains(c: ConeRep, z: ExpVec) -> bool:
    """Closed-cone membership: all halfspaces hold and dot(z, nu) == 0."""
    _check_dim(c, z)
    if dot(z, c.nu) != 0:
        return False
    return all(dot(z, a) >= 0 for a in c.normals)


def in_relint(c: ConeRep, z: ExpVec) -> bool:
    """Relative-interior membership for integer points.

    All normals are integral, so strict positivity on an integer vector
    is the same as dot(z, a) >= 1.
    """
    _check_dim(c, z)
    if dot(z, c.nu) != 0:
        return False
    return all(dot(z, a) >= 1 for a in c.normals)


def _edge_rank(edges, size: int) -> int:
    """Rank of the vectors e_i + e_j over the edges (i, j) of a bipartite
    graph on the vertices 0..size-1: vertices touched minus connected
    components (Valencia-Villarreal, Eur. J. Combin. 24, 2003), i.e. the
    edges that join two components of a union-find with path halving."""
    parent = list(range(size))
    rank = 0
    for i, j in edges:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            parent[j] = i
            rank += 1
    return rank


def is_extreme_generator(c: ConeRep, k: int) -> bool:
    """Does the subsystem active at generator k, the edge c.edges[k],
    cut out exactly its ray?

    True iff the normals vanishing on the generator, together with nu,
    have rank ambient_dim - 1.
    """
    if not 0 <= k < len(c.edges):
        raise ValueError(f"{k} is not the index of a generator of this cone")
    i, j = c.edges[k]
    # A unit normal e_l is inactive here for l in {i, j}; otherwise it is
    # active and the only pivot its column needs. Leave out its row and
    # column, and rank what the other normals leave on the other columns.
    free = sorted({i, j}.union(c.uncovered)) if c.uncovered else (i, j)
    active = [a for a in c.other_normals if a[i] + a[j] == 0]
    active.append(c.nu)
    rows = tuple(filter(any, map(itemgetter(*free), active)))
    rank = c.rank_memo.get(rows)
    if rank is None:
        rank = c.rank_memo[rows] = rank_exact(Matrix.from_rows(rows))
    return rank == len(free) - 1


def facet_check(c: ConeRep, a: ExpVec) -> bool:
    """Is H_a a facet of the cone (one dimension below the cone itself)?

    The cone lives in the hyperplane of nu, so a facet has rank
    ambient_dim - 2 worth of generators on it. For a unit normal e_k
    the face is the edge graph G without vertex k; its rank is
    ambient_dim - 2 iff G - k is connected with at least one edge
    (Valencia-Villarreal), which c.unit_facets reads off G's cut
    vertices. Any other normal counts the rank of its face by
    union-find.
    """
    try:
        k = c.unit_coords[a]
    except (KeyError, TypeError):
        raise ValueError(f"{a} is not one of the cone's inequality normals") from None
    if k is not None:
        return k in c.unit_facets
    on_face = [(i, j) for i, j in c.edges if a[i] + a[j] == 0]
    return bool(on_face) and _edge_rank(on_face, c.ambient_dim) == c.ambient_dim - 2


def _prefix_length(part: ExpVec, value: int) -> int | None:
    """k if part is value on its first k entries and 0 after, else None."""
    k = part.count(value)
    return k if part == (value,) * k + (0,) * (len(part) - k) else None


def _completeness_failures(c: ConeRep) -> list[str]:
    """Witnesses that the normals may cut out more than the generators' cone.

    Needs every unit normal, nu = (1^m, -1^n) and every other normal -1 on
    an x-prefix and +1 on a y-prefix; otherwise it names what is missing
    rather than guessing. In the prefix-sum coordinates X_k = x_1 + ... + x_k,
    Y_l = y_1 + ... + y_l each such normal is a difference of two
    coordinates, so the slice x-degree = 1 is a totally unimodular system
    (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 19)
    whose vertices are the edge vectors e_i + e_{m+j} the normals allow.
    Those are exactly the generators when x-coordinate i meets the
    y-coordinates 1..bound(i), bound(i) being the shortest y-prefix of a
    normal that is -1 at i (y_len if none is).
    """
    m, n = c.x_len, c.y_len
    if c.uncovered:
        return [f"no unit normal for coordinate {k + 1}" for k in c.uncovered]
    if c.nu != (1,) * m + (-1,) * n:
        return [f"nu {list(c.nu)} is not (1^{m}, -1^{n})"]
    bound = [n] * m
    for a in c.other_normals:
        k, length = _prefix_length(a[:m], -1), _prefix_length(a[m:], 1)
        if k is None or length is None:
            return [f"normal {list(a)} is not -1 on an x-prefix and +1 on a y-prefix"]
        for i in range(k):
            bound[i] = min(bound[i], length)
    neighbours: list[set[int]] = [set() for _ in range(m)]
    for i, j in c.edges:
        neighbours[i].add(j - m + 1)
    return [f"x_{i + 1} meets y {sorted(neighbours[i])}, the normals allow y_1..y_{bound[i]}"
            for i in range(m) if neighbours[i] != set(range(1, bound[i] + 1))]


def certify(c: ConeRep) -> dict:
    """The report of verify_h_representation on any cone, without a spec.

    Checks, in order: every generator satisfies every halfspace and the
    nu-equality; every generator is an extreme ray; every listed normal
    is facet-defining; the generators span a space of dimension
    ambient_dim - 1; and the normals allow no edge vector beyond the
    generators, which makes the description complete. Failures are
    reported with witnesses, in edge order, never raised. Containment
    and extremality are decided once per pair of coordinate classes
    (equal entries in nu and in every non-unit normal, equal unit-normal
    cover), at the first edge (i, j) whose ends fall in that pair.
    """
    report: dict = {
        "ambient_dim": c.ambient_dim,
        "expected_dim": c.ambient_dim - 1,
        "generator_count": len(c.edges),
        "normal_count": len(c.normals),
    }
    # a normal without a negative entry holds on every edge vector
    negative = [a for a in c.normals if min(a) < 0]
    # all that containment and extremality read of an edge's two ends
    uncovered = set(c.uncovered)
    classes: dict = {}
    coord_class = [classes.setdefault((column, k in uncovered), len(classes))
                   for k, column in enumerate(zip(c.nu, *c.other_normals))]
    decided: dict[tuple[int, int], tuple[bool, bool]] = {}
    containment_fail, extreme_fail = [], []
    for k, edge in enumerate(c.edges):
        i, j = edge
        pair = coord_class[i], coord_class[j]
        verdict = decided.get(pair)
        if verdict is None:
            inside = c.nu[i] + c.nu[j] == 0 and all(a[i] + a[j] >= 0 for a in negative)
            verdict = decided[pair] = inside, is_extreme_generator(c, k)
        if not verdict[0]:
            containment_fail.append(list(edge_vector(c, edge)))
        if not verdict[1]:
            extreme_fail.append(list(edge_vector(c, edge)))
    facet_fail = [list(a) for a in c.normals if not facet_check(c, a)]
    gen_rank = _edge_rank(c.edges, c.ambient_dim)
    complete_fail = _completeness_failures(c)
    checks = {
        "containment": {"passed": not containment_fail, "failures": containment_fail},
        "extreme_generators": {"passed": not extreme_fail, "failures": extreme_fail},
        "facets": {"passed": not facet_fail, "failures": facet_fail},
        "dimension": {"passed": gen_rank == c.ambient_dim - 1, "rank": gen_rank},
        "complete": {"passed": not complete_fail, "failures": complete_fail},
    }
    report["checks"] = checks
    report["all_passed"] = all(v["passed"] for v in checks.values())
    return report


def verify_h_representation(spec: StairSpec, max_volume: int | None = None) -> dict:
    """Certify the halfspace description of a staircase exponent cone: the
    spec, then the report of certify(stair_cone(spec, max_volume))."""
    return {"spec": format_stair_spec(spec), **certify(stair_cone(spec, max_volume))}
