import re
import tracemalloc
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fusscat import cone
from fusscat.cone import (
    _edge_rank,
    certify,
    contains,
    dot,
    edge_vector,
    facet_check,
    in_relint,
    is_extreme_generator,
    stair_cone,
    stair_normals,
    verify_h_representation,
)
from fusscat.caps import SearchCapExceeded
from fusscat.exactmat import Matrix, rank_exact
from fusscat.polyomino import StairSpec, stair, vertex_set

from conftest import forbid_calls, rank_fractions, stair_specs

P1 = StairSpec((3, 3, 3), (1, 1, 1))
P2 = StairSpec((3, 3, 3), (2, 2, 2))
SINGLE = StairSpec((1,), (1,))


@st.composite
def bipartite_edges(draw):
    """(size, edges): x-y edges (i, j), i < m <= j < m + n, with repeats,
    isolated vertices and several components all possible."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    edge = st.tuples(st.integers(0, m - 1), st.integers(m, m + n - 1))
    return m + n, draw(st.lists(edge, max_size=12))


def edge_cone(size, edges):
    """A cone whose generators are the edges of (size, edges), as
    bipartite_edges draws them; it lists no normals."""
    x_len = 1 + max((i for i, _ in edges), default=0)
    return cone.ConeRep(tuple(edges), (), (0,) * size, x_len, size - x_len)


def dense_gens(c):
    """The generators of c as dense vectors, in the order of c.edges."""
    return [edge_vector(c, e) for e in c.edges]


def union_find_facet(c, a):
    """facet_check's oracle: the rank of a's face by union-find, for
    every normal."""
    on_face = [(i, j) for i, j in c.edges if a[i] + a[j] == 0]
    return bool(on_face) and _edge_rank(on_face, c.ambient_dim) == c.ambient_dim - 2


def vec_sum(vectors):
    out = [0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


class TestGenerators:
    def test_single_cell(self):
        gens = dense_gens(stair_cone(SINGLE))
        assert len(gens) == 4
        assert set(gens) == {
            (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
        }

    def test_first_reference_matches_ring_display(self):
        # x_1 y_1..y_4, x_2 y_1..y_7, x_3 y_1..y_10, x_4 y_1..y_10
        c = stair_cone(P1)
        assert (c.x_len, c.y_len) == (4, 10)
        expected = set()
        for i, top in ((1, 4), (2, 7), (3, 10), (4, 10)):
            for j in range(1, top + 1):
                vec = [0] * 14
                vec[i - 1] = 1
                vec[4 + j - 1] = 1
                expected.add(tuple(vec))
        assert set(dense_gens(c)) == expected
        assert len(expected) == 31

    def test_second_reference_contains_corner(self):
        gens = set(dense_gens(stair_cone(P2)))
        assert len(gens) == 52
        corner = [0] * 17
        corner[7 - 1] = 1  # x_7
        corner[7 + 10 - 1] = 1  # y_10
        assert tuple(corner) in gens

    @settings(max_examples=60, deadline=None)
    @given(stair_specs(max_p=4, max_entry=4))
    def test_generators_are_the_vertices_in_order(self, spec):
        # the cell-by-cell staircase is the oracle: its sorted vertices
        # (i, j) map to the edges (i - 1, m + j - 1), i.e. the vectors
        # e_i + e_(m+j), and its columns end at their tops
        verts = vertex_set(stair(spec))
        m, n = max(i for i, _ in verts), max(j for _, j in verts)
        assert spec.ambient_box() == (m, n)
        assert list(spec.column_tops()) == [max(j for i, j in verts if i == x)
                                            for x in range(1, m + 1)]
        c = stair_cone(spec)
        assert list(c.edges) == [(i - 1, m + j - 1) for i, j in verts]
        assert dense_gens(c) == [tuple(int(k in (i - 1, m + j - 1)) for k in range(m + n))
                                 for i, j in verts]

    def test_building_the_cone_allocates_no_dense_vectors(self):
        # 24,661 generators of length 362: about 70 MiB as dense tuples
        tracemalloc.start()
        try:
            c = stair_cone(StairSpec((90, 90), (90, 90)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c.edges) == StairSpec((90, 90), (90, 90)).vertex_count()
        assert peak < 8 * 2**20


class TestNormals:
    def test_first_step_normal(self):
        normals, nu = stair_normals(P1)
        expected = [0] * 14
        expected[0] = -1
        for k in range(4, 8):
            expected[k] = 1
        assert normals[0] == tuple(expected)
        assert nu == (1,) * 4 + (-1,) * 10

    def test_p1_spec_counts(self):
        normals, _ = stair_normals(P1)
        assert len(normals) == 2 + 14  # two step normals plus units

    def test_no_step_normals_for_single_step(self):
        normals, _ = stair_normals(SINGLE)
        assert len(normals) == 4
        assert all(sum(map(abs, a)) == 1 for a in normals)

    @settings(max_examples=40)
    @given(stair_specs())
    def test_generators_sit_on_the_grading_hyperplane(self, spec):
        c = stair_cone(spec)
        assert all(dot(g, c.nu) == 0 for g in dense_gens(c))


class TestMembership:
    def test_generators_inside(self):
        c = stair_cone(P1)
        assert all(contains(c, g) for g in dense_gens(c))

    def test_negated_generator_outside(self):
        c = stair_cone(P1)
        g = edge_vector(c, c.edges[0])
        assert not contains(c, tuple(-x for x in g))

    def test_sum_of_generators_inside_and_interior(self):
        c = stair_cone(P1)
        z = vec_sum(dense_gens(c))
        assert contains(c, z)
        assert in_relint(c, z)

    def test_off_the_hyperplane_not_interior(self):
        # one more x-degree than y-degree: every normal is still positive,
        # so only the nu-equality rejects the point
        c = stair_cone(P1)
        z = vec_sum(dense_gens(c))
        off = (z[0] + 1,) + z[1:]
        assert dot(off, c.nu) == 1
        assert all(dot(off, a) >= 1 for a in c.normals)
        assert in_relint(c, z) and not in_relint(c, off)

    def test_single_generator_not_interior(self):
        c = stair_cone(P1)
        assert not in_relint(c, edge_vector(c, c.edges[0]))

    def test_first_canonical_generator_is_interior(self):
        c = stair_cone(P1)
        z = (1, 1, 1, 7) + (1,) * 10
        assert in_relint(c, z)
        assert contains(c, z)

    def test_dimension_mismatch(self):
        c = stair_cone(SINGLE)
        with pytest.raises(ValueError, match="ambient"):
            contains(c, (1, 0, 0))
        with pytest.raises(ValueError, match="ambient"):
            in_relint(c, (1, 0, 0, 0, 0))

    def test_pointedness_on_generators(self):
        c = stair_cone(P2)
        for g in dense_gens(c):
            assert not contains(c, tuple(-x for x in g))


class TestExtremeRays:
    def test_single_cell_all_extreme(self):
        c = stair_cone(SINGLE)
        assert all(is_extreme_generator(c, k) for k in range(len(c.edges)))

    def test_first_reference_all_extreme(self):
        c = stair_cone(P1)
        assert all(is_extreme_generator(c, k) for k in range(len(c.edges)))

    def test_specific_generator(self):
        c = stair_cone(P1)
        g = [0] * 14
        g[0] = 1
        g[4] = 1  # the vertex (1, 1)
        k = c.edges.index((0, 4))
        assert edge_vector(c, c.edges[k]) == tuple(g)
        assert is_extreme_generator(c, k)

    def test_rejects_nongenerator(self):
        # a negative index would name another generator, so it is refused
        c = stair_cone(SINGLE)
        for k in (len(c.edges), -1):
            with pytest.raises(ValueError, match="not the index of a generator"):
                is_extreme_generator(c, k)

    def test_one_rank_call_per_distinct_active_matrix(self, monkeypatch):
        calls = []

        def counting_rank(m):
            calls.append(m)
            return rank_exact(m)

        monkeypatch.setattr(cone, "rank_exact", counting_rank)
        c = stair_cone(P2)
        d = c.ambient_dim
        distinct = set()
        for k, (i, j) in enumerate(c.edges):
            g = edge_vector(c, (i, j))
            active = [a for a in c.normals if dot(g, a) == 0] + [c.nu]
            assert is_extreme_generator(c, k) == (rank_fractions(active, d) == d - 1)
            # every unit normal is listed, so the active unit normals cover
            # all columns but i and j: the rest is the active rows there
            distinct.add(tuple((a[i], a[j]) for a in active if a[i] or a[j]))
        assert 1 <= len(calls) <= len(distinct) < len(c.edges)
        # the memo belongs to the instance: a copy ranks again
        copy = c._replace(normals=c.normals)
        assert copy.rank_memo == {}
        assert all(is_extreme_generator(copy, k) for k in range(len(copy.edges)))
        assert len(calls) == 2 * len(c.rank_memo)


class TestFacets:
    def test_single_cell_unit_normal(self):
        c = stair_cone(SINGLE)
        assert facet_check(c, (1, 0, 0, 0))

    def test_first_reference_step_and_unit_normals(self):
        c = stair_cone(P1)
        assert facet_check(c, c.normals[0])  # first step normal
        unit = tuple(1 if i == 0 else 0 for i in range(14))
        assert facet_check(c, unit)

    def test_unit_coords_only_for_unit_vectors(self):
        c = stair_cone(SINGLE)
        others = ((-1, 0, 0, 0), (0, 2, 0, 0), (0, 1, 0, -1), (0, 0, 0, 0))
        c = c._replace(normals=c.normals + others)
        assert [c.unit_coords[a] for a in c.normals] == [0, 1, 2, 3, None, None, None, None]
        assert c.other_normals == others

    def test_rejects_unknown_normal(self):
        c = stair_cone(SINGLE)
        with pytest.raises(ValueError, match="not one of"):
            facet_check(c, (1, 1, 0, 0))
        with pytest.raises(ValueError, match="not one of"):
            facet_check(c, [1, 0, 0, 0])

    @settings(max_examples=25, deadline=None)
    @given(stair_specs(max_p=2, max_entry=2))
    def test_rank_certificates_match_rational_elimination(self, spec):
        # dual route: the certificates against a plain Fraction-based
        # Gaussian elimination, on the cone and on broken copies of it
        # (each normal dropped in turn, and a non-facet normal added)
        c = stair_cone(spec)
        d = c.ambient_dim
        non_facet = tuple(x + y for x, y in zip(c.normals[-1], c.normals[-2]))
        variants = [c, c._replace(normals=c.normals + (non_facet,))] + [
            c._replace(normals=c.normals[:k] + c.normals[k + 1:])
            for k in range(len(c.normals))
        ]
        for v in variants:
            for k, g in enumerate(dense_gens(v)):
                active = [a for a in v.normals if dot(g, a) == 0] + [v.nu]
                expected = rank_fractions(active, d) == d - 1
                assert is_extreme_generator(v, k) == expected
            for a in v.normals:
                on_face = [g for g in dense_gens(v) if dot(g, a) == 0]
                expected = rank_fractions(on_face, d) == d - 2
                assert facet_check(v, a) == expected
        assert not facet_check(variants[1], non_facet)

    @pytest.mark.parametrize("bad", [(0, 1), (2, 3), (0, 4), (-1, 2)])
    def test_non_edge_generator_is_rejected(self, bad):
        # SINGLE has x-coordinates 0, 1 and y-coordinates 2, 3
        c = stair_cone(SINGLE)
        with pytest.raises(ValueError, match=re.escape(f"edge {bad} is not an x-y edge")):
            c._replace(edges=c.edges + (bad,))


class TestEdgeRank:
    @given(bipartite_edges())
    @example((4, [(0, 2), (0, 2), (1, 3)]))  # a repeated edge, two components
    @example((5, [(0, 3), (1, 3), (0, 4), (1, 4)]))  # a cycle, isolated vertex 2
    @example((3, []))
    def test_matches_rational_elimination(self, case):
        size, edges = case
        vectors = [tuple(int(k in e) for k in range(size)) for e in edges]
        assert _edge_rank(edges, size) == rank_fractions(vectors, size)


class TestUnitFacets:
    @given(bipartite_edges())
    @example((4, [(0, 2), (1, 2), (1, 3)]))  # the path 0-2-1-3: 2 and 1 cut it
    @example((5, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # a star centred on the DFS root
    @example((4, [(0, 3), (1, 3), (2, 3)]))  # a star centred off the root
    @example((4, [(0, 2), (1, 3)]))  # two components
    @example((4, [(0, 2), (0, 3)]))  # vertex 1 isolated beside the path 2-0-3
    @example((5, [(0, 3), (1, 4)]))  # two components and an isolated vertex
    @example((4, [(0, 2), (0, 2), (1, 2), (1, 3), (0, 3)]))  # a cycle, one edge twice
    @example((3, [(0, 2), (0, 2), (1, 2)]))  # a doubled edge into a cut vertex
    @example((2, [(0, 1)]))
    @example((3, [(0, 1), (0, 2)]))
    @example((3, [(0, 2), (1, 2)]))
    @example((3, []))
    def test_cut_vertices_match_union_find(self, case):
        size, edges = case
        facets = edge_cone(size, edges).unit_facets
        for k in range(size):
            face = [e for e in edges if k not in e]
            assert (k in facets) == (bool(face) and _edge_rank(face, size) == size - 2), k

    def test_dropped_generator_reports_match_the_union_find_oracle(self, monkeypatch):
        # a staircase's edge graph has no cut vertex, so only mutants reach
        # the unit normals' False branch
        mutants = []
        for p in range(1, 4):
            for u, r in product(product((1, 2), repeat=p), repeat=2):
                c = stair_cone(StairSpec(u, r))
                assert c.unit_facets == frozenset(range(c.ambient_dim))
                mutants += [c._replace(edges=c.edges[:k] + c.edges[k + 1:])
                            for k in range(len(c.edges))]
        reports = [certify(m) for m in mutants]
        monkeypatch.setattr(cone, "facet_check", union_find_facet)
        assert reports == [certify(m) for m in mutants]
        unit_failures = [a for report in reports for a in report["checks"]["facets"]["failures"]
                         if sum(map(abs, a)) == 1]
        assert (len(mutants), len(unit_failures)) == (1749, 260)


class TestCompleteness:
    def test_dropped_step_normal_is_caught(self):
        # without its step normal this cone passes every other check
        c = stair_cone(StairSpec((1, 1), (1, 1)))
        report = certify(c._replace(normals=c.normals[1:]))
        assert [k for k, v in report["checks"].items() if not v["passed"]] == ["complete"]
        assert report["checks"]["complete"]["failures"] == [
            "x_1 meets y [1, 2], the normals allow y_1..y_3"]

    def test_every_one_normal_dropped_mutant_fails(self):
        mutants = 0
        for p in range(1, 4):
            for u, r in product(product((1, 2), repeat=p), repeat=2):
                c = stair_cone(StairSpec(u, r))
                assert certify(c)["checks"]["complete"] == {"passed": True, "failures": []}
                for k in range(len(c.normals)):
                    report = certify(c._replace(normals=c.normals[:k] + c.normals[k + 1:]))
                    assert not report["checks"]["complete"]["passed"], (u, r, k)
                    assert not report["all_passed"]
                    mutants += 1
        assert mutants == 996

    @pytest.mark.parametrize("change, witness", [
        (lambda c: c._replace(nu=(1, -1, 1, -1)), "nu [1, -1, 1, -1] is not (1^2, -1^2)"),
        (lambda c: c._replace(normals=c.normals + ((0, 0, -1, 1),)),
         "normal [0, 0, -1, 1] is not -1 on an x-prefix and +1 on a y-prefix"),
        (lambda c: c._replace(normals=c.normals + ((0, -1, 1, 0),)),
         "normal [0, -1, 1, 0] is not -1 on an x-prefix and +1 on a y-prefix"),
    ])
    def test_unchecked_shapes_fail(self, change, witness):
        report = certify(change(stair_cone(SINGLE)))
        assert report["checks"]["complete"] == {"passed": False, "failures": [witness]}


class TestCap:
    SPEC = StairSpec((2, 1, 3), (1, 3, 2))

    def test_estimate_is_generators_times_normals(self):
        c = stair_cone(self.SPEC)
        volume = len(c.edges) * len(c.normals)
        assert stair_cone(self.SPEC, max_volume=volume) == c
        with pytest.raises(SearchCapExceeded) as refused:
            stair_cone(self.SPEC, max_volume=volume - 1)
        assert refused.value.estimate == volume

    def test_refused_before_the_polyomino_is_built(self, monkeypatch):
        # the cone is read off (u, r): with no polyomino to build, the
        # refusal comes first and a certificate still passes
        forbid_calls(monkeypatch, stair, vertex_set)
        with pytest.raises(SearchCapExceeded):
            verify_h_representation(StairSpec((200, 200), (200, 200)))
        assert verify_h_representation(P2)["all_passed"]

    def test_certificate_passes_the_cap_through(self):
        with pytest.raises(SearchCapExceeded):
            verify_h_representation(SINGLE, max_volume=4 * 4 - 1)
        assert verify_h_representation(SINGLE, max_volume=4 * 4)["all_passed"]


class TestVerifyReport:
    def test_single_cell(self):
        report = verify_h_representation(SINGLE)
        assert report["all_passed"]
        assert report["expected_dim"] == 3
        assert report["checks"]["dimension"]["rank"] == 3

    def test_reference_staircases(self):
        for spec, dim in ((P1, 13), (P2, 16)):
            report = verify_h_representation(spec)
            assert report["all_passed"], report
            assert report["checks"]["dimension"]["rank"] == dim

    def test_generator_outside_a_halfspace_fails_containment(self):
        # x_2 y_10 lies outside only the second step normal (-1 on x_1..x_2,
        # +1 on y_1..y_7)
        c = stair_cone(P1)
        outside = tuple(int(k in (1, 13)) for k in range(14))
        report = certify(c._replace(edges=c.edges + ((1, 13),)))
        assert report["checks"]["containment"] == {"passed": False, "failures": [list(outside)]}
        assert not report["checks"]["complete"]["passed"]

    def test_non_extreme_generators_are_reported_as_vectors(self):
        # without e_1, x_1 is free at the generators x_2 y_j: they are not
        # extreme rays, and the report names them as dense vectors
        c = stair_cone(SINGLE)
        report = certify(c._replace(normals=c.normals[1:]))
        assert report["checks"]["extreme_generators"] == {
            "passed": False, "failures": [[0, 1, 1, 0], [0, 1, 0, 1]]}

    def test_edge_failures_match_the_per_edge_oracle(self):
        # certify decides containment and extremality once per pair of
        # coordinate classes; the oracle decides every edge on its own.
        # The mutants split a class: nu changed at the last x-coordinate
        # of a block, or a normal added that is -1 on one x-coordinate
        # and +1 on y_1, or a unit normal dropped.
        cones, counts = [], []
        for p in range(1, 4):
            for u, r in product(product((1, 2), repeat=p), repeat=2):
                spec = StairSpec(u, r)
                c = stair_cone(spec)
                m = c.x_len
                y_1 = (1,) + (0,) * (c.y_len - 1)
                mutants = [
                    [c._replace(edges=c.edges[:k] + c.edges[k + 1:]) for k in range(len(c.edges))],
                    [c._replace(normals=c.normals[:k] + c.normals[k + 1:])
                     for k in range(len(c.normals))],
                    [c._replace(nu=c.nu[:i] + (-1,) + c.nu[i + 1:])
                     for i in sorted({b - 2 for b in spec.breaks()[1:]} | {m - 1})],
                    [c._replace(normals=c.normals + (tuple(-int(k == i) for k in range(m)) + y_1,))
                     for i in range(m)],
                ]
                cones.append(c)
                for group in mutants:
                    cones += group
                counts.append([len(group) for group in mutants])
        assert [sum(column) for column in zip(*counts)] == [1749, 996, 312, 426]
        failures = {"containment": 0, "extreme_generators": 0}
        for c in cones:
            inside = [contains(c, edge_vector(c, e)) for e in c.edges]
            extreme = [is_extreme_generator(c, k) for k in range(len(c.edges))]
            checks = certify(c)["checks"]
            for name, verdicts in (("containment", inside), ("extreme_generators", extreme)):
                expected = [list(edge_vector(c, e)) for e, ok in zip(c.edges, verdicts) if not ok]
                assert checks[name]["failures"] == expected, (c, name)
                failures[name] += len(expected)
        assert all(failures.values()), failures

    def test_report_is_json_serializable(self):
        import json

        text = json.dumps(verify_h_representation(SINGLE))
        assert '"all_passed": true' in text
