from dataclasses import replace

import pytest
from hypothesis import given, settings

from fusscat.cone import (
    ambient_box,
    contains,
    dot,
    exponent_generators,
    facet_check,
    in_relint,
    is_extreme_generator,
    stair_cone,
    stair_normals,
    verify_h_representation,
)
from fusscat.exactmat import Matrix
from fusscat.polyomino import StairSpec, stair

from conftest import rank_fractions, stair_specs

P1 = StairSpec((3, 3, 3), (1, 1, 1))
P2 = StairSpec((3, 3, 3), (2, 2, 2))
SINGLE = StairSpec((1,), (1,))


def vec_sum(vectors):
    out = [0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


class TestGenerators:
    def test_single_cell(self):
        gens = exponent_generators(stair(SINGLE))
        assert len(gens) == 4
        assert set(gens) == {
            (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
        }

    def test_first_reference_matches_ring_display(self):
        # x_1 y_1..y_4, x_2 y_1..y_7, x_3 y_1..y_10, x_4 y_1..y_10
        P = stair(P1)
        assert ambient_box(P) == (4, 10)
        expected = set()
        for i, top in ((1, 4), (2, 7), (3, 10), (4, 10)):
            for j in range(1, top + 1):
                vec = [0] * 14
                vec[i - 1] = 1
                vec[4 + j - 1] = 1
                expected.add(tuple(vec))
        assert set(exponent_generators(P)) == expected
        assert len(expected) == 31

    def test_second_reference_contains_corner(self):
        P = stair(P2)
        gens = set(exponent_generators(P))
        assert len(gens) == 52
        corner = [0] * 17
        corner[7 - 1] = 1  # x_7
        corner[7 + 10 - 1] = 1  # y_10
        assert tuple(corner) in gens


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
        assert all(dot(g, c.nu) == 0 for g in c.gens)


class TestMembership:
    def test_generators_inside(self):
        c = stair_cone(P1)
        assert all(contains(c, g) for g in c.gens)

    def test_negated_generator_outside(self):
        c = stair_cone(P1)
        g = c.gens[0]
        assert not contains(c, tuple(-x for x in g))

    def test_sum_of_generators_inside_and_interior(self):
        c = stair_cone(P1)
        z = vec_sum(list(c.gens))
        assert contains(c, z)
        assert in_relint(c, z)

    def test_single_generator_not_interior(self):
        c = stair_cone(P1)
        assert not in_relint(c, c.gens[0])

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
        for g in c.gens:
            assert not contains(c, tuple(-x for x in g))


class TestExtremeRays:
    def test_single_cell_all_extreme(self):
        c = stair_cone(SINGLE)
        assert all(is_extreme_generator(c, g) for g in c.gens)

    def test_first_reference_all_extreme(self):
        c = stair_cone(P1)
        assert all(is_extreme_generator(c, g) for g in c.gens)

    def test_specific_generator(self):
        c = stair_cone(P1)
        g = [0] * 14
        g[0] = 1
        g[4] = 1  # the vertex (1, 1)
        assert is_extreme_generator(c, tuple(g))

    def test_rejects_nongenerator(self):
        c = stair_cone(SINGLE)
        with pytest.raises(ValueError, match="not a generator"):
            is_extreme_generator(c, (2, 0, 1, 1))


class TestFacets:
    def test_single_cell_unit_normal(self):
        c = stair_cone(SINGLE)
        assert facet_check(c, (1, 0, 0, 0))

    def test_first_reference_step_and_unit_normals(self):
        c = stair_cone(P1)
        assert facet_check(c, c.normals[0])  # first step normal
        unit = tuple(1 if i == 0 else 0 for i in range(14))
        assert facet_check(c, unit)

    def test_rejects_unknown_normal(self):
        c = stair_cone(SINGLE)
        with pytest.raises(ValueError, match="not one of"):
            facet_check(c, (1, 1, 0, 0))

    @settings(max_examples=25, deadline=None)
    @given(stair_specs(max_p=2, max_entry=2))
    def test_rank_certificates_match_rational_elimination(self, spec):
        # dual route: the certificates against a plain Fraction-based
        # Gaussian elimination, on the cone and on broken copies of it
        # (each normal dropped in turn, and a non-facet normal added)
        c = stair_cone(spec)
        d = c.ambient_dim
        non_facet = tuple(x + y for x, y in zip(c.normals[-1], c.normals[-2]))
        variants = [c, replace(c, normals=c.normals + (non_facet,))] + [
            replace(c, normals=c.normals[:k] + c.normals[k + 1:])
            for k in range(len(c.normals))
        ]
        for v in variants:
            for g in v.gens:
                active = [a for a in v.normals if dot(g, a) == 0] + [v.nu]
                expected = rank_fractions(active, d) == d - 1
                assert is_extreme_generator(v, g) == expected
            for a in v.normals:
                on_face = [g for g in v.gens if dot(g, a) == 0]
                expected = rank_fractions(on_face, d) == d - 2
                assert facet_check(v, a) == expected
        assert not facet_check(variants[1], non_facet)

    @pytest.mark.parametrize("bad", [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 1, 1), (1, 0, 2, 0)])
    def test_non_edge_generator_is_rejected(self, bad):
        c = stair_cone(SINGLE)
        c = replace(c, gens=c.gens + (bad,))
        with pytest.raises(ValueError, match="edge vector"):
            facet_check(c, c.normals[0])
        with pytest.raises(ValueError, match="edge vector"):
            is_extreme_generator(c, c.gens[0])


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

    def test_report_is_json_serializable(self):
        import json

        text = json.dumps(verify_h_representation(SINGLE))
        assert '"all_passed": true' in text
