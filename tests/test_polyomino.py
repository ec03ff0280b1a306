from pathlib import Path

import pytest
from hypothesis import given, settings

from fusscat import polyomino
from fusscat.polyomino import (
    InnerInterval,
    Polyomino,
    StairSpec,
    format_stair_spec,
    inner_intervals,
    is_convex,
    krull_dim,
    render_ascii,
    stair,
    vertex_set,
)
from fusscat.selftest import check_inner_minor_identity

from conftest import parse_stair_spec, stair_specs

GOLDEN = Path(__file__).parent / "golden"

L_SHAPE = Polyomino([(1, 1), (2, 1), (1, 2)])
U_SHAPE = Polyomino([(1, 1), (3, 1), (1, 2), (2, 2), (3, 2)])


class TestStairConstruction:
    def test_first_reference(self):
        spec = StairSpec((3, 3, 3), (1, 1, 1))
        assert spec.heights() == (4, 7, 10)
        assert spec.breaks() == (1, 2, 3, 4)
        P = stair(spec)
        assert len(P) == 18
        assert len(vertex_set(P)) == 31

    def test_second_reference(self):
        spec = StairSpec((3, 3, 3), (2, 2, 2))
        assert spec.breaks() == (1, 3, 5, 7)
        P = stair(spec)
        assert len(P) == 36
        assert len(vertex_set(P)) == 52

    def test_single_cell(self):
        P = stair(StairSpec((1,), (1,)))
        assert P == {(1, 1)}
        assert vertex_set(P) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_cell_count_formula(self):
        spec = StairSpec((2, 1, 3), (1, 2, 1))
        P = stair(spec)
        heights = spec.heights()
        assert len(P) == sum(r * (h - 1) for r, h in zip(spec.r, heights))

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=4, max_entry=4))
    def test_vertex_count(self, spec):
        assert spec.vertex_count() == len(vertex_set(stair(spec)))

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=4, max_entry=4))
    def test_cells_are_sorted_and_follow_the_step_rule(self, spec):
        cells = list(spec.cells())
        assert cells == sorted(stair(spec))
        # step t occupies columns B_(t-1) .. B_t - 1, each of height A_t - 1
        heights, breaks = spec.heights(), spec.breaks()
        assert set(cells) == {(x, y) for t in range(spec.p)
                              for x in range(breaks[t], breaks[t + 1])
                              for y in range(1, heights[t])}

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=4, max_entry=4))
    def test_cell_count(self, spec):
        assert spec.cell_count() == len(stair(spec))

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=4, max_entry=4))
    def test_inner_interval_count(self, spec):
        assert spec.inner_interval_count() == len(inner_intervals(stair(spec)))

    @pytest.mark.parametrize("u,r", [((), ()), ((0, 1), (1, 1)), ((1,), (1, 2))])
    def test_spec_validation(self, u, r):
        with pytest.raises(ValueError):
            StairSpec(u, r)

    def test_spec_text_roundtrip(self):
        spec = StairSpec((3, 1, 2), (1, 2, 1))
        assert format_stair_spec(spec) == "u=3,1,2;r=1,2,1"
        assert parse_stair_spec("u=3,1,2;r=1,2,1") == spec
        with pytest.raises(ValueError):
            parse_stair_spec("3,1,2/1,2,1")


class TestPolyominoValidation:
    def test_needs_cells(self):
        with pytest.raises(ValueError):
            Polyomino(frozenset())

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="edge-connected"):
            Polyomino([(1, 1), (2, 2)])

    def test_rejects_out_of_quadrant(self):
        with pytest.raises(ValueError):
            Polyomino([(0, 1), (1, 1)])


class TestConvexity:
    def test_l_shape_is_convex(self):
        assert is_convex(L_SHAPE)

    def test_u_shape_is_not(self):
        assert not is_convex(U_SHAPE)

    def test_column_gap_is_not(self):
        # every row is a run, but column 1 misses (1, 2)
        assert not is_convex(Polyomino([(1, 1), (2, 1), (2, 2), (2, 3), (1, 3)]))

    @given(stair_specs())
    def test_stairs_are_convex(self, spec):
        assert is_convex(stair(spec))


class TestInnerIntervals:
    def test_single_cell(self):
        ivs = inner_intervals(stair(StairSpec((1,), (1,))))
        assert ivs == [InnerInterval((1, 1), (2, 2), (1, 2), (2, 1))]

    def test_horizontal_domino(self):
        P = Polyomino([(1, 1), (2, 1)])
        ivs = inner_intervals(P)
        assert len(ivs) == 3
        assert {(iv.a, iv.b) for iv in ivs} == {
            ((1, 1), (2, 2)), ((2, 1), (3, 2)), ((1, 1), (3, 2)),
        }

    def test_rectangles_really_inside(self):
        P = stair(StairSpec((3, 3, 3), (1, 1, 1)))
        for iv in inner_intervals(P):
            assert iv.a[0] < iv.b[0] and iv.a[1] < iv.b[1]
            assert iv.c == (iv.a[0], iv.b[1])
            assert iv.d == (iv.b[0], iv.a[1])
            for x in range(iv.a[0], iv.b[0]):
                for y in range(iv.a[1], iv.b[1]):
                    assert (x, y) in P

    def test_u_shape_excludes_broken_rectangle(self):
        pairs = {(iv.a, iv.b) for iv in inner_intervals(U_SHAPE)}
        assert ((1, 1), (4, 2)) not in pairs
        assert ((1, 2), (4, 3)) in pairs


def every_vertex_pair(P):
    verts = vertex_set(P)
    return [InnerInterval(a, b, (a[0], b[1]), (b[0], a[1]))
            for a in verts for b in verts if a[0] < b[0] and a[1] < b[1]]


class TestInnerMinorCriterion:
    def test_passes_on_the_true_intervals(self):
        assert check_inner_minor_identity(p_max=2, entry_max=2)[0]

    # vec(a) + vec(b) == vec(c) + vec(d) holds on any rectangle, so each
    # wrong list must be caught by the count or by the top-left cell
    @pytest.mark.parametrize("wrong", [
        lambda P: [],
        every_vertex_pair,
        lambda P: every_vertex_pair(P)[: len(inner_intervals(P))],
    ], ids=["none", "every-vertex-pair", "vertex-pairs-at-the-true-count"])
    def test_wrong_intervals_fail(self, monkeypatch, wrong):
        monkeypatch.setattr(polyomino, "inner_intervals", wrong)
        passed, detail = check_inner_minor_identity(p_max=2, entry_max=2)
        assert not passed, detail


class TestKrullDim:
    def test_reference_values(self):
        assert krull_dim(stair(StairSpec((3, 3, 3), (1, 1, 1)))) == 13
        assert krull_dim(stair(StairSpec((3, 3, 3), (2, 2, 2)))) == 16

    def test_single_cell(self):
        assert krull_dim(stair(StairSpec((1,), (1,)))) == 3

    def test_refuses_nonconvex(self):
        with pytest.raises(ValueError, match="convex"):
            krull_dim(U_SHAPE)

    @settings(max_examples=60)
    @given(stair_specs())
    def test_stair_dimension_formula(self, spec):
        P = stair(spec)
        expected = spec.heights()[-1] + spec.breaks()[-1] - 1
        assert krull_dim(P) == expected == spec.krull_dim()
        assert len(vertex_set(P)) == len(P) + expected


class TestRender:
    def test_single_cell(self):
        assert render_ascii(stair(StairSpec((1,), (1,)))) == "#"

    def test_two_column_staircase(self):
        assert render_ascii(stair(StairSpec((2, 1), (1, 1)))) == ".#\n##\n##"

    def test_reference_silhouette_golden(self):
        got = render_ascii(stair(StairSpec((3, 3, 3), (1, 1, 1))))
        want = (GOLDEN / "stair_u333_r111_render.txt").read_text().rstrip("\n")
        assert got == want
