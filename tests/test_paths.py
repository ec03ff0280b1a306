from itertools import product
from operator import ne

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fusscat import paths
from fusscat.brackets import gfc
from fusscat.caps import SearchCapExceeded
from fusscat.exactmat import Matrix, binomial, det_exact
from fusscat.paths import (
    HeightBounds,
    _columns,
    check_det,
    count_bounded_compositions,
    count_paths_det,
    count_paths_dp,
    iter_bounded_compositions,
    iter_height_sequences,
    path_count_matrix,
    staircase_bounds,
)

from conftest import bound_rows, compositions, height_bounds, run_bounds


class TestBounds:
    def test_staircase_t1(self):
        assert staircase_bounds(3, 1, 3).a == (2, 4, 6)

    def test_staircase_t2(self):
        b = staircase_bounds(3, 2, 3)
        assert b.a == (1, 1, 2, 2, 3, 3)
        assert b.b == (0,) * 6

    def test_single_step(self):
        assert staircase_bounds(2, 1, 1).a == (1,)

    @pytest.mark.parametrize("n,t", [(3, 0), (3, 3), (3, 5), (2, -1)])
    def test_rejects_bad_t(self, n, t):
        with pytest.raises(ValueError):
            staircase_bounds(n, t, 2)

    def test_violations_are_described(self):
        with pytest.raises(ValueError, match="not weakly increasing"):
            HeightBounds.from_rows((3, 1), (0, 0))
        with pytest.raises(ValueError, match="a_i < b_i"):
            HeightBounds.from_rows((1, 2), (0, 3))
        with pytest.raises(ValueError, match="differs"):
            HeightBounds.from_rows((1, 2), (0,))

    @pytest.mark.parametrize("runs", [
        (), ((1, 0, 0),), ((2, 0, 1), (1, 0, 1)), ((2, 1, 1), (3, 0, 1)),
        ((0, 1, 1),), ((1, 0, 1), (1, 0, 2)),
    ], ids=["empty", "length-0", "a-falls", "b-falls", "a-below-b", "equal-neighbours"])
    def test_malformed_runs_are_rejected(self, runs):
        with pytest.raises(ValueError, match="invalid height bounds"):
            HeightBounds(runs)

    @settings(max_examples=200, deadline=None)
    @given(bound_rows(max_n=12, min_h=-3, max_h=3))
    def test_runs_are_the_maximal_stretches_of_the_rows(self, rows):
        a, b = rows
        bounds = HeightBounds.from_rows(a, b)
        assert (bounds.a, bounds.b, bounds.n) == (a, b, len(a))
        assert HeightBounds.from_rows(bounds.a, bounds.b) == bounds == HeightBounds(bounds.runs)
        heads = [run[:2] for run in bounds.runs]
        assert all(length >= 1 for *_, length in bounds.runs)
        assert all(map(ne, heads, heads[1:]))

    def test_staircase_runs_are_its_rows(self):
        for n in range(2, 9):
            for t in range(1, n):
                for p in range(1, 5):
                    a = [-(-i // t) * (n - t) for i in range(1, p * t + 1)]
                    assert staircase_bounds(n, t, p) == HeightBounds.from_rows(a, [0] * len(a))


class TestCounters:
    def test_reference_staircase(self):
        bounds = staircase_bounds(3, 1, 3)
        assert count_paths_dp(bounds) == 55
        assert count_paths_det(bounds) == 55

    def test_reference_reflected_staircase(self):
        bounds = staircase_bounds(3, 2, 3)
        assert count_paths_dp(bounds) == 55
        assert count_paths_det(bounds) == 55

    def test_forced_heights(self):
        bounds = HeightBounds.from_rows((1, 2, 5), (1, 2, 5))
        assert count_paths_dp(bounds) == 1
        assert count_paths_det(bounds) == 1

    def test_small_instance_by_listing(self):
        # admissible sequences: (0,3), (0,4), (0,5)
        bounds = HeightBounds.from_rows((0, 5), (0, 3))
        assert count_paths_dp(bounds) == 3
        assert count_paths_det(bounds) == 3

    def test_two_disjoint_intervals(self):
        # (y_1, y_2) ranges over {0,1} x {2,3}, all four monotone
        bounds = HeightBounds.from_rows((1, 3), (0, 2))
        assert count_paths_det(bounds) == 4

    def test_zero_convention_matters(self):
        # With the generalized binomial for negative upper index the
        # (1,2) entry of this matrix would be 3 instead of 0 and the
        # determinant would come out 0 instead of the true count.
        assert path_count_matrix(HeightBounds.from_rows((0, 5), (0, 3)))[0] == (1, 0)
        assert (
            count_paths_det(HeightBounds.from_rows((0, 5), (0, 3)))
            == len(list(iter_height_sequences(HeightBounds.from_rows((0, 5), (0, 3)))))
            == 3
        )

    def test_dp_cap_counts_cells(self):
        # n * (a_n - b_1 + 1) = 2 * 6 cells
        bounds = HeightBounds.from_rows((-1, 2), (-3, -2))
        assert count_paths_dp(bounds, max_volume=12) == 14
        with pytest.raises(SearchCapExceeded) as exc:
            count_paths_dp(bounds, max_volume=11)
        assert exc.value.estimate == 12

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 128, 129, 10_000])
    def test_dp_chains_a_long_middle_run(self, length):
        # y_1 = 0 and y_n = 5 are forced, so the middle run alone counts:
        # binom(5 + length, length), as a single run of that length. Its
        # length accumulates reach the DP as one chain, cut every _CHAIN
        # links; b rises only in the last row, so det answers it too
        bounds = HeightBounds(((0, 0, 1), (5, 0, length), (5, 5, 1)))
        expected = binomial(5 + length, length)
        assert count_paths_dp(HeightBounds(((5, 0, length),))) == expected
        assert count_paths_dp(bounds) == count_paths_det(bounds) == expected

    def test_negative_heights_allowed(self):
        bounds = HeightBounds.from_rows((-1, 2), (-3, -2))
        assert count_paths_dp(bounds) == count_paths_det(bounds)
        assert count_paths_dp(bounds) == len(list(iter_height_sequences(bounds)))


class TestEnumeration:
    def test_single_step(self):
        assert list(iter_height_sequences(HeightBounds.from_rows((1,), (0,)))) == [(0,), (1,)]

    def test_listing(self):
        assert list(iter_height_sequences(HeightBounds.from_rows((0, 5), (0, 3)))) == [
            (0, 3), (0, 4), (0, 5),
        ]

    def test_reference_staircase_count(self):
        seqs = list(iter_height_sequences(staircase_bounds(3, 1, 3)))
        assert len(seqs) == 55
        assert seqs == sorted(seqs)
        assert all(all(x <= y for x, y in zip(s, s[1:])) for s in seqs)

    @settings(max_examples=150, deadline=None)
    @given(height_bounds(max_n=4, min_h=-4, max_h=5))
    @example(HeightBounds.from_rows((-1, 2), (-3, -2)))
    @example(HeightBounds.from_rows((3, 4), (2, 2)))
    def test_listing_matches_the_box(self, bounds):
        # every weakly increasing point of the box prod [b_i, a_i], in order
        box = product(*(range(y, x + 1) for x, y in zip(bounds.a, bounds.b)))
        expected = [h for h in box if all(x <= y for x, y in zip(h, h[1:]))]
        assert list(iter_height_sequences(bounds)) == expected

    def test_no_length_limit(self):
        # 2^13 points of the box, 14 entries each; 14 of them increase
        bounds = HeightBounds.from_rows((1,) * 13, (0,) * 13)
        seqs = list(iter_height_sequences(bounds, max_volume=2 ** 13 * 14))
        assert seqs == [(0,) * (13 - k) + (1,) * k for k in range(14)]

    def test_volume_cap_reports_estimate(self):
        # the box volume 10^8 times 8 heights plus the sequence
        bounds = HeightBounds.from_rows((9,) * 8, (0,) * 8)
        with pytest.raises(SearchCapExceeded) as exc:
            list(iter_height_sequences(bounds, max_volume=1000))
        assert exc.value.estimate == 9 * 10 ** 8
        assert exc.value.cap == 1000


class TestAgreementProperties:
    @settings(max_examples=150, deadline=None)
    @given(height_bounds(max_n=8, min_h=-5, max_h=10))
    def test_matrix_is_hessenberg_with_unit_subdiagonal(self, bounds):
        # the precondition of count_paths_det's leading-minor recurrence
        m = path_count_matrix(bounds)
        assert type(m) is tuple and len(m) == bounds.n
        assert all(type(row) is tuple and len(row) == bounds.n
                   and set(map(type, row)) == {int} for row in m)
        for i in range(1, bounds.n):
            assert m[i][: i - 1] == (0,) * (i - 1)
            assert m[i][i - 1] == 1

    # path-matrix orders p*t of 30 to 90 at n = 40..80, the sizes the
    # bracket queries reach
    @pytest.mark.parametrize("n,t,p", [
        (40, 15, 2), (40, 30, 3), (60, 12, 5), (80, 10, 3), (80, 45, 2),
    ])
    def test_det_routes_agree_at_large_order(self, n, t, p):
        bounds = staircase_bounds(n, t, p)
        count = count_paths_det(bounds)
        dense = det_exact(Matrix.from_rows(path_count_matrix(bounds)))
        assert count == dense == count_paths_dp(bounds)
        # a in p runs of t and b level: every column after the first is a
        # shift plus one step per run start
        a = bounds.a
        assert list(_columns(bounds)) == [
            [binomial(a[i] + 1, k - i + 1) for i in range(k + 1)] for k in range(p * t)]

    # b level for a few columns, then changing, with negative heights; and
    # runs of at least 3 in both a and b, so that shifts, run-start steps
    # and rebuilds where b changes all occur in one matrix
    @example(HeightBounds.from_rows((-2, 0, 0, 3, 5, 5), (-3, -3, -1, -1, -1, 2)))
    @example(HeightBounds.from_rows((-1, -1, -1, 2, 2, 2, 2, 4, 4, 4),
                                    (-3, -3, -3, -3, 0, 0, 0, 1, 1, 1)))
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(height_bounds(max_n=10, min_h=-4, max_h=6), run_bounds()))
    def test_columns_match_entry_formula(self, bounds):
        # _columns shifts a column from the last one while b stays level,
        # steps row 0 and the rows that start a run, and calls binomial at
        # the first column and where b changes
        a, b = bounds.a, bounds.b
        assert list(_columns(bounds)) == [
            [binomial(a[i] - b[k] + 1, k - i + 1) for i in range(k + 1)] for k in range(bounds.n)]
        assert count_paths_det(bounds) == count_paths_dp(bounds)

    # level runs (equal a_i and equal b_i) that the DP and the determinant
    # count in closed form: one run throughout, a long first run, a long
    # last run, and b rising inside a's last run, which leaves a short last
    # level run
    @example(HeightBounds.from_rows((3,) * 8, (0,) * 8))
    @example(HeightBounds.from_rows((2,) * 6 + (5, 9), (0,) * 8))
    @example(HeightBounds.from_rows((1, 4) + (7,) * 6, (0,) * 8))
    @example(HeightBounds.from_rows((1, 1) + (6,) * 6, (0, 0, 0, 0, 2, 2, 5, 5)))
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(height_bounds(max_n=8, max_h=10), run_bounds(min_h=0, max_h=10)))
    def test_det_equals_dp(self, bounds):
        assert count_paths_det(bounds) == count_paths_dp(bounds)

    @example(HeightBounds.from_rows((-2,) * 7, (-5,) * 7))
    @example(HeightBounds.from_rows((-3,) * 5 + (0, 4), (-4,) * 7))
    @example(HeightBounds.from_rows((-4, 0) + (3,) * 5, (-5, -5, -5, -1, -1, -1, 2)))
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(height_bounds(max_n=8, min_h=-5, max_h=10), run_bounds()))
    def test_det_equals_dp_with_negative_heights(self, bounds):
        assert count_paths_det(bounds) == count_paths_dp(bounds)

    # one level run, as on p = 1 staircases: det returns its binomial
    # and keeps no minor before it
    @example(1, -3, 0)
    @example(1, 0, 7)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(-6, 6), st.integers(0, 8))
    def test_det_on_one_level_run_is_a_binomial(self, n, low, width):
        bounds = HeightBounds.from_rows((low + width,) * n, (low,) * n)
        assert count_paths_det(bounds) == binomial(width + n, n) == count_paths_dp(bounds)

    @example(HeightBounds.from_rows((2,) * 6, (0,) * 6))
    @example(HeightBounds.from_rows((-1,) * 4 + (1, 2), (-1,) * 6))
    @example(HeightBounds.from_rows((0, 1) + (3,) * 4, (0,) * 6))
    @example(HeightBounds.from_rows((0, 0) + (3,) * 5, (-1, -1, -1, 0, 0, 2, 2)))
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(height_bounds(max_n=5, max_h=6),
                     run_bounds(min_run=2, max_runs=2, min_h=-1, max_h=1)))
    def test_counters_match_enumeration(self, bounds):
        count = count_paths_dp(bounds)
        assert count_paths_det(bounds) == count
        assert sum(1 for _ in iter_height_sequences(bounds)) == count

    @settings(max_examples=100, deadline=None)
    @given(height_bounds(max_n=6, max_h=8), st.data())
    def test_monotone_in_bounds(self, bounds, data):
        base = count_paths_dp(bounds)
        i = data.draw(st.integers(0, bounds.n - 1))
        raised_a = list(bounds.a)
        raised_a[i] += 1
        # keep a weakly increasing: bump everything after i up to a[i]
        for j in range(i + 1, bounds.n):
            raised_a[j] = max(raised_a[j], raised_a[i])
        assert count_paths_dp(HeightBounds.from_rows(tuple(raised_a), bounds.b)) >= base

        raised_b = list(bounds.b)
        raised_b[i] += 1
        for j in range(i + 1, bounds.n):
            raised_b[j] = max(raised_b[j], raised_b[i])
        if all(x >= y for x, y in zip(bounds.a, raised_b)):
            assert count_paths_dp(HeightBounds.from_rows(bounds.a, tuple(raised_b))) <= base


@st.composite
def rising_bounds(draw):
    """Height bounds whose b rises into a last level run of 2 to 5 rows."""
    head = draw(height_bounds(max_n=6, min_h=-3, max_h=6))
    rows = draw(st.integers(2, 5))
    top_b = head.b[-1] + draw(st.integers(1, 4))
    top_a = max(head.a[-1], top_b) + draw(st.integers(0, 4))
    return HeightBounds.from_rows(head.a + (top_a,) * rows, head.b + (top_b,) * rows)


@st.composite
def level_bounds(draw, max_n=10, min_h=-4, max_h=8):
    """Height bounds with b level under a weakly increasing a, whose few
    heights make runs of equal a likely."""
    a = sorted(draw(st.lists(st.integers(min_h, max_h), min_size=1, max_size=max_n)))
    low = draw(st.integers(min_h - 2, a[0]))
    return HeightBounds.from_rows(a, (low,) * len(a))


@st.composite
def late_rising_bounds(draw):
    """Height bounds whose b is level but in its last one to three rows,
    where it rises; the level rows come in runs of equal a."""
    head = draw(level_bounds(max_n=12))
    low, top = head.runs[0][1], head.runs[-1][0]
    b = sorted(draw(st.lists(st.integers(low + 1, low + 6), min_size=1, max_size=3)))
    # sorting keeps a_i >= b_i, as b is sorted
    a = sorted(max(top, y) + draw(st.integers(0, 3)) for y in b)
    return HeightBounds.from_rows(head.a + tuple(a), head.b + tuple(b))


class TestDetClosedForms:
    """With b level, count_paths_det forms the minors of each run of equal a
    by one closed form (_level_minors); where b rises, it runs the plain
    recurrence on _columns."""

    # one run; a first run of one row; runs of one row each; a last run of
    # one row; a gap shared by two pairs of runs
    @example(HeightBounds.from_rows((3,) * 5, (0,) * 5))
    @example(HeightBounds.from_rows((-1, 2, 2, 2), (-3,) * 4))
    @example(HeightBounds.from_rows((1, 2, 3, 4, 5, 6), (0,) * 6))
    @example(HeightBounds.from_rows((0, 0, 0, 4), (0,) * 4))
    @example(HeightBounds.from_rows((1, 1, 3, 3, 5, 5, 5), (-1,) * 7))
    @settings(max_examples=200, deadline=None)
    @given(level_bounds())
    def test_level_minors_are_the_leading_minors(self, bounds):
        # alt[k] = (-1)^k D_k for every row k before the last run, then
        # alt[n], each against the dense minor of path_count_matrix
        a, n = bounds.a, bounds.n
        starts = [0] + [i for i in range(1, n) if a[i] != a[i - 1]] + [n]
        matrix = path_count_matrix(bounds)
        minors = [(-1) ** k * det_exact(Matrix.from_rows([row[:k] for row in matrix[:k]]))
                  for k in range(n + 1)]
        assert paths._level_minors(bounds.runs, starts) == minors[:starts[-2]] + [minors[n]]

    def test_first_run_closed_form_in_every_column(self):
        # a first run of r rows at height m - 1, with and without a middle
        # run, then a last run long enough to reach every nonzero share
        for m in range(1, 13):
            for r in range(1, 13):
                for middle in ((), (m, m)):
                    a = (m - 1,) * r + middle + (m + 2,) * (m + 1)
                    bounds = HeightBounds.from_rows(a, (0,) * len(a))
                    assert count_paths_det(bounds) == count_paths_dp(bounds)

    @example(HeightBounds.from_rows((0, 0, 3, 3, 3), (0, 0, 2, 2, 2)))
    @example(HeightBounds.from_rows((-3, 1, 1, 4, 4), (-3, -3, 0, 3, 3)))
    @example(HeightBounds.from_rows((2, 2, 2, 9, 9, 9), (0, 0, 0, 8, 8, 8)))
    @settings(max_examples=300, deadline=None)
    @given(rising_bounds())
    def test_det_equals_dp_with_b_rising_into_the_last_run(self, bounds):
        assert count_paths_det(bounds) == count_paths_dp(bounds)

    # one level run, then b rises; runs of one row, whose closed forms
    # would price above the recurrence; two rows that rise
    @example(HeightBounds(((5, 0, 40), (6, 1, 1))))
    @example(HeightBounds.from_rows(range(12), (0,) * 11 + (1,)))
    @example(HeightBounds.from_rows((1, 1, 4, 4, 4, 5), (-1,) * 4 + (2, 3)))
    @settings(max_examples=300, deadline=None)
    @given(late_rising_bounds())
    def test_det_equals_dp_with_b_rising_in_the_last_rows(self, bounds):
        assert count_paths_det(bounds) == count_paths_dp(bounds)

    @pytest.mark.parametrize("n,t", [(2, 1), (9, 4), (80, 45), (300, 150)])
    def test_two_runs_build_no_column(self, monkeypatch, n, t):
        # a p = 2 staircase is a first and a last level run, both closed forms
        expected = count_paths_dp(staircase_bounds(n, t, 2))
        entered = []
        monkeypatch.setattr(paths, "_columns", lambda *args: entered.append(args))
        assert count_paths_det(staircase_bounds(n, t, 2)) == expected
        assert entered == []

    @pytest.mark.parametrize("bounds", [
        staircase_bounds(7, 3, 1), staircase_bounds(9, 4, 3), staircase_bounds(6, 1, 6),
        staircase_bounds(40, 30, 4), HeightBounds.from_rows((-2, 0, 0, 3, 5, 5), (-3,) * 6),
    ], ids=["p1", "p3", "p6", "p4-order-120", "negative"])
    def test_level_b_builds_no_column(self, monkeypatch, bounds):
        # with b level every run, middle runs included, is its closed form
        expected = count_paths_dp(bounds)
        entered = []
        monkeypatch.setattr(paths, "_columns", lambda *args: entered.append(args))
        assert count_paths_det(bounds) == expected
        assert entered == []

    @pytest.mark.parametrize("n,t,p", [(80, 45, 2), (40, 30, 4), (60, 12, 5)])
    def test_staircases_expand_no_row(self, monkeypatch, n, t, p):
        # dp and det read the runs of a staircase; neither builds its rows
        expected = {m: gfc(n, t, p, m) for m in ("dp", "det")}

        def expand(bounds):
            raise AssertionError("rows expanded")
        monkeypatch.setattr(HeightBounds, "a", property(expand))
        monkeypatch.setattr(HeightBounds, "b", property(expand))
        assert {m: gfc(n, t, p, m) for m in ("dp", "det")} == expected
        with pytest.raises(AssertionError, match="rows expanded"):
            staircase_bounds(n, t, p).a

    def test_rising_b_builds_columns(self, monkeypatch):
        # the spies above can fail: where b rises, at row K, the recurrence
        # reads the columns of _columns from K on, or every column where the
        # runs before K would be priced above the recurrence on theirs
        cases = [
            (HeightBounds.from_rows((1, 1, 3, 3), (0, 0, 1, 1)), 2),
            # one level run before b rises at row 4999
            (HeightBounds(((5, 0, 4999), (6, 1, 1))), 4999),
            # 29 level runs of one row would be priced at 1710 products and
            # steps, above the 435 the recurrence takes on their columns
            (HeightBounds.from_rows(range(30), (0,) * 29 + (1,)), 0),
        ]
        expected = [count_paths_dp(bounds) for bounds, _ in cases]
        assert expected[0] == 18
        entered = []
        real = paths._columns

        def spy(*args):
            entered.append(args)
            return real(*args)
        monkeypatch.setattr(paths, "_columns", spy)
        assert [count_paths_det(bounds) for bounds, _ in cases] == expected
        assert entered == cases


class TestDetCap:
    """check_det: the products and series steps of count_paths_det times
    the words of the largest count it can reach, plus one binomial of that
    size."""

    @pytest.mark.parametrize("bounds,estimate", [
        # runs from rows 0, 2, 4: products 2 * 2 in the middle run and 4
        # in the last, steps 2 + 4 of (1 + x)^(-N), 3 pairs of runs at
        # n + 1 = 7 steps each, plus 1; binom(12, 6) fits one word
        (staircase_bounds(4, 2, 3), 36),
        # b rises at row 2: the first run's 3 steps, then the recurrence's
        # 4 * 5 / 2 - 2 * 3 / 2 products on columns 2 and 3, plus 1
        (HeightBounds.from_rows((1, 1, 3, 3), (0, 0, 1, 1)), 11),
        # b rises at row 4999: the first run's 5000 steps, then the 5000
        # products of the last column, plus 1, in 2 words; the whole
        # recurrence would be priced (5000 * 5001 / 2 + 1) * 2 = 25_005_002
        (HeightBounds(((5, 0, 4999), (6, 1, 1))), 20_002),
        # b rises at row 29 after 29 runs: their 1710 products and steps
        # exceed the recurrence's 435 on columns 0..28, so the recurrence
        # takes all 465, plus 1, in 2 words
        (HeightBounds.from_rows(range(30), (0,) * 29 + (1,)), 932),
        # one level run is one binomial
        (HeightBounds.from_rows((5,) * 3, (0,) * 3), 1),
        # binom(400000, 200000) < 6^200000, 600000 bits in 9376 words, one
        # binomial priced 9376 * isqrt(isqrt(9376))^3 = 9376 * 9^3
        (staircase_bounds(400000, 200000, 1), 6_835_104),
        # p = 2 of order 1000: 500 products, 500 steps of the first run's
        # series and one gap series of 1001, in 47 words, plus the
        # binomial at 47 * 2^3
        (staircase_bounds(1000, 500, 2), 2001 * 47 + 47 * 8),
    ], ids=["staircase", "b-rises", "b-rises-late", "b-rises-after-many-runs", "one-run",
            "words", "priced-binomial"])
    def test_estimate(self, bounds, estimate):
        check_det(bounds, max_volume=estimate)
        with pytest.raises(SearchCapExceeded, match="path determinant") as refused:
            check_det(bounds, max_volume=estimate - 1)
        assert refused.value.estimate == estimate

    def test_det_refuses_over_the_cap(self):
        bounds = staircase_bounds(4, 2, 3)
        assert count_paths_det(bounds, max_volume=36) == count_paths_dp(bounds)
        with pytest.raises(SearchCapExceeded):
            count_paths_det(bounds, max_volume=35)

    def test_large_orders(self):
        # p = 2 at order 3000 is two runs, O(n) work; p = 4 at order 6000
        # is about 7 million products and steps of 18000-bit counts
        assert check_det(staircase_bounds(3000, 1500, 2)) == [0, 1500, 3000]
        with pytest.raises(SearchCapExceeded, match="path determinant"):
            count_paths_det(staircase_bounds(3000, 1500, 4))


@st.composite
def walk_args(draw):
    """(total, parts, minimum, upper, lower) for the composition walk:
    parts 0, 1 and more, and prefix bounds that may leave nothing, the
    pinned sums at 0 and at parts included."""
    parts = draw(st.integers(0, 6))
    total = draw(st.integers(-2, 9))
    minimum = draw(st.integers(0, 2))
    keys = st.integers(0, parts)
    values = st.integers(-1, 10)
    upper = draw(st.none() | st.dictionaries(keys, values, max_size=3))
    lower = draw(st.none() | st.dictionaries(keys, values, max_size=3))
    return total, parts, minimum, upper, lower


class TestCompositionWalk:
    @pytest.mark.parametrize("args", [
        (0, 2, -1, None, None),
        (1, 3, -1, {1: 0}, None),
        (-5, 3, -1, None, None),
    ])
    def test_negative_minimum_is_refused(self, args):
        # the walk floors every prefix sum at 0: (0, 2, -1) would list only
        # (0, 0), without (-1, 1) and (1, -1)
        with pytest.raises(ValueError, match="minimum must be >= 0"):
            list(iter_bounded_compositions(*args))
        with pytest.raises(ValueError, match="minimum must be >= 0"):
            count_bounded_compositions(*args)

    @settings(max_examples=300, deadline=None)
    @given(walk_args())
    @example((0, 0, 0, None, None))
    @example((-1, 0, 0, None, None))
    @example((3, 1, 0, None, {1: 4}))
    @example((5, 3, 2, None, None))
    @example((7, 3, 2, None, None))
    @example((6, 4, 1, {3: 4}, None))
    @example((4, 3, 1, {0: 0}, None))
    @example((-2, 3, 0, None, None))
    def test_counting_view_counts_the_listing(self, args):
        assert count_bounded_compositions(*args) == len(list(iter_bounded_compositions(*args)))

    @settings(max_examples=300, deadline=None)
    @given(walk_args())
    @example((-1, 0, 0, None, None))
    @example((4, 3, 1, {2: 2}, {1: 1, 3: 4}))
    def test_listing_matches_stars_and_bars(self, args):
        total, parts, minimum, upper, lower = args

        def allowed(c):
            prefix = [sum(c[:k]) for k in range(parts + 1)]
            return (all(prefix[k] <= bound for k, bound in (upper or {}).items())
                    and all(prefix[k] >= bound for k, bound in (lower or {}).items()))

        if parts == 0:
            everything = [()] if total == 0 else []
        else:
            everything = compositions(total, parts, minimum)
        expected = sorted(filter(allowed, everything))
        assert list(iter_bounded_compositions(*args)) == expected
