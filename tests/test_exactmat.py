import math
from itertools import islice

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fusscat.exactmat import (Matrix, binomial, binomial_series, det_exact, fuss_catalan,
                              rank_exact)

from conftest import det_cofactor, rank_fractions


def matrices(r, c):
    """r x c matrices with entries in -9..9, or mostly 0 and ±1; the sparse
    ones force row swaps and columns with no pivot."""
    sparse = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -3))
    return st.one_of(*(
        st.lists(st.lists(e, min_size=c, max_size=c), min_size=r, max_size=r)
        for e in (st.integers(-9, 9), sparse)
    ))


class TestBinomialSeries:
    def test_coefficients_of_every_power(self):
        # sign^j binom(top, j), the generalized binomial for top < 0
        for top in range(-30, 31):
            for sign in (1, -1):
                got = list(islice(binomial_series(top, sign), 40))
                want = [sign ** j * (math.comb(top, j) if top >= 0
                                     else (-1) ** j * math.comb(j - top - 1, j))
                        for j in range(40)]
                assert got == want, (top, sign)
                if top >= 0:
                    assert got[top + 1:] == [0] * (39 - top)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-40, 40), st.sampled_from((1, -1)), st.integers(0, 60),
           st.integers(0, 30))
    def test_series_from_any_term(self, top, sign, start, k):
        # the series from term start is the tail of the series from 0: its
        # first term from math.comb, then the same steps
        whole = list(islice(binomial_series(top, sign), start + k))
        assert list(islice(binomial_series(top, sign, start), k)) == whole[start:]


class TestBinomial:
    @pytest.mark.parametrize(
        "m,k,expected",
        [(3, 2, 3), (-2, 2, 0), (12, 4, 495), (7, -1, 0), (0, 0, 1), (5, 0, 1)],
    )
    def test_values(self, m, k, expected):
        assert binomial(m, k) == expected

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_comb_in_range(self, m, k):
        if k <= m:
            assert binomial(m, k) == math.comb(m, k)
        else:
            assert binomial(m, k) == 0

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_pascal(self, m, k):
        assert binomial(m, k) == binomial(m - 1, k - 1) + binomial(m - 1, k)


class TestFussCatalan:
    def test_reference_value(self):
        assert fuss_catalan(4, 3) == 55

    def test_small_values(self):
        # 2 = count of y_1 in {0, 1}; 4 = 28/7 by the formula
        assert fuss_catalan(2, 2) == 2
        assert fuss_catalan(2, 4) == 4

    def test_catalan_row(self):
        # at n = 2 the formula reduces to the Catalan numbers binom(2p,p)/(p+1)
        assert [fuss_catalan(p, 2) for p in range(1, 7)] == [1, 2, 5, 14, 42, 132]

    @pytest.mark.parametrize("p,n", [(0, 3), (3, 0), (-1, 2), (2, -5)])
    def test_rejects_nonpositive(self, p, n):
        with pytest.raises(ValueError):
            fuss_catalan(p, n)

    @given(st.integers(1, 12), st.integers(1, 12))
    def test_always_integer(self, p, n):
        assert fuss_catalan(p, n) >= 1


class TestMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, (1, 2, 3))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_roundtrip(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        m = Matrix.from_rows(rows)
        assert (m.rows, m.cols) == (2, 3)
        assert m.row(1) == (4, 5, 6)
        assert [list(m.row(i)) for i in range(m.rows)] == rows
        assert Matrix.from_rows(zip(*rows)).row(2) == (3, 6)


class TestDet:
    def test_reference_3x3(self):
        m = Matrix.from_rows([[3, 3, 1], [1, 5, 10], [0, 1, 7]])
        assert det_exact(m) == 55

    def test_identity(self):
        rows = [[int(i == j) for j in range(4)] for i in range(4)]
        assert det_exact(Matrix.from_rows(rows)) == 1

    def test_staircase_4x4(self):
        rows = [[3, 3, 1, 0], [1, 3, 3, 1], [0, 1, 5, 10], [0, 0, 1, 5]]
        assert det_cofactor(rows) == 53
        assert det_exact(Matrix.from_rows(rows)) == 53

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_exact(Matrix.from_rows([[0, 0, 0], [0, 0, 0]]))

    def test_singular(self):
        assert det_exact(Matrix.from_rows([[1, 2], [2, 4]])) == 0

    @settings(max_examples=150)
    @given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
    def test_matches_cofactor_expansion(self, rows):
        assert det_exact(Matrix.from_rows(rows)) == det_cofactor(rows)


class TestRank:
    def test_zero(self):
        assert rank_exact(Matrix.from_rows([[0] * 3] * 3)) == 0

    def test_identity(self):
        rows = [[int(i == j) for j in range(5)] for i in range(5)]
        assert rank_exact(Matrix.from_rows(rows)) == 5

    def test_generator_matrix_of_first_reference_staircase(self):
        from fusscat.cone import edge_vector, stair_cone
        from fusscat.polyomino import StairSpec

        cone = stair_cone(StairSpec((3, 3, 3), (1, 1, 1)))
        m = Matrix.from_rows([edge_vector(cone, e) for e in cone.edges])
        assert (m.rows, m.cols) == (31, 14)
        assert rank_exact(m) == 13

    @settings(max_examples=150)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_fraction_elimination_and_transpose(self, r, c, data):
        rows = data.draw(matrices(r, c))
        m = Matrix.from_rows(rows)
        expected = rank_fractions(rows, c)
        assert rank_exact(m) == expected
        assert rank_exact(Matrix.from_rows(zip(*rows))) == expected
