import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import compositions
from fusscat import brackets, canonical, paths, selftest
from fusscat.brackets import GFC_METHODS, gfc, iter_A
from fusscat.caps import SearchCapExceeded
from fusscat.cli import main
from fusscat.exactmat import binomial, fuss_catalan


def brute_force_bracket(n, t, p):
    """Independent oracle: list every weak composition by stars and bars
    and filter it outright."""
    return sum(1 for alpha in compositions(p * (n - t), p * t + 1)
               if all(sum(alpha[: k * t]) <= k * (n - t) for k in range(1, p)))


class TestEnumerateA:
    def test_reference_count(self):
        assert len(list(iter_A(3, 1, 3))) == 55

    def test_tiny_by_hand(self):
        assert list(iter_A(2, 1, 1)) == [(0, 1), (1, 0)]

    def test_stars_and_bars_when_p_is_1(self):
        assert len(list(iter_A(5, 2, 1))) == binomial(5, 2)

    def test_elements_satisfy_invariants(self):
        for n, t, p in [(3, 1, 3), (4, 2, 2), (4, 3, 2)]:
            vecs = list(iter_A(n, t, p))
            assert vecs == sorted(vecs)
            assert len(set(vecs)) == len(vecs)
            for alpha in vecs:
                assert len(alpha) == p * t + 1
                assert all(x >= 0 for x in alpha)
                assert sum(alpha) == p * (n - t)
                for k in range(1, p):
                    assert sum(alpha[: k * t]) <= k * (n - t)

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            list(iter_A(6, 3, 4, max_volume=10))

    @pytest.mark.parametrize("n,t,p", [(3, 0, 1), (3, 3, 1), (2, 1, 0)])
    def test_rejects_bad_parameters(self, n, t, p):
        with pytest.raises(ValueError):
            list(iter_A(n, t, p))


class TestBracket:
    def test_reference_values(self):
        assert gfc(3, 1, 3, "det") == 55
        assert gfc(3, 2, 3, "det") == 55
        assert gfc(4, 1, 2) == gfc(4, 3, 2) == fuss_catalan(3, 4) == 22
        assert gfc(4, 2, 2) == 53

    def test_derived_value_all_methods(self):
        assert brute_force_bracket(4, 2, 2) == 53
        for method in GFC_METHODS:
            assert gfc(4, 2, 2, method) == 53

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            gfc(3, 1, 3, "magic")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.data())
    def test_methods_agree_and_match_oracle(self, n, p, data):
        t = data.draw(st.integers(1, n - 1))
        expected = brute_force_bracket(n, t, p)
        for method in GFC_METHODS:
            assert gfc(n, t, p, method) == expected

    def test_fuss_catalan_specialization(self):
        for n in range(2, 7):
            for p in range(1, 5):
                assert gfc(n, 1, p) == fuss_catalan(p + 1, n)

    def test_binomial_specialization(self):
        for n in range(2, 9):
            for t in range(1, n):
                assert gfc(n, t, 1) == binomial(n, t)

    def test_reflection_count(self):
        for n in range(2, 6):
            for p in range(1, 4):
                for t in range(1, n):
                    assert len(list(iter_A(n, t, p))) == len(list(iter_A(n, n - t, p)))


class TestIndependentRoutes:
    def test_dropped_composition_breaks_agreement(self, monkeypatch):
        # one value fewer in the span of the walk's first node. The listing
        # expands the last free prefix sum and loses one composition. enum
        # walks only to the last bounded prefix sum, the sum of the first 2
        # entries at (4, 2, 2), and the value 0 dropped there heads the
        # binom(4 + 2, 2) = 15 compositions of its free tail
        walk = paths._walk

        def drop_first(*args, **kwargs):
            nodes = walk(*args, **kwargs)
            prefix, comp, span = next(nodes)
            yield prefix, comp, span[1:]
            yield from nodes

        monkeypatch.setattr(paths, "_walk", drop_first)
        assert gfc(4, 2, 2, "enum") == 38
        assert len(list(iter_A(4, 2, 2))) == 52
        assert gfc(4, 2, 2, "canonical") == 53
        passed, _ = selftest.check_symmetry_and_methods(n_max=4, p_max=2)
        assert not passed

    def test_enum_walks_to_the_last_bounded_prefix_sum(self, monkeypatch):
        # (6, 3, 4): enum's walk stops at prefix sum 9 = (p - 1) * t, the
        # last bounded one; the listing's at 12, the last free one
        walk, nodes = paths._walk, []

        def counted(*args, **kwargs):
            for node in walk(*args, **kwargs):
                nodes.append(None)
                yield node

        monkeypatch.setattr(paths, "_walk", counted)
        cap = paths.enum_volume(6, 3, 4)
        assert gfc(6, 3, 4, "enum", cap) == 1_205_961
        assert len(nodes) == 10_580
        nodes.clear()
        assert sum(1 for _ in brackets.iter_A(6, 3, 4, cap)) == 1_205_961
        assert len(nodes) == 457_700

    def test_asymmetric_bracket_fails_criterion_3(self, monkeypatch):
        # every method gains 1 above t = n/2: the methods still agree, so
        # only the symmetry half of the criterion can fail
        exact = brackets.gfc

        def lopsided(n, t, p, method="det", max_volume=None):
            return exact(n, t, p, method, max_volume) + (2 * t > n)

        monkeypatch.setattr(brackets, "gfc", lopsided)
        passed, detail = selftest.check_symmetry_and_methods(n_max=4, p_max=2)
        assert not passed
        assert "symmetry" in detail and "methods" not in detail

    def test_criterion_3_runs_each_method_once(self, monkeypatch):
        # symmetry reads the det values that the agreement check computed
        exact, calls = brackets.gfc, []

        def counted(n, t, p, *args):
            calls.append((n, t, p))
            return exact(n, t, p, *args)

        monkeypatch.setattr(brackets, "gfc", counted)
        passed, _ = selftest.check_symmetry_and_methods(n_max=4, p_max=2)
        assert passed
        assert Counter(calls) == {(n, t, p): 4 for n in range(2, 5) for t in range(1, n)
                                  for p in (1, 2)}

    def test_canonical_walks_no_compositions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("composition walk")

        for module in (brackets, canonical, paths):
            for name in ("iter_A", "iter_bounded_compositions", "count_bounded_compositions",
                         "_walk"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert gfc(6, 3, 4, "canonical") == gfc(6, 3, 4, "det")


class TestCheckMethods:
    """Each route checks its own cap as it starts; gfc --method all runs the
    routes in GFC_METHODS order, and the first one over its cap ends the
    request."""

    @staticmethod
    def run_all(capsys, cap, n, t, p):
        code = main(["--max-volume", str(cap), "gfc", "--n", str(n), "--t", str(t),
                     "--p", str(p), "--method", "all"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_first_refusing_method_in_order(self, capsys):
        # (3, 2, 1): enum's estimate 3 compositions x 3 entries, dp's 4
        # cells, canonical's 12 vertices
        code, out, err = self.run_all(capsys, 12, 3, 2, 1)
        assert code == 0, err
        assert json.loads(out)["per_method"] == dict.fromkeys(GFC_METHODS, "3")
        for cap, what in ((11, "ladder turn-count DP"), (8, "composition enumeration")):
            code, out, err = self.run_all(capsys, cap, 3, 2, 1)
            assert (code, out) == (2, "")
            assert err.startswith(f"refused: refusing {what}")
            assert err.count("\n") == 1

    def test_refused_after_earlier_routes_answer(self, capsys):
        # (20, 1, 1): enum's estimate 20 compositions x 2 entries and dp's
        # 20 cells fit a cap of 40, the turn-count DP's vertices do not
        code, out, err = self.run_all(capsys, 40, 20, 1, 1)
        assert (code, out) == (2, "")
        assert err.startswith("refused: refusing ladder turn-count DP")
        assert gfc(20, 1, 1, "enum", max_volume=40) == gfc(20, 1, 1, "dp", max_volume=40)

    def test_estimates_are_the_routes_own(self):
        # each route answers at the estimate the pre-check uses, and is
        # refused one below it
        for method, volume in (("enum", 9), ("dp", 4), ("canonical", 12)):
            assert gfc(3, 2, 1, method, max_volume=volume) == 3
            with pytest.raises(SearchCapExceeded) as refused:
                gfc(3, 2, 1, method, max_volume=volume - 1)
            assert refused.value.estimate == volume

    def test_validates_the_triple(self, capsys):
        # gfc checks nothing itself: each route validates as it starts,
        # so under --method all the first route, enum, gives the message
        for (n, t, p), message in (((3, 3, 1), "require 1 <= t < n"),
                                   ((3, 0, 1), "require 1 <= t < n"),
                                   ((2, 1, 0), "require p >= 1")):
            for method in GFC_METHODS:
                with pytest.raises(ValueError, match=message):
                    gfc(n, t, p, method)
            for method in ("all",) + GFC_METHODS:
                code = main(["gfc", "--n", str(n), "--t", str(t), "--p", str(p),
                             "--method", method])
                captured = capsys.readouterr()
                assert (code, captured.out) == (1, "")
                assert captured.err.startswith(f"error: {message}")

    def test_enum_cap_draws_only_the_partial_products_it_checks(self, monkeypatch):
        # 5,000,001 parts: binom(5000000, 0) * parts fits the cap and
        # binom(5000001, 1) * parts does not, so two coefficients are drawn
        drawn = []
        series = paths.binomial_series

        def spy(top, sign=1):
            for c in series(top, sign):
                drawn.append(c)
                yield c
        monkeypatch.setattr(paths, "binomial_series", spy)
        with pytest.raises(SearchCapExceeded) as refused:
            paths.check_enum(10_000_000, 5_000_000, 1)
        assert drawn == [1, 5_000_001]
        assert refused.value.estimate == 5_000_001 ** 2

    def test_refusal_past_the_str_digit_limit(self):
        # enum is refused at its first partial product above the cap,
        # binom(10001, 1) * 10001, not at the full binom(20000, 10000) *
        # 10001. That one has 6023 digits, more than str() converts by
        # default; a refusal gives it by its bit length and keeps it exact
        with pytest.raises(SearchCapExceeded, match="composition enumeration") as refused:
            gfc(20000, 10000, 1, "enum")
        assert refused.value.estimate == 10001 * 10001
        huge = binomial(20000, 10000) * 10001
        refusal = SearchCapExceeded(huge, 10_000_000, "composition enumeration")
        assert refusal.estimate == huge
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        volume = f"of {huge.bit_length()} bits" if 0 < limit < 6023 else str(huge)
        assert str(refusal) == ("refusing composition enumeration: estimated volume "
                                f"{volume} exceeds cap 10000000")
