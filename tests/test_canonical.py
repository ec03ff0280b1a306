import hashlib
import json
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (compositions, forbid_stair_builds, ladder_paths, parse_stair_spec,
                      stair_specs)
from fusscat.brackets import gfc, iter_A
from fusscat.canonical import (
    CanonicalGenerator,
    _hilbert_table,
    _turn_polynomial,
    cm_type_stair,
    hilbert_function,
    hilbert_numerator,
    minimal_generators_search,
    numerator_from_hilbert,
    stair_generators,
    top_turn_count,
)
from fusscat.caps import SearchCapExceeded
from fusscat.cone import contains, edge_vector, in_relint, stair_cone
from fusscat.exactmat import binomial
from fusscat.paths import enum_volume
from fusscat.polyomino import StairSpec, krull_dim, stair, vertex_set
from fusscat.selftest import iter_stair_specs, load_generator_golden

GOLDEN_MIXED = Path(__file__).resolve().parent.parent / "bench" / "golden_mixed.json"

P1 = StairSpec((3, 3, 3), (1, 1, 1))
P2 = StairSpec((3, 3, 3), (2, 2, 2))
SINGLE = StairSpec((1,), (1,))
# every staircase with p <= 3 and entries <= 2, uniform and mixed
SMALL_SPECS = [StairSpec(u, r) for p in range(1, 4)
               for u in product((1, 2), repeat=p) for r in product((1, 2), repeat=p)]
# every staircase with p <= 3, entries <= 3 and at most 12 cone coordinates
SWEEP_SPECS = [StairSpec(u, r) for p in range(1, 4)
               for u in product((1, 2, 3), repeat=p) for r in product((1, 2, 3), repeat=p)
               if sum(u) + sum(r) + 2 <= 12]


@lru_cache(maxsize=None)
def turn_listing(spec, turn):
    """(most turns, paths with that many) over the listed vertex-set
    paths, counting the two-step word ``turn`` ("NE" or "EN")."""
    counts = Counter(w.count(turn) for w in ladder_paths(vertex_set(stair(spec))))
    top = max(counts)
    return top, counts[top]


def degree_points(c, d, minimum=0):
    """All vectors of the cone's ambient space with x- and y-degree d."""
    for xs, ys in product(compositions(d, c.x_len, minimum),
                          compositions(d, c.y_len, minimum)):
        yield xs + ys


class TestClosedForm:
    def test_first_reference_list(self):
        gens = stair_generators(3, 1, 3)
        alphas = [g.alpha for g in gens]
        assert len(alphas) == 55
        assert (1, 1, 1, 7) in alphas
        assert (3, 3, 3, 1) in alphas
        assert alphas == sorted(alphas)
        assert all(a[0] <= 3 for a in alphas)  # strict prefix bound alpha_1 < 4

    def test_second_reference_list(self):
        alphas = [g.alpha for g in stair_generators(3, 2, 3)]
        assert len(alphas) == 55
        assert (1, 1, 1, 1, 1, 1, 4) in alphas

    def test_golden_transcriptions(self):
        for n, t, p in ((3, 1, 3), (3, 2, 3)):
            got = [g.alpha for g in stair_generators(n, t, p)]
            assert got == load_generator_golden(n, t, p)

    def test_generator_invariants(self):
        for n, t, p in ((3, 1, 3), (4, 2, 2), (2, 1, 2)):
            for g in stair_generators(n, t, p):
                assert len(g.alpha) == p * t + 1
                assert all(x >= 1 for x in g.alpha)
                assert sum(g.alpha) == p * n + 1
                for k in range(1, p):
                    assert sum(g.alpha[: k * t]) < k * n + 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.data())
    def test_shift_bijection_with_composition_model(self, n, p, data):
        t = data.draw(st.integers(1, n - 1))
        shifted = [tuple(x - 1 for x in g.alpha) for g in stair_generators(n, t, p)]
        assert shifted == list(iter_A(n, t, p))

    def test_monomial_strings(self):
        g = CanonicalGenerator((1, 1, 1, 7), 10)
        assert g.monomial() == "x1*x2*x3*x4^7*y"
        assert g.exponent_vector() == (1, 1, 1, 7) + (1,) * 10
        doc = g.as_json_dict()
        assert doc["x"] == [1, 1, 1, 7]
        assert doc["y"] == [1] * 10

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            stair_generators(6, 3, 4, max_volume=5)
        # refused exactly where iter_A is, with the same estimate
        for n, t, p in ((3, 1, 3), (3, 2, 3), (5, 2, 2), (4, 2, 3)):
            cap = enum_volume(n, t, p)
            assert [g.alpha for g in stair_generators(n, t, p, cap)] == [
                tuple(x + 1 for x in A) for A in list(iter_A(n, t, p, cap))]
            with pytest.raises(SearchCapExceeded) as want:
                list(iter_A(n, t, p, cap - 1))
            with pytest.raises(SearchCapExceeded) as got:
                stair_generators(n, t, p, cap - 1)
            assert got.value.estimate == want.value.estimate == cap


class TestCmType:
    def test_reference_values(self):
        assert cm_type_stair(3, 1, 3) == 55
        assert cm_type_stair(3, 2, 3) == 55

    def test_derived_value(self):
        assert cm_type_stair(4, 2, 2) == 53

    @pytest.mark.parametrize("n,t,p", [(3, 0, 1), (3, 3, 1), (2, 1, 0)])
    def test_rejects_bad_parameters(self, n, t, p):
        with pytest.raises(ValueError):
            cm_type_stair(n, t, p)

    def test_equals_bracket_and_mirror(self):
        for n in range(2, 6):
            for p in range(1, 4):
                for t in range(1, n):
                    value = cm_type_stair(n, t, p)
                    assert value == gfc(n, t, p)
                    assert value == cm_type_stair(n, n - t, p)


class TestTurnCount:
    def test_matches_path_listing(self):
        for spec in SMALL_SPECS:
            assert top_turn_count(spec) == turn_listing(spec, "NE"), spec

    def test_top_coefficient_of_numerator_and_lowest_generators(self):
        # h_s is the last nonzero numerator coefficient, and it counts the
        # canonical generators of the lowest degree, dim - s
        for spec in SMALL_SPECS:
            s, h = top_turn_count(spec)
            numerator = hilbert_numerator(spec, s + 1)
            assert numerator[s:] == [h, 0], spec
            low = krull_dim(stair(spec)) - s
            m = spec.breaks()[-1]
            found = minimal_generators_search(spec, low)
            assert Counter(sum(z[:m]) for z in found) == {low: h}, spec

    def test_en_turns_are_not_the_numerator(self):
        # the convention matters: an E step followed by an N step is not a
        # turn of the formula
        wrong = [spec for spec in SMALL_SPECS
                 if turn_listing(spec, "EN") != top_turn_count(spec)]
        assert wrong

    def test_uniform_top_is_bracket(self):
        for n in range(2, 10):
            for p in range(1, 6):
                if n * p > 40:
                    continue
                for t in range(1, n):
                    assert top_turn_count(StairSpec.uniform(n, t, p)) == (
                        p * t, gfc(n, t, p, "det")), (n, t, p)

    def test_cap_counts_vertices(self):
        spec = StairSpec((2, 1, 3), (1, 3, 2))
        vertices = len(vertex_set(stair(spec)))
        assert top_turn_count(spec, max_volume=vertices) == top_turn_count(spec)
        with pytest.raises(SearchCapExceeded) as refused:
            top_turn_count(spec, max_volume=vertices - 1)
        assert refused.value.estimate == vertices

    def test_reference_and_single_cell(self):
        assert top_turn_count(P1) == (3, 55)
        assert top_turn_count(SINGLE) == (1, 1)

    @settings(max_examples=150, deadline=None)
    @given(stair_specs(max_p=5, max_entry=8))
    def test_top_term_of_turn_polynomial(self, spec):
        s = spec.top_degree()
        assert top_turn_count(spec) == (s, _turn_polynomial(spec, s)[s])


class TestMinimalSearch:
    def test_first_reference_recovers_closed_form(self):
        found = minimal_generators_search(P1, 10)
        expected = sorted(g.exponent_vector() for g in stair_generators(3, 1, 3))
        assert found == expected

    def test_nothing_below_first_degree(self):
        assert minimal_generators_search(P1, 9) == []

    def test_nothing_at_next_degree(self):
        found = minimal_generators_search(P1, 11)
        assert len(found) == 55

    def test_single_cell(self):
        # the one interior lattice point of degree 2 is all ones
        assert minimal_generators_search(SINGLE, 3) == [(1, 1, 1, 1)]

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            minimal_generators_search(P2, 11, max_volume=10)

    def test_builds_no_polyomino_or_cone(self, monkeypatch):
        cases = [(P1, 10), (P2, 11), (StairSpec((2, 1, 3), (1, 3, 2)), 9),
                 (SINGLE, 2), (StairSpec((200, 200), (200, 200)), 0)]
        expected = [minimal_generators_search(spec, d) for spec, d in cases]
        forbid_stair_builds(monkeypatch)
        assert [minimal_generators_search(spec, d) for spec, d in cases] == expected
        assert expected[-1] == []

    def test_lowest_degree_counts_match_turn_count(self):
        # on each staircase, exactly h_s generators sit at x-degree dim - s
        assert len(SWEEP_SPECS) == 253
        for spec in SWEEP_SPECS:
            s, h = top_turn_count(spec)
            low = krull_dim(stair(spec)) - s
            m = spec.breaks()[-1]
            found = minimal_generators_search(spec, low)
            assert Counter(sum(z[:m]) for z in found) == {low: h}, spec

    def test_golden_mixed_specs(self):
        # counts and digests recorded by the dense search of the first
        # release, on 233 mixed staircases
        golden = json.loads(GOLDEN_MIXED.read_text())["specs"]
        assert len(golden) == 233
        for text, want in golden.items():
            found = minimal_generators_search(parse_stair_spec(text), want["search_dmax"])
            listing = json.dumps([list(z) for z in found], separators=(",", ":"))
            assert len(found) == want["search_count"], text
            assert hashlib.sha256(listing.encode()).hexdigest() == want["search_sha256"], text

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=3, max_entry=2), st.integers(0, 2))
    def test_matches_dense_definition(self, spec, extra):
        c = stair_cone(spec)
        gens = [edge_vector(c, e) for e in c.edges]
        dmax = max(c.x_len, c.y_len) + extra
        expected = sorted(
            z for d in range(dmax + 1) for z in degree_points(c, d, 1)
            if in_relint(c, z)
            and all(not in_relint(c, tuple(a - b for a, b in zip(z, g))) for g in gens)
        )
        assert minimal_generators_search(spec, dmax) == expected


def multichain_counts(spec, degree_max):
    """[H(0), ..., H(degree_max)] counted as the multichains v_1 <= ... <=
    v_d of the vertex set under the componentwise order, which a Hibi
    ring's degree-d monomials are. chains[v], the chains of length d that
    end at v, sums the chains of length d - 1 over the vertices below v: a
    2-D prefix sum over the box, in which a point outside the vertex set
    (above its column's top) counts 0."""
    V = set(vertex_set(stair(spec)))
    m, n = max(x for x, _ in V), max(y for _, y in V)
    chains = dict.fromkeys(V, 1)
    H = [1]
    for _ in range(degree_max):
        H.append(sum(chains.values()))
        below = [[0] * (n + 1) for _ in range(m + 1)]
        for x in range(1, m + 1):
            for y in range(1, n + 1):
                below[x][y] = (chains.get((x, y), 0) + below[x - 1][y] + below[x][y - 1]
                               - below[x - 1][y - 1])
        chains = {(x, y): below[x][y] for x, y in V}
    return H


class TestHilbert:
    def test_matches_multichain_count(self):
        # every staircase with p <= 3 and entries <= 3: 9 + 81 + 729 = 819
        specs = [StairSpec(u, r) for p in range(1, 4)
                 for u, r in product(product((1, 2, 3), repeat=p), repeat=2)]
        assert len(specs) == 819
        for spec in specs:
            assert hilbert_function(spec, 4) == multichain_counts(spec, 4), spec

    def test_degree_zero(self):
        assert hilbert_function(P1, 0)[0] == 1
        assert hilbert_function(SINGLE, 0)[0] == 1

    def test_degree_one_counts_vertices(self):
        assert hilbert_function(P1, 1)[1] == 31
        assert hilbert_function(P2, 1)[1] == 52

    def test_polyomino_input(self):
        # H(1), read off (u, r) alone, counts the vertices of the staircase
        # polyomino built from the same spec
        assert len(vertex_set(stair(P1))) == 31
        for spec in SMALL_SPECS:
            assert hilbert_function(spec, 1)[1] == len(vertex_set(stair(spec))), spec

    def test_single_cell_numerator(self):
        assert hilbert_function(SINGLE, 1)[1] == 4
        assert hilbert_numerator(SINGLE, 1) == [1, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=30), st.integers(1, 40))
    def test_numerator_times_inverse_power_is_hilbert(self, H, dim):
        # 1/(1 - t)^dim = sum_j binom(dim + j - 1, j) t^j multiplies h back to H
        h = numerator_from_hilbert(H, dim)
        assert len(h) == len(H)
        assert H == [sum(binomial(dim + j - 1, j) * h[k - j] for j in range(k + 1))
                     for k in range(len(H))]

    @given(st.lists(st.integers(), max_size=30))
    def test_numerator_in_dimension_zero_is_hilbert(self, H):
        assert numerator_from_hilbert(H, 0) == H

    def test_reference_numerators(self):
        assert hilbert_numerator(P1, 3) == [1, 18, 66, 55]
        assert hilbert_numerator(P2, 6) == [1, 36, 318, 960, 1071, 444, 55]

    def test_last_coefficient_is_cm_type(self):
        assert hilbert_numerator(P1, 3)[-1] == cm_type_stair(3, 1, 3)
        assert hilbert_numerator(P2, 6)[-1] == cm_type_stair(3, 2, 3)
        # beyond the references: degree p*t, top coefficient the bracket
        for n, t, p in ((4, 2, 3), (5, 2, 3), (4, 1, 4), (5, 3, 2)):
            h = hilbert_numerator(StairSpec.uniform(n, t, p), p * t + 2)
            assert h[p * t] == gfc(n, t, p, "dp")
            assert h[p * t + 1:] == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(stair_specs(max_p=3, max_entry=2), st.integers(0, 3))
    def test_matches_lattice_point_count(self, spec, d):
        c = stair_cone(spec)
        expected = [sum(1 for z in degree_points(c, e) if contains(c, z))
                    for e in range(d + 1)]
        assert hilbert_function(spec, d) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6))
    def test_rectangle_is_segre_product(self, u, r, d):
        # p = 1: every x-y pair is a vertex, so H(d) counts pairs of
        # degree-d monomials in r + 1 and u + 1 variables
        m, ny = r + 1, u + 1
        assert hilbert_function(StairSpec((u,), (r,)), d) == [
            binomial(e + m - 1, m - 1) * binomial(e + ny - 1, ny - 1)
            for e in range(d + 1)]

    def test_each_request_runs_the_cheaper_route(self, monkeypatch):
        from fusscat import canonical

        calls = []

        def counting(name):
            route = getattr(canonical, name)

            def run(*args):
                calls.append(name)
                return route(*args)

            monkeypatch.setattr(canonical, name, run)

        counting("_turn_polynomial")
        counting("_hilbert_table")
        # P2 at degree 6: (52 + 6) * 7 = 406 turn-count steps on one-word
        # numbers against (7 + 10) * 7^2 = 833 table cells
        assert hilbert_numerator(P2, 6) == [1, 36, 318, 960, 1071, 444, 55]
        assert hilbert_function(P2, 6)[1] == 52
        assert calls == ["_turn_polynomial"] * 2
        # the 1500 x 1500 rectangle at degree 1: 1501^2 vertices times two
        # coefficients of 94 words against (1501 + 1501) * 2^2 table cells
        calls.clear()
        rectangle = StairSpec((1500,), (1500,))
        assert hilbert_numerator(rectangle, 1) == [1, 1500 * 1500]
        assert hilbert_function(rectangle, 1) == [1, 1501 * 1501]
        assert calls == ["_hilbert_table"] * 2

    def test_numerator_builds_no_polyomino(self, monkeypatch):
        forbid_stair_builds(monkeypatch)
        assert hilbert_numerator(P1, 3) == [1, 18, 66, 55]
        # the rectangle's Segre product of two projective spaces has h_1 = u*r;
        # its polyomino would hold 2,250,000 cells
        assert hilbert_numerator(StairSpec((1500,), (1500,)), 1) == [1, 1500 * 1500]

    def test_rejects_negative_degree(self):
        for route in (hilbert_function, hilbert_numerator):
            with pytest.raises(ValueError):
                route(P1, -1)

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            hilbert_function(P2, 6, max_volume=3)
        # refused on the smaller estimate, the turn-count route's
        # (|V| + 6) * 7 = 406 below the table's (B_p + A_p) * 7^2 = 833
        for route in (hilbert_function, hilbert_numerator):
            with pytest.raises(SearchCapExceeded) as refused:
                route(P2, 6, max_volume=405)
            assert refused.value.estimate == (52 + 6) * 7
            assert route(P2, 6, max_volume=406) == route(P2, 6)
        # and on the table's when that is the smaller one
        rectangle = StairSpec((1500,), (1500,))
        with pytest.raises(SearchCapExceeded) as refused:
            hilbert_numerator(rectangle, 1, max_volume=12007)
        assert refused.value.estimate == (1501 + 1501) * 2 ** 2
        assert hilbert_numerator(rectangle, 1, max_volume=12008) == [1, 1500 * 1500]


@lru_cache(maxsize=None)
def census_h_vectors():
    """The h-vector of every staircase with p <= 4 and entries <= 3."""
    return {spec: hilbert_numerator(spec, spec.top_degree())
            for spec in iter_stair_specs(4, 3)}


class TestHVector:
    def test_reference_h_vectors(self):
        assert hilbert_numerator(P1, P1.top_degree()) == [1, 18, 66, 55]
        assert hilbert_numerator(P2, P2.top_degree()) == [1, 36, 318, 960, 1071, 444, 55]
        assert hilbert_numerator(P2, 3) == [1, 36, 318, 960]
        assert _turn_polynomial(P2, 3) == [1, 36, 318, 960]
        assert hilbert_numerator(SINGLE, SINGLE.top_degree()) == [1, 1]

    def test_census_length_and_top_coefficient(self):
        census = census_h_vectors()
        assert len(census) == 7380
        for spec, h in census.items():
            s, top = top_turn_count(spec)
            assert spec.top_degree() == s == len(h) - 1, spec
            assert h[-1] == top, spec

    def test_census_gorenstein_iff_symmetric(self):
        # a Hibi ring is Gorenstein iff its h-vector is a palindrome
        # (Stanley; Hibi), which on a staircase is u == r
        census = census_h_vectors()
        palindromes = {spec for spec, h in census.items() if h == h[::-1]}
        assert palindromes == {spec for spec in census if spec.u == spec.r}
        assert len(palindromes) == 120

    def test_census_matches_table_to_degree_8(self):
        for spec, h in census_h_vectors().items():
            want = numerator_from_hilbert(_hilbert_table(spec, 8), spec.krull_dim())
            assert _turn_polynomial(spec, min(len(h) - 1, 8)) == want[:len(h)], spec
            assert want[len(h):] == [0] * (9 - len(h)), spec

    @settings(max_examples=150, deadline=None)
    @given(stair_specs(max_p=5, max_entry=6), st.integers(0, 30))
    def test_routes_agree(self, spec, d):
        table = _hilbert_table(spec, d)
        h = _turn_polynomial(spec, min(spec.top_degree(), d))
        full = hilbert_numerator(spec, spec.top_degree())
        assert h == full[:d + 1]
        assert (len(full) - 1, full[-1]) == top_turn_count(spec)
        assert h + [0] * (d + 1 - len(h)) == numerator_from_hilbert(table, spec.krull_dim())
        assert hilbert_function(spec, d, max_volume=10 ** 9) == table
        assert hilbert_numerator(spec, d, max_volume=10 ** 9) == h + [0] * (d + 1 - len(h))

    def test_matches_path_listing(self):
        for spec in SMALL_SPECS:
            turns = Counter(w.count("NE") for w in ladder_paths(vertex_set(stair(spec))))
            h = hilbert_numerator(spec, spec.top_degree())
            assert h == [turns[k] for k in range(max(turns) + 1)], spec
