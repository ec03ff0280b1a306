import ast
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import forbid_calls, forbid_stair_builds, run_probe, run_python
from fusscat import brackets, canonical
from fusscat.caps import GFC_METHODS
from fusscat.cli import json_text, main
from fusscat.polyomino import Polyomino, StairSpec, is_convex, render_ascii, stair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGfcCommand:
    def test_all_methods(self, capsys):
        doc = run_json(capsys, "gfc", "--n", "3", "--t", "1", "--p", "3",
                       "--method", "all")
        assert doc["value"] == "55"
        assert doc["methods_agree"] is True
        assert set(doc["per_method"]) == {"enum", "dp", "det", "canonical"}

    def test_single_method(self, capsys):
        doc = run_json(capsys, "gfc", "--n", "4", "--t", "2", "--p", "2",
                       "--method", "det")
        assert doc == {"value": "53", "method": "det"}

    def test_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "gfc", "--n", "3", "--t", "5", "--p", "1")
        assert code == 1
        assert "require 1 <= t < n" in err
        assert out == ""

    def test_cap_refusal(self, capsys):
        code, out, err = run_cli(capsys, "--max-volume", "1", "gfc",
                                 "--n", "6", "--t", "3", "--p", "4",
                                 "--method", "enum")
        assert code == 2
        assert "exceeds cap" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "gfc", "--n", "3", "--t", "1",
                               "--p", "3", "--frobnicate")
        assert code == 1
        assert "error" in err

    def test_malformed_list_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "paths", "--a", "2,x,6")
        assert code == 1
        assert "comma-separated" in err

    def test_empty_list_is_validation_error(self, capsys):
        # "".split(",") is [""], so an empty list fails as a malformed one
        code, out, err = run_cli(capsys, "paths", "--a", "")
        assert (code, out) == (1, "")
        assert err == "error: expected a comma-separated integer list, got ''\n"


class TestPathsCommand:
    def test_dp_default(self, capsys):
        doc = run_json(capsys, "paths", "--a", "2,4,6")
        assert doc == {"count": "55", "method": "dp"}

    def test_det_with_lower_bounds(self, capsys):
        doc = run_json(capsys, "paths", "--a", "1,3", "--b", "0,2",
                       "--method", "det")
        assert doc["count"] == "4"

    def test_enumerate(self, capsys):
        doc = run_json(capsys, "paths", "--a", "0,5", "--b", "0,3",
                       "--method", "enumerate")
        assert doc["count"] == "3"
        assert doc["sequences"] == [[0, 3], [0, 4], [0, 5]]

    @pytest.mark.parametrize("method", ["dp", "det", "enumerate"])
    def test_negative_heights_joined_by_equals(self, capsys, method):
        # y_1 in -5..-3, y_2 in y_1..2: 8 + 7 + 6 paths
        doc = run_json(capsys, "paths", "--a=-3,2", "--b=-5,-5", "--method", method)
        assert doc["count"] == "21"
        # argparse reads a separate "-5,-5" as an option, not as a value
        code, out, err = run_cli(capsys, "paths", "--a=-3,2", "--b", "-5,-5",
                                 "--method", method)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --b: expected one argument")

    def test_invalid_bounds(self, capsys):
        code, _, err = run_cli(capsys, "paths", "--a", "3,1")
        assert code == 1
        assert "weakly increasing" in err


class TestPolyominoCommand:
    def test_reference_staircase(self, capsys):
        doc = run_json(capsys, "polyomino", "--u", "3,3,3", "--r", "1,1,1")
        assert doc["cell_count"] == 18
        assert doc["vertex_count"] == 31
        assert doc["krull_dim"] == 13
        assert doc["convex"] is True

    def test_render(self, capsys):
        doc = run_json(capsys, "polyomino", "--u", "1", "--r", "1", "--render")
        assert doc["render"] == "#"

    def test_cell_list_cap(self, capsys, monkeypatch):
        # the cells list of the 18 cells holds 36 integers
        argv = ("polyomino", "--u", "3,3,3", "--r", "1,1,1")
        doc = run_json(capsys, "--max-volume", "36", *argv)
        assert len(doc["cells"]) == doc["cell_count"] == 18
        forbid_stair_builds(monkeypatch)
        code, out, err = run_cli(capsys, "--max-volume", "35", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: refusing polyomino cell list: estimated volume 36 ")


class TestConeVerifyCommand:
    def test_single_cell(self, capsys):
        doc = run_json(capsys, "cone-verify", "--u", "1", "--r", "1")
        assert doc["all_passed"] is True
        assert doc["expected_dim"] == 3


class TestCanonicalCommand:
    def test_closed_form(self, capsys):
        doc = run_json(capsys, "canonical", "--n", "3", "--t", "1", "--p", "3")
        assert doc["cm_type"] == "55"
        assert doc["generators"][0]["monomial"] == "x1*x2*x3*x4^7*y"
        assert doc["generators"][0]["x"] == [1, 1, 1, 7]
        assert doc["generators"][0]["y"] == [1] * 10

    def test_general_search(self, capsys):
        doc = run_json(capsys, "canonical", "--u", "2,2", "--r", "1,1",
                       "--dmax", "5")
        assert doc["count"] == "5"

    def test_mixed_arguments_rejected(self, capsys):
        code, _, err = run_cli(capsys, "canonical", "--n", "3", "--u", "1")
        assert code == 1
        assert "mixture" in err

    def test_search_needs_dmax(self, capsys):
        code, _, err = run_cli(capsys, "canonical", "--u", "1", "--r", "1")
        assert code == 1
        assert "dmax" in err


class TestHilbertCommand:
    def test_reference_numerator(self, capsys):
        doc = run_json(capsys, "hilbert", "--u", "3,3,3", "--r", "1,1,1",
                       "--dmax", "3")
        assert doc["numerator"] == [1, 18, 66, 55]
        assert doc["dimension"] == 13
        assert doc["hilbert_function"][1] == "31"

    def test_each_degree_counted_once(self, capsys, monkeypatch):
        from fusscat import canonical

        calls = []
        hilbert_numerator = canonical.hilbert_numerator

        def counting(spec, degree_max, max_volume=None):
            calls.append(degree_max)
            return hilbert_numerator(spec, degree_max, max_volume)

        monkeypatch.setattr(canonical, "hilbert_numerator", counting)
        doc = run_json(capsys, "hilbert", "--u", "3,3,3", "--r", "1,1,1",
                       "--dmax", "3")
        assert doc["numerator"] == [1, 18, 66, 55]
        assert calls == [3]

    def test_zero_tail_is_not_multiplied(self, capsys, monkeypatch):
        # s = 18 for u = r = 9,9: H up to degree 2000 takes the 19
        # coefficients h_0 .. h_18, not the 2001 of the padded numerator
        calls = []
        times_series = canonical._times_series

        def spying(poly, series):
            calls.append((len(poly), len(series)))
            return times_series(poly, series)

        monkeypatch.setattr(canonical, "_times_series", spying)
        doc = run_json(capsys, "hilbert", "--u", "9,9", "--r", "9,9", "--dmax", "2000")
        assert StairSpec((9, 9), (9, 9)).top_degree() == 18
        assert calls == [(19, 2001)]
        assert len(doc["numerator"]) == 2001
        assert doc["numerator"][18] > 0 and not any(doc["numerator"][19:])

    @pytest.mark.parametrize("u,r,dmax", [
        ("3,3,3", "1,1,1", 7), ("2,1", "1,2", 9), ("1", "5", 4), ("4,1,3", "2,2,1", 12)])
    def test_numerator_past_top_degree(self, capsys, u, r, dmax):
        # only H(0) .. H(s) enter the numerator; the rest of it is zeros
        doc = run_json(capsys, "hilbert", "--u", u, "--r", r, "--dmax", str(dmax))
        H = [int(v) for v in doc["hilbert_function"]]
        assert doc["numerator"] == canonical.numerator_from_hilbert(H, doc["dimension"])
        assert doc["numerator"][-1] == 0

    def test_builds_no_polyomino(self, capsys, monkeypatch):
        forbid_stair_builds(monkeypatch)
        doc = run_json(capsys, "hilbert", "--u", "3,3,3", "--r", "1,1,1",
                       "--dmax", "3")
        assert doc["numerator"] == [1, 18, 66, 55]
        assert doc["dimension"] == 13


class TestExitCodes:
    @pytest.mark.parametrize("argv,key,expected", [
        (("gfc", "--n", "2000", "--t", "1999", "--p", "1", "--method", "enum"),
         "value", "2000"),
        (("gfc", "--n", "2000", "--t", "1999", "--p", "1", "--method", "canonical"),
         "value", "2000"),
        (("hilbert", "--u", "1", "--r", "2000", "--dmax", "1"), "numerator", [1, 2000]),
        (("hilbert", "--u", "2", "--r", "400", "--dmax", "3"), "numerator",
         [1, 800, 79800, 0]),
        (("paths", "--a", "100000000000", "--method", "det"), "count", "100000000001"),
        # the search's own estimate is 0 below its first degree, and it
        # builds no cone
        (("canonical", "--u", "200,200", "--r", "200,200", "--dmax", "0"), "count", "0"),
    ], ids=["gfc-enum", "gfc-canonical", "hilbert", "hilbert-many-x", "paths-det-tall",
            "canonical-search-large"])
    def test_many_parts_answer(self, capsys, argv, key, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "Traceback" not in err
        assert json.loads(out)[key] == expected

    @pytest.mark.parametrize("argv", [
        ("paths", "--a", "100000000000"),
        # the 4 DP cells do not fit the cap; under --method all the
        # enumeration's larger estimate would refuse first
        ("--max-volume", "3", "gfc", "--n", "3", "--t", "2", "--p", "1",
         "--method", "dp"),
    ], ids=["paths-dp-tall", "gfc-dp-over-cap"])
    def test_dp_over_cap_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("refused:")
        assert "--method det" in err

    @pytest.mark.parametrize("argv", [
        ("gfc", "--n", "3000", "--t", "1500", "--p", "4", "--method", "det"),
        # 16 products of one-word counts, see test_paths.TestDetCap
        ("--max-volume", "15", "gfc", "--n", "4", "--t", "2", "--p", "3",
         "--method", "det"),
        ("--max-volume", "8", "paths", "--a", "1,1,3,3", "--b", "0,0,1,1",
         "--method", "det"),
    ], ids=["gfc-det-large", "gfc-det-over-cap", "paths-det-over-cap"])
    def test_det_over_cap_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: refusing path determinant: estimated volume ")

    @pytest.mark.parametrize("argv,fragment", [
        # the 4 * 4 box times 2 heights plus the sequence
        (("paths", "--a", "3,3", "--method", "enumerate"),
         "height-sequence enumeration: estimated volume 48 "),
        # 18 cells, two integers each, and the picture's 9 rows of 3 '#'
        # or '.' and a newline
        (("polyomino", "--u", "3,3,3", "--r", "1,1,1", "--render"),
         "polyomino cell list and picture: estimated volume 72 "),
        # binom(1000, 500) in 24 words, priced 24 * isqrt(isqrt(24))^3
        (("gfc", "--n", "1000", "--t", "500", "--p", "1", "--method", "det"),
         "path determinant: estimated volume 192 "),
    ], ids=["enumerate", "render", "det-binomial"])
    def test_cap_boundary(self, capsys, argv, fragment):
        estimate = int(fragment.split()[-1])
        code, out, err = run_cli(capsys, "--max-volume", str(estimate), *argv)
        assert code == 0, err
        assert out
        code, out, err = run_cli(capsys, "--max-volume", str(estimate - 1), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: refusing " + fragment)

    def test_canonical_over_cap_is_refused(self, capsys):
        # the turn-count DP's estimate is the vertex count, 45 here
        code, out, err = run_cli(capsys, "--max-volume", "10", "gfc", "--n", "5",
                                 "--t", "2", "--p", "2", "--method", "canonical")
        assert code == 2
        assert out == ""
        assert err.startswith("refused:")

    @pytest.mark.parametrize("argv,fragment", [
        # 120,801 generators times 803 normals
        (("cone-verify", "--u", "200,200", "--r", "200,200"), "staircase cone"),
        (("cone-verify", "--u", "100,100", "--r", "100,100"), "volume 12251603 "),
        (("--max-volume", "15", "cone-verify", "--u", "1", "--r", "1"), "volume 16 "),
        # 6,750,000 cells, two integers each in the cells list
        (("polyomino", "--u", "1500,1500", "--r", "1500,1500"), "volume 13500000 "),
        # 3163 * 3162 = 10,001,406 vertices; enum (3162 compositions of
        # 3162 entries), dp and det would answer first
        (("gfc", "--n", "3162", "--t", "3161", "--p", "1"), "ladder turn-count DP"),
        # 24,002 * 2 turn-count steps on numbers of up to 24,006 bits (376
        # words), and 2003 * 20,001^2 table cells
        (("hilbert", "--u", "1", "--r", "2000", "--dmax", "20000"), "volume 18049504 "),
        # the search's estimate passes the cap at degree 312, and the
        # degrees above it are never summed
        (("canonical", "--u", "1", "--r", "1", "--dmax", "1000000000000"),
         "volume 10075156 "),
    ], ids=["cone-verify-200", "cone-verify-100", "cone-verify-cap", "polyomino-1500",
            "gfc-all-canonical", "hilbert-long-output", "canonical-search-huge-dmax"])
    def test_refused_before_building(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("refused:")
        assert fragment in err

    def test_counts_past_the_str_digit_limit(self, capsys):
        # binom(20000, 10000) has 6019 digits, more than str() converts by
        # default; main lifts that limit for its own run and restores it
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        value = math.comb(20000, 10000)
        doc = run_json(capsys, "gfc", "--n", "20000", "--t", "10000", "--p", "1",
                       "--method", "det")
        digits = doc["value"]
        assert len(digits) == 6019
        assert int(digits[:4000]) == value // 10 ** 2019
        assert int(digits[-4000:]) == value % 10 ** 4000
        # enum refuses first, at its first partial product above the cap,
        # binom(10001, 1) * 10001
        code, out, err = run_cli(capsys, "gfc", "--n", "20000", "--t", "10000", "--p", "1")
        assert code == 2
        assert out == ""
        estimate = re.fullmatch(r"refused: refusing composition enumeration .*: "
                                r"estimated volume (\d+) exceeds cap 10000000\n", err)[1]
        assert int(estimate) == 10001 * 10001
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_cone_cap_boundary_answers(self, capsys):
        # the single cell's 4 generators times 4 normals
        doc = run_json(capsys, "--max-volume", "16", "cone-verify", "--u", "1", "--r", "1")
        assert doc["all_passed"] is True

    def test_gfc_all_runs_the_routes_up_to_the_refusing_one(self, capsys, monkeypatch):
        # enum's estimate binom(4, 1) * 2 = 8 and dp's 4 cells fit a cap of
        # 9, the turn-count DP's 10 vertices do not: enum, dp and det run,
        # then canonical is refused as it starts
        ran = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                ran.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("count_bounded_compositions", "count_paths_dp", "count_paths_det"):
            spy(brackets, name)
        spy(canonical, "top_turn_count")
        code, out, err = run_cli(capsys, "--max-volume", "9", "gfc", "--n", "4",
                                 "--t", "1", "--p", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("refused: refusing ladder turn-count DP: estimated volume 10 ")
        assert ran == ["count_bounded_compositions", "count_paths_dp", "count_paths_det",
                       "top_turn_count"]

    @pytest.mark.parametrize("argv,fragment", [
        (("--max-volume", "-5", "gfc", "--n", "3", "--t", "1", "--p", "3"),
         "nonnegative"),
        (("hilbert", "--u", "1", "--r", "1", "--dmax", "-2"), "nonnegative"),
        (("canonical", "--n", "3", "--t", "1", "--p", "3", "--dmax", "4"), "--dmax"),
        (("canonical", "--u", "1", "--r", "1", "--dmax", "-3"), "nonnegative"),
        (("--max-volume", "x", "gfc", "--n", "3", "--t", "1", "--p", "3"),
         "error: argument --max-volume: expected a nonnegative integer, got 'x'"),
        (("hilbert", "--u", "1", "--r", "1", "--dmax", "1.5"),
         "error: argument --dmax: expected a nonnegative integer, got '1.5'"),
    ], ids=["negative-max-volume", "negative-dmax", "closed-form-dmax",
            "negative-canonical-dmax", "word-max-volume", "fraction-dmax"])
    def test_invalid_input_is_validation_error(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert fragment in err


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, capsys):
        argv = ("gfc", "--n", "3", "--t", "2", "--p", "3", "--method", "all")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "gfc",
                               "--n", "3", "--t", "1", "--p", "3")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert 'value,"55"' in out

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "paths",
                               "--a", "2,4,6")
        assert code == 0
        assert "count: 55" in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_formats_exit_zero(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "--format", fmt, "polyomino",
                               "--u", "2,1", "--r", "1,2")
        assert code == 0
        assert out


def loaded_modules(*argv) -> tuple[int, set[str]]:
    code, _, modules = run_probe(*argv)
    return code, modules


class TestImportContract:
    """A subcommand loads only the modules it runs: no dataclasses or
    inspect in any subcommand, selftest included, no cone where no cone
    is built, and nothing of the library before validation."""

    @pytest.mark.parametrize("argv", [
        ("polyomino", "--u", "3,3,3", "--r", "1,1,1", "--render"),
        ("paths", "--a", "0,5", "--b", "0,3", "--method", "enumerate"),
        ("gfc", "--n", "3", "--t", "1", "--p", "3", "--method", "all"),
        ("canonical", "--n", "3", "--t", "1", "--p", "3"),
        ("canonical", "--u", "2,1", "--r", "1,2", "--dmax", "8"),
        ("hilbert", "--u", "3,3,3", "--r", "1,1,1", "--dmax", "3"),
    ], ids=["polyomino", "paths", "gfc", "canonical-closed", "canonical-search", "hilbert"])
    def test_no_dataclasses_cone_or_selftest(self, argv):
        code, modules = loaded_modules(*argv)
        assert code == 0
        assert not modules & {"dataclasses", "inspect", "fusscat.cone", "fusscat.selftest"}

    def test_cone_verify_loads_no_canonical(self):
        code, modules = loaded_modules("cone-verify", "--u", "3,3,3", "--r", "2,2,2")
        assert code == 0
        assert "fusscat.cone" in modules
        assert not modules & {"dataclasses", "inspect", "fusscat.canonical", "fusscat.selftest"}

    def test_selftest_loads_no_dataclasses(self, selftest_probe):
        code, _, modules = selftest_probe
        assert code == 0
        assert "fusscat.selftest" in modules
        assert not modules & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ("hilbert", "--u", "3,3,3", "--r", "1,1,1", "--dmax", "3"),
        ("canonical", "--n", "3", "--t", "1", "--p", "3"),
    ], ids=["hilbert", "canonical-closed"])
    def test_canonical_runs_without_brackets(self, argv):
        code, modules = loaded_modules(*argv)
        assert code == 0
        assert "fusscat.canonical" in modules
        assert "fusscat.brackets" not in modules

    def test_canonical_imports_no_brackets(self):
        proc = run_python("import sys, fusscat.canonical; print(*sorted(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.split())
        assert "fusscat.canonical" in modules
        assert "fusscat.brackets" not in modules

    def test_brackets_imports_at_module_top(self):
        tree = ast.parse(Path(brackets.__file__).read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert functions
        for function in functions:
            assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                           for node in ast.walk(function)), function.name

    def test_validation_error_loads_no_library_module(self):
        code, modules = loaded_modules("canonical", "--n", "3", "--t", "1")
        assert code == 1
        assert {m for m in modules if m.startswith("fusscat")} == {
            "fusscat", "fusscat.caps", "fusscat.cli"}


json_scalars = st.none() | st.booleans() | st.integers() | st.text()
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


class TestJsonEmitter:
    @settings(deadline=None)
    @given(json_documents)
    def test_matches_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    def test_tuples_are_lists(self):
        doc = {"a": (1, (2, "x")), "b": ()}
        assert json_text(doc) == json.dumps(doc, indent=2)

    def test_polyomino_render_sweep(self, capsys, monkeypatch):
        # every spec with p <= 3 and entries <= 3: 9 + 81 + 729 = 819
        count = 0
        for p in (1, 2, 3):
            for u, r in product(product((1, 2, 3), repeat=p), repeat=2):
                argv = ("polyomino", "--u", ",".join(map(str, u)), "--r", ",".join(map(str, r)))
                # with --render or without, no polyomino is built
                with monkeypatch.context() as guard:
                    forbid_calls(guard, stair, Polyomino)
                    out = run_cli(capsys, *argv, "--render")[1]
                    plain = run_json(capsys, *argv)
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
                doc = json.loads(out)
                P = stair(StairSpec(u, r))
                assert doc["cells"] == [list(c) for c in sorted(P)]
                assert doc["convex"] is is_convex(P)
                assert doc["render"] == render_ascii(P)
                del doc["render"]
                assert plain == doc
                count += 1
        assert count == 819


# sizes in -3..8, drawn from 1..8 more often than not, so that most
# argvs get past validation into the library
SIZES = st.integers(1, 8) | st.integers(-3, 8)
# per subcommand but selftest (two forms of canonical): the options of a
# well-formed request, and options it may add, each with its values: a
# size, a list of sizes (list), a choice, or a flag (None)
REQUESTS = [
    ("gfc", {"--n": SIZES, "--t": SIZES, "--p": SIZES},
     {"--method": st.sampled_from(("all", *GFC_METHODS, "bogus"))}),
    ("paths", {"--a": list},
     {"--b": list, "--method": st.sampled_from(("dp", "det", "enumerate"))}),
    ("polyomino", {"--u": list, "--r": list}, {"--render": None}),
    ("cone-verify", {"--u": list, "--r": list}, {}),
    ("canonical", {"--n": SIZES, "--t": SIZES, "--p": SIZES}, {"--dmax": SIZES}),
    ("canonical", {"--u": list, "--r": list, "--dmax": SIZES}, {"--n": SIZES}),
    ("hilbert", {"--u": list, "--r": list, "--dmax": SIZES}, {}),
]


@st.composite
def cli_argvs(draw):
    """An argv of optional --max-volume and --format, then a subcommand
    whose request drops each option it needs one time in ten and adds
    each optional one half the time. Every value is joined to its option by
    "=", so that a negative one stays a value. A list has 0 to 5 sizes,
    and the lists of one argv share a length more often than not."""
    argv = []
    if draw(st.booleans()):
        argv.append(f"--max-volume={draw(st.integers(0, 10 ** 4))}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(('json', 'csv', 'text')))}")
    command, needed, optional = draw(st.sampled_from(REQUESTS))
    argv.append(command)
    length = draw(st.integers(0, 5))
    lists = st.lists(SIZES, min_size=length, max_size=length) | st.lists(SIZES, max_size=5)
    options = {o: v for o, v in needed.items() if draw(st.integers(0, 9))}
    options.update((o, v) for o, v in optional.items() if draw(st.booleans()))
    for option, values in options.items():
        if values is None:
            argv.append(option)
        elif values is list:
            argv.append(f"{option}={','.join(map(str, draw(lists)))}")
        else:
            argv.append(f"{option}={draw(values)}")
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_argvs())
    def test_exit_contract(self, argv):
        # an answer (0), a validation error (1) or a refusal (2), never an
        # exception; a nonzero exit writes nothing to stdout and says why
        # on stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith({1: "error:", 2: "refused:"}[code]), argv
