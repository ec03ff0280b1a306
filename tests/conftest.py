"""Shared test oracles, all independent of the library's own algorithms,
a guard that makes building a staircase polyomino or cone fail, and a
probe that runs the CLI in a fresh interpreter."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest

import fusscat
from fusscat.cone import stair_cone
from fusscat.paths import HeightBounds
from fusscat.polyomino import StairSpec, stair


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, val in enumerate(rows[0]):
        if val:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * val * det_cofactor(minor)
    return total


def compositions(total, parts, minimum=0):
    """Every composition of total into parts entries >= minimum, by stars
    and bars (the bars' positions among the slots)."""
    total -= parts * minimum
    if total < 0:
        return
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(right - left - 1 + minimum for left, right in zip(edges, edges[1:]))


def ladder_paths(vertices):
    """Every path of unit N and E steps through the vertex set, from its
    least to its greatest point, as a word in 'N' and 'E'."""
    vertices = set(vertices)
    end = max(vertices)

    def walk(point):
        if point == end:
            yield ""
            return
        x, y = point
        for step, after in (("E", (x + 1, y)), ("N", (x, y + 1))):
            if after in vertices:
                for rest in walk(after):
                    yield step + rest

    return list(walk(min(vertices)))


def rank_fractions(rows, ncols):
    """Rank by plain Gaussian elimination over exact rationals."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / prow[col]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


@st.composite
def height_bounds(draw, max_n=8, min_h=0, max_h=10):
    n = draw(st.integers(1, max_n))
    b = sorted(draw(st.lists(st.integers(min_h, max_h), min_size=n, max_size=n)))
    a = sorted(draw(st.lists(st.integers(min_h, max_h), min_size=n, max_size=n)))
    a = [max(x, y) for x, y in zip(a, b)]
    return HeightBounds(tuple(a), tuple(b))


@st.composite
def run_bounds(draw, min_run=3, max_runs=4, min_h=-4, max_h=8):
    """Height bounds whose a and b both come in runs of at least min_run
    equal entries."""
    def runs(n=None):
        lengths = draw(st.lists(st.integers(min_run, min_run + 3),
                                min_size=2, max_size=max_runs))
        values = sorted(draw(st.lists(st.integers(min_h, max_h),
                                      min_size=len(lengths), max_size=len(lengths))))
        seq = [v for v, m in zip(values, lengths) for _ in range(m)]
        if n is None:
            return seq
        seq = (seq + [seq[-1]] * n)[:n]
        # a cut that leaves the last run short joins it to the one before
        last = seq[-1]
        tail = len(seq) - seq.index(last)
        if tail < min_run:
            seq[-tail:] = [seq[-tail - 1]] * tail
        return seq

    a = runs()
    b = runs(len(a))
    # lifting a by a constant keeps its runs and puts it above b
    lift = max(0, max(y - x for x, y in zip(a, b)))
    return HeightBounds([x + lift for x in a], b)


@st.composite
def stair_specs(draw, max_p=3, max_entry=3):
    p = draw(st.integers(1, max_p))
    u = tuple(draw(st.integers(1, max_entry)) for _ in range(p))
    r = tuple(draw(st.integers(1, max_entry)) for _ in range(p))
    return StairSpec(u, r)


def parse_stair_spec(text: str) -> StairSpec:
    """The StairSpec of text written by polyomino.format_stair_spec, such
    as the keys of bench/golden_mixed.json."""
    try:
        upart, rpart = text.strip().split(";")
        ukey, uval = upart.split("=")
        rkey, rval = rpart.split("=")
        if ukey.strip() != "u" or rkey.strip() != "r":
            raise ValueError
        u = tuple(int(x) for x in uval.split(","))
        r = tuple(int(x) for x in rval.split(","))
    except ValueError:
        raise ValueError(f"cannot parse stair spec {text!r}, expected like 'u=3,3,3;r=1,1,1'") from None
    return StairSpec(u, r)


def forbid_calls(monkeypatch, *functions):
    """Make each of functions raise under every name that a fusscat module
    holds it by, for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("called a forbidden function")

    for name, module in list(sys.modules.items()):
        if name == "fusscat" or name.startswith("fusscat."):
            for key, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    monkeypatch.setattr(module, key, refuse)


def forbid_stair_builds(monkeypatch):
    """Make `stair` and `stair_cone` raise, for the rest of the test."""
    forbid_calls(monkeypatch, stair, stair_cone)


# Runs main(argv) in a fresh interpreter and prints, one a line, the
# modules that the import of fusscat.cli and the run loaded.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from fusscat.cli import main
code = main(sys.argv[1:])
print("exit", code)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def run_python(source: str, *argv) -> subprocess.CompletedProcess:
    """Run source with argv in a fresh interpreter that imports the
    fusscat under test."""
    src = str(Path(fusscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", source, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def run_probe(*argv) -> tuple[int, str, set[str]]:
    """main(argv) in a fresh interpreter: its exit code, what it wrote to
    stdout, and the modules that the import of fusscat.cli and the run
    loaded."""
    proc = run_python(IMPORT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    # main's own output comes first, then the exit line and the modules
    out, _, tail = ("\n" + proc.stdout).rpartition("\nexit ")
    code, *modules = tail.splitlines()
    return int(code), out, set(modules)


@pytest.fixture(scope="session")
def selftest_probe():
    """One `fusscat selftest` run through the probe, shared by criterion 12
    and the import contract, so the suite runs the whole selftest once."""
    return run_probe("selftest")
