"""The package's public surface: lazily resolved names, and the value
types that are named tuples (or, for Polyomino, a frozenset) rather than
dataclasses."""

import os
import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import fusscat
from fusscat import brackets
from fusscat.canonical import CanonicalGenerator
from fusscat.exactmat import Matrix
from fusscat.paths import HeightBounds
from fusscat.polyomino import InnerInterval, Polyomino, StairSpec, inner_intervals, stair

# the names the package exported when it imported every module up front
EXPORTS = {
    "caps": ("DEFAULT_MAX_VOLUME", "SearchCapExceeded"),
    "exactmat": ("Matrix", "binomial", "det_exact", "fuss_catalan", "rank_exact"),
    "brackets": ("gfc",),
    "paths": ("HeightBounds", "count_paths_det", "count_paths_dp", "staircase_bounds"),
    "polyomino": ("Polyomino", "StairSpec", "inner_intervals", "is_convex", "krull_dim",
                  "render_ascii", "stair", "vertex_set"),
    "cone": ("ConeRep", "contains", "edge_vector", "facet_check", "in_relint",
             "is_extreme_generator", "stair_cone", "stair_normals",
             "verify_h_representation"),
    "canonical": ("CanonicalGenerator", "cm_type_stair", "hilbert_function",
                  "hilbert_numerator", "minimal_generators_search", "stair_generators",
                  "top_turn_count"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestLazyPackage:
    @pytest.mark.parametrize("module,name", EXPORTED, ids=[n for _, n in EXPORTED])
    def test_every_name_resolves_to_its_module(self, module, name):
        assert getattr(fusscat, name) is getattr(sys.modules[f"fusscat.{module}"], name)

    def test_all_and_dir_list_every_name(self):
        names = {name for _, name in EXPORTED}
        assert set(fusscat.__all__) == names
        assert names | set(EXPORTS) <= set(dir(fusscat))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            fusscat.no_such_name
        with pytest.raises(ImportError):
            from fusscat import no_such_name  # noqa: F401

    def test_submodules_resolve_in_a_fresh_interpreter(self):
        # where no submodule is loaded yet, so the package's __getattr__
        # has to import each one
        src = str(Path(fusscat.__file__).resolve().parents[1])
        probe = ("import sys; from fusscat import brackets; import fusscat; "
                 "print(brackets is sys.modules['fusscat.brackets'], fusscat.cone.__name__, "
                 "fusscat.gfc(3, 1, 3), 'fusscat.selftest' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.stdout.split() == ["True", "fusscat.cone", "55", "False"], proc.stderr

    def test_no_name_is_cached(self, monkeypatch):
        original = brackets.gfc

        def patched(*args, **kwargs):
            return 0

        monkeypatch.setattr(brackets, "gfc", patched)
        assert fusscat.gfc is patched
        monkeypatch.undo()
        assert fusscat.gfc is original
        assert "gfc" not in vars(fusscat)


# one instance of each value type, its repr and the plain value it
# equals and hashes as: the tuple of its fields, or a polyomino's cell set
VALUES = [
    (StairSpec((1,), (2,)), "StairSpec(u=(1,), r=(2,))", ((1,), (2,))),
    (HeightBounds((1, 2), (0, 0)), "HeightBounds(a=(1, 2), b=(0, 0))", ((1, 2), (0, 0))),
    (InnerInterval((1, 1), (2, 2), (1, 2), (2, 1)),
     "InnerInterval(a=(1, 1), b=(2, 2), c=(1, 2), d=(2, 1))",
     ((1, 1), (2, 2), (1, 2), (2, 1))),
    (CanonicalGenerator((1, 2), 3), "CanonicalGenerator(alpha=(1, 2), y_len=3)", ((1, 2), 3)),
    (Matrix(1, 2, (5, 6)), "Matrix(rows=1, cols=2, entries=(5, 6))", (1, 2, (5, 6))),
    (Polyomino([(1, 1)]), "Polyomino(cells=frozenset({(1, 1)}))", frozenset({(1, 1)})),
]
VALUE_IDS = [type(v).__name__ for v, _, _ in VALUES]


class TestValueTypes:
    @pytest.mark.parametrize("value,text,plain", VALUES, ids=VALUE_IDS)
    def test_repr_hash_and_pickle(self, value, text, plain):
        assert repr(value) == text
        assert hash(value) == hash(plain)
        assert pickle.loads(pickle.dumps(value)) == value

    @pytest.mark.parametrize("value,text,plain", VALUES, ids=VALUE_IDS)
    def test_immutable(self, value, text, plain):
        name = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = None

    def test_tuple_types_compare_equal_to_plain_tuples(self):
        # the one semantic change from the dataclasses: a named tuple
        # equals the plain tuple of its fields
        assert StairSpec((1,), (2,)) == ((1,), (2,))
        assert Polyomino([(1, 1)]) != (frozenset({(1, 1)}),)

    def test_polyomino_is_its_cell_set(self):
        cells = frozenset({(1, 1), (1, 2)})
        P = Polyomino(cells)
        assert P == cells and hash(P) == hash(cells)
        assert type(pickle.loads(pickle.dumps(P))) is Polyomino

        class Forged:
            # unpickles through Polyomino(...), so its checks run again
            def __reduce__(self):
                return Polyomino, ([(1, 1), (3, 1)],)

        with pytest.raises(ValueError, match="cells are not edge-connected"):
            pickle.loads(pickle.dumps(Forged()))

    def test_inputs_are_stored_as_tuples(self):
        assert StairSpec([1, 2], [3, 4]) == StairSpec((1, 2), (3, 4))
        assert HeightBounds([2], [0]).a == (2,)
        assert Polyomino([[1, 1], [1, 2]]) == {(1, 1), (1, 2)}

    @pytest.mark.parametrize("make,message", [
        (lambda: StairSpec((1, 2), (1,)), "u and r must be nonempty lists of equal length"),
        (lambda: StairSpec((), ()), "u and r must be nonempty lists of equal length"),
        (lambda: StairSpec((1, 0), (1, 1)), "all entries of u and r must be >= 1"),
        (lambda: HeightBounds((1, 2), (0,)),
         "invalid height bounds: len(a)=2 differs from len(b)=1"),
        (lambda: HeightBounds((), ()), "invalid height bounds: bounds must have length >= 1"),
        (lambda: HeightBounds((3, 1), (0, 2)),
         "invalid height bounds: a is not weakly increasing: (3, 1); "
         "a_i < b_i at positions [1] (0-based)"),
        (lambda: HeightBounds((1, 2), (2, 1)),
         "invalid height bounds: b is not weakly increasing: (2, 1); "
         "a_i < b_i at positions [0] (0-based)"),
        (lambda: Matrix(-1, 0, ()), "matrix dimensions must be nonnegative"),
        (lambda: Matrix(2, 2, (1, 2, 3)), "expected 4 entries, got 3"),
        (lambda: Polyomino([]), "a polyomino needs at least one cell"),
        (lambda: Polyomino([(0, 1)]), "cell (0, 1) outside the positive quadrant"),
        (lambda: Polyomino([(1, 1), (3, 1)]), "cells are not edge-connected"),
    ])
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_len_of_a_staircase_is_its_cell_count(self):
        for p in (1, 2, 3):
            for u, r in product(product((1, 2, 3), repeat=p), repeat=2):
                spec = StairSpec(u, r)
                assert len(stair(spec)) == spec.cell_count()

    def test_inner_interval_fields(self):
        (iv,) = inner_intervals(stair(StairSpec((1,), (1,))))
        assert iv == InnerInterval((1, 1), (2, 2), (1, 2), (2, 1))
        assert (iv.a, iv.b, iv.c, iv.d) == ((1, 1), (2, 2), (1, 2), (2, 1))
