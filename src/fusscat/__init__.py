"""Exact enumeration around generalized Fuss-Catalan numbers: bounded
lattice paths, staircase polyominoes, their toric exponent cones, and
canonical-module data.

The package imports its modules on first use (PEP 562), so that
``python -m fusscat.cli`` loads only what its subcommand runs. A public
name is looked up in its module on every access and never stored here,
so a patch of the module's attribute shows through ``fusscat.<name>``
and is gone once the patch is undone.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("DEFAULT_MAX_VOLUME", "SearchCapExceeded"), "caps"),
    **dict.fromkeys(("Matrix", "binomial", "det_exact", "fuss_catalan", "rank_exact"),
                    "exactmat"),
    "gfc": "brackets",
    **dict.fromkeys(("HeightBounds", "count_paths_det", "count_paths_dp", "staircase_bounds"),
                    "paths"),
    **dict.fromkeys(("Polyomino", "StairSpec", "inner_intervals", "is_convex", "krull_dim",
                     "render_ascii", "stair", "vertex_set"), "polyomino"),
    **dict.fromkeys(("ConeRep", "contains", "edge_vector", "facet_check", "in_relint",
                     "is_extreme_generator", "stair_cone", "stair_normals",
                     "verify_h_representation"), "cone"),
    **dict.fromkeys(("CanonicalGenerator", "cm_type_stair", "hilbert_function",
                     "hilbert_numerator", "minimal_generators_search", "stair_generators",
                     "top_turn_count"), "canonical"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        # importing a submodule binds it here as well
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
