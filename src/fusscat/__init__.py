"""Exact enumeration around generalized Fuss-Catalan numbers: bounded
lattice paths, staircase polyominoes, their toric exponent cones, and
canonical-module data."""

from .caps import DEFAULT_MAX_VOLUME, SearchCapExceeded
from .exactmat import Matrix, binomial, det_exact, fuss_catalan, rank_exact
from .brackets import check_symmetry, enumerate_A, gfc
from .paths import (
    HeightBounds,
    count_paths_det,
    count_paths_dp,
    enumerate_height_sequences,
    staircase_bounds,
)
from .polyomino import (
    Polyomino,
    StairSpec,
    inner_intervals,
    is_convex,
    krull_dim,
    render_ascii,
    stair,
    vertex_set,
)
from .cone import (
    ConeRep,
    contains,
    edge_vector,
    facet_check,
    in_relint,
    is_extreme_generator,
    stair_cone,
    stair_normals,
    verify_h_representation,
)
from .canonical import (
    CanonicalGenerator,
    cm_type_stair,
    hilbert_function,
    hilbert_numerator,
    minimal_generators_search,
    stair_generators,
    top_turn_count,
)

__version__ = "0.1.0"
