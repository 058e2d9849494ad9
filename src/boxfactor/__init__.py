"""Prime factorization of directed graphs with loops under the Cartesian product.

The pipeline: factor the undirected shadow, repair the coloring against arc
directions with one BFS-ordered scan, then repair it against loops with a
second scan. `factor_full` runs all of it; the pieces are exposed for
callers that already hold intermediate results.
"""

from .core import (
    BfsOrder,
    DiGraph,
    ShadowGraph,
    bfs,
    is_connected,
    parse_coords,
    parse_graph,
    shadow,
    strip_loops,
    to_text,
)
from .directed_factor import DirectedFactorization, factor_directed
from .errors import (
    DisconnectedGraphError,
    FactorizationError,
    GraphFormatError,
    NoUnloopedVertexError,
    OracleBoundError,
)
from .loop_factor import factor_full, factor_with_loops
from .oracle import (
    brute_force_prime,
    gen_product_instance,
    reconstruct_check,
    reconstruct_check_parts,
)
from .product import (
    ColorPartition,
    Coordinatization,
    CoordVector,
    cartesian_product,
    group_coordinates,
    product_graph,
    unit_layer,
)
from .shadow_factor import (
    ShadowFactorization,
    coordinates_from_colors,
    factor_shadow,
)

__version__ = "0.1.0"

__all__ = [
    "BfsOrder",
    "ColorPartition",
    "CoordVector",
    "Coordinatization",
    "DiGraph",
    "DirectedFactorization",
    "DisconnectedGraphError",
    "FactorizationError",
    "GraphFormatError",
    "NoUnloopedVertexError",
    "OracleBoundError",
    "ShadowFactorization",
    "ShadowGraph",
    "bfs",
    "brute_force_prime",
    "cartesian_product",
    "coordinates_from_colors",
    "factor_directed",
    "factor_full",
    "factor_shadow",
    "factor_with_loops",
    "gen_product_instance",
    "group_coordinates",
    "is_connected",
    "parse_coords",
    "parse_graph",
    "product_graph",
    "reconstruct_check",
    "reconstruct_check_parts",
    "shadow",
    "strip_loops",
    "to_text",
    "unit_layer",
]
