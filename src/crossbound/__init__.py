"""crossbound: crossing-number and skewness toolkit.

Light-cycle search, dual-path edge routing into planar embeddings, exact
skewness and crossing-number oracles at desk scale, and certification of
closed-form crossing-number bounds for crossing-critical graphs.
"""

from .bounds import (
    BoundReport,
    certify_critical_bounds,
    critical_cycle_bound,
    critical_degree_bound,
    is_k_crossing_critical,
    skewness_crossing_bound,
    verify_degree_reciprocal_bounds,
)
from .embedding import (
    FaceRecord,
    RotationEmbedding,
    dual,
    embed,
    is_planar,
    kuratowski_witness,
    triangulate,
)
from .errors import (
    BudgetExceededError,
    CrossboundError,
    DuplicateEdgeError,
    GraphFormatError,
    MissingEdgeError,
    NonPlanarError,
    NotACycleError,
    NotCriticalError,
)
from .graph import (
    Graph,
    contract_edges,
    delete_edge,
    delete_edges,
    min_degree,
    parse_graph,
    serialize_graph,
)
from .lightcycle import (
    CycleWitness,
    brute_force_min_mu,
    light_cycle_general,
    light_cycle_planar,
    mu,
)
from .oracle import CrossingConfig, cr_at_most, crossing_number
from .router import (
    EdgeRoute,
    PlanarizationDrawing,
    build_drawing,
    insert_edge,
    render,
    strip_routes,
)
from .skewness import (
    SkewnessCertificate,
    planar_subgraph_heuristic,
    skewness_exact,
    skewness_lower_bound,
)

__version__ = "0.1.0"
