"""Structure-aware clustering coefficients and driving scores for two-mode networks.

The pipeline: build a :class:`BipartiteGraph`, run :func:`census` to
count 4-paths and their 5-node configurations with closures, derive the
four clustering coefficients with :func:`global_profile` and
:func:`local_profile`, compare against random replicas via
:func:`run_ensemble`, and rank nodes with :func:`classify`.
"""

__version__ = "0.1.0"

from .census import (
    CensusTooLarge,
    CensusTotals,
    MotifCensus,
    OpsahlStats,
    census,
    census_totals,
    opsahl,
)
from .coefficients import (
    SEMANTICS,
    ClusteringProfile,
    InvalidNode,
    format_value,
    global_profile,
    local_profile,
)
from .errors import BimotifError
from .graph import (
    BipartiteGraph,
    BipartiteViolation,
    DimensionMismatch,
    EmptyInput,
    MalformedInput,
    NonBinaryEntry,
    Side,
    detect_format,
    from_biadjacency,
    from_edge_list,
    from_indexed_edges,
    load_biadjacency,
    load_edge_list,
    load_graph,
    load_southern_women,
)
from .null_model import (
    NULL_MODELS,
    ClassStats,
    EnsembleConfig,
    EnsembleStats,
    InvalidConfig,
    density_rewire,
    randomize,
    replica_seed,
    run_ensemble,
)
from .scoring import (
    AllUndefined,
    CIBand,
    DegenerateMidpoint,
    DrivingScoreReport,
    MissingCI,
    NodeScore,
    classify,
    direction_of,
    ds_global,
    ds_node,
    f_component,
    g_component,
    load_ci_bands,
)

__all__ = [
    "__version__",
    "BimotifError",
    "Side",
    "BipartiteGraph",
    "from_edge_list",
    "from_biadjacency",
    "from_indexed_edges",
    "load_edge_list",
    "load_biadjacency",
    "load_graph",
    "load_southern_women",
    "detect_format",
    "EmptyInput",
    "BipartiteViolation",
    "NonBinaryEntry",
    "DimensionMismatch",
    "MalformedInput",
    "MotifCensus",
    "OpsahlStats",
    "CensusTotals",
    "census",
    "census_totals",
    "opsahl",
    "CensusTooLarge",
    "SEMANTICS",
    "ClusteringProfile",
    "global_profile",
    "local_profile",
    "format_value",
    "InvalidNode",
    "NULL_MODELS",
    "EnsembleConfig",
    "EnsembleStats",
    "ClassStats",
    "randomize",
    "density_rewire",
    "run_ensemble",
    "replica_seed",
    "InvalidConfig",
    "CIBand",
    "NodeScore",
    "DrivingScoreReport",
    "g_component",
    "f_component",
    "ds_global",
    "ds_node",
    "direction_of",
    "classify",
    "load_ci_bands",
    "AllUndefined",
    "DegenerateMidpoint",
    "MissingCI",
]
