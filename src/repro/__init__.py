"""repro — reproduction of *The Maximum Trajectory Coverage Query in
Spatial Databases* (Ali et al., VLDB 2018).

The library implements the paper's TQ-tree index and both query types it
introduces, plus every baseline and dataset substitute needed to re-run
the paper's evaluation:

* **TQ-tree** (:class:`repro.index.TQTree`) — a quadtree that stores
  trajectories at *every* level (inter-node entries in internal nodes,
  intra-node entries in leaves) with z-ordered bucket lists per node.
* **kMaxRRST** (:func:`repro.queries.top_k_facilities`) — the k
  facilities with maximum total service to the user trajectories.
* **MaxkCovRST** (:func:`repro.queries.maxkcov_tq` and friends) — the
  size-k facility subset maximising *combined* coverage (NP-hard,
  non-submodular; solved greedily, genetically, or exactly).

Quickstart::

    from repro import (
        CityModel, generate_taxi_trips, generate_bus_routes,
        build_tq_zorder, ServiceSpec, ServiceModel, top_k_facilities,
    )

    city = CityModel.generate(seed=7)
    users = generate_taxi_trips(10_000, city, seed=1)
    buses = generate_bus_routes(64, city, seed=2, n_stops=32)

    tree = build_tq_zorder(users)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=300.0)
    result = top_k_facilities(tree, buses, k=4, spec=spec)
    for fs in result.ranking:
        print(fs.facility.facility_id, fs.service)
"""

from .core import (
    BBox,
    CoverageState,
    FacilityRoute,
    IndexVariant,
    MatchSet,
    Point,
    ProximityBackend,
    QueryStats,
    ServiceModel,
    ServiceSpec,
    StopSet,
    TQTreeConfig,
    Trajectory,
    UserPointTable,
    ZID,
    brute_force_combined_service,
    brute_force_matches,
    brute_force_service,
    score_trajectory,
)
from .engine import (
    BatchQueryEngine,
    BatchResult,
    CellstringIndex,
    CellstringStopSet,
    CoverageCache,
    GriddedStopSet,
    ShardedStopGrid,
    ShardStore,
    build_cellstring_index,
)
from .runtime import (
    SHARDS_AUTO,
    QueryRuntime,
    RuntimeConfig,
    auto_shard_count,
)
from .core.errors import (
    DatasetError,
    GeometryError,
    IndexError_,
    QueryError,
    ReproError,
    TrajectoryError,
)
from .datasets import (
    CityModel,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_gps_traces,
    generate_taxi_trips,
    load_facilities,
    load_trajectories,
    save_facilities,
    save_trajectories,
)
from .index import (
    PointQuadtree,
    TQTree,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    segment_dataset,
    storage_report,
)
from .queries import (
    BaselineIndex,
    GeneticConfig,
    KMaxRRSTResult,
    MaxKCovResult,
    approximation_ratio,
    evaluate_service,
    exact_max_k_coverage,
    genetic_max_k_coverage,
    greedy_max_k_coverage,
    maxkcov_baseline,
    maxkcov_tq,
    top_k_facilities,
)
from .service import (
    Catalog,
    EvaluateRequest,
    ExactMaxKCovRequest,
    GeneticMaxKCovRequest,
    HttpQueryServer,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryResult,
    QueryService,
    ServeClient,
    ServiceConfig,
    ServiceOverloaded,
    ServiceStats,
    build_demo_catalog,
    catalog_from_spec,
)
from .core.config import HttpConfig
from .core.errors import CatalogError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core types
    "Point",
    "BBox",
    "ZID",
    "Trajectory",
    "FacilityRoute",
    "ServiceModel",
    "ServiceSpec",
    "StopSet",
    "CoverageState",
    "MatchSet",
    "UserPointTable",
    "IndexVariant",
    "ProximityBackend",
    "QueryStats",
    "TQTreeConfig",
    # proximity engine
    "GriddedStopSet",
    "CoverageCache",
    "BatchQueryEngine",
    "BatchResult",
    "ShardedStopGrid",
    "ShardStore",
    "CellstringIndex",
    "CellstringStopSet",
    "build_cellstring_index",
    # execution runtime
    "QueryRuntime",
    "RuntimeConfig",
    "SHARDS_AUTO",
    "auto_shard_count",
    # serving layer
    "QueryService",
    "ServiceConfig",
    "ServiceStats",
    "ServiceOverloaded",
    "QueryResult",
    "EvaluateRequest",
    "KMaxRRSTRequest",
    "MaxKCovRequest",
    "ExactMaxKCovRequest",
    "GeneticMaxKCovRequest",
    # HTTP serving front
    "HttpConfig",
    "HttpQueryServer",
    "Catalog",
    "CatalogError",
    "ServeClient",
    "build_demo_catalog",
    "catalog_from_spec",
    # oracles
    "score_trajectory",
    "brute_force_service",
    "brute_force_matches",
    "brute_force_combined_service",
    # indexes
    "TQTree",
    "PointQuadtree",
    "build_tq_zorder",
    "build_tq_basic",
    "build_segmented",
    "build_full",
    "segment_dataset",
    "storage_report",
    # queries
    "evaluate_service",
    "top_k_facilities",
    "KMaxRRSTResult",
    "BaselineIndex",
    "MaxKCovResult",
    "greedy_max_k_coverage",
    "maxkcov_tq",
    "maxkcov_baseline",
    "GeneticConfig",
    "genetic_max_k_coverage",
    "exact_max_k_coverage",
    "approximation_ratio",
    # datasets
    "CityModel",
    "generate_taxi_trips",
    "generate_checkin_trajectories",
    "generate_gps_traces",
    "generate_bus_routes",
    "save_trajectories",
    "load_trajectories",
    "save_facilities",
    "load_facilities",
    # errors
    "ReproError",
    "GeometryError",
    "TrajectoryError",
    "IndexError_",
    "QueryError",
    "DatasetError",
]
