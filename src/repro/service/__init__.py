"""The request/plan/service layer: asyncio serving over QueryRuntime.

This package is the top of the execution stack (``core`` → ``engine``
→ ``runtime`` → ``queries`` → ``service``): requests are pure data
(:mod:`~repro.service.requests`), the planner lowers them onto the
query layer's pure cores and derives their shareable probe units
(:mod:`~repro.service.planner`), and the service schedules them —
coalescing probe work across in-flight requests through the shared
runtime, bounding concurrency and queue depth
(:mod:`~repro.service.service`).  On top sits the network story: the
stdlib HTTP front (:mod:`~repro.service.http`) with its JSON wire
schema, named resource catalog, and the ``python -m repro.serve`` CLI.

One execution substrate, two entrypoints: the synchronous query
functions and the async service both run the same query cores, so the
service's answers and per-request stats are bit-identical to direct
calls by construction — which ``tests/test_query_service.py`` enforces
with ``==`` on the inline and the fan-out probe path.
"""

from ..core.config import ServiceConfig
from ..core.errors import ServiceOverloaded
from .planner import ProbeUnit, QueryPlan, QueryPlanner
from .requests import (
    EvaluateRequest,
    ExactMaxKCovRequest,
    GeneticMaxKCovRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryRequest,
    QueryResult,
)
from .service import QueryService, ServiceStats
from .http import (
    BackgroundServer,
    Catalog,
    HttpQueryServer,
    ServeClient,
    background_server,
    build_demo_catalog,
    catalog_from_spec,
)

__all__ = [
    "QueryService",
    "Catalog",
    "HttpQueryServer",
    "BackgroundServer",
    "background_server",
    "build_demo_catalog",
    "catalog_from_spec",
    "ServeClient",
    "ServiceConfig",
    "ServiceStats",
    "ServiceOverloaded",
    "QueryPlanner",
    "QueryPlan",
    "ProbeUnit",
    "QueryRequest",
    "QueryResult",
    "EvaluateRequest",
    "KMaxRRSTRequest",
    "MaxKCovRequest",
    "ExactMaxKCovRequest",
    "GeneticMaxKCovRequest",
]
