"""The request/plan/service layer: asyncio serving over QueryRuntime.

This package is the top of the execution stack (``core`` → ``engine``
→ ``runtime`` → ``queries`` → ``service``): requests are pure data
(:mod:`~repro.service.requests`), the planner lowers them onto the
query layer's public calls and counts their probe units
(:mod:`~repro.service.planner`), and the service runs them in
submission order over one shared runtime, alone or in one batch group
(:mod:`~repro.service.service`).  On top sits the
network story: the stdlib HTTP front (:mod:`~repro.service.http`) with
its JSON wire schema, named resource catalog, and the ``python -m
repro.serve`` CLI.

The service runs the very calls a library user makes
(``evaluate_service``, ``top_k_facilities``, ``maxkcov_tq``), so its
answers and per-request stats are those of the direct calls — which
``tests/test_query_service.py`` checks with ``==``.
"""

from ..core.config import ServiceConfig
from ..core.errors import ServiceOverloaded
from .planner import ProbeUnit, QueryPlan, QueryPlanner
from .requests import (
    EvaluateRequest,
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
]
