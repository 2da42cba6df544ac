"""Unified query execution layer.

This package sits between the proximity engine (:mod:`repro.engine`) and
the query algorithms (:mod:`repro.queries`): the engine provides the
mechanisms (grids, shards, caches, batch evaluation) and the runtime
provides the context — one :class:`QueryRuntime` object that decides
which mechanism each stop set rides, shares the coverage cache and shard
store across queries, and accrues work counters into a service-level
total.  Every probe runs on the thread that asked for it.

Layering: ``core`` → ``engine`` → ``runtime`` → ``queries`` →
``service``.  The engine never imports the runtime (``BatchQueryEngine``
accepts a runtime object duck-typed); the query layer accepts
``runtime=`` everywhere (:func:`coerce_runtime` is its type check); the
asyncio serving layer (:mod:`repro.service`) shares one runtime across
every in-flight request.
"""

from ..core.config import (
    SHARDS_AUTO,
    RuntimeConfig,
    auto_shard_count,
    resolve_shard_count,
)
from .runtime import QueryRuntime, coerce_runtime

__all__ = [
    "QueryRuntime",
    "RuntimeConfig",
    "SHARDS_AUTO",
    "auto_shard_count",
    "resolve_shard_count",
    "coerce_runtime",
]
