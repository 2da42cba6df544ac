"""Lowering requests into probe-level work units and executable plans.

:class:`QueryPlanner` turns each :class:`~repro.service.requests
.QueryRequest` into a :class:`QueryPlan` with two parts:

* **probe units** — hashable descriptors of the geometric work the
  request will perform.  A unit names one facility's coverage walk in
  one mode: ``(tree, facility_id, psi, service model, collecting?)``.
  The service only counts them (``ServiceStats.probe_units_planned``
  and ``probe_units_batched``); it schedules nothing by them.
* **an execute step** — a call onto the request's query core
  (:func:`~repro.queries.evaluate.evaluate_core`, plus
  :func:`~repro.queries.evaluate.walk_matches` for a request that
  collects matches,
  :func:`~repro.queries.kmaxrrst.top_k_core`,
  :func:`~repro.queries.maxkcov.maxkcov_core`) — the *same* pure steps
  the synchronous functions wrap, which is why service answers and
  per-request stats are bit-identical to direct calls by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Tuple

from ..core.errors import QueryError
from ..queries.evaluate import evaluate_core, walk_matches
from ..queries.kmaxrrst import top_k_core
from ..queries.maxkcov import maxkcov_core
from ..runtime import QueryRuntime
from .requests import (
    EvaluateRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryRequest,
    QueryResult,
)

__all__ = ["ProbeUnit", "QueryPlan", "QueryPlanner"]

#: One unit of shareable probe work:
#: ``(id(tree), facility_id, psi, model value, collecting?)``.
ProbeUnit = Tuple[int, int, float, str, bool]


@dataclass(frozen=True)
class QueryPlan:
    """A lowered request: its probe units plus the core to run.

    The plan pins the request (and through it the tree), so the
    ``id(tree)`` component of its units cannot be recycled while the
    plan is alive.  ``execute`` runs the request's query core against a
    runtime and returns the finished :class:`QueryResult`; it is pure
    apart from the runtime's internal caches — no ambient stats
    accrual — so the service attributes its counters exactly, whether
    it runs alone or, under ``ServiceConfig.batch_window``, in a group.
    """

    request: QueryRequest
    units: FrozenSet[ProbeUnit]
    execute: Callable[[QueryRuntime], QueryResult]


def _unit(tree, facility_id: int, psi: float, model, collecting: bool) -> ProbeUnit:
    return (id(tree), int(facility_id), float(psi), model.value, collecting)


class QueryPlanner:
    """Stateless lowering of requests into :class:`QueryPlan` objects."""

    def plan(self, request: QueryRequest) -> QueryPlan:
        if isinstance(request, EvaluateRequest):
            return self._plan_evaluate(request)
        if isinstance(request, KMaxRRSTRequest):
            return self._plan_kmaxrrst(request)
        if isinstance(request, MaxKCovRequest):
            return self._plan_maxkcov(request)
        raise QueryError(
            f"unknown request type: {type(request).__name__} (expected one "
            "of the repro.service request dataclasses)"
        )

    # ------------------------------------------------------------------
    def _plan_evaluate(self, req: EvaluateRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            {_unit(req.tree, req.facility.facility_id, spec.psi, spec.model,
                   req.collect_matches)}
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            value, stats = evaluate_core(req.tree, req.facility, spec, runtime)
            matches = None
            if req.collect_matches:
                found, walked = walk_matches(req.tree, req.facility, spec.psi, runtime)
                stats.merge(walked)
                matches = found.as_dict()
            return QueryResult(req, value, stats, matches)

        return QueryPlan(req, units, execute)

    def _plan_kmaxrrst(self, req: KMaxRRSTRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            _unit(req.tree, f.facility_id, spec.psi, spec.model, False)
            for f in req.facilities
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            result = top_k_core(req.tree, req.facilities, req.k, spec, runtime)
            return QueryResult(req, result, result.stats)

        return QueryPlan(req, units, execute)

    def _plan_maxkcov(self, req: MaxKCovRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            _unit(req.tree, f.facility_id, spec.psi, spec.model, collecting)
            for f in req.facilities
            for collecting in (False, True)
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            result, stats = maxkcov_core(
                req.tree, req.facilities, req.k, spec, req.prune_factor,
                runtime,
            )
            return QueryResult(req, result, stats)

        return QueryPlan(req, units, execute)
