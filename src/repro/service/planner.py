"""Lowering requests into probe-level work units and executable plans.

:class:`QueryPlanner` turns each :class:`~repro.service.requests
.QueryRequest` into a :class:`QueryPlan` with two parts:

* **probe units** — hashable descriptors of the geometric work the
  request will perform.  A unit names one facility's coverage walk in
  one mode: ``(tree, facility_id, psi, service model, collecting?)``;
  a collecting (match-set) walk serves every model at ``psi``, so its
  unit names none.
  The service only counts them (``ServiceStats.probe_units_planned``
  and ``probe_units_batched``); it schedules nothing by them.
* **an execute step** — the public call a library user makes for the
  request (:func:`~repro.queries.evaluate.evaluate_service`, plus a
  :func:`~repro.queries.maxkcov.tq_match_fn` walk for a request that
  collects matches, :func:`~repro.queries.kmaxrrst.top_k_facilities`,
  :func:`~repro.queries.maxkcov.maxkcov_tq`), so a service answer and
  its per-request stats are those of the direct call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Tuple

from ..core.errors import QueryError
from ..core.stats import QueryStats
from ..queries import evaluate_service, maxkcov_tq, top_k_facilities, tq_match_fn
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
#: ``(id(tree), facility_id, psi, model value or None, collecting?)``.
ProbeUnit = Tuple[int, int, float, Optional[str], bool]


@dataclass(frozen=True)
class QueryPlan:
    """A lowered request: its probe units plus the call to run.

    The plan pins the request (and through it the tree), so the
    ``id(tree)`` component of its units cannot be recycled while the
    plan is alive.  ``execute`` runs the request's query call against a
    runtime — which accrues the query's counters into the runtime's
    total — and returns the finished :class:`QueryResult`, whose
    ``stats`` are that one request's counters.
    """

    request: QueryRequest
    units: FrozenSet[ProbeUnit]
    execute: Callable[[QueryRuntime], QueryResult]


def _unit(tree, facility_id: int, psi: float, model, collecting: bool) -> ProbeUnit:
    named = None if collecting else model.value
    return (id(tree), int(facility_id), float(psi), named, collecting)


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
            stats = QueryStats()
            value = evaluate_service(req.tree, req.facility, spec, stats, runtime)
            matches = None
            if req.collect_matches:
                walk = tq_match_fn(req.tree, spec, runtime, stats)
                matches = walk(req.facility).as_dict()
            return QueryResult(req, value, stats, matches)

        return QueryPlan(req, units, execute)

    def _plan_kmaxrrst(self, req: KMaxRRSTRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            _unit(req.tree, f.facility_id, spec.psi, spec.model, False)
            for f in req.facilities
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            result = top_k_facilities(req.tree, req.facilities, req.k, spec, runtime)
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
            stats = QueryStats()
            result = maxkcov_tq(
                req.tree, req.facilities, req.k, spec, req.prune_factor,
                runtime, stats=stats,
            )
            return QueryResult(req, result, stats)

        return QueryPlan(req, units, execute)
