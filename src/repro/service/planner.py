"""Lowering requests into probe-level work units and executable plans.

:class:`QueryPlanner` turns each :class:`~repro.service.requests
.QueryRequest` into a :class:`QueryPlan` with two parts:

* **probe units** — hashable descriptors of the shareable geometric
  work the request will perform.  A unit names one facility's coverage
  walk in one mode: ``(tree, facility_id, psi, service model,
  collecting?)``.  That granularity matches the runtime's coverage
  cache exactly — Algorithm 2 memoises per ``(facility, q-node, psi,
  mode)``, and match sets memoise per ``(tree, spec, facility)`` — so
  two requests share cached probe work *iff* they share a unit.  The
  service uses unit overlap for cross-request coalescing: overlapping
  requests execute in submission order (the later one's probes are
  served from the earlier one's masks), disjoint requests run
  concurrently.
* **an execute step** — a call onto the request's query core
  (:func:`~repro.queries.evaluate.evaluate_core`,
  :func:`~repro.queries.kmaxrrst.top_k_core`,
  :func:`~repro.queries.maxkcov.maxkcov_core`,
  :func:`~repro.queries.exact.exact_core`,
  :func:`~repro.queries.genetic.genetic_core`) — the *same* pure steps
  the synchronous functions wrap, which is why service answers and
  per-request stats are bit-identical to direct calls by construction.

Units deliberately over-approximate where the exact work set is only
known at run time: a MaxkCov request claims collecting units for every
candidate facility although only the shortlist's match sets are
computed, and units ignore ``ServiceSpec.normalize`` although match
sets key on the full spec.  Over-approximation costs only scheduling
parallelism (requests serialise that could have overlapped), never
correctness — an under-approximation would let two requests race on
one cache entry, which is the thing the ordering exists to rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Tuple

from ..core.errors import QueryError
from ..core.stats import QueryStats
from ..queries.evaluate import MatchCollector, evaluate_core
from ..queries.exact import exact_core
from ..queries.genetic import genetic_core
from ..queries.kmaxrrst import top_k_core
from ..queries.maxkcov import core_match_fn, maxkcov_core
from ..runtime import QueryRuntime
from .requests import (
    EvaluateRequest,
    ExactMaxKCovRequest,
    GeneticMaxKCovRequest,
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
    accrual — so the service can run it on any thread and attribute its
    counters exactly — one at a time or, under
    ``ServiceConfig.batch_window``, a group of evaluate plans back to
    back.
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
        if isinstance(request, ExactMaxKCovRequest):
            return self._plan_exact(request)
        if isinstance(request, GeneticMaxKCovRequest):
            return self._plan_genetic(request)
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
            collector = MatchCollector() if req.collect_matches else None
            value, stats = evaluate_core(
                req.tree, req.facility, spec, collector, runtime
            )
            matches = collector.as_dict() if collector is not None else None
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

    def _plan_exact(self, req: ExactMaxKCovRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            _unit(req.tree, f.facility_id, spec.psi, spec.model, True)
            for f in req.facilities
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            acc = QueryStats()
            match_fn = core_match_fn(req.tree, spec, runtime, acc)
            result = exact_core(
                req.tree.table, req.facilities, req.k, spec, match_fn, runtime
            )
            return QueryResult(req, result, acc)

        return QueryPlan(req, units, execute)

    def _plan_genetic(self, req: GeneticMaxKCovRequest) -> QueryPlan:
        spec = req.spec
        units = frozenset(
            _unit(req.tree, f.facility_id, spec.psi, spec.model, True)
            for f in req.facilities
        )

        def execute(runtime: QueryRuntime) -> QueryResult:
            acc = QueryStats()
            match_fn = core_match_fn(req.tree, spec, runtime, acc)
            result = genetic_core(
                req.tree.table, req.facilities, req.k, spec, match_fn,
                req.config, runtime,
            )
            return QueryResult(req, result, acc)

        return QueryPlan(req, units, execute)
