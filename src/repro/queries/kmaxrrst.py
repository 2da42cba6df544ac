"""The kMaxRRST query: best-first top-k facilities (paper Section IV-B).

Implements Algorithms 3 (``TopKFacilities``) and 4 (``relaxState``).  Each
candidate facility carries an exploration *state*: the frontier of
q-nodes still to be expanded, the exact service accumulated so far
(``aserve``), and the optimistic bound for the unexplored frontier
(``hserve``, the sum of the frontier nodes' ``sub``).  A max-priority
queue on ``fserve = aserve + hserve`` drives exploration; a state that
pops with an empty frontier is *complete* and its ``aserve`` is its
exact service value.

A state divides its facility over the tree once
(:class:`~repro.queries.components.DivisionPlan`) and carries the plan
across relax rounds: the frontier is an array of frame node numbers,
``relaxState`` scores all of it in one filter pass and one probe call
(:func:`~repro.queries.evaluate.score_frontier`), and the next frontier
is the plan's reached children — no per-node component objects.

Because ``fserve`` never increases under relaxation (exact scores replace
their own upper bounds, pruned children vanish), the first k completed
pops are exactly the top-k — the early-termination argument of the paper.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import QueryError
from ..core.service import ServiceSpec, in_order_sum
from ..core.trajectory import FacilityRoute
from ..index.entries import SubBounds
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .components import DivisionPlan
from .evaluate import QueryStats, needs_ancestor_scan, score_frontier, walk_plan

__all__ = ["FacilityScore", "KMaxRRSTResult", "top_k_core", "top_k_facilities"]


@dataclass(frozen=True)
class FacilityScore:
    """One ranked answer: a facility and its exact service value."""

    facility: FacilityRoute
    service: float


@dataclass(frozen=True)
class KMaxRRSTResult:
    """The top-k answer plus work counters."""

    ranking: Tuple[FacilityScore, ...]
    stats: QueryStats

    def facilities(self) -> Tuple[FacilityRoute, ...]:
        return tuple(fs.facility for fs in self.ranking)

    def services(self) -> Tuple[float, ...]:
        return tuple(fs.service for fs in self.ranking)


@dataclass
class _State:
    """Exploration state ``S`` of Algorithm 3: the facility's division
    plan (made once, carried across relax rounds) and the frontier as
    frame node numbers."""

    facility: FacilityRoute
    plan: DivisionPlan
    frontier: np.ndarray
    aserve: float
    hserve: float

    @property
    def fserve(self) -> float:
        return self.aserve + self.hserve

    @property
    def complete(self) -> bool:
        return not self.frontier.size


def _initial_state(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    stats: QueryStats,
    runtime: Optional[QueryRuntime] = None,
) -> _State:
    """Lines 3.3–3.8 of Algorithm 3, with the ancestor correction.

    The paper anchors the state at ``containingQNode(f)``: the node the
    serving envelope would be stored at by the routing rule of build and
    insert, so every entry lying inside the envelope is in its subtree.
    Entries stored at that node's *ancestors* can still score under
    partial-service models (a long inter-node trajectory may have
    interior points inside the serving envelope), so those ancestor
    lists — at most tree-height many — are evaluated exactly into
    ``aserve`` up front, as one frontier, root first.
    """
    plan = walk_plan(tree, facility, spec.psi, runtime)
    frame = tree.frame()
    path = frame.path(tree.containing_qnode(facility.embr(spec.psi)))
    aserve = 0.0
    if path.size > 1 and needs_ancestor_scan(spec, tree.config.variant):
        for value in score_frontier(tree, plan, path[:0:-1], spec, None, stats, runtime):
            aserve += value
    frontier = path[:1]
    if not plan.member[frontier[0]].any():
        return _State(facility, plan, frontier[:0], aserve, 0.0)
    hserve = float(frame.sub[frontier[0], SubBounds.column_for(spec)])
    return _State(facility, plan, frontier, aserve, hserve)


def _relax_state(
    tree: TQTree,
    state: _State,
    spec: ServiceSpec,
    stats: QueryStats,
    runtime: Optional[QueryRuntime] = None,
) -> _State:
    """Algorithm 4: expand every frontier node one level — the whole
    frontier scored in one filter pass and one probe call."""
    stats.states_relaxed += 1
    stats.nodes_visited += state.frontier.size
    aserve = state.aserve
    for value in score_frontier(
        tree, state.plan, state.frontier, spec, None, stats, runtime
    ):
        aserve += value
    frame = tree.frame()
    kids = frame.children[state.frontier].ravel()
    kids = kids[kids >= 0]
    kids = kids[state.plan.visited[kids]]
    hserve = in_order_sum(frame.sub[kids, SubBounds.column_for(spec)])
    return _State(state.facility, state.plan, kids, aserve, hserve)


def top_k_core(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> KMaxRRSTResult:
    """The pure step behind :func:`top_k_facilities`: Algorithms 3/4
    with early termination, returning the ranking plus this query's own
    work counters — no accrual into any shared total.

    Planner-consumable: :class:`repro.service.QueryPlanner` lowers a
    ``KMaxRRSTRequest`` onto this directly; the synchronous
    :func:`top_k_facilities` wrapper adds runtime coercion and accrual.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    tree.validate_spec(spec)
    stats = QueryStats()
    counter = itertools.count()
    k = min(k, len(facilities))

    # Best lower bound per *distinct* facility (a facility produces one
    # observation per relaxation; dedup keeps the threshold honest: the
    # k-th value must come from k different facilities).
    best_lower: Dict[int, float] = {}
    threshold_cache: List[Optional[float]] = [None]

    def observe_lower_bound(facility_id: int, value: float) -> None:
        if value > best_lower.get(facility_id, float("-inf")):
            best_lower[facility_id] = value
            threshold_cache[0] = None

    def threshold() -> float:
        if len(best_lower) < k:
            return float("-inf")
        if threshold_cache[0] is None:
            threshold_cache[0] = sorted(best_lower.values(), reverse=True)[k - 1]
        return threshold_cache[0]

    heap: List[Tuple[float, int, _State]] = []
    for facility in facilities:
        state = _initial_state(tree, facility, spec, stats, runtime)
        observe_lower_bound(facility.facility_id, state.aserve)
        heapq.heappush(heap, (-state.fserve, next(counter), state))

    ranking: List[FacilityScore] = []
    while heap and len(ranking) < k:
        _, _, state = heapq.heappop(heap)
        if state.complete:
            ranking.append(FacilityScore(state.facility, state.aserve))
            continue
        if state.fserve < threshold():
            stats.states_pruned += 1
            continue  # can never reach the top-k
        relaxed = _relax_state(tree, state, spec, stats, runtime)
        observe_lower_bound(state.facility.facility_id, relaxed.aserve)
        heapq.heappush(heap, (-relaxed.fserve, next(counter), relaxed))
    return KMaxRRSTResult(tuple(ranking), stats)


def top_k_facilities(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> KMaxRRSTResult:
    """Answer a kMaxRRST query: the k facilities with maximum ``SO(U, f)``.

    Returns the exact ranking (service values included) in descending
    order of service.  ``k`` larger than ``len(facilities)`` returns
    everything ranked.  ``runtime`` owns the probe path: the exact
    distance work rides its backend and thread pool without
    changing the ranking, and the query's work counters accrue into its
    total.

    Early termination (Section IV-B): every state's ``aserve`` is a lower
    bound on its final service, so the k-th largest ``aserve`` seen so far
    is a global threshold — a state whose upper bound ``fserve`` falls
    strictly below it can never enter the top-k and is dropped instead of
    being relaxed further.

    A thin synchronous wrapper over :func:`top_k_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``KMaxRRSTRequest``'s validation: an empty
    candidate set is a malformed query, not an empty ranking.
    """
    if not facilities:
        raise QueryError(
            "facilities must be non-empty: an empty candidate set has "
            "no ranking to return"
        )
    runtime = coerce_runtime(runtime)
    result = top_k_core(tree, facilities, k, spec, runtime)
    if runtime is not None:
        runtime.accrue(result.stats)
    return result
