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
(:class:`~repro.queries.evaluate.DivisionPlan`) and carries the plan
across relax rounds; its frontier is an array of frame node numbers.
``relaxState`` has one form, a *replay* of the state's level script:
each round adds that level's values left to right, bumps the counters
scoring the frontier would, and is still pushed once, so tied complete
states pop in the order they completed.  A state gets its script at its
first relax — every frontier its remaining rounds reach, scored in one
filter pass and one probe call
(:func:`~repro.queries.evaluate.score_frontier`) — or, warm, from its
walk record, which keeps the script for later states.  Exact distance
work is counted when scored, so only a state left incomplete when the
top k is found scores more than a round-by-round walk would.

Because ``fserve`` never increases under relaxation (exact scores replace
their own upper bounds, pruned children vanish), the first k completed
pops are exactly the top-k — the early-termination argument of the paper.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.service import ServiceSpec, in_order_sum
from ..core.trajectory import FacilityRoute, require_candidates, require_positive_int
from ..index.entries import SubBounds
from ..index.frame import TreeFrame
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .evaluate import DivisionPlan, QueryStats, needs_ancestor_scan, score_frontier, walk_plan

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


#: One relax round of a scripted state: its frontier and ``hserve``, then
#: what scoring the frontier adds (the listed values in frontier order).
_Level = namedtuple("_Level", "frontier hserve considered hits scored values")

#: The counters of exact distance work, which a state counts when it
#: scores its walk rather than round by round.
_PROBE_FIELDS = ("points_scanned", "distance_evals", "cells_probed")


@dataclass
class _State:
    """Exploration state ``S`` of Algorithm 3: the facility's division
    plan (made once, carried across relax rounds), its anchor path, the
    frontier as frame node numbers and, once it has one, its level script
    from its level on — ``warm`` if the script is its walk record's."""

    facility: FacilityRoute
    plan: DivisionPlan
    path: np.ndarray
    frontier: np.ndarray
    aserve: float
    hserve: float
    script: Optional[List[_Level]] = None
    warm: bool = False

    @property
    def fserve(self) -> float:
        return self.aserve + self.hserve

    @property
    def complete(self) -> bool:
        return not self.frontier.size


def _expand(
    frame: TreeFrame, plan: DivisionPlan, frontier: np.ndarray, spec: ServiceSpec
) -> Tuple[np.ndarray, float]:
    """The plan's reached children of ``frontier`` and their ``hserve``."""
    kids = frame.children[frontier].ravel()
    kids = kids[kids >= 0]
    kids = kids[plan.visited[kids]]
    return kids, in_order_sum(frame.sub[kids, SubBounds.column_for(spec)])


def _score_walk(
    tree: TQTree,
    state: _State,
    spec: ServiceSpec,
    stats: QueryStats,
    runtime: Optional[QueryRuntime],
) -> List[_Level]:
    """``state``'s level script: every frontier its rounds reach
    (by :func:`_expand`, probing nothing) scored in one
    :func:`~repro.queries.evaluate.score_frontier` call, whose exact
    distance work is counted here.  A level's ``hits`` are the values the
    walk record already knew; the record keeps the script with the
    anchor path, every value a hit, for later states to replay warm."""
    frame = tree.frame()
    rounds = [(state.frontier, state.hserve)]
    while rounds[-1][0].size:
        rounds.append(_expand(frame, state.plan, rounds[-1][0], spec))
    nodes = np.concatenate([frontier for frontier, _ in rounds])
    work = QueryStats()
    scores = score_frontier(tree, state.plan, nodes, spec, None, work, runtime)
    for name in _PROBE_FIELDS:
        setattr(stats, name, getattr(stats, name) + getattr(work, name))
    levels, end = [], 0
    for frontier, hserve in rounds:
        n_own = frame.n_own[frontier]
        part = np.arange(end, end + frontier.size)[n_own > 0]
        end += frontier.size
        levels.append(_Level(
            frontier, hserve, int(n_own.sum()), int(np.count_nonzero(scores.cached[part])),
            int(scores.counts[part].sum()), scores.values[part].tolist(),
        ))
    if state.plan.record is not None:
        kept = [level._replace(hits=len(level.values)) for level in levels]
        rows = state.path.size + nodes.size
        column = (spec.model, spec.normalize)
        runtime.cache.store_script(state.plan.record, column, (state.path, kept), rows)
    return levels


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

    A state whose walk record holds a level script starts warm on it.
    """
    plan = walk_plan(tree, facility, spec.psi, runtime)
    frame, record = tree.frame(), plan.record
    script = record and record.scripts.get((spec.model, spec.normalize))
    path, levels = script or (frame.path(tree.containing_qnode(facility.embr(spec.psi))), None)
    aserve = 0.0
    if path.size > 1 and needs_ancestor_scan(spec, tree.config.variant):
        scan = score_frontier(tree, plan, path[:0:-1], spec, None, stats, runtime)
        for value in scan.values.tolist():
            aserve += value
    if levels is not None:
        return _State(facility, plan, path, levels[0].frontier, aserve, levels[0].hserve, levels, True)
    frontier = path[:1] if plan.served[path[0]] else path[:0]
    hserve = float(frame.sub[path[0], SubBounds.column_for(spec)]) if frontier.size else 0.0
    return _State(facility, plan, path, frontier, aserve, hserve)


def _relax_state(
    tree: TQTree,
    state: _State,
    spec: ServiceSpec,
    stats: QueryStats,
    runtime: Optional[QueryRuntime] = None,
) -> _State:
    """Algorithm 4: expand every frontier node one level, replayed from
    the state's level script — the level's values added left to right
    and its counters bumped exactly as scoring the frontier would.  A
    state with no script gets one at its first relax: its whole
    remaining walk scored in one filter pass and one probe call
    (:func:`_score_walk`)."""
    script = state.script
    if script is None:
        script = _score_walk(tree, state, spec, stats, runtime)
    level, after = script[:2]
    stats.states_relaxed += 1
    stats.nodes_visited += level.frontier.size
    stats.entries_considered += level.considered
    stats.cache_hits += level.hits
    stats.entries_scored += level.scored
    if state.warm:
        runtime.cache.hits += level.hits
    aserve = state.aserve
    for value in level.values:
        aserve += value
    return _State(
        state.facility, state.plan, state.path, after.frontier, aserve, after.hserve,
        script[1:], state.warm,
    )


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
    require_positive_int("k", k)
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
    distance work rides its backend without changing the ranking, and
    the query's work counters accrue into its total.

    Early termination (Section IV-B): every state's ``aserve`` is a lower
    bound on its final service, so the k-th largest ``aserve`` seen so far
    is a global threshold — a state whose upper bound ``fserve`` falls
    strictly below it can never enter the top-k and is dropped instead of
    being relaxed further.

    A thin synchronous wrapper over :func:`top_k_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``KMaxRRSTRequest``'s validation: an empty candidate
    set, or one naming a facility id twice, is a malformed query.
    """
    require_candidates(facilities)
    runtime = coerce_runtime(runtime)
    result = top_k_core(tree, facilities, k, spec, runtime)
    if runtime is not None:
        runtime.accrue(result.stats)
    return result
