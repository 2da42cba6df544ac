"""The kMaxRRST query: the k facilities of highest service (paper
Section IV-B).

The paper answers it best-first (Algorithms 3 and 4): a state per
candidate, popped from a max-heap on its exact service so far plus the
``sub`` bound of its unexplored q-nodes, with early termination once k
states complete.  Here every candidate is evaluated once
(:func:`~repro.queries.evaluate.evaluate_core`) and the values are
sorted: every walk is scored in one stacked pass, so a state's first
relax already paid for its whole walk, and no ``sub`` bound fell below
the k-th value on any measured workload — the best-first form pruned
nothing and trailed the sort (DESIGN.md §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.service import ServiceSpec
from ..core.trajectory import FacilityRoute, require_candidates, require_positive_int
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .evaluate import QueryStats, evaluate_core

__all__ = ["FacilityScore", "KMaxRRSTResult", "ranked", "top_k_core", "top_k_facilities"]


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


def ranked(scores: Sequence[FacilityScore], k: int) -> Tuple[FacilityScore, ...]:
    """The first ``k`` of ``scores`` by descending service, exact ties
    by lowest facility id."""
    order = sorted(scores, key=lambda fs: (-fs.service, fs.facility.facility_id))
    return tuple(order[:k])


def top_k_core(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> KMaxRRSTResult:
    """The pure step behind :func:`top_k_facilities`: one
    :func:`~repro.queries.evaluate.evaluate_core` per candidate, ranked
    (:func:`ranked`), returning the ranking plus this query's own work
    counters — the candidates' evaluates summed, no accrual into any
    shared total.

    Planner-consumable: :class:`repro.service.QueryPlanner` lowers a
    ``KMaxRRSTRequest`` onto this directly; the synchronous
    :func:`top_k_facilities` wrapper adds runtime coercion and accrual.
    """
    require_positive_int("k", k)
    tree.validate_spec(spec)
    stats, scores = QueryStats(), []
    for facility in facilities:
        value, local = evaluate_core(tree, facility, spec, None, runtime)
        stats.merge(local)
        scores.append(FacilityScore(facility, value))
    return KMaxRRSTResult(ranked(scores, k), stats)


def top_k_facilities(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> KMaxRRSTResult:
    """Answer a kMaxRRST query: the k facilities with maximum ``SO(U, f)``.

    Returns the exact ranking (service values included) in descending
    order of service, exact ties by lowest facility id; each value is
    ``==`` the candidate's :func:`~repro.queries.evaluate.evaluate_service`.
    ``k`` larger than ``len(facilities)`` returns everything ranked.
    ``runtime`` owns the probe path: the exact distance work rides its
    backend without changing the ranking, and the query's work counters
    accrue into its total.

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
