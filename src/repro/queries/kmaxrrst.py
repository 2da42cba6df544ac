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

__all__ = ["FacilityScore", "KMaxRRSTResult", "ranked", "top_k_facilities"]


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
    backend without changing the ranking.

    The candidates, ``k`` and ``spec`` are checked once — an empty
    candidate set, or one naming a facility id twice, is a malformed
    query — then each candidate is one
    :func:`~repro.queries.evaluate.evaluate_core` walk.  The result's
    ``stats`` sum the walks, and accrue once into the runtime's total.
    """
    require_candidates(facilities)
    runtime = coerce_runtime(runtime)
    require_positive_int("k", k)
    tree.validate_spec(spec)
    stats, scores = QueryStats(), []
    for facility in facilities:
        value, local = evaluate_core(tree, facility, spec, runtime)
        stats.merge(local)
        scores.append(FacilityScore(facility, value))
    if runtime is not None:
        runtime.accrue(stats)
    return KMaxRRSTResult(ranked(scores, k), stats)
