"""MaxkCovRST: greedy approximation (paper Section V).

The MaxkCovRST query asks for the size-k facility subset maximising the
*combined* service under union semantics.  The paper proves the objective
non-submodular (Lemma 1) and NP-hard, and proposes a two-step greedy:

1. **prune** — run kMaxRRST to shortlist the ``k' >= k`` individually
   highest-serving facilities;
2. **greedy** — iteratively add the shortlisted facility with the largest
   *marginal* combined gain, tracked by a
   :class:`~repro.core.service.CoverageState`.

Three evaluation strategies produce the per-facility match sets (which
user points each facility serves), mirroring the paper's competitors:

* ``G-BL``    — :class:`~repro.queries.baseline.BaselineIndex` range queries,
  no shortlist (the "straightforward" greedy);
* ``G-TQ(B)`` — TQ-tree basic evaluation with the two-step shortlist;
* ``G-TQ(Z)`` — TQ-tree z-order evaluation with the two-step shortlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.service import CoverageState, ServiceSpec, as_match_set
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute, Trajectory
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .baseline import BaselineIndex
from .evaluate import MatchCollector, evaluate_core
from .kmaxrrst import top_k_core

__all__ = [
    "Matches",
    "MatchFn",
    "MaxKCovResult",
    "core_match_fn",
    "tq_match_fn",
    "baseline_match_fn",
    "greedy_max_k_coverage",
    "maxkcov_core",
    "maxkcov_tq",
    "maxkcov_baseline",
]

# per-user covered point indices produced by one facility; the tree
# strategies hand them over as a :class:`~repro.core.service.MatchSet`
# (slot array that reads as this mapping)
Matches = Mapping[int, Tuple[int, ...]]
MatchFn = Callable[[FacilityRoute], Matches]


@dataclass(frozen=True)
class MaxKCovResult:
    """A MaxkCovRST answer.

    ``selection`` can be shorter than ``k`` when no remaining facility
    adds any marginal service.  ``users_fully_served`` is the paper's
    "# Users Served" metric (both endpoints covered by the union).
    """

    selection: Tuple[FacilityRoute, ...]
    combined_service: float
    users_fully_served: int
    step_gains: Tuple[float, ...]

    def facility_ids(self) -> Tuple[int, ...]:
        return tuple(f.facility_id for f in self.selection)


def core_match_fn(
    tree: TQTree,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
    acc: Optional[QueryStats] = None,
) -> MatchFn:
    """The pure-step match fn: per-facility match sets via
    :func:`~repro.queries.evaluate.evaluate_core`.

    Work accounting is explicit instead of ambient: each *computed*
    facility's counters merge into ``acc`` when one is given (the
    service's per-request attribution), else accrue into ``runtime``
    directly (the ambient behaviour :func:`tq_match_fn` keeps).
    Facilities served from the runtime cache's memoised match sets do
    no geometric work and so contribute nothing — exactly like the
    synchronous path.

    With a runtime the fn is wrapped under a *semantic* cache key
    (tree, node-table generation, spec), so every match fn built for the
    same tree and spec — sync wrappers, service requests, solver
    ensembles — shares one set of entries until an insert changes the
    tree.
    """

    def fn(facility: FacilityRoute) -> Matches:
        collector = MatchCollector()
        _, local = evaluate_core(tree, facility, spec, collector, runtime)
        if acc is not None:
            acc.merge(local)
        elif runtime is not None:
            runtime.accrue(local)
        return collector.match_set()

    if runtime is None:
        return fn
    return runtime.cache.cached_match_fn(
        fn, key=("tq-matches", id(tree), tree.frame().generation, spec), pin=tree
    )


def tq_match_fn(
    tree: TQTree,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> MatchFn:
    """Match sets via TQ-tree evaluation (TQ(B) or TQ(Z) per tree config).

    ``runtime`` owns the probe path (backend plus scheduling) and
    memoises the walks' division plans and the finished per-facility
    match sets in its cache — results are identical either way.

    A thin wrapper over :func:`core_match_fn` (ambient accrual form).
    """
    return core_match_fn(tree, spec, coerce_runtime(runtime))


def baseline_match_fn(index: BaselineIndex, spec: ServiceSpec) -> MatchFn:
    """Match sets via quadtree range queries (the BL strategy)."""

    def fn(facility: FacilityRoute) -> Matches:
        return index.matches(facility, spec.psi)

    return fn


def greedy_max_k_coverage(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    match_fn: MatchFn,
) -> MaxKCovResult:
    """The core greedy loop over precomputed candidate match sets.

    Picks, k times, the facility with the largest marginal combined gain.
    Because the objective is non-submodular, a facility can have zero
    *objective* gain while still making progress toward it (covering only
    sources when users need source+destination) — so zero-gain ties break
    on the count of newly covered points, and the loop only stops early
    when no candidate makes progress of either kind.  Remaining ties break
    on facility id for determinism.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    state = CoverageState(users, spec)
    matches: Dict[int, Matches] = {
        f.facility_id: as_match_set(state.table, match_fn(f)) for f in facilities
    }
    remaining: List[FacilityRoute] = sorted(
        facilities, key=lambda f: f.facility_id
    )
    selection: List[FacilityRoute] = []
    gains: List[float] = []
    while remaining and len(selection) < k:
        best_f: Optional[FacilityRoute] = None
        best_key = (0.0, 0)
        for f in remaining:
            m = matches[f.facility_id]
            key = (state.gain(m), state.new_coverage_count(m))
            if key > best_key:
                best_key = key
                best_f = f
        if best_f is None:
            break  # no candidate makes any progress
        realised = state.add(matches[best_f.facility_id])
        selection.append(best_f)
        gains.append(realised)
        remaining.remove(best_f)
    return MaxKCovResult(
        tuple(selection), state.value, state.users_fully_served(), tuple(gains)
    )


def maxkcov_core(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    prune_factor: int = 4,
    runtime: Optional[QueryRuntime] = None,
) -> Tuple[MaxKCovResult, QueryStats]:
    """The pure step behind :func:`maxkcov_tq`: shortlist + greedy,
    returning ``(result, work counters)`` with no ambient accrual.

    The counters aggregate the kMaxRRST shortlist pass and every match
    set actually computed (cache-served match sets cost nothing, as in
    the synchronous path).  Planner-consumable:
    :class:`repro.service.QueryPlanner` lowers a ``MaxKCovRequest``
    onto this directly.
    """
    if prune_factor < 1:
        raise QueryError(f"prune_factor must be >= 1, got {prune_factor}")
    local = QueryStats()
    k_prime = min(len(facilities), prune_factor * k)
    shortlist_result = top_k_core(tree, facilities, k_prime, spec, runtime)
    local.merge(shortlist_result.stats)
    shortlist = [fs.facility for fs in shortlist_result.ranking]
    users = tree.table  # match sets are slot arrays over this very table
    result = greedy_max_k_coverage(
        users, shortlist, k, spec,
        core_match_fn(tree, spec, runtime, acc=local),
    )
    return result, local


def maxkcov_tq(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    prune_factor: int = 4,
    runtime: Optional[QueryRuntime] = None,
) -> MaxKCovResult:
    """The paper's two-step greedy: G-TQ(B) / G-TQ(Z) per tree config.

    Step 1 shortlists the ``prune_factor * k`` individually best
    facilities with kMaxRRST; step 2 runs the greedy on the shortlist.
    ``prune_factor`` trades quality for speed (the paper's ``k' >= k``).
    With a ``runtime``, the exact distance work rides the proximity
    engine the runtime provisions, and repeated queries — another
    ``k``, a solver ensemble over the same tree — reuse the shortlist's
    node values and the match sets already computed (the answer is
    unchanged).

    A thin synchronous wrapper over :func:`maxkcov_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``MaxKCovRequest``'s validation: an empty candidate
    set is a malformed query, not an empty fleet.
    """
    if not facilities:
        raise QueryError(
            "facilities must be non-empty: an empty candidate set has "
            "no fleet to return"
        )
    runtime = coerce_runtime(runtime)
    result, local = maxkcov_core(tree, facilities, k, spec, prune_factor, runtime)
    if runtime is not None:
        runtime.accrue(local)
    return result


def maxkcov_baseline(
    index: BaselineIndex,
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
) -> MaxKCovResult:
    """The straightforward greedy over *all* facilities (G-BL)."""
    return greedy_max_k_coverage(
        users, facilities, k, spec, baseline_match_fn(index, spec)
    )
