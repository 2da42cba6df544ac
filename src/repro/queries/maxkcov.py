"""MaxkCovRST: greedy approximation (paper Section V).

The MaxkCovRST query asks for the size-k facility subset maximising the
*combined* service under union semantics.  The paper proves the objective
non-submodular (Lemma 1) and NP-hard, and proposes a two-step greedy:

1. **prune** — run kMaxRRST to shortlist the ``k' >= k`` individually
   highest-serving facilities (skipped when ``k'`` keeps every
   candidate: the ranking would keep them all, and the greedy orders
   candidates by facility id anyway);
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

from ..core.service import CoverageState, ServiceSpec, as_match_set
from ..core.stats import QueryStats
from ..core.trajectory import (
    FacilityRoute,
    Trajectory,
    require_candidates,
    require_positive_int,
)
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .baseline import BaselineIndex
from .evaluate import walk_matches
from .kmaxrrst import top_k_facilities

__all__ = [
    "Matches",
    "MatchFn",
    "MaxKCovResult",
    "tq_match_fn",
    "baseline_match_fn",
    "greedy_max_k_coverage",
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


def tq_match_fn(
    tree: TQTree,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
    stats: Optional[QueryStats] = None,
) -> MatchFn:
    """Match sets via TQ-tree walks (TQ(B) or TQ(Z) per tree config):
    :func:`~repro.queries.evaluate.walk_matches` at ``spec.psi``, after
    ``spec`` is checked against the tree.

    Each walked facility's counters accrue into ``runtime``'s total and
    merge into ``stats`` when one is given.  With a runtime a match set
    is kept on the facility's walk record: a facility whose record
    holds one — the same stops, ``psi`` and node-table generation,
    under any model, whichever match fn or ``FacilityRoute`` object
    asks — costs one hit and no geometric work, so it contributes
    nothing; any other is walked and counts one miss.  Results are
    identical either way.
    """
    runtime = coerce_runtime(runtime)

    def fn(facility: FacilityRoute) -> Matches:
        tree.validate_spec(spec)
        matches, local = walk_matches(tree, facility, spec.psi, runtime)
        if runtime is not None:
            runtime.accrue(local)
        if stats is not None:
            stats.merge(local)
        return matches

    return fn


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
    require_positive_int("k", k)
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


def maxkcov_tq(
    tree: TQTree,
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    prune_factor: int = 4,
    runtime: Optional[QueryRuntime] = None,
    stats: Optional[QueryStats] = None,
) -> MaxKCovResult:
    """The paper's two-step greedy: G-TQ(B) / G-TQ(Z) per tree config.

    Step 1 shortlists the ``k' = prune_factor * k`` individually best
    facilities with :func:`~repro.queries.kmaxrrst.top_k_facilities`;
    when ``k'`` keeps every candidate no kMaxRRST runs (after the spec
    is checked) and all of them go to the greedy — the fleet is the
    same, as the greedy orders candidates by facility id.  Step 2 runs
    the greedy on the shortlist's match sets (:func:`tq_match_fn`).
    ``prune_factor`` trades quality for speed (the paper's ``k' >= k``).
    An empty candidate set, or one naming a facility id twice, is a
    malformed query.

    With a ``runtime``, the exact distance work rides the proximity
    engine the runtime provisions, the query's counters accrue into its
    total, and repeated queries — another ``k``, a solver ensemble over
    the same tree — reuse the shortlist's walk answers and the match
    sets already computed (the answer is unchanged).  ``stats``, when
    given, receives the same counters: the shortlist's, when one runs,
    and every match set actually walked.
    """
    require_candidates(facilities)
    runtime = coerce_runtime(runtime)
    require_positive_int("k", k)
    require_positive_int("prune_factor", prune_factor)
    if prune_factor * k < len(facilities):
        shortlist = top_k_facilities(tree, facilities, prune_factor * k, spec, runtime)
        if stats is not None:
            stats.merge(shortlist.stats)
        facilities = shortlist.facilities()
    else:
        tree.validate_spec(spec)
    # match sets are slot arrays over the tree's own table
    return greedy_max_k_coverage(
        tree.table, facilities, k, spec, tq_match_fn(tree, spec, runtime, stats)
    )


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
