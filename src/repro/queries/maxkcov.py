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

    With a runtime a match set is kept on the facility's walk record,
    per ``(model, normalize)``: a facility whose record holds it — the
    same stops, ``psi`` and node-table generation, whichever match fn
    or ``FacilityRoute`` object asks — costs one hit and no geometric
    work, so it contributes nothing to ``acc``; any other is walked and
    counts one miss.
    """
    column = (spec.model, spec.normalize)

    def fn(facility: FacilityRoute) -> Matches:
        if runtime is not None:
            # the key walk_plan holds the facility's record under
            key = (facility.facility_id, spec.psi, tree.frame().generation)
            held = runtime.cache.read_matches(key, facility.stop_coords, column)
            if held is not None:
                return held
        collector = MatchCollector()
        _, local = evaluate_core(tree, facility, spec, collector, runtime)
        if acc is not None:
            acc.merge(local)
        elif runtime is not None:
            runtime.accrue(local)
        matches = collector.match_set()
        if runtime is not None:
            runtime.cache.store_matches(key, facility.stop_coords, column, matches)
        return matches

    return fn


def tq_match_fn(
    tree: TQTree,
    spec: ServiceSpec,
    runtime: Optional[QueryRuntime] = None,
) -> MatchFn:
    """Match sets via TQ-tree evaluation (TQ(B) or TQ(Z) per tree config).

    ``runtime`` owns the probe path (backend plus scheduling) and keeps
    each walk's division plan and finished match set on the walk's
    record in its cache — results are identical either way.

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

    The shortlist is the kMaxRRST top ``k' = prune_factor * k`` — one
    evaluate per candidate, ranked by service, exact ties by lowest
    facility id; when ``k'`` is at least ``len(facilities)`` no kMaxRRST
    runs (after the spec is validated) and every candidate goes to the
    greedy — the fleet is the same, as the greedy orders candidates by
    facility id.  The counters aggregate the kMaxRRST pass, when one
    runs, and every match set actually computed (cache-served match sets cost nothing,
    as in the synchronous path).  Planner-consumable:
    :class:`repro.service.QueryPlanner` lowers a ``MaxKCovRequest``
    onto this directly.
    """
    require_positive_int("k", k)
    require_positive_int("prune_factor", prune_factor)
    local = QueryStats()
    if prune_factor * k < len(facilities):
        shortlist = top_k_core(tree, facilities, prune_factor * k, spec, runtime)
        local.merge(shortlist.stats)
        facilities = shortlist.facilities()
    else:
        tree.validate_spec(spec)
    users = tree.table  # match sets are slot arrays over this very table
    result = greedy_max_k_coverage(
        users, facilities, k, spec,
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
    facilities with kMaxRRST (every candidate, with no kMaxRRST, when
    that is all of them); step 2 runs the greedy on the shortlist.
    ``prune_factor`` trades quality for speed (the paper's ``k' >= k``).
    With a ``runtime``, the exact distance work rides the proximity
    engine the runtime provisions, and repeated queries — another
    ``k``, a solver ensemble over the same tree — reuse the shortlist's
    node values and the match sets already computed (the answer is
    unchanged).

    A thin synchronous wrapper over :func:`maxkcov_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``MaxKCovRequest``'s validation: an empty candidate
    set, or one naming a facility id twice, is a malformed query.
    """
    require_candidates(facilities)
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
