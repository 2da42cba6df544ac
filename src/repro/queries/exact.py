"""Exact MaxkCovRST by branch-and-bound (paper Section V, "exact solution").

The paper's exact reference iterates every size-k combination; it is used
only to measure the greedy's approximation ratio (Figure 11).  We sharpen
the enumeration with a classical branch-and-bound:

* facilities are ordered by decreasing solo service, so strong incumbents
  appear early;
* the greedy solution primes the incumbent;
* at a node of the search tree, the bound is the value of the current
  selection *plus every facility still available* — valid because
  combined coverage is monotone in the chosen set (adding stops never
  un-covers a point), even though it is not submodular.

Suffix-merged match sets make the bound O(|affected users|) per node.
The search is exact for every service model; it remains exponential in
the worst case, so Figure 11 runs it on reduced instances (k = 4, at
most 32 facilities: ``fig11`` in :mod:`repro.bench.figures`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import QueryError
from ..core.service import CoverageState, MatchSet, ServiceSpec, as_match_set
from ..core.trajectory import FacilityRoute, Trajectory, UserPointTable
from ..runtime import QueryRuntime, coerce_runtime
from .maxkcov import MatchFn, MaxKCovResult, greedy_max_k_coverage

__all__ = ["exact_core", "exact_max_k_coverage", "approximation_ratio"]


def exact_core(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    match_fn: MatchFn,
    runtime: Optional[QueryRuntime] = None,
) -> MaxKCovResult:
    """The pure step behind :func:`exact_max_k_coverage`: the
    branch-and-bound search itself, runtime used only to dedupe
    ``match_fn`` calls through its cache.  Planner-consumable —
    :class:`repro.service.QueryPlanner` lowers an
    ``ExactMaxKCovRequest`` onto this with a stats-collecting match fn.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    if not facilities:
        return MaxKCovResult((), 0.0, 0, ())
    k = min(k, len(facilities))
    if runtime is not None:
        match_fn = runtime.cache.cached_match_fn(match_fn)

    users = UserPointTable.of(users)
    matches: List[MatchSet] = [as_match_set(users, match_fn(f)) for f in facilities]

    # order by decreasing solo value for early strong incumbents
    solo: List[float] = []
    for m in matches:
        state = CoverageState(users, spec)
        state.add(m)
        solo.append(state.value)
    order = sorted(range(len(facilities)), key=lambda i: -solo[i])
    ordered_facilities = [facilities[i] for i in order]
    ordered_matches = [matches[i] for i in order]
    n = len(ordered_facilities)

    # suffix-merged matches: union of everything from position i onward
    acc = np.zeros(0, dtype=np.int64)
    suffix: List[MatchSet] = [MatchSet(users, acc)] * (n + 1)
    for i in range(n - 1, -1, -1):
        acc = np.union1d(acc, ordered_matches[i].slots)
        suffix[i] = MatchSet(users, acc)

    # incumbent from the greedy
    match_by_id = {f.facility_id: m for f, m in zip(facilities, matches)}
    greedy = greedy_max_k_coverage(
        users, facilities, k, spec, lambda f: match_by_id[f.facility_id]
    )
    position = {f.facility_id: i for i, f in enumerate(ordered_facilities)}
    best_value = greedy.combined_service
    best_selection: Tuple[int, ...] = tuple(
        position[g.facility_id] for g in greedy.selection
    )

    def search(pos: int, chosen: List[int], state: CoverageState) -> None:
        nonlocal best_value, best_selection
        if len(chosen) == k or pos == n:
            if state.value > best_value:
                best_value = state.value
                best_selection = tuple(chosen)
            return
        if len(chosen) + (n - pos) < k:
            return  # cannot fill the selection
        # monotone bound: everything still available joins for free
        if state.value + state.gain(suffix[pos]) <= best_value:
            return
        # include ordered_facilities[pos]
        with_state = state.copy()
        with_state.add(ordered_matches[pos])
        chosen.append(pos)
        search(pos + 1, chosen, with_state)
        chosen.pop()
        # exclude it
        search(pos + 1, chosen, state)

    search(0, [], CoverageState(users, spec))

    final = CoverageState(users, spec)
    gains: List[float] = []
    for i in best_selection:
        gains.append(final.add(ordered_matches[i]))
    return MaxKCovResult(
        tuple(ordered_facilities[i] for i in best_selection),
        final.value,
        final.users_fully_served(),
        tuple(gains),
    )


def exact_max_k_coverage(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    match_fn: MatchFn,
    runtime: Optional[QueryRuntime] = None,
) -> MaxKCovResult:
    """The optimal size-k subset under combined-coverage semantics.

    Exponential in the worst case — intended for the small instances used
    to report approximation ratios.  A ``runtime`` dedupes ``match_fn``
    calls against other solvers sharing its cache (greedy, genetic,
    repeats).

    A thin synchronous wrapper over :func:`exact_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``ExactMaxKCovRequest``'s validation: an empty
    candidate set is a malformed query, not an empty fleet.
    """
    if not facilities:
        raise QueryError(
            "facilities must be non-empty: an empty candidate set has "
            "no fleet to return"
        )
    return exact_core(
        users, facilities, k, spec, match_fn, coerce_runtime(runtime)
    )


def approximation_ratio(approx: MaxKCovResult, exact: MaxKCovResult) -> float:
    """``approx.value / exact.value`` clamped into [0, 1]; 1.0 when the
    optimum is zero (nothing can be served, so any answer is optimal)."""
    if exact.combined_service <= 0:
        return 1.0
    return max(0.0, min(1.0, approx.combined_service / exact.combined_service))
