"""Batched, vectorised service-value evaluation over a fixed user set.

:class:`BatchQueryEngine` is the index-free scorer: a library entry
point for callers holding a user set and no TQ-tree (the serving layer
never runs it — a ``batch_window`` group runs its members' tree walks).
It probes the user set's :class:`~repro.core.trajectory
.UserPointTable` — every user's points as one block, with the
per-trajectory aggregation structure (start/end slots, segment endpoint
pairs, segment lengths) as flat columns — and answers any number of
``(facility, ServiceSpec)`` requests against that shared block.  Each
request costs one coverage mask — dressed by the attached runtime's
backend, dense without one — plus O(points) aggregation; requests that
share a stop set and ``psi`` (e.g. the three service
models of one facility) share a single mask through the
:class:`~repro.engine.cache.CoverageCache`.

Scores are **bit-identical** to :func:`repro.core.service
.brute_force_service`: per-user values come from :func:`repro.core
.service.per_user_values`, the same arithmetic as ``score_from_indices``
(counts divided by point counts, sequentially accumulated segment
lengths divided by trajectory length), and the
grand total accumulates users in input order exactly like the oracle's
``sum``.  The differential suite in ``tests/test_engine_oracle.py``
holds the engine to ``==``, not ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import QueryError
from ..core.service import (
    MatchSet,
    ServiceSpec,
    StopSet,
    in_order_sum,
    per_user_values,
)
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute, Trajectory, UserPointTable
from .cache import CoverageCache

__all__ = ["BatchQueryEngine", "BatchResult"]

#: Anything a request can name its stops with.
StopsLike = Union[StopSet, FacilityRoute, np.ndarray]


@dataclass(frozen=True)
class BatchResult:
    """Per-query scores plus the aggregated work counters."""

    scores: Tuple[float, ...]
    stats: QueryStats


def _as_stop_set(obj: StopsLike) -> StopSet:
    if isinstance(obj, StopSet):
        return obj
    if isinstance(obj, FacilityRoute):
        return StopSet.of_facility(obj)
    stops = getattr(obj, "stops", None)
    if isinstance(stops, StopSet):  # FacilityComponent-shaped
        return stops
    return StopSet(np.asarray(obj, dtype=np.float64))


class BatchQueryEngine:
    """Vectorised ``SO(U, f)`` evaluation for many queries over one
    user set.

    Parameters
    ----------
    users:
        The fixed user trajectories; order defines score accumulation
        order (matching the brute-force oracle).  A ready
        :class:`UserPointTable` (e.g. ``tree.table``) is used as is.
    runtime:
        A :class:`repro.runtime.QueryRuntime`: stop sets are dressed by
        its :meth:`~repro.runtime.QueryRuntime.stop_set` (dense / grid /
        cellstring, with executor fan-out), masks memoise into its
        cache, and every ``query``/``run`` merges its work counters into
        the runtime's grand total.  Without one — the same rule the
        query functions follow — stops stay on the plain dense kernel
        and masks memoise into a cache private to the engine.  Accepted
        duck-typed so the engine package never imports the runtime
        layer above it.
    """

    def __init__(self, users: Sequence[Trajectory], runtime=None) -> None:
        self.table = UserPointTable.of(users)
        self.users: Tuple[Trajectory, ...] = self.table.users
        if runtime is not None and not all(
            hasattr(runtime, member) for member in ("stop_set", "cache", "accrue")
        ):
            raise QueryError(
                f"runtime must be a QueryRuntime, got {type(runtime).__name__}"
            )
        self.runtime = runtime
        self.cache = runtime.cache if runtime is not None else CoverageCache()
        self._stops: dict = {}  # id(request object) -> (object, StopSet)
        self._points = self.table.xy  # the shared probe block

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_probe_points(self) -> int:
        return int(self._points.shape[0])

    def resolve_stops(self, obj: StopsLike, psi: float) -> StopSet:
        """The (runtime-dressed) stop set for a request object, shared
        across requests naming the same object."""
        key = id(obj)
        entry = self._stops.get(key)
        if entry is not None and entry[0] is obj:
            return entry[1]
        stops = _as_stop_set(obj)
        if self.runtime is not None:
            stops = self.runtime.stop_set(stops, psi)
        self._stops[key] = (obj, stops)
        return stops

    def _mask(
        self, stops: StopSet, psi: float, stats: Optional[QueryStats]
    ) -> np.ndarray:
        mask = self.cache.lookup_mask(stops, psi, self._points)
        if mask is not None:
            if stats is not None:
                stats.cache_hits += 1
            return mask
        mask = stops.covered_mask(self._points, psi, stats)
        self.cache.store_mask(stops, psi, self._points, mask)
        return mask

    # ------------------------------------------------------------------
    def query(
        self,
        stops_like: StopsLike,
        spec: ServiceSpec,
        stats: Optional[QueryStats] = None,
    ) -> float:
        """``SO(U, f)`` for one request (same semantics as the oracle)."""
        local = QueryStats() if self.runtime is not None else stats
        stops = self.resolve_stops(stops_like, spec.psi)
        mask = self._mask(stops, spec.psi, local)
        values = per_user_values(self.table, mask, spec)
        if self.runtime is not None:
            self.runtime.accrue(local)
            if stats is not None:
                stats.merge(local)
        # in-order accumulation, bit-identical to the oracle's sum()
        return in_order_sum(values)

    def query_masked(
        self,
        stops_like: StopsLike,
        spec: ServiceSpec,
        mask: np.ndarray,
        stats: Optional[QueryStats] = None,
    ) -> float:
        """:meth:`query` with the probe-block mask supplied by the
        caller — no cache lookup, no probe, no ``cache_hits`` count.
        Aggregation is the same arithmetic as :meth:`query`, so values
        are identical.  No caller is left in ``src/`` (the service's
        batch groups run tree walks); perfbench patches the name, so it
        stays until a [benchmark] issue drops that target.
        """
        local = QueryStats() if self.runtime is not None else stats
        values = per_user_values(self.table, mask, spec)
        if self.runtime is not None:
            self.runtime.accrue(local)
            if stats is not None:
                stats.merge(local)
        return in_order_sum(values)

    def run(
        self, requests: Sequence[Tuple[StopsLike, ServiceSpec]]
    ) -> BatchResult:
        """Score every ``(stops, spec)`` request against the user set.

        Returns one score per request (in order) and a single
        :class:`QueryStats` aggregating the work of the whole batch
        (also accrued into the runtime's total when one is attached).
        """
        stats = QueryStats()
        scores = tuple(self.query(obj, spec, stats) for obj, spec in requests)
        return BatchResult(scores, stats)

    # ------------------------------------------------------------------
    def matches(self, stops_like: StopsLike, psi: float):
        """Per-user covered point indices (MaxkCovRST match-set shape:
        ``{traj_id: (idx, ...)}``, users with no coverage omitted)."""
        stops = self.resolve_stops(stops_like, psi)
        mask = self._mask(stops, psi, None)
        return MatchSet(self.table, np.flatnonzero(mask)).as_dict()
