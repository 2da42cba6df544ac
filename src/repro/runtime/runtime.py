"""The unified query execution context.

:class:`QueryRuntime` is the one object that owns the whole execution
context of the query layer:

* **backend selection** — :meth:`stop_set` dresses a stop set for its
  configured :class:`~repro.core.config.ProximityBackend`: dense,
  grid, or cellstring per stop set.  It is the only place the tier
  thresholds are applied, and every grid it dresses is built through
  the shard store (the :class:`~repro.core.config.RuntimeConfig`
  ``shards`` knob picks the shard count, ``AUTO`` resolving it from
  the stop count; one shard is the plain grid);
* **the coverage cache** — one :class:`~repro.engine.CoverageCache`
  shared by every evaluation routed through the runtime;
* **the shard store** — one :class:`~repro.engine.ShardStore`, so
  facilities with identical or overlapping stop content share built
  grids across queries (and open persisted ones from ``store_dir``);
* **stats accrual** — every runtime-routed query merges its work
  counters into :attr:`stats` (via
  :meth:`~repro.core.stats.QueryStats.merge`), giving a service-level
  grand total without threading a stats object through every call;
* **scheduling** — one lazily built thread pool, sized by
  ``RuntimeConfig.max_workers``, that the stop sets it dresses fan
  large probe blocks out over; the engine applies the one rule itself
  (inline below :data:`~repro.engine.grid.FANOUT_MIN_POINTS` points),
  so there is nothing to choose here (DESIGN.md §5.1);
* **the probe path** — :meth:`probe_mask` is the single coverage probe
  the query layer calls, once per frontier of q-nodes: it dresses the
  stop set and runs the exact mask, so no module under ``queries/``
  touches a backend or grid type directly.

None of this changes any answer: a runtime-routed query returns results
bit-identical to the plain dense path, which is what
``tests/test_runtime.py`` and ``tests/test_shards.py`` enforce.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import ProximityBackend, RuntimeConfig
from ..core.errors import QueryError
from ..core.service import StopSet
from ..core.stats import QueryStats
from ..engine.cache import CoverageCache
from ..engine.cellstring import AUTO_CELLSTRING_MIN_STOPS, CellstringStopSet
from ..engine.grid import AUTO_MIN_STOPS
from ..engine.shards import GriddedStopSet, ShardStore
from ..store.codecs import opened_mmap_paths

__all__ = ["QueryRuntime", "coerce_runtime", "resolve_worker_count"]

#: Cap on the default pool size when ``max_workers`` is ``None``.
_DEFAULT_MAX_WORKERS = 8

#: One process-wide lock for stats accrual and reset.  A per-runtime
#: lock would silently not serialize the advertised sharing pattern of
#: several runtimes accruing into one caller-supplied ``QueryStats``;
#: accruals are per-query and merge a handful of integers, so a global
#: lock is correct for every sharing shape at no measurable cost.
_STATS_LOCK = threading.Lock()


def resolve_worker_count(max_workers: Optional[int], processes: int = 1) -> int:
    """``max_workers`` with ``None`` resolved to this process's share of
    the machine: the CPUs it may actually run on (affinity / cgroup
    pinning honoured where the platform reports it) divided among
    ``processes`` sibling serving processes, capped at
    :data:`_DEFAULT_MAX_WORKERS` and never below 1."""
    if max_workers is not None:
        return max_workers
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(_DEFAULT_MAX_WORKERS, cpus // processes))


class QueryRuntime:
    """Execution context for the query layer (see module docstring).

    Parameters
    ----------
    config:
        The execution settings; defaults to
        :class:`~repro.core.config.RuntimeConfig` defaults (``AUTO``
        backend, ``AUTO`` shard count, machine-sized worker pool).
    backend:
        Shorthand overriding ``config.backend``
        (``QueryRuntime(backend=ProximityBackend.GRID)``).
    cache / stats:
        Share a :class:`CoverageCache` / accrue into an existing
        :class:`QueryStats` instead of owning fresh ones (e.g. several
        runtimes reporting into one service-level total).

    A runtime is also a context manager: ``with QueryRuntime() as rt:``
    shuts the thread pool down on exit; a closed runtime keeps
    answering, inline.
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        *,
        backend: Optional[ProximityBackend] = None,
        cache: Optional[CoverageCache] = None,
        stats: Optional[QueryStats] = None,
    ) -> None:
        if config is None:
            config = RuntimeConfig()
        if backend is not None:
            if not isinstance(backend, ProximityBackend):
                raise QueryError(f"unknown proximity backend: {backend!r}")
            # replace, not field-by-field reconstruction: the shorthand
            # overrides the backend and must carry every other knob —
            # including ones added after this call was written
            config = dataclasses.replace(config, backend=backend)
        self.config = config
        self.cache = cache if cache is not None else CoverageCache()
        self.stats = stats if stats is not None else QueryStats()  # guarded-by: _STATS_LOCK
        self.shard_store = ShardStore(spill_dir=config.store_dir)
        self._workers = resolve_worker_count(config.max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _pool_lock
        self._closed = False  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Optional[Executor]:
        """The thread pool large probe blocks fan out over, or ``None``
        when every probe runs inline (``max_workers`` of 0 or 1, or the
        runtime is closed).  Built on first use under a lock: a shared
        service runtime can see its first two large probes on different
        threads, and the loser's pool would otherwise leak unshut."""
        if self._workers <= 1:
            return None
        with self._pool_lock:
            if self._pool is None and not self._closed:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def close(self) -> None:
        """Shut the thread pool down; the runtime stays usable (stop
        sets it dressed degrade to inline probing)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # backend selection
    # ------------------------------------------------------------------
    def stop_set(
        self, stops: Union[StopSet, np.ndarray], psi: float
    ) -> StopSet:
        """``stops`` dressed for this runtime's backend — the one place
        the proximity tiers are chosen.

        ``DENSE`` returns the set unchanged; ``GRID`` always grids;
        ``CELLSTRING`` always builds precomputed cellstrings; ``AUTO``
        picks by stop count — dense below
        :data:`~repro.engine.grid.AUTO_MIN_STOPS`, cellstrings at or
        above :data:`~repro.engine.cellstring
        .AUTO_CELLSTRING_MIN_STOPS` (repeated probes amortise the
        rasterization the store shares), the grid in between.  Grid and
        cellstring sets build through :attr:`shard_store`; the grid's
        shard count is ``config.shards`` (``AUTO`` resolves it from the
        stop count, usually to one).  Already-dressed sets pass through,
        so re-dressing across recursive divisions is free.
        """
        if not isinstance(stops, StopSet):
            stops = StopSet(np.asarray(stops, dtype=np.float64))
        backend = self.config.backend
        if backend is ProximityBackend.DENSE:
            return stops
        if isinstance(stops, (GriddedStopSet, CellstringStopSet)):
            return stops
        min_stops = (
            1
            if backend in (ProximityBackend.GRID, ProximityBackend.CELLSTRING)
            else AUTO_MIN_STOPS
        )
        n = stops.n_stops
        if n < min_stops:
            # below the threshold the dense broadcast wins; returning the
            # plain set (rather than a lazy wrapper) keeps tiny
            # components zero-overhead
            return stops
        # both tiers get the executor *getter*, not the executor: resolved
        # per large probe block, so sets dressed before close() degrade to
        # inline probing instead of scheduling on a shut-down pool
        if backend is ProximityBackend.CELLSTRING or (
            backend is ProximityBackend.AUTO and n >= AUTO_CELLSTRING_MIN_STOPS
        ):
            return CellstringStopSet(
                stops.coords,
                psi,
                min_stops,
                store=self.shard_store,
                executor=self._live_executor,
            )
        return GriddedStopSet(
            stops.coords,
            psi,
            min_stops,
            shards=self.config.shards,
            store=self.shard_store,
            executor=self._live_executor,
        )

    def _live_executor(self) -> Optional[Executor]:
        """The current fan-out target, or ``None`` once closed (resolved
        late by the stop sets this runtime dresses)."""
        return self.executor

    # ------------------------------------------------------------------
    # the probe path
    # ------------------------------------------------------------------
    def probe_mask(
        self,
        stops: Union[StopSet, np.ndarray],
        coords: np.ndarray,
        psi: float,
        stats: Optional[QueryStats] = None,
    ) -> np.ndarray:
        """The runtime-owned coverage probe: which ``coords`` rows are
        within ``psi`` of ``stops``, under this runtime's backend.

        This is the one entry point the query layer uses for exact
        geometric work — ``queries/`` never touches a grid, shard, or
        backend type directly — and it is called once per *frontier*
        (a whole evaluate walk, one kMaxRRST relax round), not once per
        q-node: ``coords`` holds every surviving candidate's probe
        points and ``stops`` the walk's stop set.  Already-dressed stop
        sets pass through :meth:`stop_set` untouched, so probing a
        component the runtime dressed earlier costs nothing extra;
        undressed stops (direct
        :func:`~repro.queries.evaluate.evaluate_node_trajectories`
        calls, ad-hoc arrays) are dressed here first.  Results are
        bit-identical to :meth:`~repro.core.service.StopSet
        .covered_mask` however the probe is scheduled.
        """
        return self.stop_set(stops, psi).covered_mask(coords, psi, stats)

    # ------------------------------------------------------------------
    # the batched probe path
    # ------------------------------------------------------------------
    def probe_masks_batch(
        self,
        tasks: "Sequence[Tuple[Union[StopSet, np.ndarray], np.ndarray, float]]",
        stats_list: "Optional[Sequence[Optional[QueryStats]]]" = None,
    ) -> "List[np.ndarray]":
        """Many coverage probes in one call: each task is
        ``(stops, coords, psi)`` and yields the exact mask
        :meth:`probe_mask` would, in task order.

        Tasks run sequentially on the calling thread (a large probe
        already fans out internally when its stop set is sharded), so
        per-task stats are attributed exactly and results are
        deterministic.  No caller is left in ``src/`` (the service's
        batch groups run tree walks); perfbench patches the name, so it
        stays until a [benchmark] issue drops that target.

        ``stats_list``, when given, must match ``tasks`` in length;
        entry *i* (when not ``None``) receives task *i*'s counters
        only.  Nothing is accrued into the runtime totals — the caller
        owns attribution, exactly as with :meth:`probe_mask`.
        """
        if stats_list is not None and len(stats_list) != len(tasks):
            raise QueryError(
                f"stats_list length {len(stats_list)} != tasks length "
                f"{len(tasks)}"
            )
        masks = []
        for i, (stops, coords, psi) in enumerate(tasks):
            stats = stats_list[i] if stats_list is not None else None
            masks.append(self.probe_mask(stops, coords, psi, stats))
        return masks

    # ------------------------------------------------------------------
    # stats accrual
    # ------------------------------------------------------------------
    def accrue(self, delta: QueryStats) -> None:
        """Merge one query's work counters into the runtime total.

        Serialized against concurrent accruals and :meth:`reset_stats`
        — across *all* runtimes, so several runtimes accruing into one
        shared ``stats`` object are covered too: accruals come from
        whichever thread a query core ran on (sync callers' threads,
        the service's bridge pool — including a core whose caller was
        cancelled), and an unguarded read-modify-write merge would lose
        counts, while a reset swapping the totals object mid-merge
        would tear them.
        """
        with _STATS_LOCK:
            self.stats.merge(delta)

    def reset_stats(self) -> QueryStats:
        """Return the accrued totals and start a fresh accumulation."""
        with _STATS_LOCK:
            out = self.stats
            self.stats = QueryStats()
        return out

    def snapshot_stats(self) -> QueryStats:
        """A consistent copy of the accrued totals.

        Taken under the stats lock, so no concurrently accruing core
        can tear the counters mid-merge — what the serving layer's
        ``GET /stats`` reports while requests are in flight.  Mutating
        the copy never perturbs the runtime's totals.
        """
        with _STATS_LOCK:
            return dataclasses.replace(self.stats)

    def snapshot_store_stats(self):
        """A frozen :class:`~repro.core.stats.StoreStats` of the shard
        store's cache counters — hits, misses, evictions per level, plus
        how many indexes were served from persisted store files
        (``opened``/``verified``).  The serving layer's ``GET /stats``
        reports this next to the query totals.
        """
        return self.shard_store.snapshot_stats()

    def worker_mmap_paths(self) -> Tuple[str, ...]:
        """The persisted store files this process serves over memory-
        mapped views: everything any codec mmap-opened (catalog
        payloads included) and everything the shard store *opened*
        instead of building.

        This is the zero-copy evidence the multi-worker serving layer
        reports per worker on ``GET /stats``: a worker whose indexes
        all arrive here created no private index copies.
        """
        paths = set(opened_mmap_paths())
        paths.update(self.shard_store.opened_paths)
        return tuple(sorted(paths))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryRuntime(backend={self.config.backend.value}, "
            f"shards={self.config.shards}, cache_entries={len(self.cache)})"
        )


def coerce_runtime(runtime: Optional[QueryRuntime]) -> Optional[QueryRuntime]:
    """The query layer's ``runtime=`` argument, type-checked: a
    :class:`QueryRuntime`, or ``None`` (the caller keeps the plain dense
    path with zero runtime overhead).  Anything else is a
    :exc:`~repro.core.errors.QueryError` at the call, not an
    ``AttributeError`` somewhere inside the walk."""
    if runtime is not None and not isinstance(runtime, QueryRuntime):
        raise QueryError(
            f"runtime must be a QueryRuntime, got {type(runtime).__name__}"
        )
    return runtime
