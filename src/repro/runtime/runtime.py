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
  of walk records, its own, shared by every evaluation routed through
  the runtime;
* **the shard store** — one :class:`~repro.engine.ShardStore`, so
  facilities with identical stop content share built grids and
  cellstrings across queries (and open persisted ones from
  ``store_dir``);
* **stats accrual** — every runtime-routed query merges its work
  counters into its own :attr:`stats` (via
  :meth:`~repro.core.stats.QueryStats.merge`), giving a service-level
  grand total without threading a stats object through every call;
* **the probe path** — :meth:`probe_mask` is the single coverage probe
  the query layer calls, once per frontier of q-nodes: it dresses the
  stop set and runs the exact mask inline on the calling thread (the
  one scheduling rule, DESIGN.md §5.1), so no module under
  ``queries/`` touches a backend or grid type directly.

None of this changes any answer: a runtime-routed query returns results
bit-identical to the plain dense path, which is what
``tests/test_runtime.py`` and ``tests/test_shards.py`` enforce.
"""

from __future__ import annotations

import dataclasses
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

__all__ = ["QueryRuntime", "coerce_runtime"]

class QueryRuntime:
    """Execution context for the query layer (see module docstring).

    Parameters
    ----------
    config:
        The execution settings; defaults to
        :class:`~repro.core.config.RuntimeConfig` defaults (``AUTO``
        backend, ``AUTO`` shard count, no store directory).

    A runtime owns its :attr:`cache` and its :attr:`stats`: a walk
    record's stop set is dressed by the runtime whose cache holds it.
    One thread owns a runtime — its cache, shard store and stats — the
    way one thread owns a ``sqlite3`` connection (DESIGN.md §6): nothing
    in it takes a lock, and a second thread wants its own runtime.
    ``with QueryRuntime() as rt:`` scopes a runtime; it holds nothing
    that needs releasing, so leaving the block does nothing.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        if config is None:
            config = RuntimeConfig()
        self.config = config
        self.cache = CoverageCache()
        self.stats = QueryStats()
        self.shard_store = ShardStore(spill_dir=config.store_dir)

    def __enter__(self) -> "QueryRuntime":
        return self

    def __exit__(self, *exc) -> None:
        pass

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
        if backend is ProximityBackend.CELLSTRING or (
            backend is ProximityBackend.AUTO and n >= AUTO_CELLSTRING_MIN_STOPS
        ):
            return CellstringStopSet(
                stops.coords, psi, min_stops, store=self.shard_store
            )
        return GriddedStopSet(
            stops.coords,
            psi,
            min_stops,
            shards=self.config.shards,
            store=self.shard_store,
        )

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
        backend type directly — and it is called once per walk (an
        evaluate, one kMaxRRST candidate, one match set), not once per
        q-node: ``coords`` holds every surviving candidate's probe
        points and ``stops`` the walk's stop set.  Already-dressed stop
        sets pass through :meth:`stop_set` untouched, so probing stops
        the runtime dressed earlier costs nothing extra; undressed stops
        (ad-hoc arrays) are dressed here first.  The probe runs
        on the calling thread, and its mask is bit-identical to
        :meth:`~repro.core.service.StopSet.covered_mask`.
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

        Tasks run sequentially on the calling thread, so per-task stats
        are attributed exactly and results are deterministic.  No caller is left in ``src/`` (the service's
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
        """Merge one query's work counters into the runtime total."""
        self.stats.merge(delta)

    def snapshot_stats(self) -> QueryStats:
        """A copy of the accrued totals — what the serving layer's
        ``GET /stats`` reports.  Mutating the copy never perturbs the
        runtime's totals.
        """
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
