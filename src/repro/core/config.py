"""Configuration objects for index construction and query execution.

The index knobs mirror the paper's Section III:

* ``beta`` — the block size: maximum intra-node trajectories before a
  q-node splits, and the z-node bucket capacity.
* ``variant`` — how multipoint trajectories enter the index
  (Section III-A): by their two endpoints, segmented into point pairs
  (S-TQ), or as whole trajectories (F-TQ).
* ``use_zorder`` — TQ(Z) when True (z-ordered bucket lists inside each
  q-node), TQ(B) when False (flat lists).

Independently of how the *index* is built, :class:`ProximityBackend`
selects how exact ``psi``-distance checks are executed at query time:
the dense all-pairs broadcast (the reference oracle path) or the uniform
stop grid of :mod:`repro.engine` (``AUTO`` picks per stop set).
:class:`RuntimeConfig` bundles the backend, sharding, and store settings
consumed by :class:`repro.runtime.QueryRuntime` — none of these knobs
ever changes a query answer, only how much geometric work is done.
:class:`ServiceConfig` sits one level up: it decides whether the asyncio
serving layer (:class:`repro.service.QueryService`) runs requests at
once or in one batch group per loop iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import IndexError_, QueryError

__all__ = [
    "IndexVariant",
    "ProximityBackend",
    "TQTreeConfig",
    "RuntimeConfig",
    "ServiceConfig",
    "HttpConfig",
    "SHARDS_AUTO",
    "auto_shard_count",
    "resolve_shard_count",
]


class ProximityBackend(enum.Enum):
    """How exact ``psi``-distance checks are executed (query-time knob).

    The choice never affects results — every backend is bit-identical to
    the dense oracle — only how much geometric work is performed.  Every
    backend probes on the calling thread.
    """

    DENSE = "dense"
    """All-pairs vectorised broadcast against every stop (the reference
    oracle path; optimal for tiny stop sets)."""

    GRID = "grid"
    """Uniform stop grid with cell size ~``psi``: a point's coverage
    check gathers candidate stops from the 3x3 surrounding cells only
    (see :class:`repro.engine.ShardedStopGrid`; its shard count is
    :attr:`RuntimeConfig.shards`)."""

    CELLSTRING = "cellstring"
    """Precomputed supercover cellstrings: the stop set's ``psi``-disc
    union is rasterized once into sorted int64 Morton-key arrays at a
    coarse and a fine level, so a probe is sorted-array membership —
    the exact kernel runs only for cells the disc boundary crosses
    (see :class:`repro.engine.CellstringStopSet`).  Highest build cost,
    cheapest repeated probes: the serving-workload tier."""

    AUTO = "auto"
    """Pick per stop set: dense broadcast below a stop-count threshold
    where grid bookkeeping costs more than it saves, the live grid for
    mid-sized sets, and precomputed cellstrings for stop counts large
    enough to amortise rasterization
    (:data:`repro.engine.cellstring.AUTO_CELLSTRING_MIN_STOPS`)."""


#: Start methods ``multiprocessing`` knows; ``None`` keeps the platform
#: default (fork on Linux, spawn on macOS/Windows).
_START_METHODS = (None, "fork", "spawn", "forkserver")


#: Sentinel shard count: let :func:`auto_shard_count` pick from the stop
#: count at stop-set dressing time.
SHARDS_AUTO = 0

#: Roughly how many stops one shard should own under ``AUTO`` — and
#: therefore the effective sharding threshold: below this count the
#: heuristic yields a single shard (partitioning overhead would exceed
#: the win).  Small enough that per-shard key arrays stay
#: cache-resident, large enough that per-shard dispatch is amortised.
_SHARD_AUTO_STOPS_PER_SHARD = 2_500

#: Upper bound on the ``AUTO`` shard count (diminishing returns beyond).
_SHARD_AUTO_MAX = 8


def auto_shard_count(n_stops: int) -> int:
    """The ``AUTO`` heuristic: how many grid shards for ``n_stops`` stops.

    One shard per ~:data:`_SHARD_AUTO_STOPS_PER_SHARD` stops, capped at
    :data:`_SHARD_AUTO_MAX`.  The count only affects how the grid is
    cut — shard masks are unioned, so every count yields the same
    answer.
    """
    return min(_SHARD_AUTO_MAX, 1 + n_stops // _SHARD_AUTO_STOPS_PER_SHARD)


def _require_int(name: str, value) -> None:
    """Reject ``bool`` and non-``int`` values of an integer field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"{name} must be an integer, got {value!r}")


def resolve_shard_count(shards: int, n_stops: int) -> int:
    """``shards`` with the :data:`SHARDS_AUTO` sentinel resolved."""
    if shards == SHARDS_AUTO:
        return auto_shard_count(n_stops)
    if shards < 1:
        raise QueryError(f"shard count must be >= 1 (or SHARDS_AUTO), got {shards}")
    return shards


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Execution settings for :class:`repro.runtime.QueryRuntime`.

    Parameters
    ----------
    backend:
        How exact ``psi``-distance checks run (never changes answers).
    shards:
        Grid shard count for stop sets the runtime dresses:
        :data:`SHARDS_AUTO` picks per stop set via
        :func:`auto_shard_count`; ``1`` = one shard (the plain grid);
        ``>= 2`` forces that many shards.  Every probe runs inline on
        the calling thread, shard after shard: the partition pays
        through cache locality, not parallelism.
    store_dir:
        Directory of persisted index files (``repro.store`` format) the
        runtime's :class:`~repro.engine.ShardStore` probes on cache
        misses: a request whose spill file exists is opened over
        read-only memmap views instead of rebuilt.  ``None`` (default)
        disables the lookup.  Like every knob here this never changes a
        query answer — opened indexes are bit-identical to built ones
        and re-verified against the request before serving.
    """

    backend: ProximityBackend = ProximityBackend.AUTO
    shards: int = SHARDS_AUTO
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, ProximityBackend):
            raise QueryError(f"unknown proximity backend: {self.backend!r}")
        _require_int("shards", self.shards)
        if self.shards < 0:
            raise QueryError(
                f"shards must be >= 1 or SHARDS_AUTO (0), got {self.shards}"
            )
        if self.store_dir is not None and (
            not isinstance(self.store_dir, str) or not self.store_dir
        ):
            raise QueryError(
                f"store_dir must be None or a non-empty path, got "
                f"{self.store_dir!r}"
            )


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Batching setting for :class:`repro.service.QueryService`.

    Like every other execution knob, it never changes a query answer —
    it decides *when* a request's work runs, never what it computes.

    Parameters
    ----------
    batch_window:
        ``> 0`` turns batching on: requests of every type submitted in
        one loop iteration form one group whose members' cores run in
        submission order one iteration later (see
        ``repro.service.service``), so beyond being positive the value
        changes nothing.  ``0.0`` (default) runs each request inside
        its submit.  A member runs the same core it would run alone,
        so answers and per-request stats never depend on this knob.
    """

    batch_window: float = 0.0

    def __post_init__(self) -> None:
        if not self.batch_window >= 0.0:  # also rejects NaN
            raise QueryError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )


@dataclass(frozen=True, slots=True)
class HttpConfig:
    """Settings for the stdlib HTTP front
    (:class:`repro.service.http.HttpQueryServer` and the
    ``python -m repro.serve`` CLI).

    Bundles the transport knobs with the nested service and runtime
    configurations the server builds its :class:`~repro.service
    .QueryService` from — one object fully describes a serving
    deployment.  Like every other config in this module, nothing here
    changes a query answer.

    Parameters
    ----------
    host / port:
        The listen address.  ``port=0`` asks the OS for an ephemeral
        port (the bound port is reported by the server once started —
        what the tests and the benchmark harness use; the supervisor
        resolves the shared port before any worker launches, so
        multi-worker deployments support ephemeral ports identically).
    workers:
        How many serving processes answer the listen address.  ``1``
        (default) is the classic single-process server.  ``>= 2``
        starts a prefork supervisor (:mod:`repro.service.http
        .supervisor`): N worker processes, each running a full
        ``QueryRuntime → QueryService → HTTP server`` stack, each
        binding its own ``SO_REUSEPORT`` socket on the one listen port
        (the kernel load-balances accepts).  Worker count never changes
        a query answer — every worker runs the same stack over the same
        catalog — only how many cores serve it.
    start_method:
        ``multiprocessing`` start method for the supervisor's workers:
        ``"fork"``, ``"spawn"``, ``"forkserver"``, or ``None`` for the
        platform default.  Under ``fork`` the supervisor resolves the
        catalog once and workers inherit it copy-on-write; under
        ``spawn``/``forkserver`` each worker re-opens the catalog spec
        (O(open) for ``store:<dir>`` catalogs — the memory-mapped
        index files are still shared through the page cache).
    catalog:
        The resource-catalog spec resolved at startup by
        :func:`repro.service.http.catalog_from_spec` — which trees and
        facility sets the server holds resident for wire requests to
        reference by name (live index objects cannot cross the socket).
    drain_timeout:
        Upper bound in seconds :meth:`~repro.service.http
        .HttpQueryServer.drain` waits for in-flight requests before
        closing their connections anyway.
    service / runtime:
        The nested :class:`ServiceConfig` / :class:`RuntimeConfig` for
        the server's query service and its execution runtime.
    """

    host: str = "127.0.0.1"
    port: int = 8314
    catalog: str = "demo"
    drain_timeout: float = 10.0
    workers: int = 1
    start_method: Optional[str] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        if not self.host:
            raise QueryError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise QueryError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if not self.catalog:
            raise QueryError("catalog spec must be non-empty")
        if not self.drain_timeout >= 0.0:  # also rejects NaN
            raise QueryError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )
        _require_int("workers", self.workers)
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")
        if self.start_method not in _START_METHODS:
            raise QueryError(
                f"unknown start method: {self.start_method!r} (choose "
                f"from {_START_METHODS})"
            )
        if not isinstance(self.service, ServiceConfig):
            raise QueryError(f"service must be a ServiceConfig, got {self.service!r}")
        if not isinstance(self.runtime, RuntimeConfig):
            raise QueryError(f"runtime must be a RuntimeConfig, got {self.runtime!r}")


class IndexVariant(enum.Enum):
    """How trajectories are decomposed into index entries (Section III-A)."""

    ENDPOINT = "endpoint"
    """Only the source/destination pair is indexed (Scenario-1 data such
    as taxi trips; also valid for any data when only endpoints matter)."""

    SEGMENTED = "segmented"
    """Each consecutive point pair becomes its own 2-point entry (the
    paper's *segmented approach*, S-TQ)."""

    FULL = "full"
    """Whole trajectories are stored in the lowest q-node that fully
    contains them (the paper's *full-trajectory approach*, F-TQ)."""


@dataclass(frozen=True, slots=True)
class TQTreeConfig:
    """Construction parameters for a TQ-tree.

    Defaults follow the paper's example scale (``beta`` is a memory-block
    worth of entries) with depth caps that keep degenerate point clusters
    from splitting forever.
    """

    beta: int = 64
    variant: IndexVariant = IndexVariant.ENDPOINT
    use_zorder: bool = True
    max_depth: int = 16
    z_max_depth: int = 12

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise IndexError_(f"beta must be >= 1, got {self.beta}")
        if self.max_depth < 1:
            raise IndexError_(f"max_depth must be >= 1, got {self.max_depth}")
        if not 1 <= self.z_max_depth <= 31:
            # a z-cell's digit path is held in an int64, two bits a level
            raise IndexError_(
                f"z_max_depth must be in 1..31, got {self.z_max_depth}"
            )
        if not isinstance(self.variant, IndexVariant):
            raise IndexError_(f"unknown index variant: {self.variant!r}")
