"""The stop grid: sorted cell keys cut into shards, probed by row ranges.

:class:`ShardedStopGrid` keys every stop by its grid cell
(``ix * stride + iy``), sorts once, and cuts the sorted array into N
contiguous *shards* at cell boundaries (no cell ever straddles two
shards).  One shard **is** the single-grid path — there is no other grid
implementation; N > 1 lets a batched coverage query fan out: every probe
point is mapped to its candidate key window once, each shard answers
from its own slice, and the per-shard masks are unioned.  Shard tasks
are independent, so a block of at least
:data:`~repro.engine.grid.FANOUT_MIN_POINTS` points rides a thread pool
when one is given (the dense numpy kernels release the GIL); inline the
partition still wins through cache locality, because each shard's key
array is small and each shard sees mostly its own points.

Within a shard, candidates are gathered by **row ranges**: the three
neighbour cells of one grid row form a *contiguous* key range, so the
3x3 neighbourhood costs three ``searchsorted`` range pairs rather than
nine cell probes.  The gathered candidate multiset is exactly the 3x3
union, and every candidate goes through the same
:func:`~repro.core.service.psi_hit` kernel, so masks are
**bit-identical** to the dense oracle for every input and shard count —
the mask union is order-independent, and ``tests/test_shards.py`` holds
every shard count to ``==``.

Work accounting composes the same way: each shard task accrues its own
:class:`~repro.core.stats.QueryStats`, merged into the caller's object
via :meth:`QueryStats.merge`; a point probed by several shards is
attributed to the first, so the merged totals are the plain 3x3
neighbourhood counts whatever the shard count.

:class:`GriddedStopSet` packages the grid behind the
:class:`~repro.core.service.StopSet` contract (``covers_point`` /
``covered_mask`` / ``restricted_to``), building it lazily on first use
and staying on the dense broadcast for stop sets too small to amortise
the bucketing.

:class:`ShardStore` deduplicates construction by *content*: whole grids
are keyed by a stop-coordinate content hash (facilities with identical
stop sets — repeated queries, equal components, copies of a route —
share one build), and individual shard slices are interned by the
content of their (keys, coords) pair, so facilities with overlapping
stop sets whose shared region sorts into an identical slice share the
built shard instead of rebuilding it.  Every hit re-verifies the stored
arrays against the request before serving it, so a hash collision can
only cause a miss, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..core.config import SHARDS_AUTO, resolve_shard_count
from ..core.errors import QueryError, StoreError
from ..core.geometry import BBox, Point
from ..core.service import StopSet, coverage_kernel, psi_hit
from ..core.stats import QueryStats, StoreStats
from .cellstring import CellstringIndex, build_cellstring_index
from .grid import (
    _cell_indices_of,
    _derive_cell_size,
    _expand_candidate_pairs,
    _grid_geometry,
    _validated_stop_coords,
    worth_fanning_out,
)

__all__ = [
    "StopShard",
    "ShardedStopGrid",
    "GriddedStopSet",
    "ShardStore",
    "ProbeBatch",
    "probe_shard_arrays",
    "grid_spill_name",
    "cellstring_spill_name",
    "register_spill_opener",
]

#: How spilled indexes come back off disk.  The on-disk format is owned
#: by :mod:`repro.store`, which builds *on* the engine — so instead of
#: importing upward, the store registers its ``open_index`` here when it
#: is imported.  With no opener registered, every spill lookup is a
#: miss and the engine rebuilds, exactly as with no spill directory.
_SPILL_OPENER: Optional[Callable] = None


def register_spill_opener(opener: Optional[Callable]) -> None:
    """Install the callable that opens a spilled index file
    (``opener(path, mmap_mode='r')``), normally ``repro.store.open_index``."""
    global _SPILL_OPENER
    _SPILL_OPENER = opener


#: Key stride between grid rows: ``key = ix * _KEY_STRIDE + iy``.  The
#: cell-size derivation caps cells per axis at 2**20, so ``iy`` always
#: fits under the stride and keys stay far inside int64.
_KEY_STRIDE = np.int64(1) << np.int64(21)

# the three x-offsets of the 3x3 neighbourhood's rows; each row's three
# cells are one contiguous key range
_ROW_OFFSETS = (-1, 0, 1)


def _content_digest(arr: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).digest()


@dataclass(frozen=True)
class ProbeBatch:
    """One batched coverage query's per-point probe inputs.

    Everything a shard needs beyond its own arrays: the probe points,
    their cell coordinates and clipped y-windows, the candidate key
    window ``[kmin, kmax]`` per point, the query radius, and the grid
    width ``nx`` — shared read-only by every shard's probe, inline or
    on a pool thread.
    """

    pts: np.ndarray
    cx: np.ndarray
    ylo: np.ndarray
    yhi: np.ndarray
    kmin: np.ndarray
    kmax: np.ndarray
    psi: float
    nx: int


#: What one shard probe returns when any of its points were probed:
#: ``(scan_pts, hit_points, distance_evals, cells_probed)`` where the
#: first two are global probe-point indices.
ProbeResult = Tuple[np.ndarray, np.ndarray, int, int]


def probe_shard_arrays(
    keys: np.ndarray,
    coords: np.ndarray,
    cell_starts: np.ndarray,
    batch: ProbeBatch,
) -> Optional[ProbeResult]:
    """The per-shard probe: row-range gather + exact kernel.

    A pure function of immutable arrays — the one probe body, whether
    it runs inline or on a pool thread.

    Returns ``None`` when no probe point's candidate window overlaps the
    shard (or nothing was gathered), else ``(scan_pts, hits, evals,
    cells)``: the global indices of points that received at least one
    distance test, the global indices of points within ``psi`` of a
    shard stop (possibly repeated), and the work counters.
    """
    if keys.size == 0:
        return None
    key_lo = keys[0]
    key_hi = keys[-1]
    sel = np.nonzero((batch.kmax >= key_lo) & (batch.kmin <= key_hi))[0]
    ns = sel.size
    if ns == 0:
        return None
    scx = batch.cx[sel]
    sylo = batch.ylo[sel]
    syhi = batch.yhi[sel]
    nx = batch.nx
    klo = np.empty((ns, len(_ROW_OFFSETS)), dtype=np.int64)
    khi = np.empty((ns, len(_ROW_OFFSETS)), dtype=np.int64)
    for col, dx in enumerate(_ROW_OFFSETS):
        rx = scx + dx
        valid = (rx >= 0) & (rx < nx)
        base = rx * _KEY_STRIDE
        # invalid rows get an empty [-1, -2] range (keys are >= 0)
        klo[:, col] = np.where(valid, base + sylo, np.int64(-1))
        khi[:, col] = np.where(valid, base + syhi, np.int64(-2))
    lo = np.searchsorted(keys, klo, side="left")
    hi = np.searchsorted(keys, khi, side="right")
    counts = hi - lo
    np.maximum(counts, 0, out=counts)  # clipped y-windows
    per_point = counts.sum(axis=1)
    total = int(per_point.sum())
    if total == 0:
        return None
    cells = int(np.maximum(cell_starts[hi] - cell_starts[lo], 0).sum())
    # expand (point, candidate-stop) pairs flat, kernel at once
    pair_point, pair_stop = _expand_candidate_pairs(lo, counts, per_point, total)
    sub = batch.pts[sel]
    dx_ = sub[pair_point, 0] - coords[pair_stop, 0]
    dy_ = sub[pair_point, 1] - coords[pair_stop, 1]
    hits = sel[pair_point[psi_hit(dx_, dy_, batch.psi)]]
    return sel[per_point > 0], hits, total, cells


class StopShard:
    """One contiguous cell-key slice of a sharded grid (immutable).

    ``keys``/``coords`` are the slice of the owning grid's sorted layout;
    ``cell_starts`` is the prefix count of key-run starts, so the number
    of distinct cells inside any ``[lo, hi)`` run — the
    ``cells_probed`` accounting — is one subtraction.
    """

    __slots__ = ("keys", "coords", "key_lo", "key_hi", "cell_starts")

    def __init__(self, keys: np.ndarray, coords: np.ndarray) -> None:
        self.keys = np.ascontiguousarray(keys)
        self.coords = np.ascontiguousarray(coords)
        m = self.keys.size
        if m:
            self.key_lo = np.int64(self.keys[0])
            self.key_hi = np.int64(self.keys[-1])
        else:
            self.key_lo = np.int64(0)
            self.key_hi = np.int64(-1)
        prefix = np.zeros(m + 1, dtype=np.int64)
        if m:
            run_start = np.empty(m, dtype=bool)
            run_start[0] = True
            np.not_equal(self.keys[1:], self.keys[:-1], out=run_start[1:])
            np.cumsum(run_start, out=prefix[1:])
        self.cell_starts = prefix

    @property
    def n_stops(self) -> int:
        return int(self.keys.size)

    @property
    def n_cells(self) -> int:
        return int(self.cell_starts[-1])


def _grid_key(
    arr: np.ndarray, psi: float, n_shards: int, cell_size: Optional[float]
) -> Tuple:
    """The content key :meth:`ShardStore.sharded_grid` caches under.

    Carries the *resolved* shard count, so ``SHARDS_AUTO`` and the
    explicit count it resolves to are one entry (and one spill file)."""
    return (
        arr.shape,
        _content_digest(arr),
        float(psi),
        resolve_shard_count(n_shards, arr.shape[0]),
        None if cell_size is None else float(cell_size),
    )


def _cellstring_key(arr: np.ndarray, psi: float) -> Tuple:
    """The content key :meth:`ShardStore.cellstring_index` caches under."""
    return (arr.shape, _content_digest(arr), float(psi))


def _spill_token(key: Tuple) -> str:
    """A filesystem-safe token for a cache key: sha1 of its canonical
    repr (shapes, digests, floats — all repr-stable)."""
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()


def grid_spill_name(
    coords: np.ndarray,
    psi: float,
    n_shards: int = SHARDS_AUTO,
    cell_size: Optional[float] = None,
) -> str:
    """The spill-file name a :class:`ShardStore` probes for this sharded
    grid request — and therefore the name an offline builder
    (``python -m repro.store build``) must write, computed from the same
    key the in-memory cache uses."""
    arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    return f"grid-{_spill_token(_grid_key(arr, psi, n_shards, cell_size))}.idx"


def cellstring_spill_name(coords: np.ndarray, psi: float) -> str:
    """The spill-file name for this cellstring request (see
    :func:`grid_spill_name`)."""
    arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    return f"cellstring-{_spill_token(_cellstring_key(arr, psi))}.idx"


#: Default retention bounds.  A long-lived runtime dresses a grid per
#: distinct (stop content, psi) it serves — restricted components
#: included — so the store must not grow without limit; because it is a
#: content-addressed *cache*, evicting is always safe (a future request
#: simply rebuilds), so oldest-first eviction bounds memory at a small
#: constant.
_STORE_MAX_GRIDS = 256
_STORE_MAX_SHARDS = 2_048
_STORE_MAX_CELLSTRINGS = 128


class ShardStore:
    """Content-addressed cache of built shards, sharded grids, and
    cellstring indexes.

    Every level verifies a hit's stored arrays against the request
    bitwise before serving it, so aliasing through a hash collision is
    impossible — a collision is simply a miss.  Entries are keyed purely
    by content, so a store can be shared freely across facilities,
    runtimes, and threads; retention is bounded (oldest-first eviction
    past ``max_grids`` / ``max_shards`` / ``max_cellstrings``), which
    keeps a service-style runtime's memory flat across an unbounded
    query stream.

    The public methods run under one reentrant lock (``sharded_grid``
    builds grids that intern their slices back through the same store),
    so concurrent callers — the service's bridge threads dressing stop
    sets at once — get the single-builder guarantee: the first request
    for a given content builds, everyone else shares the built object.
    Grid/shard construction is pure CPU on immutable inputs, so holding
    the lock across a build trades a little concurrency for an
    invariant the tests can state exactly (one build per content).
    """

    def __init__(
        self,
        max_grids: int = _STORE_MAX_GRIDS,
        max_shards: int = _STORE_MAX_SHARDS,
        max_cellstrings: int = _STORE_MAX_CELLSTRINGS,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.max_grids = max(1, int(max_grids))
        self.max_shards = max(1, int(max_shards))
        self.max_cellstrings = max(1, int(max_cellstrings))
        #: Directory of persisted index files (``repro.store`` format)
        #: probed on in-memory misses before building: a file named by
        #: the request's own cache key (:func:`grid_spill_name` /
        #: :func:`cellstring_spill_name`) is opened over memmap views
        #: instead of rebuilt.  ``None`` disables spill lookup.
        self.spill_dir = spill_dir
        self._grids: Dict[Tuple, "ShardedStopGrid"] = {}
        self._shards: Dict[Tuple, StopShard] = {}
        self._cellstrings: Dict[Tuple, CellstringIndex] = {}
        self.grid_hits = 0  # guarded-by: _lock
        self.grid_misses = 0  # guarded-by: _lock
        self.grid_evictions = 0  # guarded-by: _lock
        self.shard_hits = 0  # guarded-by: _lock
        self.shard_misses = 0  # guarded-by: _lock
        self.shard_evictions = 0  # guarded-by: _lock
        self.cellstring_hits = 0  # guarded-by: _lock
        self.cellstring_misses = 0  # guarded-by: _lock
        self.cellstring_evictions = 0  # guarded-by: _lock
        self.opened = 0  # guarded-by: _lock
        self.verified = 0  # guarded-by: _lock
        #: Paths of persisted store files served over memmap views (the
        #: zero-copy evidence the serving layer's ``worker_mmap_paths``
        #: introspection reports): every entry is an index this store
        #: *opened* instead of building.
        self.opened_paths: Set[str] = set()  # guarded-by: _lock
        self._lock = threading.RLock()

    @staticmethod
    def _evict_oldest(table: Dict, cap: int) -> int:
        evicted = 0
        while len(table) > cap:  # dicts iterate in insertion order
            del table[next(iter(table))]
            evicted += 1
        return evicted

    def _open_spilled(self, filename: str):  # requires-lock: _lock
        """The index persisted under ``filename`` in the spill
        directory, opened over memmap views — or ``None`` (no spill dir,
        no such file, no registered opener, or a corrupt file, which is
        deliberately a silent miss: the caller rebuilds, exactly as if
        nothing were spilled).  Counts ``opened`` on a successful open;
        the caller counts ``verified`` after its bitwise
        re-verification."""
        opener = _SPILL_OPENER
        if self.spill_dir is None or opener is None:
            return None
        path = os.path.join(self.spill_dir, filename)
        if not os.path.exists(path):
            return None
        try:
            index = opener(path, mmap_mode="r")
        except StoreError:
            return None
        self.opened += 1
        self.opened_paths.add(os.path.abspath(path))
        return index

    # ------------------------------------------------------------------
    def sharded_grid(
        self,
        coords: np.ndarray,
        psi: float,
        n_shards: int = SHARDS_AUTO,
        cell_size: Optional[float] = None,
    ) -> "ShardedStopGrid":
        """A built :class:`ShardedStopGrid`, shared across callers whose
        stop coordinates are content-identical."""
        arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        key = _grid_key(arr, psi, n_shards, cell_size)
        with self._lock:
            hit = self._grids.get(key)
            if hit is not None and np.array_equal(hit.coords, arr):
                self.grid_hits += 1
                return hit
            self.grid_misses += 1
            grid = None
            spilled = self._open_spilled(
                f"grid-{_spill_token(key)}.idx"
            )
            if (
                isinstance(spilled, ShardedStopGrid)
                and spilled.psi == float(psi)
                and np.array_equal(spilled.coords, arr)
            ):
                # bitwise re-verified against the request, like every
                # in-memory hit: a token collision is a miss, never a
                # wrong answer
                self.verified += 1
                grid = spilled
            if grid is None:
                grid = ShardedStopGrid(
                    arr, psi, n_shards, cell_size=cell_size, store=self
                )
            self._grids[key] = grid
            self.grid_evictions += self._evict_oldest(
                self._grids, self.max_grids
            )
            return grid

    def intern_shard(self, keys: np.ndarray, coords: np.ndarray) -> StopShard:
        """The shard for this exact (keys, coords) slice, built once.

        Content addressing is sound regardless of which grid first built
        the slice: a shard is fully described by its sorted keys and
        coordinates, so any grid requesting identical content can share
        the object (this is how overlapping stop sets share shards)."""
        key = (keys.size, _content_digest(keys), _content_digest(coords))
        with self._lock:
            hit = self._shards.get(key)
            if (
                hit is not None
                and np.array_equal(hit.keys, keys)
                and np.array_equal(hit.coords, coords)
            ):
                self.shard_hits += 1
                return hit
            self.shard_misses += 1
            shard = StopShard(keys, coords)
            self._shards[key] = shard
            self.shard_evictions += self._evict_oldest(
                self._shards, self.max_shards
            )
            return shard

    def cellstring_index(
        self, coords: np.ndarray, psi: float
    ) -> CellstringIndex:
        """A built :class:`~repro.engine.cellstring.CellstringIndex`,
        shared across callers whose stop coordinates are
        content-identical at the same radius.

        Cellstring builds are radius-specific (rasterization bakes
        ``psi`` in), so the key includes ``psi``; like the other two
        levels, a hit re-verifies the stored coordinates bitwise before
        serving, so a hash collision is simply a miss.
        """
        arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        key = _cellstring_key(arr, psi)
        with self._lock:
            hit = self._cellstrings.get(key)
            if hit is not None and np.array_equal(hit.coords, arr):
                self.cellstring_hits += 1
                return hit
            self.cellstring_misses += 1
            index = None
            spilled = self._open_spilled(
                f"cellstring-{_spill_token(key)}.idx"
            )
            if (
                isinstance(spilled, CellstringIndex)
                and spilled.psi == float(psi)
                and np.array_equal(spilled.coords, arr)
            ):
                self.verified += 1
                index = spilled
            if index is None:
                index = build_cellstring_index(arr, psi)
            self._cellstrings[key] = index
            self.cellstring_evictions += self._evict_oldest(
                self._cellstrings, self.max_cellstrings
            )
            return index

    # ------------------------------------------------------------------
    def snapshot_stats(self) -> StoreStats:
        """A frozen :class:`~repro.core.stats.StoreStats` of the counters
        at this instant (consistent: taken under the store lock)."""
        with self._lock:
            return StoreStats(
                grid_hits=self.grid_hits,
                grid_misses=self.grid_misses,
                grid_evictions=self.grid_evictions,
                shard_hits=self.shard_hits,
                shard_misses=self.shard_misses,
                shard_evictions=self.shard_evictions,
                cellstring_hits=self.cellstring_hits,
                cellstring_misses=self.cellstring_misses,
                cellstring_evictions=self.cellstring_evictions,
                opened=self.opened,
                verified=self.verified,
            )

    def clear(self) -> None:
        with self._lock:
            self._grids.clear()
            self._shards.clear()
            self._cellstrings.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._grids) + len(self._shards) + len(self._cellstrings)


class ShardedStopGrid:
    """A uniform stop grid partitioned into cell-key range shards.

    Parameters
    ----------
    coords:
        ``(m, 2)`` stop coordinates.
    psi:
        The serving distance the grid is provisioned for; queries with a
        radius at or above the cell size fall back to the exact dense
        kernel (identical results).
    n_shards:
        How many contiguous cell-key slices to cut the sorted layout
        into; :data:`~repro.core.config.SHARDS_AUTO` resolves from the
        stop count.  Cuts align to cell boundaries, so a slice can be
        empty when stops concentrate in few cells — empty shards are
        valid and simply answer nothing.
    cell_size:
        Override the derived cell edge (tests force degenerate layouts).
    store:
        Optional :class:`ShardStore` interning the shard slices.

    The lattice origin is snapped down to a multiple of the cell size, so
    stop sets sharing a bounding-box corner cell assign identical keys to
    identical stops — which is what lets a :class:`ShardStore` share
    slices between overlapping stop sets.
    """

    __slots__ = (
        "coords",
        "psi",
        "cell_size",
        "n_shards",
        "shards",
        "_ox",
        "_oy",
        "_nx",
        "_ny",
    )

    def __init__(
        self,
        coords: np.ndarray,
        psi: float,
        n_shards: int = SHARDS_AUTO,
        cell_size: Optional[float] = None,
        store: Optional[ShardStore] = None,
    ) -> None:
        arr = _validated_stop_coords(coords, psi)
        self.coords = arr
        self.psi = float(psi)
        m = arr.shape[0]
        self.n_shards = resolve_shard_count(n_shards, m)
        if m == 0:
            self.cell_size = _derive_cell_size(psi, 0.0)
            self._ox = self._oy = 0.0
            self._nx = self._ny = 0
            self.shards = tuple(
                StopShard(np.zeros(0, dtype=np.int64), arr)
                for _ in range(self.n_shards)
            )
            return
        # snapped origin: identical stops in stop sets sharing the corner
        # cell get identical keys (which is what makes shard slices
        # shareable across facilities)
        self.cell_size, self._ox, self._oy = _grid_geometry(arr, psi, cell_size)
        ij = self._cell_indices(arr)
        self._nx = int(ij[:, 0].max()) + 1
        self._ny = int(ij[:, 1].max()) + 1
        if self._ny >= int(_KEY_STRIDE):
            # Derived cell sizes cap cells per axis far below the stride;
            # only a manual cell_size override can get here.  Row keys
            # would alias across rows — masks would stay exact (the
            # kernel filters) but the gathered candidate multiset, and
            # with it the documented 3x3 stats contract, would not.
            raise QueryError(
                f"grid of {self._ny} rows exceeds the shard key stride "
                f"({int(_KEY_STRIDE)}); use a larger cell_size"
            )
        keys = ij[:, 0] * _KEY_STRIDE + ij[:, 1]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_coords = arr[order]
        self.shards = tuple(
            self._build_shards(sorted_keys, sorted_coords, store)
        )

    def _build_shards(
        self,
        sorted_keys: np.ndarray,
        sorted_coords: np.ndarray,
        store: Optional[ShardStore],
    ) -> List[StopShard]:
        """Cut the sorted layout into ``n_shards`` cell-aligned slices.

        Targets are equal stop counts; each cut retreats to the start of
        the cell run it lands in, so no cell straddles two shards and a
        cut that falls exactly on a run boundary stays there (which is
        what lets overlapping stop sets produce content-identical slices
        for the store to share).  When stops concentrate into fewer
        cells than shards, cuts coincide and the surplus shards come
        out empty.
        """
        m = sorted_keys.size
        cuts = [0]
        for s in range(1, self.n_shards):
            pos = (m * s) // self.n_shards
            pos = int(
                np.searchsorted(sorted_keys, sorted_keys[pos], side="left")
            )
            cuts.append(max(min(pos, m), cuts[-1]))
        cuts.append(m)
        shards: List[StopShard] = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            keys_slice = np.ascontiguousarray(sorted_keys[a:b])
            coords_slice = np.ascontiguousarray(sorted_coords[a:b])
            if store is not None and b > a:
                shards.append(store.intern_shard(keys_slice, coords_slice))
            else:
                shards.append(StopShard(keys_slice, coords_slice))
        return shards

    # ------------------------------------------------------------------
    @property
    def n_stops(self) -> int:
        return int(self.coords.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.coords.shape[0] == 0

    def _cell_indices(self, pts: np.ndarray) -> np.ndarray:
        return _cell_indices_of(pts, self._ox, self._oy, self.cell_size)

    # ------------------------------------------------------------------
    def covered_mask(
        self,
        coords: np.ndarray,
        psi: float,
        stats: Optional[QueryStats] = None,
        executor: Union[Executor, Callable[[], Optional[Executor]], None] = None,
    ) -> np.ndarray:
        """Boolean mask: which of ``coords`` rows are within ``psi`` of a
        stop.  Bit-identical to the dense kernel for every input and
        shard count.

        The per-shard probes ride ``executor``'s threads (they read
        only shared immutable arrays) when more than one shard holds
        stops and the block has at least
        :data:`~repro.engine.grid.FANOUT_MIN_POINTS` points; otherwise —
        and always with ``executor=None`` — they run inline, one shard
        after another.  A zero-arg callable is resolved only once the
        block qualifies (it may still answer ``None``: probe inline).

        The mask union is order-independent, so scheduling never affects
        the answer.  Per-shard work counters are merged into ``stats``
        via :meth:`QueryStats.merge`, with multi-shard points attributed
        to their first probing shard so the merged totals equal a
        one-shard run.
        """
        pts = np.asarray(coords, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        n = pts.shape[0]
        if self.is_empty:
            return np.zeros(n, dtype=bool)
        if psi >= self.cell_size:
            # Grid too fine for this radius (cells must exceed psi
            # strictly): run the exact dense kernel instead.
            return coverage_kernel(pts, self.coords, psi, stats)
        ij = self._cell_indices(pts)
        cx = ij[:, 0]
        cy = ij[:, 1]
        ylo = np.maximum(cy - 1, 0)
        yhi = np.minimum(cy + 1, self._ny - 1)
        # every candidate key of a point lies inside [kmin, kmax]: the
        # per-shard prefilter keeps only points whose window overlaps
        # the shard's key range
        kmin = (cx - 1) * _KEY_STRIDE + ylo
        kmax = (cx + 1) * _KEY_STRIDE + yhi
        batch = ProbeBatch(pts, cx, ylo, yhi, kmin, kmax, psi, self._nx)

        tasks = [shard for shard in self.shards if shard.n_stops]
        pool = None
        if len(tasks) > 1 and worth_fanning_out(n):
            pool = executor() if callable(executor) else executor
        if pool is not None:
            results = list(
                pool.map(
                    lambda shard: probe_shard_arrays(
                        shard.keys, shard.coords, shard.cell_starts, batch
                    ),
                    tasks,
                )
            )
        else:
            results = [
                probe_shard_arrays(s.keys, s.coords, s.cell_starts, batch)
                for s in tasks
            ]

        out = np.zeros(n, dtype=bool)
        claimed = np.zeros(n, dtype=bool) if stats is not None else None
        for res in results:  # fixed shard order: deterministic stats
            if res is None:
                continue
            scan_pts, hits, evals, cells = res
            out[hits] = True
            if stats is not None:
                shard_stats = QueryStats(
                    distance_evals=evals, cells_probed=cells
                )
                if scan_pts.size:
                    fresh = scan_pts[~claimed[scan_pts]]
                    shard_stats.points_scanned = int(fresh.size)
                    claimed[scan_pts] = True
                stats.merge(shard_stats)
        return out

    def covers_point(
        self,
        p: Point,
        psi: float,
        stats: Optional[QueryStats] = None,
    ) -> bool:
        """True when ``p`` is within ``psi`` of any stop."""
        mask = self.covered_mask(
            np.array([[p.x, p.y]], dtype=np.float64), psi, stats
        )
        return bool(mask.size and mask[0])


class GriddedStopSet(StopSet):
    """A :class:`StopSet` whose coverage checks ride a lazy
    :class:`ShardedStopGrid`.

    Drop-in for the base class everywhere (facility components, index
    entries, oracles): same results.  The grid is built on first use
    once ``n_stops >= min_stops``; below the threshold — and for radii
    at or above the built grid's cell size — checks stay on the dense
    kernel.  ``shards`` is the shard count (``SHARDS_AUTO`` resolves
    from the stop count; 1 = one shard, no fan-out).  Builds go through
    ``store`` when one is given, so facilities with identical or
    overlapping stop content share them.  ``executor`` may be an
    :class:`~concurrent.futures.Executor`, or a zero-arg callable
    resolved at *query* time returning one or ``None`` — a
    :class:`repro.runtime.QueryRuntime` passes its live-executor getter,
    so stop sets dressed before the runtime closes degrade to inline
    probing instead of scheduling on a shut-down pool.
    """

    __slots__ = (
        "grid_psi",
        "min_stops",
        "shards",
        "_store",
        "_executor",
        "_grid",
        "_coarse_grid",
    )

    def __init__(
        self,
        coords: np.ndarray,
        psi: float,
        min_stops: int = 1,
        shards: int = SHARDS_AUTO,
        store: Optional[ShardStore] = None,
        executor: Union[Executor, Callable[[], Optional[Executor]], None] = None,
    ) -> None:
        super().__init__(coords)
        if not psi >= 0:
            raise QueryError(f"psi must be >= 0, got {psi}")
        resolve_shard_count(shards, self.n_stops)  # rejects counts < 0
        self.grid_psi = float(psi)
        self.min_stops = max(1, int(min_stops))
        self.shards = shards
        self._store = store
        self._executor = executor
        self._grid: Optional[ShardedStopGrid] = None
        self._coarse_grid: Optional[ShardedStopGrid] = None

    def _build(self, psi: float) -> ShardedStopGrid:
        if self._store is not None:
            return self._store.sharded_grid(self.coords, psi, self.shards)
        return ShardedStopGrid(self.coords, psi, self.shards)

    def _grid_for(self, psi: float) -> Optional[ShardedStopGrid]:
        if self.n_stops < self.min_stops:
            return None
        if self._grid is None or psi * 4.0 < self._grid.psi:
            # Build (or re-provision finer) at the requested radius: a
            # query far below the provisioned psi would otherwise gather
            # 3x3 blocks of oversized cells.  Rebuilds are monotone
            # finer, so alternating radii cannot thrash.
            self._grid = self._build(min(psi, self.grid_psi))
        if psi < self._grid.cell_size:
            # The fine grid is never replaced by a coarser one: one
            # oversized query must not degrade every later query at the
            # provisioned radius to coarse-cell gathering.
            return self._grid
        coarse = self._coarse_grid
        if coarse is None or psi >= coarse.cell_size:
            coarse = self._build(psi)
            self._coarse_grid = coarse
        return coarse

    # ------------------------------------------------------------------
    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        grid = self._grid_for(psi)
        if grid is None:
            return super().covers_point(p, psi, stats)
        return grid.covers_point(p, psi, stats)

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        grid = self._grid_for(psi)
        if grid is None:
            return super().covered_mask(coords, psi, stats)
        return grid.covered_mask(coords, psi, stats, self._executor)

    def restricted_to(self, box: BBox) -> "GriddedStopSet":
        if self.is_empty:
            return self
        return GriddedStopSet(
            self.coords[self._restriction_mask(box)],
            self.grid_psi,
            self.min_stops,
            shards=self.shards,
            store=self._store,
            executor=self._executor,
        )
