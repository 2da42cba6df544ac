"""Execution policies: where a sharded coverage probe actually runs.

:class:`~repro.core.config.RuntimeConfig` names a policy (``serial`` /
``threads`` / ``processes``); this module provides the machinery behind
each name.  A :class:`PolicyExecutor` owns whatever worker resources its
policy needs and exposes two things to :class:`~repro.runtime.
QueryRuntime`:

* :meth:`~PolicyExecutor.live` — the object a dressed
  :class:`~repro.engine.GriddedStopSet` hands to
  :meth:`~repro.engine.ShardedStopGrid.covered_mask` at query time
  (``None`` for serial probing, a thread-pool
  :class:`~concurrent.futures.Executor`, or a shared-memory fan-out);
* :meth:`~PolicyExecutor.close` — tear the resources down; the runtime
  stays usable serially afterwards.

Every policy runs the *same* probe body,
:func:`repro.engine.shards.probe_shard_arrays`, on the same arrays, so
masks are bit-identical across policies by construction — the only
difference is which process/thread the call happens on.

The ``processes`` policy is the interesting one.  Closures over numpy
arrays do not pickle, and pickling multi-megabyte shard arrays per query
would drown the win, so :class:`ProcessPolicyExecutor` ships arrays
through ``multiprocessing.shared_memory``:

* **shard arrays** (keys / coords / cell-run prefix) are exported once
  per shard into named shared-memory blocks and cached on the executor;
  workers attach by name and keep zero-copy views cached across queries
  (shards are immutable, so a view is forever valid);
* **persisted shards** skip shared memory entirely: a shard whose
  arrays are memmap views of a ``repro.store`` file
  (:class:`~repro.engine.shards.MmapStopShard`) ships as its *store
  path* — a three-element tuple instead of three copied segments — and
  each worker opens the same file read-only, so the coordinator and
  every worker share one physical page-cache mapping with zero copies
  on either side;
* **the probe batch** (points, cell windows, key windows) is exported
  once per ``covered_mask`` call and unlinked as soon as every shard's
  result is back;
* workers return only small index arrays (scanned points, hit points)
  plus two integers, so the reply path stays cheap.

Both caches are bounded with oldest-first eviction, mirroring
:class:`~repro.engine.ShardStore`: an evicted export simply re-ships on
next use, so memory stays flat across an unbounded query stream.

Fork vs. spawn: the default start method is the platform's (``fork`` on
Linux, ``spawn`` on macOS ≥ 3.8 and Windows).  Workers hold no state the
start method could corrupt — they import this module, attach segments by
name, and compute — so both methods are supported and differential
tests run under ``spawn`` in CI (``RuntimeConfig(start_method=
"spawn")``).  ``fork`` from a multi-threaded parent is the usual
caveat: create process runtimes early or use ``spawn`` when the host
application is thread-heavy (see DESIGN.md §5.1).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import ExecutionPolicy, RuntimeConfig
from ..core.errors import StoreError
from ..engine.shards import (
    MmapStopShard,
    ProbeBatch,
    ProbeResult,
    StopShard,
    probe_shard_arrays,
)

__all__ = [
    "PolicyExecutor",
    "SerialPolicyExecutor",
    "ThreadPolicyExecutor",
    "ProcessPolicyExecutor",
    "AutoPolicyExecutor",
    "make_policy_executor",
    "resolve_worker_count",
    "AUTO_POLICY_MIN_POINTS",
]

#: Cap on the default pool size when ``max_workers`` is ``None``.
_DEFAULT_MAX_WORKERS = 8

#: Creator-side bound on cached shard exports (each pins one shard and
#: three shared-memory blocks); evicting just means re-shipping later.
_EXPORT_CAP = 1_024

#: Worker-side bound on cached segment attachments.
_WORKER_SHARD_CAP = 64

#: Worker-side bound on cached store-file mappings (mmap transport).
#: One entry per distinct store file a worker has probed; evicting just
#: re-opens (O(header)) on next use.
_WORKER_MMAP_CAP = 16


def resolve_worker_count(max_workers: Optional[int]) -> int:
    """``max_workers`` with the ``None`` → machine-sized default applied."""
    if max_workers is None:
        return min(_DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
    return max_workers


class PolicyExecutor:
    """One execution policy's worker machinery (see module docstring)."""

    policy: ExecutionPolicy

    def live(self) -> Union[Executor, "ProcessPolicyExecutor", None]:
        """What a dressed stop set should fan out over right now:
        ``None`` (probe serially), an :class:`Executor`, or a
        ``probe_shards`` fan-out.  Resolved at query time so stop sets
        dressed before :meth:`close` degrade to serial probing."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Bring worker resources up *now* instead of on first probe.

        Lazy pool construction is the right default for one-shot
        runtimes, but a ``fork``-based process pool must not be created
        from a thread-heavy host: a worker forked while another thread
        holds a lock (a cache's bookkeeping lock, an allocator lock,
        numpy internals) inherits it locked forever — the classic
        multithreaded-fork deadlock.  Multi-threaded hosts (the asyncio
        :class:`repro.service.QueryService` runs query cores on a
        bridge pool) call this once while still single-threaded so the
        fork happens from a clean process.  Default: no-op (serial and
        thread pools have no fork hazard and stay lazy).
        """

    def close(self) -> None:
        """Release worker resources; ``live()`` returns ``None`` after."""


class SerialPolicyExecutor(PolicyExecutor):
    """``serial``: every shard probed inline on the calling thread."""

    policy = ExecutionPolicy.SERIAL

    def live(self) -> None:
        return None

    def close(self) -> None:
        pass


class ThreadPolicyExecutor(PolicyExecutor):
    """``threads``: shard probes ride a lazily built thread pool.

    The dense numpy kernels release the GIL, so shard tasks genuinely
    overlap.  The pool is built on first use (runtimes created by the
    legacy keyword shims cost nothing unless sharding engages) under a
    lock, because a shared service runtime can see its first two
    queries on different threads and the loser's pool would otherwise
    leak unshutdown.
    """

    policy = ExecutionPolicy.THREADS

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._executor: Optional[Executor] = None
        self._built = False
        self._lock = threading.Lock()
        self._closed = False

    def live(self) -> Optional[Executor]:
        if not self._built:
            with self._lock:
                if not self._built:
                    workers = resolve_worker_count(self._max_workers)
                    if workers > 1 and not self._closed:
                        self._executor = ThreadPoolExecutor(
                            max_workers=workers,
                            thread_name_prefix="repro-shard",
                        )
                    self._built = True
        return self._executor

    def close(self) -> None:
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
            self._built = True
        if executor is not None:
            executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# the processes policy: shared-memory shipping
# ----------------------------------------------------------------------
#: ``(name, shape, dtype-str)`` — everything needed to rebuild a view.
_ArrayDescriptor = Tuple[str, Tuple[int, ...], str]


class _SharedBlock:
    """A numpy array copied once into a named shared-memory segment."""

    __slots__ = ("shm", "descriptor")

    def __init__(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes)
        )
        if arr.nbytes:
            view = np.ndarray(arr.shape, arr.dtype, buffer=self.shm.buf)
            view[...] = arr
            del view  # keep no export of shm.buf alive past __init__
        self.descriptor: _ArrayDescriptor = (
            self.shm.name,
            arr.shape,
            arr.dtype.str,
        )

    def release(self) -> None:
        """Close the creator's mapping and unlink the segment (attached
        workers keep their own mappings alive until they close)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - no exports escape
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _attach_array(
    desc: _ArrayDescriptor,
) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Worker side: a zero-copy view of a creator-exported array."""
    name, shape, dtype = desc
    try:
        # track=False (3.13+) keeps the worker's resource tracker out of
        # segments the creator owns and will unlink
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - older interpreters
        shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, np.dtype(dtype), buffer=shm.buf)


#: Worker-process attachment cache: first descriptor name -> (handles,
#: arrays).  Shard segments live for their grid's lifetime and their
#: names are never reused, so caching by name is sound; bounded so a
#: long-lived worker serving many grids stays flat.
_worker_shards: "OrderedDict[str, Tuple[List, List[np.ndarray]]]" = OrderedDict()


def _worker_shard_arrays(
    shard_desc: Tuple[_ArrayDescriptor, ...]
) -> List[np.ndarray]:
    key = shard_desc[0][0]
    entry = _worker_shards.get(key)
    if entry is None:
        handles: List = []
        arrays: List[np.ndarray] = []
        for d in shard_desc:
            shm, arr = _attach_array(d)
            handles.append(shm)
            arrays.append(arr)
        entry = (handles, arrays)
        _worker_shards[key] = entry
        while len(_worker_shards) > _WORKER_SHARD_CAP:
            _, (old_handles, old_arrays) = _worker_shards.popitem(last=False)
            del old_arrays  # views must die before the mapping can close
            for shm in old_handles:
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - view still out
                    pass
    return entry[1]


#: Worker-process cache of opened store files: path -> reconstructed
#: sharded grid over read-only memmap views.  Store files are immutable
#: once written (atomic replace), so caching by path is sound; several
#: workers (and the coordinator) mapping the same path share one
#: physical read-only mapping through the page cache.
_worker_mmap_grids: "OrderedDict[str, object]" = OrderedDict()


def _worker_mmap_shard_arrays(
    path: str, index: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker side of the mmap transport: the shard's arrays as views of
    the store file at ``path``.

    ``verify=False``: the coordinator opened (and content-hash-verified)
    the very same file to produce the shard it shipped, and the file is
    immutable, so re-hashing the payload in every worker would only
    fault every page in for nothing.
    """
    grid = _worker_mmap_grids.get(path)
    if grid is None:
        from ..store import open_index  # deferred: store builds on engine

        grid = open_index(path, mmap_mode="r", verify=False)
        _worker_mmap_grids[path] = grid
        while len(_worker_mmap_grids) > _WORKER_MMAP_CAP:
            _worker_mmap_grids.popitem(last=False)
    shard = grid.shards[index]
    return shard.keys, shard.coords, shard.cell_starts


def _worker_mmap_cached_paths() -> List[str]:
    """Introspection task (picklable): which store files this worker has
    mapped.  The mmap-transport lifecycle test submits this to prove
    workers attach by path instead of receiving shared-memory copies."""
    return sorted(_worker_mmap_grids)


def _probe_task(
    shard_desc: Tuple,
    batch_desc: Tuple[_ArrayDescriptor, _ArrayDescriptor],
    psi: float,
    nx: int,
) -> Optional[ProbeResult]:
    """The worker-side task: rebuild views, run the shared probe body.

    ``shard_desc`` is either three shared-memory descriptors or an
    ``("mmap", path, shard_index)`` triple from the mmap transport.
    The result arrays come out of fancy indexing inside
    :func:`probe_shard_arrays`, so they own their memory — nothing
    returned references the shared segments, which is what makes it safe
    for the creator to unlink the batch blocks as soon as every result
    is back.
    """
    if shard_desc[0] == "mmap":
        keys, coords, cell_starts = _worker_mmap_shard_arrays(
            shard_desc[1], shard_desc[2]
        )
    else:
        keys, coords, cell_starts = _worker_shard_arrays(shard_desc)
    handles: List = []
    try:
        shm_pts, pts = _attach_array(batch_desc[0])
        handles.append(shm_pts)
        shm_ints, ints = _attach_array(batch_desc[1])
        handles.append(shm_ints)
        result = probe_shard_arrays(
            keys,
            coords,
            cell_starts,
            ProbeBatch(
                pts, ints[0], ints[1], ints[2], ints[3], ints[4], psi, nx
            ),
        )
        del pts, ints
        return result
    finally:
        for shm in handles:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still out
                pass


def _prepare_noop() -> None:
    """Worker warm-up task (picklable module-level no-op)."""


def _release_export_blocks(
    exports: Dict[int, Tuple[StopShard, List[_SharedBlock], Tuple]]
) -> None:
    """Unlink every cached shard export (GC finalizer / close path)."""
    for _, blocks, _ in list(exports.values()):
        for b in blocks:
            b.release()
    exports.clear()


class ProcessPolicyExecutor(PolicyExecutor):
    """``processes``: shard probes fan out over a process pool.

    Implements the ``probe_shards(shards, batch)`` fan-out protocol of
    :meth:`~repro.engine.ShardedStopGrid.covered_mask`: shard arrays are
    exported to shared memory once and cached (bounded, oldest-first),
    the per-query batch is exported for exactly the duration of the
    query, and one task per shard is submitted; results are gathered in
    submission order, so stats attribution stays deterministic and the
    merged totals equal a one-shard run exactly.

    The pool itself is lazy and built under a lock, like the thread
    policy's.  With ``max_workers`` resolving to 0 or 1 the fan-out is
    skipped entirely (``live()`` is ``None``): a one-process pool only
    adds IPC to identical maths.
    """

    policy = ExecutionPolicy.PROCESSES

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_exports: int = _EXPORT_CAP,
    ) -> None:
        self._workers = resolve_worker_count(max_workers)
        self._start_method = start_method
        self.max_exports = max(1, int(max_exports))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_built = False
        self._lock = threading.Lock()
        self._closed = False
        # id(shard) -> (pinned shard, blocks, descriptors); pinning the
        # shard keeps its id from being recycled while the entry lives
        self._exports: Dict[
            int, Tuple[StopShard, List[_SharedBlock], Tuple]
        ] = {}
        #: Transport observability: how many shard descriptors were
        #: shipped as store paths (mmap transport, zero copies) versus
        #: how many shard exports were copied into shared memory.
        self.mmap_shipped = 0
        self.shm_shipped = 0
        #: Distinct store-file paths shipped as mmap descriptors —
        #: parent-side record of the zero-copy transport, readable
        #: without probing the pool (the serving stats report it per
        #: prefork worker).
        self.mmap_paths_shipped: set = set()
        # Safety net for executors dropped without close(): named
        # segments outlive the objects that created them, so GC alone
        # would leak them until interpreter exit (or past it, under
        # SIGKILL).  The finalizer must not capture self — it holds the
        # (never-reassigned) exports dict instead.
        self._finalizer = weakref.finalize(
            self, _release_export_blocks, self._exports
        )

    # ------------------------------------------------------------------
    def live(self) -> Optional["ProcessPolicyExecutor"]:
        if self._closed or self._workers <= 1:
            return None
        return self

    def prepare(self) -> None:
        """Fork/spawn the worker processes now (see :meth:`PolicyExecutor
        .prepare`).

        Building the :class:`ProcessPoolExecutor` object is not enough —
        CPython launches the actual workers at submit time — so this
        runs one no-op task and waits for it.  One submit suffices on
        every supported interpreter and start method:

        * under ``fork`` — the only start method where late launches
          are hazardous — the first submit launches *all*
          ``max_workers`` workers before the pool's manager thread
          exists.  gh-90622's on-demand spawning (3.11+) explicitly
          excludes ``fork`` (``_safe_to_dynamically_spawn_children``)
          for exactly the deadlock this method guards against, and
          pre-3.11 pools launched every worker on first submit anyway;
        * under ``spawn``/``forkserver`` workers may launch on demand
          after this returns, but they never ``fork()`` the
          multi-threaded host: ``spawn`` starts a fresh interpreter,
          and ``forkserver`` workers fork from the forkserver daemon —
          which this first submit starts, from the calling thread's
          clean state.
        """
        if self.live() is None:
            return
        pool = self._ensure_pool()
        if pool is not None:
            try:
                pool.submit(_prepare_noop).result()
            except RuntimeError:  # pragma: no cover - closed under us
                pass

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if not self._pool_built:
            with self._lock:
                if not self._pool_built:
                    if not self._closed:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self._workers,
                            mp_context=get_context(self._start_method),
                        )
                    self._pool_built = True
        return self._pool

    def _shard_descriptor(self, shard: StopShard) -> Tuple:
        if isinstance(shard, MmapStopShard):
            # mmap transport: the shard's arrays already live in an
            # immutable store file every process can map read-only, so
            # ship the path — no shared-memory export, no copy, nothing
            # for close() to unlink
            with self._lock:
                self.mmap_shipped += 1
                self.mmap_paths_shipped.add(shard.store_path)
            return ("mmap", shard.store_path, shard.shard_index)
        # under the lock: a shared service runtime can probe the same
        # not-yet-exported shard from two threads at once, and the loser
        # of an unlocked race would overwrite (and so never unlink) the
        # winner's segments
        with self._lock:
            entry = self._exports.get(id(shard))
            if entry is not None and entry[0] is shard:
                return entry[2]
            blocks = [
                _SharedBlock(shard.keys),
                _SharedBlock(shard.coords),
                _SharedBlock(shard.cell_starts),
            ]
            desc = tuple(b.descriptor for b in blocks)
            self._exports[id(shard)] = (shard, blocks, desc)
            self.shm_shipped += 1
            evicted: List[_SharedBlock] = []
            while len(self._exports) > self.max_exports:
                oldest = next(iter(self._exports))  # insert order = age
                _, old_blocks, _ = self._exports.pop(oldest)
                evicted.extend(old_blocks)
        for b in evicted:
            b.release()
        return desc

    # ------------------------------------------------------------------
    def probe_shards(
        self, shards: Sequence[StopShard], batch: ProbeBatch
    ) -> List[Optional[ProbeResult]]:
        """The fan-out protocol: one result per shard, in shard order."""
        pool = self._ensure_pool()
        if pool is None:  # closed under us: degrade to serial probing
            return [
                probe_shard_arrays(s.keys, s.coords, s.cell_starts, batch)
                for s in shards
            ]
        ints = np.stack(
            [batch.cx, batch.ylo, batch.yhi, batch.kmin, batch.kmax]
        )
        batch_blocks = [_SharedBlock(batch.pts), _SharedBlock(ints)]
        batch_desc = (batch_blocks[0].descriptor, batch_blocks[1].descriptor)
        try:
            try:
                futures = [
                    (
                        s,
                        pool.submit(
                            _probe_task,
                            self._shard_descriptor(s),
                            batch_desc,
                            batch.psi,
                            batch.nx,
                        ),
                    )
                    for s in shards
                ]
            except RuntimeError:
                # close() won the race between _ensure_pool and submit:
                # identical answers, just computed inline
                return [
                    probe_shard_arrays(s.keys, s.coords, s.cell_starts, batch)
                    for s in shards
                ]
            results: List[Optional[ProbeResult]] = []
            for s, f in futures:
                try:
                    results.append(f.result())
                except (FileNotFoundError, StoreError):
                    # another thread evicted this shard's export between
                    # our submit and the worker's attach (or, on the
                    # mmap path, the store file vanished under the
                    # worker); the arrays are still here, so recompute
                    # this shard inline
                    results.append(
                        probe_shard_arrays(
                            s.keys, s.coords, s.cell_starts, batch
                        )
                    )
            return results
        finally:
            # every result is back (or the query failed): the batch
            # segments are never needed again
            for b in batch_blocks:
                b.release()

    # ------------------------------------------------------------------
    def worker_mmap_paths(self, probes: int = 8) -> set:
        """The union of store-file paths the pool's workers have mapped
        (best effort: ``probes`` introspection tasks land on whichever
        workers the pool schedules).  Test/observability hook for the
        mmap transport."""
        pool = self._ensure_pool()
        if pool is None:
            return set()
        futures = [
            pool.submit(_worker_mmap_cached_paths) for _ in range(probes)
        ]
        paths: set = set()
        for f in futures:
            paths.update(f.result())
        return paths

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool = self._pool
            self._pool = None
            self._pool_built = True
            exports = list(self._exports.values())
            self._exports.clear()
        if pool is not None:
            pool.shutdown(wait=True)
        for _, blocks, _ in exports:
            for b in blocks:
                b.release()


#: Probe blocks below this many points run serially under the ``auto``
#: policy: dispatching a handful of rows to a pool costs more than the
#: kernel itself.  Chosen an order of magnitude above the point where
#: per-task dispatch (~10-100us) is amortised by the numpy kernels.
AUTO_POLICY_MIN_POINTS = 4_096


class AutoPolicyExecutor(PolicyExecutor):
    """``auto``: pick serial or thread fan-out *per probe block*.

    The scheduling-axis analogue of ``ProximityBackend.AUTO``: the
    other policies fix where shard probes run for the runtime's
    lifetime, but the right choice depends on the probe block — a
    kMaxRRST ancestor scan probes a few dozen points (pool dispatch
    costs more than the kernel), a batch-engine pass probes tens of
    thousands (the fan-out wins).  This executor implements the
    ``probe_shards`` fan-out protocol so it sees each
    :class:`~repro.engine.shards.ProbeBatch` before scheduling it:
    blocks under :data:`AUTO_POLICY_MIN_POINTS` points probe inline on
    the calling thread, larger ones ride a lazily built
    :class:`ThreadPolicyExecutor` pool (threads, not processes — the
    per-query IPC cost of the process policy is exactly what an
    adaptive default must not spring on small-to-middling requests).

    Either way the same probe body runs on the same arrays, so masks
    and merged stats are bit-identical to whichever policy the
    heuristic delegates to — the differential suite pins this.
    ``serial_probes`` / ``fanout_probes`` count the decisions for
    observability (and for the tests that pin the heuristic itself).
    """

    policy = ExecutionPolicy.AUTO

    def __init__(
        self,
        max_workers: Optional[int] = None,
        min_points: int = AUTO_POLICY_MIN_POINTS,
    ) -> None:
        self._threads = ThreadPolicyExecutor(max_workers)
        self._workers = resolve_worker_count(max_workers)
        self.min_points = int(min_points)
        self._closed = False
        self._lock = threading.Lock()
        self.serial_probes = 0
        self.fanout_probes = 0

    def live(self) -> Optional["AutoPolicyExecutor"]:
        # with one worker the heuristic could never choose fan-out, so
        # don't interpose at all — dressed sets probe inline directly
        if self._closed or self._workers <= 1:
            return None
        return self

    def probe_shards(
        self, shards: Sequence[StopShard], batch: ProbeBatch
    ) -> List[Optional[ProbeResult]]:
        """One result per shard in shard order (the fan-out protocol)."""
        executor = None
        if batch.pts.shape[0] >= self.min_points and len(shards) > 1:
            executor = self._threads.live()  # None once closed: serial
        if executor is None:
            with self._lock:
                self.serial_probes += 1
            return [
                probe_shard_arrays(s.keys, s.coords, s.cell_starts, batch)
                for s in shards
            ]
        with self._lock:
            self.fanout_probes += 1
        return list(
            executor.map(
                lambda s: probe_shard_arrays(
                    s.keys, s.coords, s.cell_starts, batch
                ),
                shards,
            )
        )

    def close(self) -> None:
        self._closed = True
        self._threads.close()


def make_policy_executor(config: RuntimeConfig) -> PolicyExecutor:
    """The :class:`PolicyExecutor` behind ``config.policy``."""
    if config.policy is ExecutionPolicy.SERIAL:
        return SerialPolicyExecutor()
    if config.policy is ExecutionPolicy.PROCESSES:
        return ProcessPolicyExecutor(config.max_workers, config.start_method)
    if config.policy is ExecutionPolicy.AUTO:
        return AutoPolicyExecutor(config.max_workers)
    return ThreadPolicyExecutor(config.max_workers)
