"""Thread-safety of the shared-state layers under the service's
coalescing path (ISSUE-4 satellite).

The :class:`~repro.service.QueryService` executes request cores on a
bridge thread pool, so :class:`~repro.engine.CoverageCache` and
:class:`~repro.engine.ShardStore` — the two objects every request
shares through the runtime — are hammered from many threads at once.
Both now hold internal locks; these tests pin the invariants the locks
buy: consistent counters (hits + misses account for every call), no
lost or corrupted entries, single-build sharing in the store, and
bit-identical probe results when a sharded runtime is driven from many
threads concurrently.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    CoverageCache,
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    ShardStore,
    StopSet,
)
from repro.engine.grid import FANOUT_MIN_POINTS

from .conftest import SCHEDULING

N_THREADS = 8


def _run_threads(fn, n_threads=N_THREADS):
    """Run ``fn(thread_index)`` across threads, releasing them together
    to maximise interleaving; re-raises the first worker failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def body(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestCoverageCacheConcurrency:
    @staticmethod
    def _hammer_walks(cache, rounds, walks=4):
        """Threads walking ``walks`` walks of four nodes each, in a
        rotating node order, through the lookup / store pair the query
        path uses; returns how many node lookups were made."""
        anchor = object()
        coords = np.zeros((4, 2))
        rows = np.zeros(3, dtype=np.int64)
        mask = np.ones(7, dtype=bool)

        def worker(i):
            for r in range(rounds):
                walk = (r + i) % walks
                ids = [walk + walks * ((r + k) % 4) for k in range(4)]
                table, held = cache.lookup_walk(("walk", walk), coords, ids)
                found = {}
                for node_id, entry in zip(ids, held):
                    if entry is None:
                        found[node_id] = (anchor, rows, mask)
                    else:
                        assert entry[0] is anchor
                        assert entry[1] is rows and entry[2] is mask
                cache.store_walk(("walk", walk), coords, table, found, len(ids) - len(found))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        return N_THREADS * rounds * 4

    def test_node_table_hammering_keeps_counters_consistent(self):
        cache = CoverageCache()
        calls = self._hammer_walks(cache, rounds=200)
        # every node of a lookup either hit or was stored (counted as the
        # miss); nothing was lost to a racing increment
        assert cache.hits + cache.misses == calls
        assert len(cache) == 16  # one result per node

    def test_walk_eviction_under_threads_keeps_the_bound(self, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 10)
        cache = CoverageCache()
        calls = self._hammer_walks(cache, rounds=200, walks=6)
        assert cache.hits + cache.misses == calls
        assert cache.misses > 24  # walks were evicted and walked again
        # the held count is the tables' sizes, never above the cap
        assert len(cache) == sum(len(table) for _c, table in cache._walks.values()) <= 10

    def test_cached_match_fn_concurrent_calls_are_consistent(self):
        cache = CoverageCache()
        calls = []
        lock = threading.Lock()

        class Facility:
            def __init__(self, facility_id):
                self.facility_id = facility_id

        facilities = [Facility(i) for i in range(4)]

        def match_fn(facility):
            with lock:
                calls.append(facility.facility_id)
            return {facility.facility_id: (0, 1)}

        fn = cache.cached_match_fn(match_fn)
        results = [None] * N_THREADS

        def worker(i):
            out = [fn(f) for f in facilities for _ in range(50)]
            results[i] = out

        _run_threads(worker)
        expected = [{f.facility_id: (0, 1)} for f in facilities for _ in range(50)]
        for out in results:
            assert out == expected
        # concurrent first-misses may each compute, but the counters
        # must account for exactly one outcome per call
        total_calls = N_THREADS * 4 * 50
        assert cache.hits + cache.misses == total_calls
        assert cache.misses == len(calls)

    def test_mask_table_and_clear_under_threads(self):
        cache = CoverageCache()
        owner = object()
        block = np.zeros((5, 2))
        mask = np.ones(5, dtype=bool)

        def worker(i):
            for r in range(100):
                got = cache.lookup_mask(owner, 1.0, block)
                if got is None:
                    cache.store_mask(owner, 1.0, block, mask)
                else:
                    assert got is mask
                if i == 0 and r % 25 == 0:
                    cache.clear()
                len(cache)  # must never crash mid-clear

        _run_threads(worker)


class TestShardStoreConcurrency:
    PSI = 10.0

    def test_identical_content_builds_once_and_shares(self):
        store = ShardStore()
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 500, (2_000, 2))
        grids = [None] * N_THREADS

        def worker(i):
            # a fresh copy per thread: sharing must come from content,
            # not object identity
            grids[i] = store.sharded_grid(coords.copy(), self.PSI, 4)

        _run_threads(worker)
        first = grids[0]
        assert all(g is first for g in grids)
        assert store.grid_misses == 1  # single build under the lock
        assert store.grid_hits == N_THREADS - 1

    def test_distinct_content_interleaved_stays_sound(self):
        store = ShardStore()
        rng = np.random.default_rng(6)
        pools = [rng.uniform(0, 500, (800, 2)) for _ in range(4)]
        probe = rng.uniform(0, 500, (256, 2))
        expected = {
            i: StopSet(pool).covered_mask(probe, self.PSI)
            for i, pool in enumerate(pools)
        }

        def worker(i):
            for r in range(12):
                idx = (i + r) % len(pools)
                grid = store.sharded_grid(pools[idx].copy(), self.PSI, 3)
                np.testing.assert_array_equal(
                    grid.covered_mask(probe, self.PSI), expected[idx]
                )

        _run_threads(worker)
        assert store.grid_misses == len(pools)
        assert store.grid_hits == N_THREADS * 12 - len(pools)

    def test_interning_counters_account_for_every_call(self):
        store = ShardStore()
        keys = np.arange(64, dtype=np.int64)
        coords = np.random.default_rng(7).uniform(0, 10, (64, 2))

        def worker(i):
            for _ in range(100):
                shard = store.intern_shard(keys, coords)
                assert shard.n_stops == 64

        _run_threads(worker)
        assert store.shard_hits + store.shard_misses == N_THREADS * 100
        assert store.shard_misses == 1


class TestRuntimeConcurrentProbes:
    """A sharded runtime driven from many threads at once — the shape
    of the service's bridge pool — must stay bit-identical to serial."""

    PSI = 20.0

    @pytest.mark.parametrize("mode", [*SCHEDULING, "auto"])
    def test_concurrent_probe_mask_bit_identical(self, mode, scheduling_workers):
        rng = np.random.default_rng(8)
        stop_pools = [rng.uniform(0, 1_000, (3_000, 2)) for _ in range(3)]
        sizes = [600, 600, 600]
        if mode == "auto":
            # two workers at the shipped threshold, one block above it:
            # callers deciding inline and callers fanning out share the
            # one lazily built pool (first built under this very race)
            max_workers = 2
            sizes[-1] = FANOUT_MIN_POINTS + 100
        else:
            max_workers = scheduling_workers(mode)
        probes = [rng.uniform(0, 1_000, (n, 2)) for n in sizes]

        def config(workers):
            return RuntimeConfig(
                backend=ProximityBackend.GRID, shards=4, max_workers=workers
            )

        with QueryRuntime(config(1)) as inline:
            expected = [
                inline.probe_mask(stops, probe, self.PSI)
                for stops in stop_pools
                for probe in probes
            ]
        with QueryRuntime(config(max_workers)) as rt:
            def task(pair):
                si, pi = pair
                stats = QueryStats()
                mask = rt.probe_mask(
                    StopSet(stop_pools[si].copy()), probes[pi], self.PSI, stats
                )
                return si * len(probes) + pi, mask

            pairs = [(s, p) for s in range(3) for p in range(3)] * 4
            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                for idx, mask in pool.map(task, pairs):
                    np.testing.assert_array_equal(mask, expected[idx])
