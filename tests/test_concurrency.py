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
    ServiceModel,
    ServiceSpec,
    ShardStore,
    StopSet,
    build_tq_zorder,
    evaluate_service,
)
from repro.queries.evaluate import walk_plan

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
    def _hammer_records(cache, rounds, walks=4):
        """Threads reading and filling the value columns of ``walks``
        four-node walk records, two nodes at a time in a rotating order,
        through the calls the query path makes; returns how many node
        reads were made."""
        coords = np.zeros((4, 2))
        division = (np.zeros(4, dtype=bool),) * 3

        def worker(i):
            for r in range(rounds):
                key = ("walk", (r + i) % walks)
                record = cache.lookup_record(key, coords)
                if record is None:
                    record = cache.store_record(key, coords, division)
                nodes = np.array([r % 4, (r + 1) % 4])
                held = cache.read_column(record, "c")
                known = np.zeros(2, dtype=bool) if held is None else held[0][nodes]
                if held is not None:
                    # a known node always has its value and its count
                    assert np.array_equal(held[1][nodes[known]], 1.0 + nodes[known])
                    assert np.array_equal(held[2][nodes[known]], 10 + nodes[known])
                fresh = nodes[~known]
                cache.store_column(record, "c", fresh, 1.0 + fresh, 10 + fresh, int(known.sum()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        return N_THREADS * rounds * 2

    def test_node_table_hammering_keeps_counters_consistent(self):
        cache = CoverageCache()
        calls = self._hammer_records(cache, rounds=200)
        # every node of a read either hit or was stored (counted as the
        # miss); nothing was lost to a racing increment
        assert cache.hits + cache.misses == calls
        assert len(cache) == 16  # one value per node

    def test_walk_eviction_under_threads_keeps_the_bound(self, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_ROWS", 10)
        cache = CoverageCache()
        calls = self._hammer_records(cache, rounds=200, walks=6)
        assert cache.hits + cache.misses == calls
        assert cache.misses > 24  # records were evicted and filled again
        # the held count is the records' sizes, never above the cap
        assert cache._rows == sum(r.rows for r in cache._records.values()) <= 10

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


class TestPlanCacheConcurrency:
    @pytest.mark.engine_smoke
    def test_threads_walking_the_same_facilities_share_sound_plans(
        self, monkeypatch, taxi_users, facilities, endpoint_spec
    ):
        """Threads walking the same facilities under two specs through
        one runtime, in rotated orders, with a row bound smaller than
        the working set: every answer and every plan a walk gets ``==``
        the serial ones, every value column it reads holds the serial
        value and count wherever a node is known, and the records held
        stay within the bound."""
        from repro.engine import cache as cache_module

        tree = build_tq_zorder(taxi_users, beta=16)
        specs = [endpoint_spec, ServiceSpec(ServiceModel.COUNT, psi=endpoint_spec.psi)]
        walks = [(f, spec) for f in facilities for spec in specs]
        with QueryRuntime() as alone:
            serial = [evaluate_service(tree, f, spec, runtime=alone) for f, spec in walks]
            columns = {
                (key, column): held
                for key, record in alone.cache._records.items()
                for column, held in record.columns.items()
            }
        assert serial == [evaluate_service(tree, f, spec) for f, spec in walks]
        plans = [walk_plan(tree, f, spec.psi, None) for f, spec in walks]
        n = len(tree.frame())
        monkeypatch.setattr(cache_module, "MAX_ROWS", 10 * n)
        assert len(facilities) > 5
        results = [None] * N_THREADS

        def worker(i):
            order = list(range(i, len(walks))) + list(range(i))
            values = [None] * len(walks)
            for _ in range(3):
                for j in order:
                    f, spec = walks[j]
                    values[j] = evaluate_service(tree, f, spec, runtime=runtime)
                    got, want = walk_plan(tree, f, spec.psi, runtime), plans[j]
                    assert np.array_equal(got.served, want.served)
                    assert np.array_equal(got.visited, want.visited)
                    assert np.array_equal(got.envelopes, want.envelopes, equal_nan=True)
                    column = (spec.model, spec.normalize)
                    held = runtime.cache.read_column(got.record, column)
                    if held is not None:
                        known, value, count = held
                        serial_known, serial_value, serial_count = columns[(got.record.key, column)]
                        assert serial_known[known].all()
                        assert np.array_equal(value[known], serial_value[known])
                        assert np.array_equal(count[known], serial_count[known])
            results[i] = values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryRuntime() as runtime:
                _run_threads(worker)
                cache = runtime.cache
                assert cache._rows == sum(r.rows for r in cache._records.values()) <= 10 * n
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * N_THREADS


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
    """A runtime driven from many threads at once — the shape of the
    service's bridge pool, racing its store's first builds — must stay
    bit-identical to serial, masks and per-probe stats alike."""

    PSI = 20.0

    @pytest.mark.parametrize(
        "config",
        (
            RuntimeConfig(backend=ProximityBackend.GRID, shards=1),
            RuntimeConfig(backend=ProximityBackend.GRID, shards=4),
            RuntimeConfig(backend=ProximityBackend.CELLSTRING),
        ),
        ids=("grid-1", "grid-4", "cellstring"),
    )
    def test_concurrent_probe_mask_bit_identical(self, config):
        rng = np.random.default_rng(8)
        stop_pools = [rng.uniform(0, 1_000, (3_000, 2)) for _ in range(3)]
        probes = [rng.uniform(0, 1_000, (600, 2)) for _ in range(3)]

        def probe(rt, si, pi):
            stats = QueryStats()
            mask = rt.probe_mask(
                StopSet(stop_pools[si].copy()), probes[pi], self.PSI, stats
            )
            return mask, stats

        with QueryRuntime(config) as serial:
            expected = [
                probe(serial, si, pi) for si in range(3) for pi in range(3)
            ]
        with QueryRuntime(config) as rt:
            def task(pair):
                si, pi = pair
                return si * len(probes) + pi, probe(rt, si, pi)

            pairs = [(s, p) for s in range(3) for p in range(3)] * 4
            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                for idx, (mask, stats) in pool.map(task, pairs):
                    np.testing.assert_array_equal(mask, expected[idx][0])
                    assert stats == expected[idx][1]
