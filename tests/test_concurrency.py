"""Thread-safety of the shared-state layers of one runtime.

A :class:`~repro.runtime.QueryRuntime` may be shared by callers on
many threads, so :class:`~repro.engine.CoverageCache` and
:class:`~repro.engine.ShardStore` — the two objects every query shares
through the runtime — are hammered from many threads at once.
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
    top_k_facilities,
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
        and installing each record's level script once its column knows
        every node, through the calls the query path makes; returns how
        many node reads were made."""
        coords = np.zeros((4, 2))
        division = (np.zeros(4, dtype=bool),) * 3
        stops = StopSet(coords)

        def worker(i):
            for r in range(rounds):
                key = ("walk", (r + i) % walks)
                record = cache.lookup_record(key, coords)
                if record is None:
                    record = cache.store_record(key, coords, division, stops)
                # every thread sees the one dressing and gets its own
                # unprobed copy of it
                assert record.stops is stops
                assert record.stops.unprobed() is not stops
                script = cache.read_script(record, "c")
                held = cache.read_column(record, "c")
                if script is not None:
                    assert script == ("script", key)
                elif held is not None and held[0].all():
                    cache.store_script(record, "c", ("script", key), 1)
                nodes = np.array([r % 4, (r + 1) % 4])
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

    def test_walks_that_missed_together_share_one_record(self):
        """Two walks of one facility that both missed store one record:
        the later store keeps the held record of equal stops, columns
        and all, where replacing it would drop what the first walk
        filled; a record of other stops is replaced."""
        cache, coords = CoverageCache(), np.zeros((4, 2))
        division = (np.zeros(4, dtype=bool),) * 3
        stops = StopSet(coords)
        first = cache.store_record("walk", coords, division, stops)
        cache.store_column(first, "c", np.arange(4), np.ones(4), np.ones(4, dtype=np.int64), 0)
        assert cache.store_record("walk", coords.copy(), division, stops) is first
        assert cache.lookup_record("walk", coords) is first and cache._rows == 8
        other = cache.store_record("walk", coords + 1.0, division, stops)
        assert other is not first and cache.lookup_record("walk", coords) is None
        assert cache._rows == 4 and len(cache) == 0

    def test_walk_eviction_under_threads_keeps_the_bound(self, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_ROWS", 10)
        cache = CoverageCache()
        calls = self._hammer_records(cache, rounds=200, walks=6)
        assert cache.hits + cache.misses == calls
        assert cache.misses > 24  # records were evicted and filled again
        # the held count is the records' sizes, never above the cap
        assert cache._rows == sum(r.rows for r in cache._records.values()) <= 10

    @staticmethod
    def _match_set(slots):
        from repro.core.service import MatchSet

        return MatchSet(None, np.arange(slots))

    def test_cached_match_fn_concurrent_calls_are_consistent(self):
        """Threads asking for and storing match sets on four records,
        two columns each, the way ``core_match_fn`` does: every call is
        one hit or one miss, each (record, column) keeps the first set
        stored, and every later read returns that very set."""
        cache, stops = CoverageCache(), StopSet(np.zeros((1, 2)))
        division = (np.zeros(4, dtype=bool),) * 3
        coords = [np.full((1, 2), float(i)) for i in range(4)]
        for i in range(4):
            cache.store_record(("walk", i), coords[i], division, stops)
        columns, rounds = ("endpoint", "count"), 50
        seen = [dict() for _ in range(N_THREADS)]

        def worker(t):
            for r in range(rounds):
                for i in range(4):
                    key, column = ("walk", i), columns[(r + t) % 2]
                    got = cache.read_matches(key, coords[i].copy(), column)
                    if got is None:
                        cache.store_matches(key, coords[i], column, self._match_set(i + 1))
                    else:
                        assert seen[t].setdefault((i, column), got) is got

        _run_threads(worker)
        assert cache.hits + cache.misses == N_THREADS * rounds * 4
        held = {
            (key[1], column): matches
            for key, record in cache._records.items()
            for column, matches in record.matches.items()
        }
        assert len(held) == 8 and len(cache) == 8
        for (i, column), matches in held.items():
            assert matches.slots.size == i + 1
            assert all(s.get((i, column), matches) is matches for s in seen)
        # four divisions of four rows, one row per slot of each set
        assert cache._rows == 16 + 2 * (1 + 2 + 3 + 4)

    def test_mask_table_and_clear_under_threads(self):
        """Match sets stored, counted and cleared from many threads:
        ``clear()`` and ``len()`` mid-store never crash or miscount."""
        cache, coords = CoverageCache(), np.zeros((1, 2))
        division, stops = (np.zeros(5, dtype=bool),) * 3, StopSet(coords)

        def worker(i):
            for r in range(100):
                key = ("walk", r % 3)
                if cache.read_matches(key, coords, i) is None:
                    if cache.lookup_record(key, coords) is None:
                        cache.store_record(key, coords, division, stops)
                    cache.store_matches(key, coords, i, self._match_set(2))
                if i == 0 and r % 25 == 0:
                    cache.clear()
                assert 0 <= len(cache) <= 3 * N_THREADS

        _run_threads(worker)
        assert cache.hits + cache.misses == N_THREADS * 100
        assert cache._rows == sum(r.rows for r in cache._records.values())
        assert len(cache) == sum(len(r.matches) for r in cache._records.values())


def _assert_same_script(got, want):
    """Two level scripts hold the same anchor path and levels."""
    (path, levels), (want_path, want_levels) = got, want
    assert np.array_equal(path, want_path) and len(levels) == len(want_levels)
    for level, want_level in zip(levels, want_levels):
        assert np.array_equal(level.frontier, want_level.frontier)
        assert level[1:] == want_level[1:]


class TestPlanCacheConcurrency:
    @pytest.mark.engine_smoke
    def test_threads_walking_the_same_facilities_share_sound_plans(
        self, monkeypatch, taxi_users, facilities, endpoint_spec
    ):
        """Threads walking the same facilities under two specs through
        one runtime, in rotated orders, and ranking them with kMaxRRST,
        with a row bound smaller than the working set: every answer,
        ranking and plan (its stops included) a walk gets ``==`` the
        serial ones, every value column it reads holds the serial value
        and count wherever a node is known, every level script it reads
        ``==`` the serial one, and the records held stay within the
        bound."""
        from repro.engine import cache as cache_module

        tree = build_tq_zorder(taxi_users, beta=16)
        specs = [endpoint_spec, ServiceSpec(ServiceModel.COUNT, psi=endpoint_spec.psi)]
        walks = [(f, spec) for f in facilities for spec in specs]
        with QueryRuntime() as alone:
            serial = [evaluate_service(tree, f, spec, runtime=alone) for f, spec in walks]
            serial += [top_k_facilities(tree, facilities, 3, s, runtime=alone).ranking for s in specs]
            columns = {
                (key, column): held
                for key, record in alone.cache._records.items()
                for column, held in record.columns.items()
            }
            scripts = {
                (key, column): script
                for key, record in alone.cache._records.items()
                for column, script in record.scripts.items()
            }
        assert len(scripts) == len(walks)
        assert serial[: len(walks)] == [evaluate_service(tree, f, spec) for f, spec in walks]
        plans = [walk_plan(tree, f, spec.psi, None) for f, spec in walks]
        n = len(tree.frame())
        monkeypatch.setattr(cache_module, "MAX_ROWS", 10 * n)
        assert len(facilities) > 5
        results = [None] * N_THREADS

        def worker(i):
            order = list(range(i, len(walks))) + list(range(i))
            values = [None] * (len(walks) + len(specs))
            for _ in range(3):
                for j in order:
                    f, spec = walks[j]
                    values[j] = evaluate_service(tree, f, spec, runtime=runtime)
                    got, want = walk_plan(tree, f, spec.psi, runtime), plans[j]
                    assert np.array_equal(got.component.stops.coords, want.component.stops.coords)
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
                    script = runtime.cache.read_script(got.record, column)
                    if script is not None:
                        _assert_same_script(script, scripts[(got.record.key, column)])
                for s, spec in enumerate(specs[i % 2 :] + specs[: i % 2]):
                    ranking = top_k_facilities(tree, facilities, 3, spec, runtime=runtime).ranking
                    values[len(walks) + (s + i) % 2] = ranking
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
    """A runtime driven from many threads at once, racing its store's
    first builds, must stay bit-identical to serial, masks and
    per-probe stats alike."""

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
