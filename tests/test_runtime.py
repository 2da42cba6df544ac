"""The QueryRuntime execution layer: every runtime setting (dense, grid
at any shard count, cellstring, fan-out) must be answer-invisible —
``==`` against the plain dense path throughout.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    BatchQueryEngine,
    CoverageCache,
    GriddedStopSet,
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    StopSet,
    TQTree,
    TQTreeConfig,
    auto_shard_count,
    brute_force_service,
    evaluate_service,
    exact_max_k_coverage,
    genetic_max_k_coverage,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.errors import QueryError
from repro.queries import FacilityComponent, evaluate_node_trajectories
from repro.queries.maxkcov import tq_match_fn
from repro.runtime import coerce_runtime, resolve_worker_count

from .strategies import WORLD

ALL_MODELS = (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH)


def _runtime(backend=ProximityBackend.AUTO, shards=0, max_workers=0, **kw):
    return QueryRuntime(
        RuntimeConfig(backend=backend, shards=shards, max_workers=max_workers),
        **kw,
    )


class TestStopSetDressing:
    def test_dense_backend_returns_plain(self):
        rt = _runtime(ProximityBackend.DENSE)
        stops = StopSet(np.random.default_rng(0).uniform(0, 100, (200, 2)))
        assert rt.stop_set(stops, 10.0) is stops

    def test_auto_keeps_tiny_sets_dense(self):
        rt = _runtime(ProximityBackend.AUTO)
        stops = StopSet(np.random.default_rng(0).uniform(0, 100, (8, 2)))
        dressed = rt.stop_set(stops, 10.0)
        assert type(dressed) is StopSet

    def test_one_shard_grid_builds_through_the_store(self):
        """``shards=1`` is the plain grid — and, like every grid-tier
        set, it is built by the runtime's shard store."""
        rt = _runtime(ProximityBackend.GRID, shards=1)
        stops = StopSet(np.random.default_rng(0).uniform(0, 100, (8, 2)))
        dressed = rt.stop_set(stops, 10.0)
        assert isinstance(dressed, GriddedStopSet)
        dressed.covered_mask(stops.coords, 10.0)
        assert dressed._grid.n_shards == 1
        assert rt.shard_store.grid_misses == 1

    def test_explicit_shard_count_shards(self):
        rt = _runtime(ProximityBackend.GRID, shards=3)
        stops = StopSet(np.random.default_rng(0).uniform(0, 100, (64, 2)))
        dressed = rt.stop_set(stops, 10.0)
        assert isinstance(dressed, GriddedStopSet)
        assert dressed.shards == 3
        assert dressed._grid_for(10.0).n_shards == 3

    def test_auto_shards_resolve_from_stop_count(self):
        rt = _runtime(ProximityBackend.AUTO, shards=0)
        small = StopSet(np.random.default_rng(0).uniform(0, 500, (200, 2)))
        large = StopSet(np.random.default_rng(1).uniform(0, 500, (4_000, 2)))
        assert rt.stop_set(small, 10.0)._grid_for(10.0).n_shards == 1
        assert rt.stop_set(large, 10.0)._grid_for(10.0).n_shards >= 2
        assert auto_shard_count(200) == 1

    def test_cellstring_backend_always_dresses(self):
        from repro import CellstringStopSet

        rt = _runtime(ProximityBackend.CELLSTRING)
        for n in (1, 8, 200):
            stops = StopSet(np.random.default_rng(n).uniform(0, 100, (n, 2)))
            dressed = rt.stop_set(stops, 10.0)
            assert isinstance(dressed, CellstringStopSet)
            assert dressed.min_stops == 1

    def test_auto_picks_cellstring_for_huge_sets(self):
        from repro import CellstringStopSet
        from repro.engine import AUTO_CELLSTRING_MIN_STOPS

        rt = _runtime(ProximityBackend.AUTO)
        huge = StopSet(
            np.random.default_rng(2).uniform(
                0, 500, (AUTO_CELLSTRING_MIN_STOPS, 2)
            )
        )
        assert isinstance(rt.stop_set(huge, 10.0), CellstringStopSet)

    def test_auto_tier_at_every_threshold_boundary(self):
        """``stop_set`` is the only place the tier thresholds live: one
        below and exactly at each of them."""
        from repro import CellstringStopSet
        from repro.engine import AUTO_CELLSTRING_MIN_STOPS, AUTO_MIN_STOPS

        rng = np.random.default_rng(3)
        rt = _runtime(ProximityBackend.AUTO)
        expected = {
            AUTO_MIN_STOPS - 1: StopSet,
            AUTO_MIN_STOPS: GriddedStopSet,
            AUTO_CELLSTRING_MIN_STOPS - 1: GriddedStopSet,
            AUTO_CELLSTRING_MIN_STOPS: CellstringStopSet,
        }
        for n, tier in expected.items():
            dressed = rt.stop_set(StopSet(rng.uniform(0, 500, (n, 2))), 10.0)
            assert type(dressed) is tier, n

    def test_dressed_cellstring_passes_through(self):
        from repro import CellstringStopSet

        rt = _runtime(ProximityBackend.AUTO)
        coords = np.random.default_rng(4).uniform(0, 100, (64, 2))
        dressed = CellstringStopSet(coords, 10.0)
        assert rt.stop_set(dressed, 10.0) is dressed
        assert auto_shard_count(4_000) >= 2

    def test_already_dressed_sets_pass_through(self):
        rt = _runtime(ProximityBackend.GRID, shards=3)
        gridded = GriddedStopSet(np.zeros((4, 2)), 1.0)
        assert rt.stop_set(gridded, 1.0) is gridded

    def test_sharded_sets_share_the_runtime_store(self):
        rt = _runtime(ProximityBackend.GRID, shards=2)
        coords = np.random.default_rng(2).uniform(0, 500, (128, 2))
        a = rt.stop_set(StopSet(coords), 10.0)
        b = rt.stop_set(StopSet(coords.copy()), 10.0)
        probe = np.random.default_rng(3).uniform(0, 500, (64, 2))
        np.testing.assert_array_equal(
            a.covered_mask(probe, 10.0), b.covered_mask(probe, 10.0)
        )
        assert rt.shard_store.grid_hits >= 1


class TestRuntimeRoutedQueries:
    """Every query algorithm routed through a runtime must equal the
    plain dense path exactly, for every policy."""

    POLICIES = (
        RuntimeConfig(backend=ProximityBackend.DENSE),
        RuntimeConfig(backend=ProximityBackend.GRID, shards=1, max_workers=0),
        RuntimeConfig(backend=ProximityBackend.GRID, shards=2, max_workers=0),
        RuntimeConfig(backend=ProximityBackend.GRID, shards=7, max_workers=2),
        RuntimeConfig(backend=ProximityBackend.AUTO),
    )

    def test_evaluate_service_identical(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        for model in ALL_MODELS:
            spec = ServiceSpec(model, psi=400.0)
            for f in facilities[:6]:
                plain = evaluate_service(tree, f, spec)
                oracle = brute_force_service(taxi_users, f, spec)
                assert plain == oracle
                for config in self.POLICIES:
                    with QueryRuntime(config) as rt:
                        assert evaluate_service(tree, f, spec, runtime=rt) == plain

    def test_topk_and_maxkcov_identical(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        plain_topk = top_k_facilities(tree, facilities, 4, spec)
        plain_cov = maxkcov_tq(tree, facilities, 3, spec)
        for config in self.POLICIES:
            with QueryRuntime(config) as rt:
                fast_topk = top_k_facilities(tree, facilities, 4, spec, runtime=rt)
                fast_cov = maxkcov_tq(tree, facilities, 3, spec, runtime=rt)
            assert fast_topk.ranking == plain_topk.ranking
            assert fast_cov.facility_ids() == plain_cov.facility_ids()
            assert fast_cov.combined_service == plain_cov.combined_service
            assert fast_cov.users_fully_served == plain_cov.users_fully_served

    def test_exact_and_genetic_share_runtime_cache(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        subset = facilities[:5]
        plain_fn = tq_match_fn(tree, spec)
        plain_exact = exact_max_k_coverage(taxi_users, subset, 2, spec, plain_fn)
        plain_gen = genetic_max_k_coverage(taxi_users, subset, 2, spec, plain_fn)
        with _runtime(ProximityBackend.GRID, shards=2) as rt:
            fn = tq_match_fn(tree, spec, runtime=rt)
            fast_exact = exact_max_k_coverage(
                taxi_users, subset, 2, spec, fn, runtime=rt
            )
            fast_gen = genetic_max_k_coverage(
                taxi_users, subset, 2, spec, fn, runtime=rt
            )
            assert fast_exact.combined_service == plain_exact.combined_service
            assert fast_exact.facility_ids() == plain_exact.facility_ids()
            assert fast_gen.combined_service == plain_gen.combined_service
            assert fast_gen.facility_ids() == plain_gen.facility_ids()
            # the genetic run reused the exact run's match sets
            assert rt.cache.hits > 0

    def test_batch_engine_runtime_identical(self, taxi_users, facilities):
        spec_grid = [
            (f, ServiceSpec(model, psi=400.0))
            for f in facilities[:4]
            for model in ALL_MODELS
        ]
        plain = BatchQueryEngine(taxi_users).run(spec_grid)
        for config in self.POLICIES:
            with QueryRuntime(config) as rt:
                engine = BatchQueryEngine(taxi_users, runtime=rt)
                got = engine.run(spec_grid)
            assert got.scores == plain.scores


class TestStatsAccrual:
    def test_evaluate_accrues_into_runtime_total(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        rt = _runtime(ProximityBackend.GRID, shards=2)
        explicit = QueryStats()
        evaluate_service(tree, facilities[0], spec, stats=explicit, runtime=rt)
        assert rt.stats == explicit  # same single evaluation, both views
        assert rt.stats.nodes_visited > 0
        evaluate_service(tree, facilities[1], spec, runtime=rt)
        assert rt.stats.nodes_visited > explicit.nodes_visited  # keeps growing

    def test_topk_result_stats_match_runtime_delta(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        rt = _runtime(ProximityBackend.GRID)
        result = top_k_facilities(tree, facilities, 3, spec, runtime=rt)
        assert rt.stats == result.stats
        total = rt.reset_stats()
        assert total == result.stats
        assert rt.stats == QueryStats()

    def test_batch_engine_accrues(self, taxi_users, facilities):
        rt = _runtime(ProximityBackend.GRID)
        engine = BatchQueryEngine(taxi_users, runtime=rt)
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        result = engine.run([(f, spec) for f in facilities[:3]])
        assert rt.stats == result.stats

    def test_per_shard_stats_merge_matches_one_shard_totals(
        self, taxi_users, facilities
    ):
        """A seven-shard runtime run accrues exactly the totals a
        one-shard runtime accrues for the same queries."""
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        requests = [(f, spec) for f in facilities[:6]]
        rt_grid = _runtime(ProximityBackend.GRID, shards=1)
        rt_sharded = _runtime(ProximityBackend.GRID, shards=7)
        grid_result = BatchQueryEngine(taxi_users, runtime=rt_grid).run(requests)
        shard_result = BatchQueryEngine(taxi_users, runtime=rt_sharded).run(requests)
        assert grid_result.scores == shard_result.scores
        assert rt_sharded.stats == rt_grid.stats


#: Every public entry point that takes ``runtime=``, as a call over the
#: shared arguments ``a`` (a namespace) with ``rt`` in the runtime slot.
_ENTRY_POINTS = {
    "evaluate_service": lambda a, rt: evaluate_service(
        a.tree, a.facilities[0], a.spec, runtime=rt
    ),
    "evaluate_node_trajectories": lambda a, rt: evaluate_node_trajectories(
        a.tree, 0, a.component, a.spec, runtime=rt
    ),
    "top_k_facilities": lambda a, rt: top_k_facilities(
        a.tree, a.facilities, 2, a.spec, runtime=rt
    ),
    "tq_match_fn": lambda a, rt: tq_match_fn(a.tree, a.spec, runtime=rt),
    "maxkcov_tq": lambda a, rt: maxkcov_tq(
        a.tree, a.facilities, 2, a.spec, runtime=rt
    ),
    "exact_max_k_coverage": lambda a, rt: exact_max_k_coverage(
        a.users, a.facilities[:3], 2, a.spec, a.match_fn, runtime=rt
    ),
    "genetic_max_k_coverage": lambda a, rt: genetic_max_k_coverage(
        a.users, a.facilities[:3], 2, a.spec, a.match_fn, runtime=rt
    ),
    "BatchQueryEngine": lambda a, rt: BatchQueryEngine(a.users, runtime=rt),
}


class TestRuntimeArgument:
    def test_coerce_passes_none_and_runtimes_through(self):
        assert coerce_runtime(None) is None
        rt = _runtime()
        assert coerce_runtime(rt) is rt

    def test_batch_engine_without_runtime_stays_dense(self, taxi_users, facilities):
        """The query functions' rule: no runtime, no dressing — even for
        a stop count ``AUTO`` would grid."""
        from repro import FacilityRoute

        route = FacilityRoute(0, [s for f in facilities[:4] for s in f.stops])
        assert route.n_stops >= 48  # AUTO_MIN_STOPS
        engine = BatchQueryEngine(taxi_users)
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        assert type(engine.resolve_stops(route, spec.psi)) is StopSet
        stats = QueryStats()
        assert engine.query(route, spec, stats) == brute_force_service(
            taxi_users, route, spec
        )
        assert stats.cells_probed == 0
        assert stats.distance_evals == engine.n_probe_points * route.n_stops

    @pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("wrong", ["x", CoverageCache()], ids=["str", "cache"])
    def test_wrong_runtime_object_is_a_query_error(
        self, entry_point, wrong, taxi_users, facilities
    ):
        """Not a runtime -> ``QueryError`` at the call, on every entry
        point (a bare cache used to be re-read as the PR-2 positional
        cache and die later with ``AttributeError``)."""
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        args = SimpleNamespace(
            tree=tree,
            users=taxi_users,
            facilities=facilities,
            spec=spec,
            component=FacilityComponent.whole(facilities[0], spec.psi),
            match_fn=tq_match_fn(tree, spec),
        )
        with pytest.raises(QueryError, match="runtime must be a QueryRuntime"):
            _ENTRY_POINTS[entry_point](args, wrong)


class TestRuntimeLifecycle:
    def test_config_validation(self):
        with pytest.raises(QueryError):
            RuntimeConfig(backend="grid")  # not a ProximityBackend
        with pytest.raises(QueryError):
            RuntimeConfig(shards=-1)
        with pytest.raises(QueryError):
            RuntimeConfig(max_workers=-2)
        with pytest.raises(QueryError):
            QueryRuntime(backend="grid")

    def test_config_fields_are_exactly_these(self):
        """The deleted knobs have no alias (ISSUEs 18, 19): ``policy=`` /
        ``start_method=`` / ``coalesce_window=`` / ``listener=`` are
        plain TypeErrors."""
        import dataclasses

        from repro import HttpConfig, ServiceConfig

        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "backend", "shards", "max_workers", "store_dir",
        ]
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "max_in_flight", "queue_depth", "batch_window",
        ]
        assert [f.name for f in dataclasses.fields(HttpConfig)] == [
            "host", "port", "catalog", "drain_timeout", "workers",
            "start_method", "service", "runtime",
        ]
        with pytest.raises(TypeError):
            RuntimeConfig(policy="threads")
        with pytest.raises(TypeError):
            HttpConfig(listener="inherit")

    def test_prefork_without_reuseport_is_a_typed_error(self, monkeypatch):
        """SO_REUSEPORT is the only way workers share the port; a
        platform without it is refused at start(), before any bind."""
        import socket

        from repro import HttpConfig
        from repro.service.http import Supervisor

        monkeypatch.delattr(socket, "SO_REUSEPORT")
        supervisor = Supervisor(HttpConfig(port=0, workers=2))
        with pytest.raises(QueryError, match="SO_REUSEPORT"):
            supervisor.start()

    def test_default_pool_is_sized_from_cpu_affinity(self, monkeypatch):
        """``max_workers=None`` counts the CPUs this process may run on
        (affinity / cgroup pinning), not the machine's."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert resolve_worker_count(None) == 1
        with QueryRuntime(RuntimeConfig()) as rt:
            assert rt.executor is None  # one usable CPU: always inline
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(32)), raising=False
        )
        assert resolve_worker_count(None) == 8  # capped
        assert resolve_worker_count(None, processes=8) == 4
        assert resolve_worker_count(3, processes=8) == 3  # explicit wins

    def test_executor_lifecycle(self):
        rt = QueryRuntime(RuntimeConfig(max_workers=2))
        assert rt.executor is not None
        rt.close()
        assert rt.executor is None  # closed runtimes stay serial
        serial = QueryRuntime(RuntimeConfig(max_workers=0))
        assert serial.executor is None

    def test_stop_sets_survive_runtime_close(self):
        """A stop set dressed before close() must degrade to serial
        probing, not schedule on the shut-down pool."""
        rng = np.random.default_rng(23)
        coords = rng.uniform(0, 500, (128, 2))
        probe = rng.uniform(0, 500, (64, 2))
        rt = QueryRuntime(
            RuntimeConfig(backend=ProximityBackend.GRID, shards=4, max_workers=2)
        )
        dressed = rt.stop_set(StopSet(coords), 10.0)
        before = dressed.covered_mask(probe, 10.0)
        rt.close()
        after = dressed.covered_mask(probe, 10.0)  # must not raise
        np.testing.assert_array_equal(before, after)

    def test_shared_stats_object(self):
        shared = QueryStats()
        rt_a = _runtime(stats=shared)
        rt_b = _runtime(stats=shared)
        rt_a.accrue(QueryStats(points_scanned=3))
        rt_b.accrue(QueryStats(points_scanned=4))
        assert shared.points_scanned == 7
