"""Regression guard: the engine path must do strictly less geometric
work than the dense path on a realistic workload.

If a refactor silently degrades the grid (wrong cell size, candidate
over-gathering, fallback always firing) the results would stay correct
— the engine is bit-identical by construction — but these counters
would stop shrinking.  Pinning the *work*, not just the answers, keeps
the optimisation honest.
"""

from __future__ import annotations

import pytest

from repro import (
    BatchQueryEngine,
    CityModel,
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    generate_bus_routes,
    generate_taxi_trips,
)
from repro.queries import evaluate_service


def _engine(users, backend):
    return BatchQueryEngine(users, runtime=QueryRuntime(backend=backend))


@pytest.fixture(scope="module")
def workload():
    """A seeded mid-size city: enough stops that the grid must win."""
    city = CityModel.generate(seed=42, size=12_000.0)
    users = generate_taxi_trips(1500, city, seed=101)
    facs = generate_bus_routes(6, city, seed=104, n_stops=200)
    return users, facs


class TestBatchEngineCounters:
    def test_grid_strictly_reduces_work(self, workload):
        users, facs = workload
        spec = ServiceSpec(ServiceModel.COUNT, psi=150.0)
        requests = [(f, spec) for f in facs]
        dense = _engine(users, ProximityBackend.DENSE).run(requests)
        grid = _engine(users, ProximityBackend.GRID).run(requests)
        assert grid.scores == dense.scores
        # the guarded counters: points scanned and distances evaluated
        assert grid.stats.points_scanned < dense.stats.points_scanned
        assert grid.stats.distance_evals < dense.stats.distance_evals
        # and not marginally: the dense path does all-pairs work
        assert grid.stats.distance_evals * 10 < dense.stats.distance_evals
        assert grid.stats.cells_probed > 0
        assert dense.stats.cells_probed == 0  # dense path never buckets

    def test_auto_backend_matches_grid_on_dense_stops(self, workload):
        users, facs = workload
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=150.0)
        requests = [(f, spec) for f in facs]
        auto = _engine(users, ProximityBackend.AUTO).run(requests)
        dense = _engine(users, ProximityBackend.DENSE).run(requests)
        assert auto.scores == dense.scores
        # 200 stops/facility is far above AUTO_MIN_STOPS: grid engaged
        assert auto.stats.distance_evals < dense.stats.distance_evals

    def test_mask_sharing_across_models(self, workload):
        users, facs = workload
        engine = _engine(users, ProximityBackend.GRID)
        requests = [
            (f, ServiceSpec(model, psi=150.0))
            for f in facs
            for model in ServiceModel
        ]
        result = engine.run(requests)
        # one mask per facility; the other two models hit the cache
        assert result.stats.cache_hits == 2 * len(facs)


class TestTreePathCounters:
    def test_grid_backend_reduces_tree_distance_work(self, workload):
        users, facs = workload
        tree = TQTree.build(users, TQTreeConfig(beta=32))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=150.0)
        dense_stats = QueryStats()
        grid_stats = QueryStats()
        for f in facs:
            a = evaluate_service(tree, f, spec, stats=dense_stats)
            b = evaluate_service(
                tree, f, spec, stats=grid_stats,
                runtime=QueryRuntime(backend=ProximityBackend.GRID),
            )
            assert a == b
        # identical navigation, strictly less geometry
        assert grid_stats.nodes_visited == dense_stats.nodes_visited
        assert grid_stats.entries_scored == dense_stats.entries_scored
        assert grid_stats.distance_evals < dense_stats.distance_evals

    def test_cache_eliminates_repeat_distance_work(self, workload):
        users, facs = workload
        tree = TQTree.build(users, TQTreeConfig(beta=32))
        spec = ServiceSpec(ServiceModel.COUNT, psi=150.0)
        runtime = QueryRuntime(backend=ProximityBackend.GRID)
        first = QueryStats()
        for f in facs:
            evaluate_service(
                tree, f, spec, stats=first,
                runtime=runtime,
            )
        repeat = QueryStats()
        for f in facs:
            evaluate_service(
                tree, f, spec, stats=repeat,
                runtime=runtime,
            )
        assert repeat.distance_evals == 0  # everything served from cache
        assert repeat.cache_hits > 0

    def test_merge_aggregates_counters(self):
        a = QueryStats(nodes_visited=1, distance_evals=10, cache_hits=2)
        b = QueryStats(nodes_visited=2, distance_evals=5, points_scanned=7)
        a.merge(b)
        assert a.nodes_visited == 3
        assert a.distance_evals == 15
        assert a.points_scanned == 7
        assert a.cache_hits == 2
