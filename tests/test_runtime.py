"""The QueryRuntime execution layer: every runtime setting (dense, grid
at any shard count, cellstring) must be answer-invisible — ``==``
against the plain dense path throughout.
"""

from __future__ import annotations

import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    BatchQueryEngine,
    CoverageCache,
    GriddedStopSet,
    ProximityBackend,
    QueryRuntime,
    SHARDS_AUTO,
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
from repro.core.service import coverage_kernel
from repro.engine import ShardedStopGrid, build_cellstring_index
from repro.queries.maxkcov import tq_match_fn
from repro.runtime import coerce_runtime

from .strategies import WORLD

ALL_MODELS = (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH)


def _runtime(backend=ProximityBackend.AUTO, shards=0):
    return QueryRuntime(RuntimeConfig(backend=backend, shards=shards))


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
        dressed.covered_mask(stops.coords, 10.0)
        assert dressed._grid.n_shards == 3

    def test_auto_shards_resolve_from_stop_count(self):
        rt = _runtime(ProximityBackend.AUTO, shards=0)
        small = StopSet(np.random.default_rng(0).uniform(0, 500, (200, 2)))
        large = StopSet(np.random.default_rng(1).uniform(0, 500, (4_000, 2)))
        dressed_small = rt.stop_set(small, 10.0)
        dressed_large = rt.stop_set(large, 10.0)
        for dressed in (dressed_small, dressed_large):
            dressed.covered_mask(dressed.coords[:1], 10.0)
        assert dressed_small._grid.n_shards == 1
        assert dressed_large._grid.n_shards >= 2
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
        RuntimeConfig(backend=ProximityBackend.GRID, shards=1),
        RuntimeConfig(backend=ProximityBackend.GRID, shards=2),
        RuntimeConfig(backend=ProximityBackend.GRID, shards=7),
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
            match_fn=tq_match_fn(tree, spec),
        )
        with pytest.raises(QueryError, match="runtime must be a QueryRuntime"):
            _ENTRY_POINTS[entry_point](args, wrong)


class TestRuntimeLifecycle:
    def test_config_validation(self):
        from repro import HttpConfig

        with pytest.raises(QueryError):
            RuntimeConfig(backend="grid")  # not a ProximityBackend
        with pytest.raises(QueryError):
            RuntimeConfig(shards=-1)
        # integer fields take ints only: a float used to pass and fail
        # at the first probe, a bool to run silently as 0 / 1 (every
        # field x every non-integer: TestIntegerConfigFields)
        with pytest.raises(QueryError, match="shards must be an integer"):
            RuntimeConfig(shards=2.5)
        with pytest.raises(QueryError, match="shards must be an integer"):
            RuntimeConfig(shards=True)
        with pytest.raises(QueryError, match="workers must be an integer"):
            HttpConfig(workers=2.0)
        assert RuntimeConfig(shards=2).shards == 2

    def test_config_fields_are_exactly_these(self):
        """The deleted knobs have no alias:
        ``policy=`` / ``max_workers=`` / ``start_method=`` /
        ``coalesce_window=`` / ``listener=`` / ``max_in_flight=`` /
        ``queue_depth=`` and the ``QueryRuntime(backend=...)``
        shorthand are plain TypeErrors."""
        import dataclasses

        from repro import HttpConfig, ServiceConfig

        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "backend", "shards", "store_dir",
        ]
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "batch_window",
        ]
        assert [f.name for f in dataclasses.fields(HttpConfig)] == [
            "host", "port", "catalog", "drain_timeout", "workers",
            "start_method", "service", "runtime",
        ]
        with pytest.raises(TypeError):
            RuntimeConfig(policy="threads")
        with pytest.raises(TypeError):
            RuntimeConfig(max_workers=2)
        with pytest.raises(TypeError):
            QueryRuntime(backend=ProximityBackend.GRID)
        with pytest.raises(TypeError):
            HttpConfig(listener="inherit")
        with pytest.raises(TypeError):
            ServiceConfig(max_in_flight=8)
        with pytest.raises(TypeError):
            ServiceConfig(queue_depth=64)
        from repro.serve import build_parser

        for flag in ("--max-workers", "--max-in-flight", "--queue-depth"):
            with pytest.raises(SystemExit):  # an argparse usage error
                build_parser().parse_args([flag, "2"])
        # the batch window flag stays accepted
        assert build_parser().parse_args(["--batch-window", "0.005"]).batch_window == 0.005

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


def _config_with(owner: str, field: str, value):
    from repro import HttpConfig

    cls = {"RuntimeConfig": RuntimeConfig, "HttpConfig": HttpConfig}[owner]
    return cls(**{field: value})


#: Every integer field of the execution configs, as ``owner.field``.
_INTEGER_FIELDS = (
    "RuntimeConfig.shards",
    "HttpConfig.workers",
)


class TestIntegerConfigFields:
    """An integer field refuses what is not an ``int`` at construction,
    with a ``QueryError`` naming the field — never later, deep in a
    probe (``shards=2.5``), and never by silently reading a bool as
    0 / 1 (``shards=True`` ran as one shard)."""

    @pytest.mark.parametrize(
        "bad", (2.5, 2.0, True, False, "2", None), ids=repr
    )
    @pytest.mark.parametrize("owned_field", _INTEGER_FIELDS)
    def test_non_integer_is_a_query_error(self, owned_field, bad):
        owner, field = owned_field.split(".")
        with pytest.raises(QueryError, match=f"{field} must be an integer"):
            _config_with(owner, field, bad)

    @pytest.mark.parametrize("owned_field", _INTEGER_FIELDS)
    def test_an_int_is_kept_as_given(self, owned_field):
        owner, field = owned_field.split(".")
        config = _config_with(owner, field, 3)
        value = getattr(config, field)
        assert value == 3 and type(value) is int


#: The probe tiers, by id: the grid at one shard, at a few, at more
#: shards than the stops fill evenly, at the AUTO count, and the
#: cellstring tier.  Each tier's stats are those of its single-piece
#: index (a one-shard grid, the bare cellstring index): the shard count
#: only cuts the work, never changes how much is counted.
_PROBE_TIERS = {
    "grid-1": RuntimeConfig(backend=ProximityBackend.GRID, shards=1),
    "grid-2": RuntimeConfig(backend=ProximityBackend.GRID, shards=2),
    "grid-4": RuntimeConfig(backend=ProximityBackend.GRID, shards=4),
    "grid-7": RuntimeConfig(backend=ProximityBackend.GRID, shards=7),
    "grid-auto": RuntimeConfig(backend=ProximityBackend.GRID, shards=SHARDS_AUTO),
    "cellstring": RuntimeConfig(backend=ProximityBackend.CELLSTRING),
}


class TestInlineProbes:
    """Every probe runs on the calling thread, however large its block
    (DESIGN.md §5.1), and answers exactly what the dense kernel does."""

    PSI = 25.0

    @pytest.fixture(scope="class")
    def world(self):
        """Stops, a probe block past the 65,536-point floor at which
        probes once left the calling thread, its dense mask, and each
        tier's single-piece stats."""
        rng = np.random.default_rng(91)
        stops = rng.uniform(0, 2_000, (1_500, 2))
        probe = rng.uniform(0, 2_000, (65_536 + 512, 2))
        dense = coverage_kernel(probe, stops, self.PSI)
        assert dense.any() and not dense.all()  # a discriminating probe
        single = {"grid": QueryStats(), "cellstring": QueryStats()}
        ShardedStopGrid(stops, self.PSI, 1).covered_mask(
            probe, self.PSI, single["grid"]
        )
        build_cellstring_index(stops, self.PSI).covered_mask(
            probe, self.PSI, single["cellstring"]
        )
        return stops, probe, dense, single

    @pytest.mark.parametrize("tier", sorted(_PROBE_TIERS))
    def test_large_block_starts_no_thread(self, world, tier):
        """No thread starts; the mask is the dense kernel's and the
        stats are the tier's single-piece index's."""
        stops, probe, dense, single = world
        config = _PROBE_TIERS[tier]
        before = set(threading.enumerate())
        count = threading.active_count()
        with QueryRuntime(config) as rt:
            stats = QueryStats()
            mask = rt.probe_mask(stops, probe, self.PSI, stats)
            assert not set(threading.enumerate()) - before
            assert threading.active_count() <= count
        np.testing.assert_array_equal(mask, dense)
        assert stats == single[config.backend.value]

    @pytest.mark.parametrize("tier", [*sorted(_PROBE_TIERS), "dense"])
    def test_empty_and_degenerate_probes(self, world, tier):
        stops = world[0]
        config = _PROBE_TIERS.get(
            tier, RuntimeConfig(backend=ProximityBackend.DENSE)
        )
        with QueryRuntime(config) as rt:
            stats = QueryStats()
            empty = rt.probe_mask(stops, np.zeros((0, 2)), self.PSI, stats)
            assert empty.shape == (0,)
            assert stats == QueryStats()  # an empty block does no work
            one = rt.probe_mask(stops, stops[:1], self.PSI)
            assert bool(one[0])  # a stop covers itself
            far = rt.probe_mask(stops, np.array([[-1e6, -1e6]]), self.PSI)
            assert not far.any()  # nothing within psi of a far point

    @pytest.mark.parametrize("tier", ("grid-1", "grid-4", "cellstring"))
    def test_repeated_probes_through_one_runtime_are_bit_identical(self, tier):
        """One runtime probing three stop sets with three blocks, round
        after round, hits its store's first builds and stays
        bit-identical to a fresh runtime per probe, masks and per-probe
        stats alike."""
        config = _PROBE_TIERS[tier]
        rng = np.random.default_rng(8)
        stop_pools = [rng.uniform(0, 1_000, (3_000, 2)) for _ in range(3)]
        probes = [rng.uniform(0, 1_000, (600, 2)) for _ in range(3)]
        pairs = [(s, p) for s in range(3) for p in range(3)]

        def probe(rt, si, pi):
            stats = QueryStats()
            mask = rt.probe_mask(StopSet(stop_pools[si].copy()), probes[pi], 20.0, stats)
            return mask, stats

        expected = {}
        for si, pi in pairs:
            with QueryRuntime(config) as fresh:
                expected[si, pi] = probe(fresh, si, pi)
        with QueryRuntime(config) as rt:
            for turn in range(4):
                for si, pi in pairs[turn:] + pairs[:turn]:
                    mask, stats = probe(rt, si, pi)
                    np.testing.assert_array_equal(mask, expected[si, pi][0])
                    assert stats == expected[si, pi][1]
            store = rt.snapshot_store_stats()
            tier_name = config.backend.value
            # each stop set built once, every later probe of it a hit
            assert getattr(store, f"{tier_name}_misses") == 3
            assert getattr(store, f"{tier_name}_hits") == 4 * 9 - 3


class TestNoBackendPlumbingInQueries:
    """The layering check, now rule L1 of ``repro.lint``: no module
    under ``queries/`` touches the proximity machinery directly —
    probes go through the runtime or the plain ``StopSet`` contract.
    The declared layer DAG forbids ``queries`` → ``engine`` imports and
    bans the ``ProximityBackend`` symbol for the queries layer."""

    def test_queries_never_import_backend_or_engine(self):
        import repro.queries as queries_pkg
        from repro.lint import REPRO_CONFIG, SourceIndex, run_rules

        layer_cfg = REPRO_CONFIG.layer
        assert "engine" not in layer_cfg.allowed["queries"]
        assert "ProximityBackend" in layer_cfg.banned_names["queries"]

        root = Path(queries_pkg.__file__).parent.parent
        findings = run_rules(SourceIndex(root), REPRO_CONFIG, select=["L1"])
        offenders = [
            f.render() for f in findings if f.path.startswith("repro/queries/")
        ]
        assert not offenders, (
            "queries/ must route all proximity work through the runtime; "
            "found direct plumbing:\n" + "\n".join(offenders)
        )
