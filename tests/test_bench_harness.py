"""Tests for the benchmark harness (workload factory, scaling, timing)."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    DEFAULTS,
    PAPER_PARAMETERS,
    Timer,
    WorkloadFactory,
    _Defaults,
    bench_scale,
    parse_runtime_spec,
    scaled,
    time_call,
)
from repro.core.config import (
    SHARDS_AUTO,
    IndexVariant,
    ProximityBackend,
)
from repro.core.service import ServiceModel


TINY = _Defaults(
    users_per_day=60,
    day_sweep=(0.5, 1.0),
    n_stops=8,
    stop_sweep=(4, 8),
    n_facilities=4,
    facility_sweep=(2, 4),
    k=2,
    k_sweep=(1, 2),
    psi=400.0,
    beta=8,
    city_seed=3,
    city_size=3_000.0,
)


@pytest.fixture(scope="module")
def tiny_factory():
    return WorkloadFactory(TINY)


class TestScaling:
    def test_default_scale_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert scaled(100) == 100

    def test_scale_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        assert scaled(100) == 250

    def test_bad_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-3")
        assert bench_scale() == 1.0

    def test_scaled_is_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(5) == 1


class TestPaperParameters:
    def test_table3_rows_present(self):
        names = {row.name for row in PAPER_PARAMETERS}
        assert {"n_trajectories", "n_stops", "n_facilities", "k"} <= names

    def test_paper_ranges_match_table3(self):
        rows = {row.name: row for row in PAPER_PARAMETERS}
        assert rows["n_stops"].paper_range == (8, 16, 32, 64, 128, 256, 512)
        assert rows["k"].paper_range == (4, 8, 16, 32)
        assert rows["n_trajectories"].paper_range[-1] == 1_032_637


class TestWorkloadFactory:
    def test_datasets_are_memoised(self, tiny_factory):
        a = tiny_factory.taxi_users(1.0)
        b = tiny_factory.taxi_users(1.0)
        assert a is b

    def test_day_scaling(self, tiny_factory):
        half = tiny_factory.taxi_users(0.5)
        full = tiny_factory.taxi_users(1.0)
        assert len(half) == 30 and len(full) == 60

    def test_facilities_keyed_by_stops(self, tiny_factory):
        a = tiny_factory.facilities(4, 8)
        b = tiny_factory.facilities(4, 4)
        assert a is not b
        assert all(f.n_stops == 8 for f in a)
        assert all(f.n_stops == 4 for f in b)

    def test_trees_are_memoised_per_config(self, tiny_factory):
        users = tiny_factory.taxi_users(1.0)
        t1 = tiny_factory.tq_tree(users, use_zorder=True)
        t2 = tiny_factory.tq_tree(users, use_zorder=True)
        t3 = tiny_factory.tq_tree(users, use_zorder=False)
        assert t1 is t2
        assert t1 is not t3

    def test_variant_trees(self, tiny_factory):
        users = tiny_factory.checkin_users(20)
        seg = tiny_factory.tq_tree(users, variant=IndexVariant.SEGMENTED)
        full = tiny_factory.tq_tree(users, variant=IndexVariant.FULL)
        assert seg.config.variant is IndexVariant.SEGMENTED
        assert full.config.variant is IndexVariant.FULL

    def test_baseline_memoised(self, tiny_factory):
        users = tiny_factory.taxi_users(1.0)
        assert tiny_factory.baseline(users) is tiny_factory.baseline(users)

    def test_spec_normalisation_convention(self, tiny_factory):
        assert tiny_factory.spec(ServiceModel.ENDPOINT).normalize is False
        assert tiny_factory.spec(ServiceModel.COUNT).normalize is True

    def test_all_users_inside_city(self, tiny_factory):
        for users in (
            tiny_factory.taxi_users(1.0),
            tiny_factory.checkin_users(15),
            tiny_factory.geolife_users(5),
        ):
            for u in users:
                for p in u.points:
                    assert tiny_factory.city.bounds.contains_point(p)

    def test_factory_not_runtime_aware_by_default(self, tiny_factory):
        assert tiny_factory.query_runtime() is None

    def test_runtime_aware_factory_hands_out_fresh_runtimes(self):
        cfg = parse_runtime_spec("2")
        factory = WorkloadFactory(TINY, runtime_config=cfg)
        rt1 = factory.query_runtime()
        rt2 = factory.query_runtime()
        assert rt1 is not None and rt2 is not None
        assert rt1 is not rt2  # fresh caches per sweep leg
        assert rt1.config is cfg


class TestParseRuntimeSpec:
    def test_shards_only(self):
        cfg = parse_runtime_spec("4")
        assert cfg.shards == 4
        assert cfg.backend is ProximityBackend.AUTO

    def test_auto_shards_keyword(self):
        assert parse_runtime_spec("auto").shards == SHARDS_AUTO

    def test_bad_specs_raise(self):
        from repro.core.errors import QueryError

        with pytest.raises(ValueError):
            parse_runtime_spec("  ")
        # the retired ':WORKERS' half is refused, never dropped
        for extra in ("7:4", "auto:2", "1:2:3", "7::4"):
            with pytest.raises(ValueError, match="too many fields"):
                parse_runtime_spec(extra)
        with pytest.raises(QueryError):
            parse_runtime_spec("-3")
        # the retired POLICY[:SHARDS[:WORKERS]] grammar is an error,
        # never silently reinterpreted
        for retired in ("threads", "serial:1", "processes:7:4"):
            with pytest.raises(ValueError):
                parse_runtime_spec(retired)


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10_000))
        assert t.seconds >= 0.0

    def test_time_call_returns_result_and_best(self):
        calls = []

        def fn():
            calls.append(1)
            return "x"

        result, seconds = time_call(fn, repeats=3)
        assert result == "x"
        assert len(calls) == 3
        assert seconds >= 0.0

    def test_defaults_sanity(self):
        assert DEFAULTS.users_per_day > 0
        assert DEFAULTS.k in DEFAULTS.k_sweep
        assert DEFAULTS.n_stops in DEFAULTS.stop_sweep

