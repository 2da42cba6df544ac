"""The persistent index store (:mod:`repro.store`).

Four contracts, each pinned differentially against the live builders:

* **container format** — atomic writes, page-aligned segments, content
  hashing, and a single typed :class:`~repro.core.errors.StoreError`
  for every way a file can be wrong (truncation, bad magic, version
  skew, bit rot, garbage headers);
* **round trips** — ``open_index(save_index(x))`` reproduces masks and
  stats bit-identically for every backend tier, under both memmap and
  eager loading, including empty/degenerate stop sets;
* **sharing** — a :class:`~repro.engine.ShardStore` spill directory
  turns rebuilds into opens (observable through the new counters);
* **serving** — ``store:<dir>`` catalogs answer HTTP queries
  identically to freshly-built ones, with the store counters on
  ``GET /stats``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro import (
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    brute_force_service,
    evaluate_service,
    top_k_facilities,
)
from repro.core.errors import CatalogError, QueryError, ReproError, StoreError
from repro.core.stats import StoreStats
from repro.engine.cellstring import CellstringIndex, build_cellstring_index
from repro.engine.shards import (
    ShardedStopGrid,
    ShardStore,
    StopShard,
    cellstring_spill_name,
    grid_spill_name,
)
from repro.service.http import ServeClient, background_server, catalog_from_spec
from repro.service.http.catalog import build_store_catalog, open_store_catalog
from repro.store import (
    FORMAT_VERSION,
    MAGIC,
    inspect_store_file,
    open_index,
    open_trajectory_bundle,
    read_manifest,
    read_store_file,
    save_index,
    save_trajectory_bundle,
    write_manifest,
    write_store_file,
)
from repro.store.__main__ import main as store_main
from repro.store.catalog import DEFAULT_PSI
from repro.store.codecs import KIND_FACILITIES, KIND_TRAJECTORIES

from .conftest import SCHEDULING

PSI = 400.0


def _coords(n: int, seed: int = 0, size: float = 6_000.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, size, size=(n, 2))


def _probe_points(n: int = 300, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # straddle the stop extent so some points miss every cell
    return rng.uniform(-300.0, 6_300.0, size=(n, 2))


# the degenerate layouts test_engine_edges.py exercises against the
# oracle: the store must round-trip them, not just the happy path
DEGENERATE = {
    "empty": np.zeros((0, 2), dtype=np.float64),
    "single": np.array([[123.5, -67.25]]),
    "identical": np.full((5, 2), 1_000.0),
    "collinear": np.column_stack(
        [np.full(9, 250.0), np.linspace(0.0, 4_000.0, 9)]
    ),
}


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([original[0] ^ 0xFF]))


# ----------------------------------------------------------------------
# container format
# ----------------------------------------------------------------------
class TestContainerFormat:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "raw.idx")
        arrays = {
            "ints": np.arange(7, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 5).reshape(5, 1),
            "empty": np.zeros((0, 3), dtype=np.float64),
        }
        digest = write_store_file(path, "raw", {"psi": 1.5, "n": 7}, arrays)
        for mmap_mode in ("r", None):
            kind, meta, got = read_store_file(path, mmap_mode=mmap_mode)
            assert kind == "raw"
            assert meta == {"psi": 1.5, "n": 7}
            assert set(got) == set(arrays)
            for name, arr in arrays.items():
                assert got[name].dtype == arr.dtype
                assert got[name].shape == arr.shape
                assert np.array_equal(got[name], arr)
                assert not got[name].flags.writeable
        # the hash is a pure function of kind/meta/content
        assert inspect_store_file(path)["content_hash"] == digest

    def test_prelude_and_page_alignment(self, tmp_path):
        path = str(tmp_path / "aligned.idx")
        write_store_file(
            path, "raw", {}, {"a": np.arange(3, dtype=np.int64),
                              "b": np.ones(1_000)}
        )
        with open(path, "rb") as fh:
            prelude = fh.read(12)
        magic, version = struct.unpack("<8sI", prelude)
        assert magic == MAGIC
        assert version == FORMAT_VERSION
        info = inspect_store_file(path)
        assert info["format_version"] == FORMAT_VERSION
        for seg in info["segments"]:
            assert seg["offset"] % 4096 == 0

    def test_write_is_atomic_and_cleans_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "atomic.idx"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.store.format.os.replace", boom)
        with pytest.raises(StoreError):
            write_store_file(str(target), "raw", {}, {"a": np.arange(4)})
        monkeypatch.undo()
        # the failed write left neither the target nor a temp file
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unstorable_inputs(self, tmp_path):
        path = str(tmp_path / "bad.idx")
        with pytest.raises(StoreError):
            write_store_file(path, "raw", {}, {"a": np.zeros(2, dtype=np.int32)})
        with pytest.raises(StoreError):
            write_store_file(path, "", {}, {"a": np.zeros(2)})
        with pytest.raises(StoreError):
            write_store_file(path, "raw", {"bad": object()}, {"a": np.zeros(2)})
        with pytest.raises(StoreError):
            read_store_file(path, mmap_mode="w+")  # only "r" or None
        assert not os.path.exists(path)


class TestCorruption:
    """Every way a file can be wrong raises StoreError — never a raw
    struct.error/ValueError, never silently-garbage arrays."""

    @pytest.fixture()
    def stored(self, tmp_path):
        path = str(tmp_path / "grid.idx")
        save_index(path, ShardedStopGrid(_coords(200, seed=3), PSI, 1))
        return path

    def test_missing_and_short_files(self, tmp_path):
        with pytest.raises(StoreError):
            open_index(str(tmp_path / "nope.idx"))
        stub = tmp_path / "stub.idx"
        stub.write_bytes(b"RPRO")
        with pytest.raises(StoreError):
            open_index(str(stub))

    def test_truncated(self, stored):
        size = os.path.getsize(stored)
        with open(stored, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(StoreError):
            open_index(stored)

    def test_bad_magic(self, stored):
        _flip_byte(stored, 0)
        with pytest.raises(StoreError):
            open_index(stored)

    def test_wrong_version(self, stored):
        with open(stored, "r+b") as fh:
            fh.seek(8)
            fh.write(struct.pack("<I", FORMAT_VERSION + 1))
        with pytest.raises(StoreError):
            open_index(stored)

    def test_garbage_header_json(self, stored):
        with open(stored, "r+b") as fh:
            fh.seek(20)
            fh.write(b"not json!!")
        with pytest.raises(StoreError):
            open_index(stored)

    def test_payload_bit_rot_fails_hash(self, stored):
        assert os.path.getsize(stored) > 4096  # segments start at 4096
        _flip_byte(stored, 4096)
        with pytest.raises(StoreError):
            open_index(stored)  # verify=True recomputes the hash
        # verify=False is the already-verified fast path: it opens
        assert isinstance(open_index(stored, verify=False), ShardedStopGrid)

    @pytest.mark.parametrize("kind", ["mystery", "stop_grid"])
    def test_unknown_kind_for_open_index(self, tmp_path, kind):
        """A well-formed file of a kind ``open_index`` does not know —
        including the retired single-grid kind — is a typed error."""
        path = str(tmp_path / "notindex.idx")
        write_store_file(path, kind, {}, {"a": np.zeros(3)})
        with pytest.raises(StoreError, match="not an index"):
            open_index(path)


# ----------------------------------------------------------------------
# round trips: bit-identical masks and stats per tier
# ----------------------------------------------------------------------
def _builders(coords):
    for n_shards in (1, 2, 7):
        yield f"sharded_{n_shards}", ShardedStopGrid(coords, PSI, n_shards)
    yield "cellstring", build_cellstring_index(coords, PSI)


class TestIndexRoundTrip:
    @pytest.mark.parametrize("mmap_mode", ["r", None], ids=["mmap", "eager"])
    def test_masks_and_stats_bit_identical(self, tmp_path, mmap_mode):
        coords = _coords(600, seed=1)
        pts = _probe_points()
        for name, built in _builders(coords):
            path = str(tmp_path / f"{name}.idx")
            save_index(path, built)
            opened = open_index(path, mmap_mode=mmap_mode)
            assert type(opened) is type(built) or isinstance(
                opened, type(built)
            )
            built_stats, opened_stats = QueryStats(), QueryStats()
            built_mask = built.covered_mask(pts, PSI, built_stats)
            opened_mask = opened.covered_mask(pts, PSI, opened_stats)
            assert np.array_equal(built_mask, opened_mask), name
            assert built_stats == opened_stats, name
            assert np.array_equal(opened.coords, built.coords)
            assert not opened.coords.flags.writeable

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    @pytest.mark.parametrize("mmap_mode", ["r", None], ids=["mmap", "eager"])
    def test_degenerate_layouts_round_trip(self, tmp_path, case, mmap_mode):
        coords = DEGENERATE[case]
        pts = np.array([[0.0, 0.0], [250.0, 2_000.0], [1_000.0, 1_000.0]])
        for name, built in _builders(coords):
            path = str(tmp_path / f"{case}-{name}.idx")
            save_index(path, built)
            opened = open_index(path, mmap_mode=mmap_mode)
            assert np.array_equal(
                built.covered_mask(pts, PSI), opened.covered_mask(pts, PSI)
            ), (case, name)
            assert np.array_equal(opened.coords, coords)

    def test_mmap_sharded_grid_has_mmap_shards(self, tmp_path):
        path = str(tmp_path / "g.idx")
        save_index(path, ShardedStopGrid(_coords(300, seed=5), PSI, 4))
        opened = open_index(path, mmap_mode="r")
        populated = [s for s in opened.shards if s.n_stops]
        assert populated
        for shard in populated:
            # plain shards over read-only views of the file
            assert type(shard) is StopShard
            assert isinstance(shard.keys, np.memmap)
            assert isinstance(shard.coords, np.memmap)
            assert not shard.keys.flags.writeable
            assert not shard.coords.flags.writeable
        # eager mode loads private arrays: nothing references the file
        eager = open_index(path, mmap_mode=None)
        assert not any(isinstance(s.keys, np.memmap) for s in eager.shards)

    def test_save_index_rejects_unknown_types(self, tmp_path):
        with pytest.raises(StoreError):
            save_index(str(tmp_path / "x.idx"), object())


class TestBundlesAndNodeTables:
    def test_trajectory_bundles_round_trip(self, tmp_path, taxi_users, facilities):
        upath = str(tmp_path / "users.idx")
        fpath = str(tmp_path / "facilities.idx")
        save_trajectory_bundle(upath, taxi_users, KIND_TRAJECTORIES)
        save_trajectory_bundle(fpath, facilities, KIND_FACILITIES)
        kind, users = open_trajectory_bundle(upath)
        assert kind == KIND_TRAJECTORIES
        assert [u.traj_id for u in users] == [u.traj_id for u in taxi_users]
        for got, want in zip(users, taxi_users):
            assert np.array_equal(got.coords, want.coords)
        kind, routes = open_trajectory_bundle(fpath)
        assert kind == KIND_FACILITIES
        assert [r.facility_id for r in routes] == [
            r.facility_id for r in facilities
        ]
        for got, want in zip(routes, facilities):
            assert np.array_equal(got.stop_coords, want.stop_coords)


# ----------------------------------------------------------------------
# ShardStore spill: opens instead of rebuilds, observably
# ----------------------------------------------------------------------
class TestShardStoreSpill:
    def test_spill_hits_count_opened_and_verified(self, tmp_path):
        coords = _coords(400, seed=7)
        spill = str(tmp_path)
        save_index(
            os.path.join(spill, grid_spill_name(coords, PSI, 3)),
            ShardedStopGrid(coords, PSI, 3),
        )
        save_index(
            os.path.join(spill, cellstring_spill_name(coords, PSI)),
            build_cellstring_index(coords, PSI),
        )
        store = ShardStore(spill_dir=spill)
        grid = store.sharded_grid(coords, PSI, 3)
        cs = store.cellstring_index(coords, PSI)
        assert isinstance(grid, ShardedStopGrid)
        assert isinstance(cs, CellstringIndex)
        assert any(isinstance(s.keys, np.memmap) for s in grid.shards)
        stats = store.snapshot_stats()
        assert stats.opened == 2
        assert stats.verified == 2
        assert stats.grid_misses == 1 and stats.cellstring_misses == 1
        # second ask is an in-memory hit: no further opens
        assert store.sharded_grid(coords, PSI, 3) is grid
        assert store.cellstring_index(coords, PSI) is cs
        after = store.snapshot_stats()
        assert after.opened == 2
        assert after.grid_hits == 1 and after.cellstring_hits == 1

    def test_corrupt_spill_is_a_silent_miss(self, tmp_path):
        coords = _coords(150, seed=8)
        spill = str(tmp_path)
        name = grid_spill_name(coords, PSI, 2)
        save_index(os.path.join(spill, name), ShardedStopGrid(coords, PSI, 2))
        _flip_byte(os.path.join(spill, name), 4096)
        store = ShardStore(spill_dir=spill)
        grid = store.sharded_grid(coords, PSI, 2)  # must not raise
        assert not any(isinstance(s.keys, np.memmap) for s in grid.shards)
        stats = store.snapshot_stats()
        assert stats.opened == 0 and stats.verified == 0
        assert stats.grid_misses == 1

    def test_no_spill_dir_never_touches_disk(self):
        coords = _coords(100, seed=2)
        store = ShardStore()
        store.sharded_grid(coords, PSI, 2)
        stats = store.snapshot_stats()
        assert stats.opened == 0 and stats.verified == 0

    def test_snapshots_are_immutable_and_isolated(self):
        coords = _coords(100, seed=4)
        store = ShardStore()
        before = store.snapshot_stats()
        with pytest.raises(dataclasses.FrozenInstanceError):
            before.opened = 99
        store.sharded_grid(coords, PSI, 2)
        # the earlier snapshot did not move with the live counters
        assert before.grid_misses == 0
        assert store.snapshot_stats().grid_misses == 1


# ----------------------------------------------------------------------
# differential: store-opened runtime == fresh runtime, every config
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return _coords(900, seed=42), _probe_points(400)


@pytest.fixture(scope="module")
def runtime_store_dir(tmp_path_factory, world):
    stops, _ = world
    d = tmp_path_factory.mktemp("runtime-store")
    for n_shards in (1, 2, 7):
        save_index(
            str(d / grid_spill_name(stops, PSI, n_shards)),
            ShardedStopGrid(stops, PSI, n_shards),
        )
    save_index(
        str(d / cellstring_spill_name(stops, PSI)),
        build_cellstring_index(stops, PSI),
    )
    return str(d)


class TestRuntimeDifferential:
    @pytest.mark.parametrize("mode", SCHEDULING)
    @pytest.mark.parametrize("shards", [1, 2, 7])
    @pytest.mark.parametrize(
        "backend",
        [
            ProximityBackend.DENSE,
            ProximityBackend.GRID,
            ProximityBackend.CELLSTRING,
        ],
    )
    def test_opened_matches_fresh(
        self, world, runtime_store_dir, backend, shards, mode, scheduling_workers
    ):
        stops, pts = world
        config = RuntimeConfig(
            backend=backend, shards=shards, max_workers=scheduling_workers(mode)
        )
        with QueryRuntime(config) as fresh:
            fresh_stats = QueryStats()
            fresh_mask = fresh.probe_mask(stops, pts, PSI, fresh_stats)
            assert fresh.snapshot_store_stats().opened == 0
        with QueryRuntime(
            dataclasses.replace(config, store_dir=runtime_store_dir)
        ) as rt:
            store_stats = QueryStats()
            store_mask = rt.probe_mask(stops, pts, PSI, store_stats)
            counters = rt.snapshot_store_stats()
        assert np.array_equal(store_mask, fresh_mask)
        assert store_stats == fresh_stats
        if backend is ProximityBackend.DENSE:  # never consults the store
            assert counters.opened == 0
        else:
            # the build — cellstring, or the grid at any shard count, one
            # included — was opened from the store, not rebuilt
            assert counters.opened == 1 and counters.verified == 1


# ----------------------------------------------------------------------
# catalog directory + CLI + HTTP serving
# ----------------------------------------------------------------------
DEMO_SPEC = "demo:150:6:12:5"
HTTP_PSI = 300.0


@pytest.fixture(scope="module")
def demo_store_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("catalog-store"))
    build_store_catalog(d, DEMO_SPEC, psi_values=(HTTP_PSI,), n_shards=2)
    return d


class TestStoreCatalog:
    def test_manifest_and_open(self, demo_store_dir):
        manifest = read_manifest(demo_store_dir)
        assert manifest["source"] == DEMO_SPEC
        assert set(manifest["trees"]) == {"demo"}
        assert set(manifest["facility_sets"]) == {"demo"}
        assert manifest["trees"]["demo"] == {"users": "users-demo.idx"}
        catalog = open_store_catalog(demo_store_dir)
        fresh = catalog_from_spec(DEMO_SPEC)
        assert catalog.tree_names == fresh.tree_names
        assert catalog.facility_set_names == fresh.facility_set_names
        got = catalog.describe()
        want = fresh.describe()
        assert got["trees"]["demo"]["n_trajectories"] == (
            want["trees"]["demo"]["n_trajectories"]
        )
        assert got["facility_sets"]["demo"]["facility_ids"] == (
            want["facility_sets"]["demo"]["facility_ids"]
        )

    def test_an_older_manifests_nodes_entry_is_ignored(self, demo_store_dir, tmp_path):
        """Stores written before the per-node filter tables went name a
        ``nodes`` file per tree; it is neither needed nor opened."""
        old = str(tmp_path / "old-store")
        shutil.copytree(demo_store_dir, old)
        manifest = read_manifest(old)
        manifest["trees"]["demo"]["nodes"] = "nodes-demo.idx"  # not on disk
        write_manifest(old, manifest)
        got = open_store_catalog(old).tree("demo")
        want = open_store_catalog(demo_store_dir).tree("demo")
        assert list(got.trajectories()) == list(want.trajectories())

    def test_catalog_spec_errors_are_catalog_errors(self, tmp_path):
        with pytest.raises(CatalogError):
            catalog_from_spec("store:")
        with pytest.raises(CatalogError):
            catalog_from_spec(f"store:{tmp_path / 'missing'}")
        with pytest.raises(CatalogError):
            catalog_from_spec("blob:whatever")

    def test_cli_build_inspect_verify(self, tmp_path, capsys):
        out = str(tmp_path / "cli-store")
        assert store_main(
            ["build", "--out", out, "--source", "demo:60:3:8:2",
             "--psi", str(HTTP_PSI), "--shards", "2"]
        ) == 0
        capsys.readouterr()
        assert store_main(["verify", out]) == 0
        assert "ok" in capsys.readouterr().out
        manifest = read_manifest(out)
        some_file = os.path.join(out, manifest["index_files"][0])
        assert store_main(["inspect", some_file]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format_version"] == FORMAT_VERSION
        # corrupting any file makes verify fail loudly with exit 1
        _flip_byte(some_file, 4096)
        assert store_main(["verify", out]) == 1

    def test_cli_reports_store_errors_as_exit_1(self, tmp_path, capsys):
        assert store_main(["verify", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_default_build_is_opened_by_a_default_runtime(self, tmp_path, capsys):
        """``repro.store build`` with default flags, then a runtime
        whose only non-default field is ``store_dir``: the default
        configuration asks the store for its grids (one shard included)
        and opens the files the default build wrote."""
        out = str(tmp_path / "default-store")
        # 64-stop routes: above AUTO_MIN_STOPS, so AUTO picks the grid
        assert store_main(["build", "--out", out, "--source", "demo:300:4:64:5"]) == 0
        capsys.readouterr()
        catalog = catalog_from_spec(f"store:{out}")
        tree, routes = catalog.tree("demo"), catalog.facility_set("demo")
        users = list(tree.trajectories())
        spec = ServiceSpec(ServiceModel.COUNT, psi=DEFAULT_PSI)
        oracle = [brute_force_service(users, f, spec) for f in routes]
        assert sum(oracle) > 0
        with QueryRuntime(RuntimeConfig(store_dir=out)) as rt:
            got = [evaluate_service(tree, f, spec, runtime=rt) for f in routes]
            top = top_k_facilities(tree, routes, 2, spec, runtime=rt)
            counters = rt.snapshot_store_stats()
        assert got == oracle
        assert [fs.service for fs in top.ranking] == sorted(oracle, reverse=True)[:2]
        assert counters.opened >= 1
        assert counters.verified == counters.opened


class TestHttpOverStore:
    def _payload(self):
        return {
            "type": "kmaxrrst", "tree": "demo", "facility_set": "demo",
            "k": 3, "spec": {"model": "endpoint", "psi": HTTP_PSI},
        }

    def test_store_catalog_serves_identically(self, demo_store_dir):
        runtime = RuntimeConfig(
            backend=ProximityBackend.GRID, shards=2, max_workers=2,
        )
        with background_server(
            catalog_from_spec(DEMO_SPEC), runtime_config=runtime
        ) as h:
            with ServeClient(h.host, h.port) as client:
                fresh = client.query(self._payload())
        store_runtime = dataclasses.replace(
            runtime, store_dir=demo_store_dir
        )
        with background_server(
            catalog_from_spec(f"store:{demo_store_dir}"),
            runtime_config=store_runtime,
        ) as h:
            with ServeClient(h.host, h.port) as client:
                opened = client.query(self._payload())
                counters = client.store_stats()
                raw = client.request("GET", "/stats")
        assert opened == fresh  # value, matches, AND per-request stats
        assert isinstance(counters, StoreStats)
        # the serving grids came from the store directory, verified
        assert counters.opened > 0
        assert counters.verified == counters.opened
        assert raw.body["store"]["opened"] == counters.opened

    def test_store_stats_wire_round_trip(self):
        from repro.service.http import wire

        stats = StoreStats(grid_hits=3, opened=2, verified=1)
        assert wire.decode_store_stats(wire.encode_store_stats(stats)) == stats
        with pytest.raises(QueryError):
            wire.decode_store_stats({"opened": 1, "bogus": 2})

    def test_serve_cli_derives_store_dir(self, demo_store_dir):
        from repro.serve import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--catalog", f"store:{demo_store_dir}"]
        )
        config = config_from_args(args)
        # run() wires the catalog directory into the runtime; pin the
        # derivation logic it uses
        assert config.runtime.store_dir is None
        import repro.serve as serve_mod

        derived = config.catalog.split(":", 1)[1]
        assert derived == demo_store_dir
        assert hasattr(serve_mod, "run")

    def test_runtime_config_validates_store_dir(self):
        with pytest.raises(ReproError):
            RuntimeConfig(store_dir="")
        with pytest.raises(ReproError):
            RuntimeConfig(store_dir=123)
        assert RuntimeConfig(store_dir="/tmp/x").store_dir == "/tmp/x"
