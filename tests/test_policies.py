"""Differential suite for the pluggable execution policies.

The contract: ``RuntimeConfig.policy`` — ``serial`` / ``threads`` /
``processes`` — never changes an answer.  Masks must be bit-identical to
the dense oracle for every policy at every shard count, per-shard
``QueryStats`` must merge to exactly the one-shard totals under every
policy, and the full query stack (evaluate / kMaxRRST / MaxkCovRST /
batch engine) must return ``==`` results when routed through any policy.

The processes policy additionally ships shard arrays through
``multiprocessing.shared_memory``; its lifecycle (lazy pool, export
caching, unlink-on-close, degrade-to-serial after close) is covered
here too.

Set ``REPRO_MP_START_METHOD=spawn`` (CI does, mirroring the
macOS/Windows default) to run every process-policy case under the
``spawn`` start method instead of the platform default.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BatchQueryEngine,
    ExecutionPolicy,
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    StopSet,
    TQTree,
    TQTreeConfig,
    evaluate_service,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.errors import QueryError
from repro.runtime.policies import (
    AUTO_POLICY_MIN_POINTS,
    AutoPolicyExecutor,
    ProcessPolicyExecutor,
    SerialPolicyExecutor,
    ThreadPolicyExecutor,
    make_policy_executor,
)

#: The ISSUE-3 acceptance matrix.
POLICIES = ("serial", "threads", "processes")
SHARD_COUNTS = (1, 2, 7)

#: CI exports this to re-run the whole suite under the macOS/Windows
#: default start method; unset, the platform default applies.
START_METHOD = os.environ.get("REPRO_MP_START_METHOD") or None


def _config(policy: str, shards: int, max_workers: int = 2) -> RuntimeConfig:
    return RuntimeConfig(
        backend=ProximityBackend.GRID,
        policy=policy,
        shards=shards,
        max_workers=max_workers,
        start_method=START_METHOD if policy == "processes" else None,
    )


class TestMaskAndStatsParity:
    """Bit-identical masks and exactly-merged stats, policy × shards."""

    PSI = 25.0

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0, 2_000, (5_000, 2))
        probes = rng.uniform(0, 2_000, (4_000, 2))
        return coords, probes

    def test_masks_and_merged_stats_identical(self, world):
        coords, probes = world
        dense = StopSet(coords).covered_mask(probes, self.PSI)
        assert dense.any() and not dense.all()  # a discriminating probe
        ref_stats = QueryStats()
        with QueryRuntime(_config("serial", 1)) as rt:
            ref_mask = rt.probe_mask(coords, probes, self.PSI, ref_stats)
        np.testing.assert_array_equal(ref_mask, dense)
        for policy in POLICIES:
            for shards in SHARD_COUNTS:
                stats = QueryStats()
                with QueryRuntime(_config(policy, shards)) as rt:
                    mask = rt.probe_mask(coords, probes, self.PSI, stats)
                np.testing.assert_array_equal(
                    mask, dense, err_msg=f"{policy} x {shards} shards"
                )
                assert stats == ref_stats, f"{policy} x {shards} shards"

    def test_probe_mask_async_matches_sync(self, world, caplog):
        """The advertised async bridge: identical mask and identically
        mutated stats versus probe_mask, under every policy, and the
        probe kernel never holds the event loop (asserted via asyncio's
        debug-mode slow-callback warnings, as the service smoke test
        does)."""
        import asyncio
        import logging

        coords, probes = world
        for policy in POLICIES:
            with QueryRuntime(_config(policy, 2)) as rt:
                sync_stats = QueryStats()
                sync_mask = rt.probe_mask(
                    coords, probes, self.PSI, sync_stats
                )

                async def drive():
                    loop = asyncio.get_running_loop()
                    loop.set_debug(True)
                    loop.slow_callback_duration = 0.25
                    stats = QueryStats()
                    mask = await rt.probe_mask_async(
                        coords, probes, self.PSI, stats
                    )
                    return mask, stats

                with caplog.at_level(logging.WARNING, logger="asyncio"):
                    async_mask, async_stats = asyncio.run(drive())
            blocking = [
                r for r in caplog.records if "Executing" in r.getMessage()
            ]
            assert not blocking, (policy, [r.getMessage() for r in blocking])
            np.testing.assert_array_equal(
                async_mask, sync_mask, err_msg=policy
            )
            assert async_stats == sync_stats, policy

    def test_empty_and_degenerate_probes(self, world):
        coords, _ = world
        for policy in POLICIES:
            with QueryRuntime(_config(policy, 7)) as rt:
                empty = rt.probe_mask(
                    coords, np.zeros((0, 2)), self.PSI
                )
                assert empty.shape == (0,)
                one = rt.probe_mask(coords, coords[:1], self.PSI)
                assert bool(one[0])  # a stop covers itself


class TestQueryStackUnderPolicies:
    """Every query algorithm must be ``==`` under every policy."""

    def test_evaluate_topk_maxkcov_batch_identical(
        self, taxi_users, facilities
    ):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        count_spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        plain_eval = [
            evaluate_service(tree, f, spec) for f in facilities[:6]
        ]
        plain_topk = top_k_facilities(tree, facilities, 4, spec)
        plain_cov = maxkcov_tq(tree, facilities, 3, spec)
        requests = [(f, count_spec) for f in facilities[:6]]
        plain_batch = BatchQueryEngine(taxi_users).run(requests)
        for policy in POLICIES:
            with QueryRuntime(_config(policy, 3)) as rt:
                got_eval = [
                    evaluate_service(tree, f, spec, runtime=rt)
                    for f in facilities[:6]
                ]
                got_topk = top_k_facilities(
                    tree, facilities, 4, spec, runtime=rt
                )
                got_cov = maxkcov_tq(tree, facilities, 3, spec, runtime=rt)
                got_batch = BatchQueryEngine(taxi_users, runtime=rt).run(
                    requests
                )
            assert got_eval == plain_eval, policy
            assert got_topk.ranking == plain_topk.ranking, policy
            assert got_cov.facility_ids() == plain_cov.facility_ids(), policy
            assert got_cov.combined_service == plain_cov.combined_service
            assert got_batch.scores == plain_batch.scores, policy

    def test_batch_stats_merge_exactly_across_policies(self, taxi_users, facilities):
        """The runtime-accrued grand total is policy-invariant: the
        per-shard merges come out the same under every policy."""
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        requests = [(f, spec) for f in facilities[:6]]
        totals = []
        for policy in POLICIES:
            with QueryRuntime(_config(policy, 7)) as rt:
                result = BatchQueryEngine(taxi_users, runtime=rt).run(requests)
                assert rt.stats == result.stats
                totals.append(rt.stats)
        assert totals[0] == totals[1] == totals[2]


class TestPolicyConfig:
    def test_string_policy_coerces(self):
        assert RuntimeConfig(policy="processes").policy is (
            ExecutionPolicy.PROCESSES
        )
        assert RuntimeConfig(policy="serial").policy is ExecutionPolicy.SERIAL
        assert RuntimeConfig().policy is ExecutionPolicy.THREADS

    def test_unknown_policy_rejected(self):
        with pytest.raises(QueryError):
            RuntimeConfig(policy="fibers")

    def test_unknown_start_method_rejected(self):
        with pytest.raises(QueryError):
            RuntimeConfig(start_method="teleport")

    def test_factory_builds_matching_executor(self):
        assert isinstance(
            make_policy_executor(RuntimeConfig(policy="serial")),
            SerialPolicyExecutor,
        )
        assert isinstance(
            make_policy_executor(RuntimeConfig(policy="threads")),
            ThreadPolicyExecutor,
        )
        proc = make_policy_executor(
            RuntimeConfig(policy="processes", max_workers=2)
        )
        assert isinstance(proc, ProcessPolicyExecutor)
        proc.close()

    def test_executor_shape_per_policy(self):
        with QueryRuntime(_config("serial", 2)) as rt:
            assert rt.executor is None
        with QueryRuntime(_config("threads", 2)) as rt:
            assert hasattr(rt.executor, "map")  # a real Executor
        with QueryRuntime(_config("processes", 2)) as rt:
            assert hasattr(rt.executor, "probe_shards")  # the fan-out
        # 0 workers keeps any policy serial
        with QueryRuntime(_config("processes", 2, max_workers=0)) as rt:
            assert rt.executor is None


class TestProcessPolicyLifecycle:
    def test_dressed_sets_survive_close(self):
        """A stop set dressed before close() must degrade to serial
        probing — identical answers, no scheduling on a dead pool."""
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 500, (256, 2))
        probe = rng.uniform(0, 500, (128, 2))
        rt = QueryRuntime(_config("processes", 4))
        dressed = rt.stop_set(StopSet(coords), 10.0)
        before = dressed.covered_mask(probe, 10.0)
        rt.close()
        after = dressed.covered_mask(probe, 10.0)  # must not raise
        np.testing.assert_array_equal(before, after)

    def test_close_unlinks_shared_memory(self):
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 2_000, (4_000, 2))
        probe = rng.uniform(0, 2_000, (512, 2))
        rt = QueryRuntime(_config("processes", 4))
        mask = rt.probe_mask(coords, probe, 25.0)
        assert mask.shape == (512,)
        executor = rt.policy_executor
        names = [
            desc[0]
            for _, _, descs in executor._exports.values()
            for desc in descs
        ]
        assert names, "the probe should have exported shard segments"
        rt.close()
        assert not executor._exports
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_export_cache_is_bounded(self):
        executor = ProcessPolicyExecutor(max_workers=2, max_exports=4)
        try:
            from repro.engine.shards import ShardedStopGrid

            rng = np.random.default_rng(7)
            grid = ShardedStopGrid(rng.uniform(0, 2_000, (4_000, 2)), 25.0, 7)
            for shard in grid.shards:
                if shard.n_stops:
                    executor._shard_descriptor(shard)
            assert len(executor._exports) <= 4
            # a cached shard re-serves its descriptor (no re-export)
            live = next(iter(executor._exports.values()))[0]
            before = len(executor._exports)
            executor._shard_descriptor(live)
            assert len(executor._exports) == before
        finally:
            executor.close()


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


class TestAutoPolicy:
    """The adaptive ``auto`` policy: serial for small probe blocks,
    thread fan-out for large ones — bit-identical to whichever policy
    it delegates to (ISSUE-4 satellite)."""

    PSI = 25.0

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(91)
        stops = rng.uniform(0, 2_000, (6_000, 2))
        small = rng.uniform(0, 2_000, (64, 2))
        large = rng.uniform(0, 2_000, (AUTO_POLICY_MIN_POINTS + 512, 2))
        return stops, small, large

    def _masks(self, policy, stops, probe, shards=4):
        with QueryRuntime(_config(policy, shards)) as rt:
            stats = QueryStats()
            mask = rt.probe_mask(stops, probe, self.PSI, stats)
        return mask, stats

    @pytest.mark.parametrize("block", ["small", "large"])
    def test_auto_masks_and_stats_match_delegates(self, workload, block):
        stops, small, large = workload
        probe = small if block == "small" else large
        auto_mask, auto_stats = self._masks("auto", stops, probe)
        for delegate in ("serial", "threads"):
            mask, stats = self._masks(delegate, stops, probe)
            np.testing.assert_array_equal(auto_mask, mask)
            assert auto_stats == stats

    def test_heuristic_picks_serial_then_fanout(self, workload):
        stops, small, large = workload
        rt = QueryRuntime(_config("auto", 4))
        executor = rt.policy_executor
        assert isinstance(executor, AutoPolicyExecutor)
        try:
            rt.probe_mask(stops, small, self.PSI)
            assert executor.serial_probes >= 1
            assert executor.fanout_probes == 0
            assert not executor._threads._built  # pool never constructed
            rt.probe_mask(stops, large, self.PSI)
            assert executor.fanout_probes == 1
        finally:
            rt.close()

    def test_single_worker_auto_probes_inline(self, workload):
        stops, _, large = workload
        with QueryRuntime(_config("auto", 4, max_workers=1)) as rt:
            assert rt.executor is None  # nothing to fan out over
            serial_mask, _ = self._masks("serial", stops, large)
            np.testing.assert_array_equal(
                rt.probe_mask(stops, large, self.PSI), serial_mask
            )

    def test_closed_auto_degrades_to_serial(self, workload):
        stops, _, large = workload
        rt = QueryRuntime(_config("auto", 4))
        dressed = rt.stop_set(StopSet(stops), self.PSI)
        before = dressed.covered_mask(large, self.PSI)
        rt.close()
        after = dressed.covered_mask(large, self.PSI)  # must not raise
        np.testing.assert_array_equal(before, after)

    def test_auto_policy_accepted_by_config_string(self):
        config = RuntimeConfig(policy="auto")
        assert config.policy is ExecutionPolicy.AUTO
        assert isinstance(make_policy_executor(config), AutoPolicyExecutor)
