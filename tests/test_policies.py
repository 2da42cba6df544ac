"""Differential suite for probe scheduling (DESIGN.md §5.1).

The contract: *where* a probe runs — inline on the calling thread, or
fanned out over the runtime's thread pool once a block reaches
``FANOUT_MIN_POINTS`` points — never changes an answer.  Masks must be
bit-identical to the dense oracle on both paths at every shard count,
per-shard / per-chunk ``QueryStats`` must merge to exactly the inline
totals, and the full query stack (evaluate / kMaxRRST / MaxkCovRST /
batch engine) must return ``==`` results either way.

The file, class and test names predate the removal of the
``ExecutionPolicy`` axis (ISSUE 18) and are kept so the test ids stay
stable; "serial" is the inline path (one worker), "threads" the fan-out
path (two workers, threshold patched to 1 by the ``scheduling_workers``
fixture — a constant patched by a test, not an option).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BatchQueryEngine,
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
from repro.engine import CellstringStopSet, GriddedStopSet, ShardedStopGrid
from repro.engine.grid import FANOUT_MIN_POINTS

from .conftest import SCHEDULING

#: Shard counts of the acceptance matrix (0 = ``SHARDS_AUTO``).
SHARD_COUNTS = (1, 2, 7, 0)
TIERS = (ProximityBackend.GRID, ProximityBackend.CELLSTRING)


def _config(
    max_workers: int, shards: int, backend=ProximityBackend.GRID
) -> RuntimeConfig:
    return RuntimeConfig(backend=backend, shards=shards, max_workers=max_workers)


class TestMaskAndStatsParity:
    """Bit-identical masks and exactly-merged stats, path × tier × shards."""

    PSI = 25.0

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0, 2_000, (5_000, 2))
        probes = rng.uniform(0, 2_000, (4_000, 2))
        return coords, probes

    def test_masks_and_merged_stats_identical(self, world, scheduling_workers):
        coords, probes = world
        dense = StopSet(coords).covered_mask(probes, self.PSI)
        assert dense.any() and not dense.all()  # a discriminating probe
        for backend in TIERS:
            ref_stats = QueryStats()
            with QueryRuntime(_config(1, 1, backend)) as rt:
                ref_mask = rt.probe_mask(coords, probes, self.PSI, ref_stats)
            np.testing.assert_array_equal(ref_mask, dense)
            for mode in SCHEDULING:
                for shards in SHARD_COUNTS:
                    label = f"{backend.value} x {mode} x {shards} shards"
                    stats = QueryStats()
                    config = _config(scheduling_workers(mode), shards, backend)
                    with QueryRuntime(config) as rt:
                        mask = rt.probe_mask(coords, probes, self.PSI, stats)
                    np.testing.assert_array_equal(mask, dense, err_msg=label)
                    assert stats == ref_stats, label

    def test_empty_and_degenerate_probes(self, world, scheduling_workers):
        coords, _ = world
        for backend in TIERS:
            for mode in SCHEDULING:
                config = _config(scheduling_workers(mode), 7, backend)
                with QueryRuntime(config) as rt:
                    empty = rt.probe_mask(coords, np.zeros((0, 2)), self.PSI)
                    assert empty.shape == (0,)
                    one = rt.probe_mask(coords, coords[:1], self.PSI)
                    assert bool(one[0])  # a stop covers itself


class TestQueryStackUnderPolicies:
    """Every query algorithm must be ``==`` on both scheduling paths."""

    def test_evaluate_topk_maxkcov_batch_identical(
        self, taxi_users, facilities, scheduling_workers
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
        for mode in SCHEDULING:
            with QueryRuntime(_config(scheduling_workers(mode), 3)) as rt:
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
            assert got_eval == plain_eval, mode
            assert got_topk.ranking == plain_topk.ranking, mode
            assert got_cov.facility_ids() == plain_cov.facility_ids(), mode
            assert got_cov.combined_service == plain_cov.combined_service
            assert got_batch.scores == plain_batch.scores, mode

    def test_batch_stats_merge_exactly_across_policies(
        self, taxi_users, facilities, scheduling_workers
    ):
        """The runtime-accrued grand total is scheduling-invariant: the
        per-shard merges come out the same inline and fanned out."""
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        requests = [(f, spec) for f in facilities[:6]]
        totals = []
        for mode in SCHEDULING:
            with QueryRuntime(_config(scheduling_workers(mode), 7)) as rt:
                result = BatchQueryEngine(taxi_users, runtime=rt).run(requests)
                assert rt.stats == result.stats
                totals.append(rt.stats)
        assert totals[0] == totals[1]


class TestProcessPolicyLifecycle:
    def test_dressed_sets_survive_close(self, scheduling_workers):
        """A grid stop set dressed before close() must degrade to
        inline probing — identical answers, no scheduling on a dead
        pool."""
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 500, (256, 2))
        probe = rng.uniform(0, 500, (128, 2))
        rt = QueryRuntime(_config(scheduling_workers("threads"), 4))
        dressed = rt.stop_set(StopSet(coords), 10.0)
        before = dressed.covered_mask(probe, 10.0)
        assert rt._pool is not None  # the probe did fan out
        rt.close()
        assert rt.executor is None
        after = dressed.covered_mask(probe, 10.0)  # must not raise
        np.testing.assert_array_equal(before, after)


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


class _CountingPool(ThreadPoolExecutor):
    """A real pool that counts the fan-outs scheduled on it."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.fanouts = 0

    def map(self, fn, *iterables):
        self.fanouts += 1
        return super().map(fn, *iterables)


class TestAutoPolicy:
    """The one scheduling rule at its real threshold: inline for small
    probe blocks, thread fan-out from ``FANOUT_MIN_POINTS`` points —
    bit-identical either way."""

    PSI = 25.0

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(91)
        stops = rng.uniform(0, 2_000, (6_000, 2))
        small = rng.uniform(0, 2_000, (64, 2))
        large = rng.uniform(0, 2_000, (FANOUT_MIN_POINTS + 512, 2))
        return stops, small, large

    def _masks(self, max_workers, stops, probe, shards=4):
        with QueryRuntime(_config(max_workers, shards)) as rt:
            stats = QueryStats()
            mask = rt.probe_mask(stops, probe, self.PSI, stats)
        return mask, stats

    @pytest.mark.parametrize("block", ["small", "large"])
    def test_auto_masks_and_stats_match_delegates(self, workload, block):
        """A two-worker runtime left to decide for itself matches the
        always-inline one on either side of the threshold."""
        stops, small, large = workload
        probe = small if block == "small" else large
        auto_mask, auto_stats = self._masks(2, stops, probe)
        mask, stats = self._masks(1, stops, probe)
        np.testing.assert_array_equal(auto_mask, mask)
        assert auto_stats == stats

    def test_heuristic_picks_serial_then_fanout(self, workload):
        stops, small, large = workload
        for dress in (
            lambda pool: GriddedStopSet(stops, self.PSI, shards=4, executor=pool),
            lambda pool: CellstringStopSet(stops, self.PSI, executor=pool),
        ):
            with _CountingPool() as pool:
                dressed = dress(pool)
                dressed.covered_mask(small, self.PSI)
                dressed.covered_mask(large[: FANOUT_MIN_POINTS - 1], self.PSI)
                assert pool.fanouts == 0  # below the threshold: inline
                dressed.covered_mask(large, self.PSI)
                assert pool.fanouts == 1
        # and the runtime builds its pool only once a block qualifies
        with QueryRuntime(_config(2, 4)) as rt:
            rt.probe_mask(stops, small, self.PSI)
            assert rt._pool is None
            rt.probe_mask(stops, large, self.PSI)
            assert rt._pool is not None

    def test_single_worker_auto_probes_inline(self, workload):
        stops, _, large = workload
        plain = ShardedStopGrid(stops, self.PSI, 1).covered_mask(large, self.PSI)
        for max_workers in (0, 1):
            with QueryRuntime(_config(max_workers, 4)) as rt:
                assert rt.executor is None  # nothing to fan out over
                mask = rt.probe_mask(stops, large, self.PSI)
                assert rt._pool is None
            np.testing.assert_array_equal(mask, plain)

    def test_closed_auto_degrades_to_serial(self, workload):
        """The cellstring twin of ``test_dressed_sets_survive_close``,
        at the real threshold."""
        stops, _, large = workload
        rt = QueryRuntime(_config(2, 4, ProximityBackend.CELLSTRING))
        dressed = rt.stop_set(StopSet(stops), self.PSI)
        before = dressed.covered_mask(large, self.PSI)
        assert rt._pool is not None  # the large block did fan out
        rt.close()
        after = dressed.covered_mask(large, self.PSI)  # must not raise
        np.testing.assert_array_equal(before, after)
