"""Differential suite for cross-request batched execution.

The contract: ``batch_window`` is a pure scheduling knob.  A batch
group runs its members' own cores back to back on one bridge task, so
for seeded random mixes of evaluate / kmaxrrst / maxkcov requests every
``QueryResult`` under ``batch_window`` {small, large} — value, matches
**and per-request stats** — must be ``==`` to the ``batch_window=0``
run (which ``tests/test_query_service.py`` in turn holds to the
synchronous cores), on both probe-scheduling paths and for every
evaluate shape (ENDPOINT, COUNT raw / normalised, LENGTH,
``collect_matches`` on / off); the runtime's grand total grows by the
same sum.  On top of parity: the hold rule itself (a group holds only
while a core is running on the bridge pool, at most ``batch_window`` —
``TestWorkConservingHold``, gates not timing), mid-batch cancellation
stays local to the cancelled member, a foreign request interleaved on a shared probe unit
closes the group instead of deadlocking it, a member's units count as
``probe_units_batched`` and never as ``probe_units_coalesced``, and a
request behind a group coalesces off it exactly as off unbatched
predecessors.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro import (
    EvaluateRequest,
    IndexVariant,
    KMaxRRSTRequest,
    MaxKCovRequest,
    ProximityBackend,
    QueryRuntime,
    QueryService,
    RuntimeConfig,
    ServiceConfig,
    ServiceModel,
    ServiceSpec,
    ServiceStats,
    TQTree,
    TQTreeConfig,
    evaluate_service,
)
from repro.core.errors import QueryError
from repro.service.http import wire

from .conftest import SCHEDULING, GatedPlanner

PSI = 400.0
ENDPOINT = ServiceSpec(ServiceModel.ENDPOINT, psi=PSI)
COUNT_RAW = ServiceSpec(ServiceModel.COUNT, psi=PSI, normalize=False)
COUNT_NORM = ServiceSpec(ServiceModel.COUNT, psi=PSI)
LENGTH = ServiceSpec(ServiceModel.LENGTH, psi=PSI)

#: The three window settings the differential matrix sweeps: off (the
#: baseline schedule), small and large.  The window only bounds how
#: long a group holds behind a busy bridge, so both stay well under the
#: suite's patience but above the loop's timer resolution.
WINDOWS = (0.0, 0.002, 0.05)

#: A window no test could sit out: a group that fires under it fired
#: because the bridge went idle, not because time passed.
LONG_WINDOW = 30.0


def _config(max_workers: int = 1) -> RuntimeConfig:
    """Two-shard grids; one worker (the default here) probes inline."""
    return RuntimeConfig(
        backend=ProximityBackend.GRID, shards=2, max_workers=max_workers
    )


@pytest.fixture(scope="module")
def tree(taxi_users):
    return TQTree.build(taxi_users, TQTreeConfig(beta=16))


@pytest.fixture(scope="module")
def checkin_tree(checkin_users):
    # 3..8-point trajectories: non-power-of-two point counts, so the
    # per-user weights of normalized COUNT are inexact floats.
    # SEGMENTED indexing so COUNT is a valid spec on >2-point users.
    return TQTree.build(
        checkin_users,
        TQTreeConfig(beta=16, variant=IndexVariant.SEGMENTED),
    )


def _fuzz_requests(tree, facilities, seed: int):
    """A seeded mix of all three request types with deliberate
    duplicate facilities, so waves contain members riding an earlier
    member's cached walk and group-closing foreign requests."""
    rng = random.Random(seed)
    specs = (ENDPOINT, COUNT_RAW, COUNT_NORM, LENGTH)
    requests = []
    for _ in range(14):
        roll = rng.random()
        if roll < 0.75:
            requests.append(
                EvaluateRequest(
                    tree,
                    facilities[rng.randrange(len(facilities))],
                    specs[rng.randrange(len(specs))],
                    collect_matches=rng.random() < 0.15,
                )
            )
        elif roll < 0.9:
            requests.append(
                KMaxRRSTRequest(tree, tuple(facilities[:6]), 3, ENDPOINT)
            )
        else:
            requests.append(
                MaxKCovRequest(tree, tuple(facilities[:6]), 2, ENDPOINT)
            )
    return requests


def _value_key(req, result):
    """A comparable projection of a result's answer (bitwise: no
    tolerances anywhere)."""
    if isinstance(req, EvaluateRequest):
        return (result.value, result.matches)
    if isinstance(req, KMaxRRSTRequest):
        return result.value.ranking
    return (
        result.value.facility_ids(),
        result.value.combined_service,
        result.value.users_fully_served,
        result.value.step_gains,
    )


def _drive(requests, max_workers: int, batch_window: float):
    async def main():
        with QueryRuntime(_config(max_workers)) as runtime:
            async with QueryService(
                runtime,
                ServiceConfig(max_in_flight=4, batch_window=batch_window),
            ) as service:
                results = await service.run(requests)
                stats = service.stats
            total = dataclasses.replace(runtime.stats)
        return results, stats, total

    return asyncio.run(main())


def _assert_outcomes_sum(stats: ServiceStats) -> None:
    assert (
        stats.requests_completed
        + stats.requests_failed
        + stats.requests_cancelled
        == stats.requests_submitted
    )


async def _core_started(gate: GatedPlanner) -> None:
    """Wait (off the loop) until the gated core is running."""
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, gate.started.wait, 10)


async def _spin(iterations: int = 8) -> None:
    """Let the loop turn over: anything that would fire on an idle
    bridge has fired after this many iterations."""
    for _ in range(iterations):
        await asyncio.sleep(0)


def _holding(service: QueryService) -> bool:
    """Is a group open and not yet fired?  Loop-confined state, so the
    answer does not race the bridge threads."""
    return service._group is not None and not service._group.closed


def _count_batch_cores(service: QueryService) -> list:
    """Record the size of every group ``_run_batch_core`` is entered
    with."""
    sizes: list = []
    run = service._run_batch_core

    def counting(group):
        sizes.append(len(group.members))
        return run(group)

    service._run_batch_core = counting
    return sizes


def _wave(tree, facilities, n=4):
    """``n`` distinct evaluates, their oracle values, and a solver
    request over disjoint facilities (no probe unit shared with the
    wave) to keep the bridge busy with."""
    requests = [
        EvaluateRequest(tree, facility, ENDPOINT) for facility in facilities[:n]
    ]
    plain = [evaluate_service(r.tree, r.facility, r.spec) for r in requests]
    solver = KMaxRRSTRequest(tree, tuple(facilities[8:11]), 2, ENDPOINT)
    return requests, plain, solver


def _drive_gated(main, batch_window=LONG_WINDOW):
    """Run ``main(service, gate)`` on a fresh service whose first
    solver core parks on the bridge pool until ``gate.release`` is set
    (it is set on the way out too, so a failing assertion does not wait
    for it)."""

    async def outer():
        with QueryRuntime(_config()) as runtime:
            async with QueryService(
                runtime, ServiceConfig(batch_window=batch_window)
            ) as service:
                gate = GatedPlanner(
                    service, lambda r: isinstance(r, KMaxRRSTRequest)
                )
                try:
                    return await main(service, gate)
                finally:
                    gate.release.set()

    return asyncio.run(outer())


class TestBatchingDifferential:
    """batch_window {small, large} × scheduling path × seed: values,
    matches and per-request stats bitwise identical to batch_window=0."""

    @pytest.mark.parametrize("mode", SCHEDULING)
    @pytest.mark.parametrize("seed", (7, 19))
    def test_fuzz_values_identical_across_windows(
        self, mode, seed, tree, facilities, scheduling_workers
    ):
        requests = _fuzz_requests(tree, facilities, seed)
        workers = scheduling_workers(mode)
        baseline, base_stats, base_total = _drive(
            requests, workers, batch_window=0.0
        )
        assert base_stats.probe_units_batched == 0
        _assert_outcomes_sum(base_stats)
        for window in WINDOWS[1:]:
            results, stats, total = _drive(
                requests, workers, batch_window=window
            )
            for req, res, base_res in zip(requests, results, baseline):
                assert _value_key(req, res) == _value_key(req, base_res), (
                    f"value diverged under batch_window={window}"
                )
                assert res.stats == base_res.stats, (
                    f"stats diverged under batch_window={window}"
                )
            assert total == base_total
            _assert_outcomes_sum(stats)

    @pytest.mark.parametrize("mode", SCHEDULING)
    def test_batched_wave_stats_split_exactly(
        self, mode, tree, facilities, scheduling_workers
    ):
        """Distinct evaluates under a large window: every unit lands in
        probe_units_batched, none in probe_units_coalesced, and each
        member's stats are the same request's stats at batch_window=0 —
        with the runtime total growing by exactly their sum."""
        requests = [
            EvaluateRequest(
                tree, facility, ENDPOINT if i % 2 == 0 else COUNT_RAW
            )
            for i, facility in enumerate(facilities[:8])
        ]
        plain = [
            evaluate_service(req.tree, req.facility, req.spec)
            for req in requests
        ]
        workers = scheduling_workers(mode)
        baseline, _, base_total = _drive(requests, workers, batch_window=0.0)
        results, stats, total = _drive(requests, workers, batch_window=0.05)
        assert [r.value for r in results] == plain
        assert stats.probe_units_batched == len(requests)
        assert stats.probe_units_coalesced == 0
        _assert_outcomes_sum(stats)
        assert [r.stats for r in results] == [r.stats for r in baseline]
        assert total == base_total

    def test_duplicate_evaluates_ride_the_engine_cache(
        self, tree, facilities
    ):
        """Duplicates inside a batch group ride the first member's
        cached walk — counted in probe_units_batched, never in
        probe_units_coalesced (reuse across requests scheduled apart)."""
        req = EvaluateRequest(tree, facilities[0], ENDPOINT)
        requests = [req, req, req]
        results, stats, _ = _drive(requests, 1, batch_window=0.05)
        assert len({r.value for r in results}) == 1
        assert stats.probe_units_batched == 3
        assert stats.probe_units_coalesced == 0
        # riders did no fresh geometry: the shared mask served them
        rider_hits = sum(r.stats.cache_hits for r in results)
        assert rider_hits >= 2

        # same wave, window off: the PR 4 coalescer handles it instead
        _, stats0, _ = _drive(requests, 1, batch_window=0.0)
        assert stats0.probe_units_batched == 0
        assert stats0.probe_units_coalesced == 2


    def test_kmaxrrst_behind_a_group_rides_its_walks(self, tree, facilities):
        """Batching composes with coalescing: a kMaxRRST submitted
        behind four batched evaluates over the same facilities finds
        their walks in the shared cache — same cache_hits and
        distance_evals, same probe_units_coalesced, as with the window
        off (the engine pass it replaces left the solver to re-probe
        from scratch)."""
        four = tuple(facilities[:4])
        requests = [EvaluateRequest(tree, f, ENDPOINT) for f in four]
        requests.append(KMaxRRSTRequest(tree, four, 2, ENDPOINT))
        baseline, base_stats, _ = _drive(requests, 1, batch_window=0.0)
        results, stats, _ = _drive(requests, 1, batch_window=0.05)
        assert stats.probe_units_batched == 4
        assert base_stats.probe_units_coalesced == 4
        assert stats.probe_units_coalesced == base_stats.probe_units_coalesced
        solver, base_solver = results[-1].stats, baseline[-1].stats
        assert base_solver.cache_hits > 0
        assert solver.cache_hits == base_solver.cache_hits
        assert solver.distance_evals == base_solver.distance_evals
        assert results[-1].value.ranking == baseline[-1].value.ranking


class TestEligibilityGate:
    def test_ineligible_shapes_fall_back_unbatched(self, tree, facilities):
        """The shapes that never batch are the multi-facility solvers:
        the window runs, the counter stays zero, answers and stats
        match window=0 bitwise."""
        requests = [
            KMaxRRSTRequest(tree, tuple(facilities[:4]), 2, ENDPOINT),
            MaxKCovRequest(tree, tuple(facilities[4:8]), 2, ENDPOINT),
        ]
        baseline, _, _ = _drive(requests, 1, batch_window=0.0)
        results, stats, _ = _drive(requests, 1, batch_window=0.05)
        assert stats.probe_units_batched == 0
        for req, res, base in zip(requests, results, baseline):
            assert _value_key(req, res) == _value_key(req, base)
            assert res.stats == base.stats

    def test_every_evaluate_shape_batches_bitwise(
        self, checkin_tree, facilities, scheduling_workers
    ):
        """No arithmetic gate: normalised COUNT on non-dyadic weights,
        LENGTH and collect_matches all join a group, and value, matches
        and stats are == window 0 — a member runs the same tree walk."""
        assert any(
            t.n_points & (t.n_points - 1) for t in checkin_tree.trajectories()
        )
        requests = [
            EvaluateRequest(
                checkin_tree, facility, spec, collect_matches=collect
            )
            for facility in facilities[:2]
            # (ENDPOINT is undefined on a SEGMENTED index; the fuzz
            # covers it, collecting and not, on the taxi tree)
            for spec in (COUNT_RAW, COUNT_NORM, LENGTH)
            for collect in (False, True)
        ]
        for mode in SCHEDULING:  # "threads" patches the fan-out floor: last
            workers = scheduling_workers(mode)
            baseline, _, base_total = _drive(requests, workers, 0.0)
            for window in (0.005, 0.05):
                results, stats, total = _drive(requests, workers, window)
                assert stats.probe_units_batched == len(requests)
                for res, base in zip(results, baseline):
                    assert res.value == base.value
                    assert res.matches == base.matches
                    assert res.stats == base.stats
                assert total == base_total

    def test_invalid_member_fails_alone(self, checkin_tree, facilities):
        """A member whose spec the tree rejects gets the error its
        unbatched core raises; its siblings in the group deliver."""
        requests = [
            EvaluateRequest(checkin_tree, facilities[0], COUNT_RAW),
            EvaluateRequest(checkin_tree, facilities[1], ENDPOINT),
            EvaluateRequest(checkin_tree, facilities[2], LENGTH),
        ]

        def drive(batch_window):
            async def main():
                with QueryRuntime(_config()) as runtime:
                    async with QueryService(
                        runtime, ServiceConfig(batch_window=batch_window)
                    ) as service:
                        outcomes = await asyncio.gather(
                            *(service.submit(r) for r in requests),
                            return_exceptions=True,
                        )
                        return outcomes, service.stats

            return asyncio.run(main())

        baseline, _ = drive(0.0)
        outcomes, stats = drive(0.05)
        assert isinstance(outcomes[1], QueryError)
        assert str(outcomes[1]) == str(baseline[1])
        for i in (0, 2):
            assert outcomes[i].value == baseline[i].value
            assert outcomes[i].stats == baseline[i].stats
        assert stats.requests_failed == 1
        assert stats.probe_units_batched == 2
        _assert_outcomes_sum(stats)


class TestCancellationAndInterleaving:
    def test_mid_batch_cancellation_stays_local(self, tree, facilities):
        """Cancelling one member while its group holds behind a busy
        bridge abandons only that member: siblings complete with
        correct values, the group still fires, and the outcome counters
        stay consistent."""
        requests, plain, solver = _wave(tree, facilities, 5)

        async def main(service, gate):
            busy = asyncio.ensure_future(service.submit(solver))
            await _core_started(gate)
            tasks = []
            for req in requests:
                tasks.append(asyncio.ensure_future(service.submit(req)))
                await asyncio.sleep(0)  # register in order
            await _spin()
            assert _holding(service)
            tasks[2].cancel()
            await _spin()
            gate.release.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=10
            )
            await busy
            return outcomes, service.stats

        outcomes, stats = _drive_gated(main)
        assert isinstance(outcomes[2], asyncio.CancelledError)
        for i, (outcome, expected) in enumerate(zip(outcomes, plain)):
            if i == 2:
                continue
            assert outcome.value == expected
        assert stats.requests_cancelled == 1
        assert stats.requests_completed == len(requests)  # 4 + the solver
        # the abandoned member's unit is not claimed as batched work
        assert stats.probe_units_batched == len(requests) - 1
        assert stats.batch_groups_run == 1
        _assert_outcomes_sum(stats)

    def test_foreign_interleave_closes_group_without_deadlock(
        self, tree, facilities
    ):
        """A non-batchable request interleaved on a shared probe unit
        after the window opened must close the group (it cannot join,
        and waiting on it would cycle through the barrier).  The wave
        still completes with correct answers."""
        a = EvaluateRequest(tree, facilities[0], ENDPOINT)
        x = KMaxRRSTRequest(tree, tuple(facilities[:3]), 2, ENDPOINT)
        c = EvaluateRequest(tree, facilities[0], ENDPOINT)
        plain = evaluate_service(tree, facilities[0], ENDPOINT)

        async def main():
            with QueryRuntime(_config()) as runtime:
                async with QueryService(
                    runtime, ServiceConfig(batch_window=0.05)
                ) as service:
                    tasks = []
                    for req in (a, x, c):
                        tasks.append(
                            asyncio.ensure_future(service.submit(req))
                        )
                        await asyncio.sleep(0)  # register in order
                    results = await asyncio.wait_for(
                        asyncio.gather(*tasks), timeout=30
                    )
                    return results, service.stats

        results, stats = asyncio.run(main())
        assert results[0].value == plain
        assert results[2].value == plain
        assert results[1].value.ranking  # the foreign request ran too
        # both evaluates batched — in two groups, split by the closure
        assert stats.probe_units_batched == 2
        _assert_outcomes_sum(stats)


class TestWorkConservingHold:
    """The hold rule itself: a group holds only while a core is running
    on the bridge pool, and never longer than ``batch_window``.  Gates,
    not timing — every wait is on an event, under a window (30 s) that
    would fail the test's own timeout if it were ever slept out."""

    def test_idle_bridge_fires_a_lone_request_at_once(
        self, tree, facilities
    ):
        requests, plain, _ = _wave(tree, facilities, 1)

        async def main(service, gate):
            result = await asyncio.wait_for(
                service.submit(requests[0]), timeout=2
            )
            return result, service.stats

        result, stats = _drive_gated(main)
        assert result.value == plain[0]
        assert stats.probe_units_batched == 1
        assert stats.batch_groups_run == 1

    def test_one_gather_on_an_idle_bridge_is_one_bridge_task(
        self, tree, facilities
    ):
        requests, plain, _ = _wave(tree, facilities, 6)

        async def main(service, gate):
            sizes = _count_batch_cores(service)
            results = await asyncio.wait_for(
                service.run(requests), timeout=10
            )
            return results, sizes, service.stats

        results, sizes, stats = _drive_gated(main)
        assert [r.value for r in results] == plain
        assert sizes == [len(requests)]
        assert stats.probe_units_batched == len(requests)
        assert stats.batch_groups_run == 1

    def test_busy_bridge_holds_the_group_until_the_core_finishes(
        self, tree, facilities
    ):
        """Evaluates submitted one loop iteration apart behind a
        running solver core form one group, which fires when that core
        finishes — long before the window."""
        requests, plain, solver = _wave(tree, facilities)

        async def main(service, gate):
            sizes = _count_batch_cores(service)
            busy = asyncio.ensure_future(service.submit(solver))
            await _core_started(gate)
            tasks = []
            for req in requests:
                tasks.append(asyncio.ensure_future(service.submit(req)))
                await _spin(3)
            assert _holding(service) and sizes == []
            gate.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(*tasks), timeout=10
            )
            await busy
            return results, sizes, service.stats

        results, sizes, stats = _drive_gated(main)
        assert [r.value for r in results] == plain
        assert sizes == [len(requests)]
        assert stats.probe_units_batched == len(requests)
        assert stats.batch_groups_run == 1
        _assert_outcomes_sum(stats)

    def test_hold_is_bounded_by_the_window(self, tree, facilities):
        """The gate stays shut past a short window: the group fires at
        the window and runs beside the busy core."""
        requests, plain, solver = _wave(tree, facilities)

        async def main(service, gate):
            sizes = _count_batch_cores(service)
            busy = asyncio.ensure_future(service.submit(solver))
            await _core_started(gate)
            results = await asyncio.wait_for(
                service.run(requests), timeout=10
            )
            assert not busy.done()  # answered while the core still runs
            gate.release.set()
            await busy
            return results, sizes, service.stats

        results, sizes, stats = _drive_gated(main, batch_window=0.05)
        assert [r.value for r in results] == plain
        assert sizes == [len(requests)]
        assert stats.probe_units_batched == len(requests)
        assert stats.batch_groups_run == 1

    def test_orphaned_core_still_counts_as_busy(self, tree, facilities):
        """A core whose caller was cancelled mid-execution keeps its
        bridge thread, so a group still holds behind it."""
        requests, plain, solver = _wave(tree, facilities)

        async def main(service, gate):
            victim = asyncio.ensure_future(service.submit(solver))
            await _core_started(gate)
            victim.cancel()
            with pytest.raises(asyncio.CancelledError):
                await victim
            wave = asyncio.ensure_future(service.run(requests))
            await _spin()
            assert _holding(service)
            gate.release.set()
            results = await asyncio.wait_for(wave, timeout=10)
            return results, service.stats

        results, stats = _drive_gated(main)
        assert [r.value for r in results] == plain
        assert stats.requests_cancelled == 1
        assert stats.batch_groups_run == 1
        _assert_outcomes_sum(stats)


class TestKnobAndWire:
    def test_batch_window_validation(self):
        with pytest.raises(QueryError, match="batch_window"):
            ServiceConfig(batch_window=-0.001)
        assert ServiceConfig().batch_window == 0.0

    def test_probe_units_batched_round_trips_on_the_wire(self):
        stats = ServiceStats(
            requests_submitted=4,
            requests_completed=4,
            probe_units_planned=4,
            probe_units_batched=4,
            batch_groups_run=2,
        )
        decoded = wire.decode_service_stats(wire.encode_service_stats(stats))
        assert decoded == stats
        assert decoded.probe_units_batched == 4
        assert decoded.batch_groups_run == 2
