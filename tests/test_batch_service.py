"""Differential suite for cross-request batched execution.

The contract: ``batch_window`` is a pure scheduling knob.  Every
request joins the one open group, which runs its members' own cores in
submission order, so for seeded random mixes of all three request types
every ``QueryResult`` under ``batch_window`` {small, large} — value,
matches **and per-request stats** — must be ``==`` to the
``batch_window=0`` run (which ``tests/test_query_service.py`` in turn
holds to the synchronous cores), for every evaluate shape (ENDPOINT,
COUNT raw / normalised, LENGTH, ``collect_matches`` on / off); the
runtime's grand total grows by the same sum.  On top of parity: the
hold rule itself (a group runs one loop iteration after its first
submit — ``TestWorkConservingHold``), a mixed gather runs as one group
in submission order, mid-batch cancellation stays local to the
cancelled member, and a member's units count as ``probe_units_batched``
and never as ``probe_units_coalesced``.
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

PSI = 400.0
ENDPOINT = ServiceSpec(ServiceModel.ENDPOINT, psi=PSI)
COUNT_RAW = ServiceSpec(ServiceModel.COUNT, psi=PSI, normalize=False)
COUNT_NORM = ServiceSpec(ServiceModel.COUNT, psi=PSI)
LENGTH = ServiceSpec(ServiceModel.LENGTH, psi=PSI)

#: The three window settings the differential matrix sweeps: off (the
#: baseline schedule), small and large.  A group holds for one yield
#: whatever the window, so the two on-settings must agree.
WINDOWS = (0.0, 0.002, 0.05)


def _config() -> RuntimeConfig:
    """Two-shard grids."""
    return RuntimeConfig(backend=ProximityBackend.GRID, shards=2)


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
    member's cached walk."""
    rng = random.Random(seed)
    specs = (ENDPOINT, COUNT_RAW, COUNT_NORM, LENGTH)
    six = tuple(facilities[:6])
    requests = []
    for _ in range(14):
        roll = rng.random()
        if roll < 0.7:
            requests.append(
                EvaluateRequest(
                    tree,
                    facilities[rng.randrange(len(facilities))],
                    specs[rng.randrange(len(specs))],
                    collect_matches=rng.random() < 0.15,
                )
            )
        elif roll < 0.85:
            requests.append(KMaxRRSTRequest(tree, six, 3, ENDPOINT))
        else:
            requests.append(MaxKCovRequest(tree, six, 2, ENDPOINT))
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


def _drive(requests, batch_window: float):
    async def main():
        with QueryRuntime(_config()) as runtime:
            async with QueryService(
                runtime,
                ServiceConfig(batch_window=batch_window),
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


def _wave(tree, facilities, n=4):
    """``n`` distinct evaluates and their oracle values."""
    requests = [
        EvaluateRequest(tree, facility, ENDPOINT) for facility in facilities[:n]
    ]
    plain = [evaluate_service(r.tree, r.facility, r.spec) for r in requests]
    return requests, plain


def _drive_service(main, batch_window=0.05):
    """Run ``main(service)`` on a fresh batching service."""

    async def outer():
        with QueryRuntime(_config()) as runtime:
            async with QueryService(
                runtime, ServiceConfig(batch_window=batch_window)
            ) as service:
                return await main(service)

    return asyncio.run(outer())


class TestBatchingDifferential:
    """batch_window {small, large} × seed: values, matches and
    per-request stats bitwise identical to batch_window=0."""

    @pytest.mark.parametrize("seed", (7, 19))
    def test_fuzz_values_identical_across_windows(self, seed, tree, facilities):
        requests = _fuzz_requests(tree, facilities, seed)
        baseline, base_stats, base_total = _drive(requests, batch_window=0.0)
        assert base_stats.probe_units_batched == 0
        _assert_outcomes_sum(base_stats)
        for window in WINDOWS[1:]:
            results, stats, total = _drive(requests, batch_window=window)
            for req, res, base_res in zip(requests, results, baseline):
                assert _value_key(req, res) == _value_key(req, base_res), (
                    f"value diverged under batch_window={window}"
                )
                assert res.stats == base_res.stats, (
                    f"stats diverged under batch_window={window}"
                )
            assert total == base_total
            _assert_outcomes_sum(stats)

    def test_batched_wave_stats_split_exactly(self, tree, facilities):
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
        baseline, _, base_total = _drive(requests, batch_window=0.0)
        results, stats, total = _drive(requests, batch_window=0.05)
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
        probe_units_coalesced (reuse across requests scheduled apart).
        With the window off they run one after the other in their own
        submission steps and ride the same cache as hits."""
        req = EvaluateRequest(tree, facilities[0], ENDPOINT)
        requests = [req, req, req]
        results, stats, _ = _drive(requests, batch_window=0.05)
        assert len({r.value for r in results}) == 1
        assert stats.probe_units_batched == 3
        assert stats.probe_units_coalesced == 0
        # riders did no fresh geometry: the shared mask served them
        rider_hits = sum(r.stats.cache_hits for r in results)
        assert rider_hits >= 2

        results0, stats0, _ = _drive(requests, batch_window=0.0)
        assert stats0.probe_units_batched == 0
        assert stats0.probe_units_coalesced == 0
        assert [r.stats for r in results0] == [r.stats for r in results]


    def test_kmaxrrst_behind_a_group_rides_its_walks(self, tree, facilities):
        """A kMaxRRST submitted after four evaluates over the same
        facilities runs last in their group and finds their walks in
        the shared cache — the same cache_hits and distance_evals as
        with the window off, where the evaluates ran before it in their
        own submission steps."""
        four = tuple(facilities[:4])
        requests = [EvaluateRequest(tree, f, ENDPOINT) for f in four]
        requests.append(KMaxRRSTRequest(tree, four, 2, ENDPOINT))
        baseline, base_stats, _ = _drive(requests, batch_window=0.0)
        results, stats, _ = _drive(requests, batch_window=0.05)
        assert stats.probe_units_batched == 8
        assert stats.batch_groups_run == 1
        assert stats.probe_units_coalesced == 0
        assert base_stats.probe_units_coalesced == 0
        solver, base_solver = results[-1].stats, baseline[-1].stats
        assert base_solver.cache_hits > 0
        assert solver == base_solver
        assert results[-1].value.ranking == baseline[-1].value.ranking

    def test_mixed_gather_runs_in_submission_order(self, tree, facilities):
        """A gather of all three types at window > 0 is one group whose
        cores run in submission order — a solver sharing no probe unit
        with the evaluates before it still runs after them."""
        requests = [
            EvaluateRequest(tree, facilities[0], ENDPOINT),
            EvaluateRequest(tree, facilities[1], COUNT_RAW),
            KMaxRRSTRequest(tree, tuple(facilities[6:10]), 2, ENDPOINT),
            EvaluateRequest(tree, facilities[2], LENGTH),
            MaxKCovRequest(tree, tuple(facilities[:6]), 2, ENDPOINT),
            MaxKCovRequest(tree, tuple(facilities[:4]), 2, COUNT_RAW),
            EvaluateRequest(tree, facilities[3], ENDPOINT),
        ]
        position = {id(r): i for i, r in enumerate(requests)}
        ran = []

        async def main(service):
            planner = service.planner

            class RecordingPlanner:
                def plan(self, request):
                    plan = planner.plan(request)

                    def execute(runtime):
                        ran.append(position[id(request)])
                        return plan.execute(runtime)

                    return dataclasses.replace(plan, execute=execute)

            service.planner = RecordingPlanner()
            return await service.run(requests), service.stats

        baseline, _, _ = _drive(requests, batch_window=0.0)
        results, stats = _drive_service(main)
        assert ran == list(range(len(requests)))
        assert stats.batch_groups_run == 1
        assert stats.probe_units_batched == stats.probe_units_planned
        for req, res, base in zip(requests, results, baseline):
            assert _value_key(req, res) == _value_key(req, base)
            assert res.stats == base.stats


class TestEligibilityGate:
    def test_solvers_join_the_group(self, tree, facilities):
        """The multi-facility solvers join the group like evaluates:
        every planned unit is batched, and answers and stats match
        window=0 bitwise."""
        requests = [
            KMaxRRSTRequest(tree, tuple(facilities[:4]), 2, ENDPOINT),
            MaxKCovRequest(tree, tuple(facilities[4:8]), 2, ENDPOINT),
        ]
        baseline, _, _ = _drive(requests, batch_window=0.0)
        results, stats, _ = _drive(requests, batch_window=0.05)
        assert stats.probe_units_batched == stats.probe_units_planned > 0
        assert stats.batch_groups_run == 1
        for req, res, base in zip(requests, results, baseline):
            assert _value_key(req, res) == _value_key(req, base)
            assert res.stats == base.stats

    def test_every_evaluate_shape_batches_bitwise(self, checkin_tree, facilities):
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
        baseline, _, base_total = _drive(requests, 0.0)
        for window in (0.005, 0.05):
            results, stats, total = _drive(requests, window)
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
        """Cancelling one member while its group waits to run abandons
        only that member: siblings complete with correct values, the
        group still runs, and the outcome counters stay consistent."""
        requests, plain = _wave(tree, facilities, 5)

        async def main(service):
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            await asyncio.sleep(0)  # every member joined the open group
            assert not any(task.done() for task in tasks)
            tasks[2].cancel()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=10
            )
            return outcomes, service.stats

        outcomes, stats = _drive_service(main)
        assert isinstance(outcomes[2], asyncio.CancelledError)
        for i, (outcome, expected) in enumerate(zip(outcomes, plain)):
            if i == 2:
                continue
            assert outcome.value == expected
        assert stats.requests_cancelled == 1
        assert stats.requests_completed == len(requests) - 1
        # the abandoned member's unit is not claimed as batched work
        assert stats.probe_units_batched == len(requests) - 1
        assert stats.batch_groups_run == 1
        _assert_outcomes_sum(stats)

    def test_cancelling_the_opening_member_keeps_the_group(
        self, tree, facilities
    ):
        """The member whose submit opened the group owns nothing of its
        run: cancelling it before the group runs leaves its siblings to
        complete in that same group."""
        requests, plain = _wave(tree, facilities, 4)

        async def main(service):
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            await asyncio.sleep(0)  # every member joined the open group
            tasks[0].cancel()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=10
            )
            return outcomes, service.stats

        outcomes, stats = _drive_service(main)
        assert isinstance(outcomes[0], asyncio.CancelledError)
        assert [o.value for o in outcomes[1:]] == plain[1:]
        assert stats.requests_cancelled == 1
        assert stats.probe_units_batched == len(requests) - 1
        assert stats.batch_groups_run == 1
        _assert_outcomes_sum(stats)


class TestWorkConservingHold:
    """The hold rule itself: a group runs one loop iteration after its
    first submit, so every submit made in that iteration joins and
    nothing waits out the window (30 s here, past the tests' own
    timeouts)."""

    LONG_WINDOW = 30.0

    def test_a_lone_request_fires_at_once(self, tree, facilities):
        requests, plain = _wave(tree, facilities, 1)

        async def main(service):
            result = await asyncio.wait_for(
                service.submit(requests[0]), timeout=2
            )
            return result, service.stats

        result, stats = _drive_service(main, self.LONG_WINDOW)
        assert result.value == plain[0]
        assert stats.probe_units_batched == 1
        assert stats.batch_groups_run == 1

    def test_one_gather_is_one_group(self, tree, facilities):
        requests, plain = _wave(tree, facilities, 6)

        async def main(service):
            results = await asyncio.wait_for(
                service.run(requests), timeout=10
            )
            return results, service.stats

        results, stats = _drive_service(main, self.LONG_WINDOW)
        assert [r.value for r in results] == plain
        assert stats.probe_units_batched == len(requests)
        assert stats.batch_groups_run == 1

    def test_a_later_wave_opens_a_new_group(self, tree, facilities):
        """A wave submitted after a group ran never joins that spent
        group: it opens its own, which runs at once, and both waves
        match the window-0 run of the same requests in the same order."""
        requests, plain = _wave(tree, facilities, 6)
        first, second = requests[:3], requests[3:]

        async def main(service):
            results = []
            for wave in (first, second):
                results += await asyncio.wait_for(
                    service.run(wave), timeout=10
                )
            return results, service.stats

        baseline, _, _ = _drive(requests, batch_window=0.0)
        results, stats = _drive_service(main, self.LONG_WINDOW)
        assert [r.value for r in results] == plain
        assert [r.stats for r in results] == [r.stats for r in baseline]
        assert stats.batch_groups_run == 2
        assert stats.probe_units_batched == len(requests)

    @pytest.mark.parametrize("window", (1e-6, 0.05, LONG_WINDOW))
    def test_window_length_changes_nothing(self, tree, facilities, window):
        """Any positive window runs a mixed wave as the same one group,
        with the same answers, per-request stats and service counters
        as a 2 ms window."""
        requests = _fuzz_requests(tree, facilities, 7)

        async def main(service):
            results = await asyncio.wait_for(
                service.run(requests), timeout=30
            )
            return results, service.stats

        reference = _drive_service(main, 0.002)
        results, stats = _drive_service(main, window)
        assert stats == reference[1]
        assert stats.batch_groups_run == 1
        for req, res, ref in zip(requests, results, reference[0]):
            assert _value_key(req, res) == _value_key(req, ref)
            assert res.stats == ref.stats


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
