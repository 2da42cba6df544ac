"""Differential suite for cross-request batched execution (ISSUE 8).

The contract: ``batch_window`` is a pure scheduling knob — it never
changes an answer.  For seeded random mixes of evaluate / kmaxrrst /
maxkcov requests, every ``QueryResult.value`` under ``batch_window``
{small, large} must be ``==`` to the ``batch_window=0`` run (which
``tests/test_query_service.py`` in turn holds to the synchronous
cores), on both probe-scheduling paths.  Requests the eligibility gate
excludes from batching (LENGTH, ``collect_matches``,
normalize-by-non-power-of-two COUNT, and every non-evaluate type) keep
*bitwise-identical per-request stats* too whenever their probe units
are disjoint from every batch-eligible request's — they take the
unbatched path unchanged.  (A shared unit is the one legitimate
difference: at ``batch_window=0`` the ineligible request rides the
eligible one's tree-walk mask, while under batching that mask lives in
the engine instead, so the rider probes fresh — value unchanged.)  Batched members instead satisfy the
exact-split contract: their per-request :class:`QueryStats` summed
over the wave equal one sequential :class:`BatchQueryEngine` pass over
the same requests, bit for bit, and the runtime's grand total grows by
exactly that sum.  On top of parity: mid-batch cancellation stays
local to the cancelled member, a foreign request interleaved on a
shared probe unit closes the group instead of deadlocking it, and the
``probe_units_batched`` / ``probe_units_coalesced`` counters stay
disjoint (coalesced remains identical-unit reuse only).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro import (
    BatchQueryEngine,
    EvaluateRequest,
    IndexVariant,
    KMaxRRSTRequest,
    MaxKCovRequest,
    ProximityBackend,
    QueryRuntime,
    QueryService,
    QueryStats,
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

from .conftest import SCHEDULING

PSI = 400.0
ENDPOINT = ServiceSpec(ServiceModel.ENDPOINT, psi=PSI)
COUNT_RAW = ServiceSpec(ServiceModel.COUNT, psi=PSI, normalize=False)
COUNT_NORM = ServiceSpec(ServiceModel.COUNT, psi=PSI)
LENGTH = ServiceSpec(ServiceModel.LENGTH, psi=PSI)

#: The three window settings the differential matrix sweeps: off (the
#: baseline schedule), small (groups may fragment mid-wave), large
#: (whole waves merge into one group).  Values must stay well under the
#: suite's patience but above the loop's timer resolution.
WINDOWS = (0.0, 0.002, 0.05)


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
    # 3..8-point trajectories: guaranteed to contain a non-power-of-two
    # point count, which makes normalized COUNT batching-ineligible.
    # SEGMENTED indexing so COUNT is a valid spec on >2-point users.
    return TQTree.build(
        checkin_users,
        TQTreeConfig(beta=16, variant=IndexVariant.SEGMENTED),
    )


def _all_pow2(tree) -> bool:
    return all(
        t.n_points > 0 and (t.n_points & (t.n_points - 1)) == 0
        for t in tree.trajectories()
    )


def _batch_eligible(req, all_pow2: bool) -> bool:
    """Mirror of the service's eligibility gate, kept here so the test
    fails loudly if the gate widens without the suite noticing."""
    if not isinstance(req, EvaluateRequest) or req.collect_matches:
        return False
    if req.spec.model is ServiceModel.LENGTH:
        return False
    if (
        req.spec.model is ServiceModel.COUNT
        and req.spec.normalize
        and not all_pow2
    ):
        return False
    return True


def _fuzz_requests(tree, facilities, seed: int):
    """A seeded mix of all three request types with deliberate
    duplicate facilities, so waves contain charged members, riders,
    ineligible fallbacks, and group-closing foreign requests."""
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


class TestBatchingDifferential:
    """batch_window {small, large} × scheduling path × seed: values bitwise
    identical to batch_window=0, ineligible requests' stats bitwise
    identical too."""

    @pytest.mark.parametrize("mode", SCHEDULING)
    @pytest.mark.parametrize("seed", (7, 19))
    def test_fuzz_values_identical_across_windows(
        self, mode, seed, tree, facilities, scheduling_workers
    ):
        requests = _fuzz_requests(tree, facilities, seed)
        workers = scheduling_workers(mode)
        all_pow2 = _all_pow2(tree)
        baseline, base_stats, _ = _drive(requests, workers, batch_window=0.0)
        assert base_stats.probe_units_batched == 0
        _assert_outcomes_sum(base_stats)
        base_keys = [
            _value_key(req, res) for req, res in zip(requests, baseline)
        ]
        # probe units are keyed by (facility, psi); psi is uniform here,
        # so unit overlap with the batched tier reduces to facility
        # identity against any eligible evaluate's facility
        batched_facilities = {
            id(req.facility)
            for req in requests
            if _batch_eligible(req, all_pow2)
        }

        def _touches_batched(req) -> bool:
            if isinstance(req, EvaluateRequest):
                return id(req.facility) in batched_facilities
            return any(id(f) in batched_facilities for f in req.facilities)

        for window in WINDOWS[1:]:
            results, stats, _ = _drive(requests, workers, batch_window=window)
            for req, res, base_res, key in zip(
                requests, results, baseline, base_keys
            ):
                assert _value_key(req, res) == key, (
                    f"value diverged under batch_window={window}"
                )
                if not _batch_eligible(req, all_pow2) and not _touches_batched(
                    req
                ):
                    # unbatched path with no shared mask to lose: bitwise
                    assert res.stats == base_res.stats
            _assert_outcomes_sum(stats)

    @pytest.mark.parametrize("mode", SCHEDULING)
    def test_batched_wave_stats_split_exactly(
        self, mode, tree, facilities, scheduling_workers
    ):
        """Distinct eligible evaluates under a large window: every unit
        lands in probe_units_batched, none in probe_units_coalesced,
        and the per-request stats merge bitwise to one sequential
        BatchQueryEngine pass — with the runtime total growing by
        exactly that sum."""
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
        results, stats, total = _drive(
            requests, scheduling_workers(mode), batch_window=0.05
        )
        assert [r.value for r in results] == plain
        assert stats.probe_units_batched == len(requests)
        assert stats.probe_units_coalesced == 0
        _assert_outcomes_sum(stats)

        with QueryRuntime(_config()) as runtime:
            engine = BatchQueryEngine(
                tuple(tree.trajectories()), runtime=runtime
            )
            sequential_pass = QueryStats()
            for req in requests:
                engine.query(req.facility, req.spec, sequential_pass)
        merged = QueryStats()
        for res in results:
            merged.merge(res.stats)
        assert merged == sequential_pass
        assert total == merged

    def test_duplicate_evaluates_ride_the_engine_cache(
        self, tree, facilities
    ):
        """Duplicates inside a batch group become engine cache riders —
        counted in probe_units_batched, never in probe_units_coalesced
        (which stays identical-unit reuse on the unbatched path)."""
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


class TestEligibilityGate:
    def test_ineligible_shapes_fall_back_unbatched(self, tree, facilities):
        """LENGTH and collect_matches never batch: the window runs, the
        counter stays zero, answers and stats match window=0 bitwise."""
        requests = [
            EvaluateRequest(tree, facilities[0], LENGTH),
            EvaluateRequest(tree, facilities[1], LENGTH),
            EvaluateRequest(
                tree, facilities[2], ENDPOINT, collect_matches=True
            ),
        ]
        baseline, _, _ = _drive(requests, 1, batch_window=0.0)
        results, stats, _ = _drive(requests, 1, batch_window=0.05)
        assert stats.probe_units_batched == 0
        for res, base in zip(results, baseline):
            assert res.value == base.value
            assert res.matches == base.matches
            assert res.stats == base.stats

    def test_normalized_count_requires_dyadic_weights(
        self, checkin_tree, facilities
    ):
        """normalize=True COUNT only batches when every trajectory's
        point count is a power of two (weights exactly representable);
        the check-in tree is built to violate that."""
        assert not _all_pow2(checkin_tree)
        requests = [
            EvaluateRequest(checkin_tree, facility, COUNT_NORM)
            for facility in facilities[:4]
        ]
        baseline, _, _ = _drive(requests, 1, batch_window=0.0)
        results, stats, _ = _drive(requests, 1, batch_window=0.05)
        assert stats.probe_units_batched == 0
        for res, base in zip(results, baseline):
            assert res.value == base.value
            assert res.stats == base.stats
        # the raw (normalize=False) spec on the same tree does batch
        raw = [
            EvaluateRequest(checkin_tree, facility, COUNT_RAW)
            for facility in facilities[:4]
        ]
        base_raw, _, _ = _drive(raw, 1, batch_window=0.0)
        res_raw, stats_raw, _ = _drive(raw, 1, batch_window=0.05)
        assert stats_raw.probe_units_batched == len(raw)
        assert [r.value for r in res_raw] == [r.value for r in base_raw]


class TestCancellationAndInterleaving:
    def test_mid_batch_cancellation_stays_local(self, tree, facilities):
        """Cancelling one member while the window is open abandons only
        that member: siblings complete with correct values, the group
        still fires, and the outcome counters stay consistent."""
        requests = [
            EvaluateRequest(tree, facility, ENDPOINT)
            for facility in facilities[:5]
        ]
        plain = [
            evaluate_service(req.tree, req.facility, req.spec)
            for req in requests
        ]

        async def main():
            with QueryRuntime(_config()) as runtime:
                async with QueryService(
                    runtime, ServiceConfig(batch_window=0.2)
                ) as service:
                    tasks = []
                    for req in requests:
                        tasks.append(
                            asyncio.ensure_future(service.submit(req))
                        )
                        await asyncio.sleep(0)  # register in order
                    await asyncio.sleep(0.02)  # inside the open window
                    tasks[2].cancel()
                    outcomes = await asyncio.wait_for(
                        asyncio.gather(*tasks, return_exceptions=True),
                        timeout=30,
                    )
                    return outcomes, service.stats

        outcomes, stats = asyncio.run(main())
        assert isinstance(outcomes[2], asyncio.CancelledError)
        for i, (outcome, expected) in enumerate(zip(outcomes, plain)):
            if i == 2:
                continue
            assert outcome.value == expected
        assert stats.requests_cancelled == 1
        assert stats.requests_completed == len(requests) - 1
        # the abandoned member's unit is not claimed as batched work
        assert stats.probe_units_batched == len(requests) - 1
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
        )
        decoded = wire.decode_service_stats(wire.encode_service_stats(stats))
        assert decoded == stats
        assert decoded.probe_units_batched == 4
