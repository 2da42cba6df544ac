"""Differential suite for the asyncio serving layer (ISSUE 4).

The contract: :class:`repro.service.QueryService` never changes an
answer or a counter.  For every request type × probe-scheduling path
(inline, thread fan-out), the
service's :class:`QueryResult.value` and per-request ``stats`` must be
``==`` to what the synchronous functions produce when called in
submission order against an identically configured runtime, and the
service runtime's merged grand total must equal the sequential
baseline's.  On top of parity: admission control (bounded queue),
cross-request coalescing (shared probe units execute in submission
order, later requests ride earlier masks), and the asyncio bridge
(no event-loop-blocking callbacks even under 32 concurrent mixed
requests, asserted in debug mode).
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
import time

import pytest

from repro import (
    EvaluateRequest,
    ExactMaxKCovRequest,
    FacilityRoute,
    GeneticMaxKCovRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    ProximityBackend,
    QueryRuntime,
    QueryService,
    QueryStats,
    RuntimeConfig,
    ServiceConfig,
    ServiceModel,
    ServiceOverloaded,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    evaluate_service,
    exact_max_k_coverage,
    genetic_max_k_coverage,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.errors import QueryError
from repro.queries.evaluate import MatchCollector
from repro.queries.maxkcov import tq_match_fn
from repro.service import QueryPlanner

PSI = 400.0
COUNT = ServiceSpec(ServiceModel.COUNT, psi=PSI)
ENDPOINT = ServiceSpec(ServiceModel.ENDPOINT, psi=PSI)
LENGTH = ServiceSpec(ServiceModel.LENGTH, psi=PSI)


def _config() -> RuntimeConfig:
    """Two-shard grids."""
    return RuntimeConfig(backend=ProximityBackend.GRID, shards=2)


@pytest.fixture(scope="module")
def tree(taxi_users):
    return TQTree.build(taxi_users, TQTreeConfig(beta=16))


def _mixed_requests(tree, facilities):
    """One of everything, with deliberate probe-unit overlap."""
    subset = tuple(facilities[:5])
    return [
        EvaluateRequest(tree, facilities[0], COUNT),
        EvaluateRequest(tree, facilities[1], ENDPOINT),
        EvaluateRequest(tree, facilities[0], COUNT),  # exact duplicate
        EvaluateRequest(tree, facilities[2], LENGTH, collect_matches=True),
        KMaxRRSTRequest(tree, tuple(facilities), 3, ENDPOINT),
        MaxKCovRequest(tree, tuple(facilities), 2, ENDPOINT),
        ExactMaxKCovRequest(tree, subset, 2, ENDPOINT),
        GeneticMaxKCovRequest(tree, subset, 2, ENDPOINT),
        EvaluateRequest(tree, facilities[3], COUNT),
    ]


def _sync_baseline(requests, runtime):
    """The synchronous answers, called in submission order against one
    shared runtime — the sequential schedule the service's coalescing
    order is provably equivalent to.  Returns (values, per-request
    stats deltas) with stats read exactly as a sync caller would."""
    values = []
    deltas = []
    for req in requests:
        before = dataclasses.replace(runtime.stats)
        if isinstance(req, EvaluateRequest):
            stats = QueryStats()
            collector = MatchCollector() if req.collect_matches else None
            value = evaluate_service(
                req.tree, req.facility, req.spec,
                collector=collector, stats=stats, runtime=runtime,
            )
            values.append(
                (value, collector.as_dict() if collector else None)
            )
            deltas.append(stats)
            continue
        if isinstance(req, KMaxRRSTRequest):
            result = top_k_facilities(
                req.tree, req.facilities, req.k, req.spec, runtime=runtime
            )
            values.append(result)
            deltas.append(result.stats)
            continue
        if isinstance(req, MaxKCovRequest):
            result = maxkcov_tq(
                req.tree, req.facilities, req.k, req.spec,
                req.prune_factor, runtime=runtime,
            )
        elif isinstance(req, ExactMaxKCovRequest):
            result = exact_max_k_coverage(
                list(req.tree.trajectories()), req.facilities, req.k,
                req.spec, tq_match_fn(req.tree, req.spec, runtime=runtime),
                runtime=runtime,
            )
        else:
            result = genetic_max_k_coverage(
                list(req.tree.trajectories()), req.facilities, req.k,
                req.spec, tq_match_fn(req.tree, req.spec, runtime=runtime),
                req.config, runtime=runtime,
            )
        values.append(result)
        # solvers report no stats object; the runtime delta is the
        # per-request attribution a sync caller can observe
        after = runtime.stats
        deltas.append(
            QueryStats(**{
                f.name: getattr(after, f.name) - getattr(before, f.name)
                for f in dataclasses.fields(QueryStats)
            })
        )
    return values, deltas


def _assert_result_equal(req, result, expected, expected_stats):
    if isinstance(req, EvaluateRequest):
        value, matches = expected
        assert result.value == value
        assert result.matches == matches
    elif isinstance(req, KMaxRRSTRequest):
        assert result.value.ranking == expected.ranking
    else:
        assert result.value.facility_ids() == expected.facility_ids()
        assert result.value.combined_service == expected.combined_service
        assert result.value.users_fully_served == expected.users_fully_served
        assert result.value.step_gains == expected.step_gains
    assert result.stats == expected_stats


def _assert_outcomes_sum(stats):
    """The ServiceStats outcome invariant (pinned across every
    cancellation-wave test): once a workload drains, every admitted
    request has settled into exactly one outcome counter."""
    assert (
        stats.requests_completed
        + stats.requests_failed
        + stats.requests_cancelled
        == stats.requests_submitted
    )


class TestServiceDifferential:
    """Service answers == synchronous answers, per request and in total,
    for all five request types."""

    def test_mixed_requests_bit_identical(self, tree, facilities):
        requests = _mixed_requests(tree, facilities)
        config = _config()
        with QueryRuntime(config) as base_rt:
            base_values, base_deltas = _sync_baseline(requests, base_rt)
            base_total = dataclasses.replace(base_rt.stats)

        async def drive():
            with QueryRuntime(config) as rt:
                async with QueryService(
                    rt, ServiceConfig(max_in_flight=4)
                ) as service:
                    results = await service.run(requests)
                total = dataclasses.replace(rt.stats)
            return results, total

        results, total = asyncio.run(drive())
        for req, result, expected, delta in zip(
            requests, results, base_values, base_deltas
        ):
            assert result.request is req
            _assert_result_equal(req, result, expected, delta)
        assert total == base_total

    def test_repeat_submission_is_deterministic(self, tree, facilities):
        """Two service runs of the same workload agree exactly —
        scheduling noise never reaches answers or stats."""
        requests = _mixed_requests(tree, facilities)
        config = _config()

        def one_run():
            async def drive():
                with QueryRuntime(config) as rt:
                    async with QueryService(rt) as service:
                        results = await service.run(requests)
                    return (
                        [(r.value, r.stats) for r in results],
                        dataclasses.replace(rt.stats),
                    )

            return asyncio.run(drive())

        first, first_total = one_run()
        second, second_total = one_run()
        for (v1, s1), (v2, s2) in zip(first, second):
            if hasattr(v1, "ranking"):
                assert v1.ranking == v2.ranking
            elif hasattr(v1, "facility_ids"):
                assert v1.facility_ids() == v2.facility_ids()
            else:
                assert v1 == v2
            assert s1 == s2
        assert first_total == second_total


class TestCoalescing:
    def test_duplicate_requests_coalesce(self, tree, facilities):
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            async with QueryService(QueryRuntime(_config())) as svc:
                results = await svc.run([req, req, req])
                return results, svc.stats

        results, stats = asyncio.run(drive())
        assert len({r.value for r in results}) == 1
        assert stats.probe_units_planned == 3
        # second and third submissions ride the first's probe work
        assert stats.probe_units_coalesced == 2
        assert stats.dedup_rate == pytest.approx(2 / 3)
        # the coalesced requests did no geometric work: masks were
        # served from the shared pass (cache hit, zero fresh probes)
        assert results[1].stats.points_scanned == 0
        assert results[1].stats.cache_hits > 0

    def test_disjoint_requests_do_not_coalesce(self, tree, facilities):
        reqs = [
            EvaluateRequest(tree, facilities[0], COUNT),
            EvaluateRequest(tree, facilities[1], COUNT),
        ]

        async def drive():
            async with QueryService(QueryRuntime(_config())) as svc:
                await svc.run(reqs)
                return svc.stats

        stats = asyncio.run(drive())
        assert stats.probe_units_planned == 2
        assert stats.probe_units_coalesced == 0


class TestAdmissionControl:
    def test_queue_depth_rejects_overflow(self, tree, facilities):
        requests = [
            EvaluateRequest(tree, facilities[i % len(facilities)], COUNT)
            for i in range(6)
        ]

        async def drive():
            config = ServiceConfig(max_in_flight=1, queue_depth=2)
            async with QueryService(
                QueryRuntime(_config()), config
            ) as svc:
                outcomes = await asyncio.gather(
                    *(svc.submit(r) for r in requests),
                    return_exceptions=True,
                )
                return outcomes, svc.stats

        outcomes, stats = asyncio.run(drive())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        completed = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(rejected) == 4  # admissions beyond queue_depth=2
        assert len(completed) == 2
        assert stats.requests_rejected == 4
        assert stats.requests_completed == 2

    def test_run_awaits_admitted_siblings_on_overflow(self, tree, facilities):
        """An overflow inside run() must not abandon admitted siblings:
        every admitted request completes (and is accrued) before the
        first rejection propagates."""
        requests = [
            EvaluateRequest(tree, facilities[i % len(facilities)], COUNT)
            for i in range(6)
        ]

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(
                    rt, ServiceConfig(max_in_flight=1, queue_depth=2)
                ) as svc:
                    with pytest.raises(ServiceOverloaded):
                        await svc.run(requests)
                    return svc.stats

        stats = asyncio.run(drive())
        assert stats.requests_rejected == 4
        assert stats.requests_completed == 2  # siblings ran to completion
        assert stats.requests_failed == 0  # none died on a shut-down pool

    def test_submit_rechecks_closed_after_waiting(self, tree, facilities):
        """A request admitted before close() but still waiting on a
        predecessor when it runs must fail with the documented
        QueryError, not schedule on the shut-down bridge pool."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            with QueryRuntime(_config()) as rt:
                svc = QueryService(rt)
                await svc.submit(req)  # binds the loop
                loop = asyncio.get_running_loop()
                gate = loop.create_future()
                for unit in svc.planner.plan(req).units:
                    svc._tails[unit] = gate  # plant a live predecessor
                task = asyncio.ensure_future(svc.submit(req))
                for _ in range(4):
                    await asyncio.sleep(0)  # let the task block on gate
                assert not task.done()
                svc.close()
                gate.set_result(None)
                with pytest.raises(QueryError, match="closed"):
                    await task

        asyncio.run(drive())

    def test_cancelled_waiter_leaves_shared_schedule_intact(
        self, tree, facilities
    ):
        """A timed-out coalesced submit must not cancel the shared
        predecessor future, leak its admission slot, release successors
        past the still-running chain head, or vanish from the stats."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt) as svc:
                    await svc.submit(req)  # binds the loop
                    loop = asyncio.get_running_loop()
                    gate = loop.create_future()  # the in-flight "head"
                    for unit in svc.planner.plan(req).units:
                        svc._tails[unit] = gate
                    victim = asyncio.ensure_future(
                        asyncio.wait_for(svc.submit(req), timeout=0.01)
                    )
                    await asyncio.sleep(0)  # let victim register first
                    successor = asyncio.ensure_future(svc.submit(req))
                    with pytest.raises(asyncio.TimeoutError):
                        await victim
                    # the cancel stayed local: the shared predecessor
                    # future the victim was gathering on survives
                    assert not gate.cancelled()
                    # and the successor stays ordered behind the chain
                    # head even though its direct predecessor (the
                    # victim) is already gone
                    for _ in range(4):
                        await asyncio.sleep(0)
                    assert not successor.done()
                    gate.set_result(None)
                    result = await successor
                    assert svc.in_flight == 0  # no admission-slot leak
                    return result, svc.stats

        result, stats = asyncio.run(drive())
        assert result.value == evaluate_service(tree, facilities[0], COUNT)
        assert stats.requests_cancelled == 1
        assert stats.requests_failed == 0
        # every admitted request settled into exactly one outcome
        _assert_outcomes_sum(stats)

    def test_cancelled_request_frees_admission_capacity(
        self, tree, facilities
    ):
        """Cancellations must hand their queue slots back: a full wave
        of timed-out requests may not push the service into rejecting
        everything afterwards (the admission-leak regression)."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            config = ServiceConfig(max_in_flight=1, queue_depth=2)
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt, config) as svc:
                    await svc.submit(req)
                    loop = asyncio.get_running_loop()
                    for _ in range(3):  # fill and drain the queue
                        gate = loop.create_future()
                        for unit in svc.planner.plan(req).units:
                            svc._tails[unit] = gate
                        waiters = [
                            asyncio.ensure_future(
                                asyncio.wait_for(svc.submit(req), 0.01)
                            )
                            for _ in range(config.queue_depth)
                        ]
                        outcomes = await asyncio.gather(
                            *waiters, return_exceptions=True
                        )
                        assert all(
                            isinstance(o, asyncio.TimeoutError)
                            for o in outcomes
                        )
                        gate.set_result(None)
                        await asyncio.sleep(0)
                    assert svc.in_flight == 0
                    # capacity fully recovered: a fresh request is
                    # admitted and completes
                    result = await svc.submit(req)
                    return result, svc.stats

        result, stats = asyncio.run(drive())
        assert result.value == evaluate_service(tree, facilities[0], COUNT)
        assert stats.requests_cancelled == 6
        assert stats.requests_rejected == 0
        assert stats.requests_completed == 2
        _assert_outcomes_sum(stats)

    def test_dedup_not_counted_for_cancelled_predecessor(
        self, tree, facilities
    ):
        """probe_units_coalesced (the BENCH dedup metric) only counts
        units actually served from an executed chain member: riding a
        predecessor that was cancelled before its core ran is not
        sharing, because that predecessor computed nothing."""
        req = EvaluateRequest(tree, facilities[0], COUNT)
        blocker_req = EvaluateRequest(tree, facilities[1], COUNT)
        release = threading.Event()
        started = threading.Event()

        class GatedPlan:
            def __init__(self, inner):
                self.units = inner.units
                self._inner = inner

            def execute(self, runtime):
                started.set()
                assert release.wait(10)
                return self._inner.execute(runtime)

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(
                    rt, ServiceConfig(max_in_flight=1)
                ) as svc:
                    planner = svc.planner
                    n_units = len(planner.plan(req).units)

                    class GatedPlanner:
                        gated = True  # only the blocker's plan is gated

                        def plan(self, r):
                            inner = planner.plan(r)
                            if GatedPlanner.gated:
                                GatedPlanner.gated = False
                                return GatedPlan(inner)
                            return inner

                    svc.planner = GatedPlanner()
                    # the blocker occupies the only bridge slot…
                    blocker = asyncio.ensure_future(svc.submit(blocker_req))
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, started.wait, 10)
                    # …so the victim claims its fresh units but parks at
                    # the semaphore, where we kill it pre-execution
                    victim = asyncio.ensure_future(svc.submit(req))
                    b = asyncio.ensure_future(svc.submit(req))
                    for _ in range(4):
                        await asyncio.sleep(0)
                    victim.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await victim
                    c = asyncio.ensure_future(svc.submit(req))
                    release.set()
                    await blocker
                    rb, rc = await asyncio.gather(b, c)
                    return rb, rc, n_units, svc.stats

        rb, rc, n_units, stats = asyncio.run(drive())
        plain = evaluate_service(tree, facilities[0], COUNT)
        assert rb.value == plain and rc.value == plain
        # b rode the cancelled victim and recomputed (no sharing);
        # only c, riding b's real work, counts
        assert stats.probe_units_coalesced == n_units
        _assert_outcomes_sum(stats)

    def test_cancel_during_execution_serializes_successor(
        self, tree, facilities
    ):
        """A cancel that lands while the core is already running cannot
        abandon the thread: the orphaned core must keep its bridge slot
        and its schedule position (successors wait for it), and its
        stats must be accrued when it finishes — runtime totals reflect
        the work that actually happened."""
        req = EvaluateRequest(tree, facilities[0], COUNT)
        release = threading.Event()
        started = threading.Event()
        events = []

        class RecordingPlan:
            def __init__(self, inner, label):
                self.units = inner.units
                self._inner = inner
                self._label = label

            def execute(self, runtime):
                events.append(f"{self._label}-start")
                if self._label == "victim":
                    started.set()
                    assert release.wait(10)
                out = self._inner.execute(runtime)
                events.append(f"{self._label}-end")
                return out

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(
                    rt, ServiceConfig(max_in_flight=2)
                ) as svc:
                    planner = svc.planner

                    class GatedPlanner:
                        labels = iter(("victim", "successor"))

                        def plan(self, r):
                            return RecordingPlan(
                                planner.plan(r), next(self.labels)
                            )

                    svc.planner = GatedPlanner()
                    victim = asyncio.ensure_future(svc.submit(req))
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, started.wait, 10)
                    victim.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await victim
                    # max_in_flight=2: a free bridge slot exists, so only
                    # the done-future chain can (and must) hold this back
                    successor = asyncio.ensure_future(svc.submit(req))
                    for _ in range(6):
                        await asyncio.sleep(0)
                    assert not successor.done()
                    assert "successor-start" not in events
                    release.set()
                    result = await successor
                    assert svc.in_flight == 0
                    return result, svc.stats, dataclasses.replace(rt.stats)

        result, stats, totals = asyncio.run(drive())
        # strict serialization: the orphan ran to completion first
        assert events == [
            "victim-start", "victim-end", "successor-start", "successor-end"
        ]
        assert result.value == evaluate_service(tree, facilities[0], COUNT)
        assert stats.requests_cancelled == 1
        assert stats.requests_completed == 1
        _assert_outcomes_sum(stats)
        # the orphan's stats were accrued: totals equal a sequential
        # run of the same two queries on a fresh runtime
        with QueryRuntime(_config()) as base_rt:
            _sync_baseline([req, req], base_rt)
            assert totals == base_rt.stats

    def test_base_exception_from_core_counted_failed(
        self, tree, facilities
    ):
        """Even a BaseException out of a core (SystemExit) must settle
        into an outcome counter, or the ServiceStats sum invariant
        breaks."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt) as svc:
                    planner = svc.planner

                    class ExplodingPlanner:
                        def plan(self, r):
                            inner = planner.plan(r)

                            class Plan:
                                units = inner.units

                                def execute(self, runtime):
                                    raise SystemExit(3)

                            return Plan()

                    svc.planner = ExplodingPlanner()
                    with pytest.raises(SystemExit):
                        await svc.submit(req)
                    return svc.stats

        stats = asyncio.run(drive())
        assert stats.requests_failed == 1
        _assert_outcomes_sum(stats)

    def test_config_validation(self):
        with pytest.raises(QueryError):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(QueryError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(QueryError):
            ServiceConfig(batch_window=-1.0)
        with pytest.raises(QueryError):
            ServiceConfig(batch_window=float("nan"))

    def test_closed_service_rejects_submissions(self, tree, facilities):
        service = QueryService()
        service.close()
        with pytest.raises(QueryError):
            asyncio.run(service.submit(EvaluateRequest(tree, facilities[0], COUNT)))

    def test_unknown_request_type_rejected(self):
        with pytest.raises(QueryError):
            QueryPlanner().plan(object())


class TestAsyncSmoke:
    """The ISSUE-4 CI smoke: 32 concurrent mixed requests, parity, and
    no event-loop blocking warnings in asyncio debug mode."""

    N_REQUESTS = 32

    def _smoke_requests(self, tree, facilities):
        requests = []
        for i in range(self.N_REQUESTS - 2):
            spec = (COUNT, ENDPOINT, LENGTH)[i % 3]
            requests.append(
                EvaluateRequest(tree, facilities[i % len(facilities)], spec)
            )
        requests.append(KMaxRRSTRequest(tree, tuple(facilities), 3, ENDPOINT))
        requests.append(MaxKCovRequest(tree, tuple(facilities), 2, ENDPOINT))
        return requests

    def test_32_concurrent_requests_parity_and_no_blocking(
        self, tree, facilities, caplog
    ):
        requests = self._smoke_requests(tree, facilities)
        config = _config()
        with QueryRuntime(config) as base_rt:
            base_values, base_deltas = _sync_baseline(requests, base_rt)
            base_total = dataclasses.replace(base_rt.stats)

        async def drive():
            loop = asyncio.get_running_loop()
            # surface any callback that holds the loop; the bridge keeps
            # query cores off-loop, so nothing should come close
            loop.set_debug(True)
            loop.slow_callback_duration = 0.5
            with QueryRuntime(config) as rt:
                async with QueryService(
                    rt, ServiceConfig(max_in_flight=8)
                ) as service:
                    results = await service.run(requests)
                return results, dataclasses.replace(rt.stats), service.stats

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            results, total, service_stats = asyncio.run(drive())
        blocking = [
            r for r in caplog.records if "Executing" in r.getMessage()
        ]
        assert not blocking, [r.getMessage() for r in blocking]
        for req, result, expected, delta in zip(
            requests, results, base_values, base_deltas
        ):
            _assert_result_equal(req, result, expected, delta)
        assert total == base_total
        assert service_stats.requests_completed == self.N_REQUESTS
        # facilities repeat across the 30 evaluates, so the workload
        # must exhibit real cross-request sharing
        assert service_stats.probe_units_coalesced > 0


class TestServiceLifecycle:
    def test_rebind_refused_while_orphaned_core_runs(self, tree, facilities):
        """A core kept running by a cancelled submission must block loop
        rebinding — a fresh loop would reset the unit table and let a
        new request race the orphan on shared units."""
        req = EvaluateRequest(tree, facilities[0], COUNT)
        release = threading.Event()
        started = threading.Event()

        class GatedPlan:
            def __init__(self, inner):
                self.units = inner.units
                self._inner = inner

            def execute(self, runtime):
                started.set()
                assert release.wait(10)
                return self._inner.execute(runtime)

        with QueryRuntime(_config()) as rt:
            svc = QueryService(rt)
            planner = svc.planner

            class GatedPlanner:
                def plan(self, r):
                    return GatedPlan(planner.plan(r))

            svc.planner = GatedPlanner()

            async def cancel_mid_core():
                victim = asyncio.ensure_future(svc.submit(req))
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, started.wait, 10)
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim

            asyncio.run(cancel_mid_core())
            # loop #1 is gone; the orphan still runs on the bridge pool
            assert svc.in_flight == 0
            svc.planner = planner
            try:
                with pytest.raises(QueryError, match="another event loop"):
                    asyncio.run(svc.submit(req))
            finally:
                release.set()
            # once the orphan drains, rebinding works again
            deadline = time.monotonic() + 10
            while True:
                with svc._core_lock:
                    if svc._executing == 0:
                        break
                assert time.monotonic() < deadline
                time.sleep(0.005)
            result = asyncio.run(svc.submit(req))
            assert result.value == evaluate_service(
                tree, facilities[0], COUNT
            )
            svc.close()

    def test_service_reusable_across_event_loops(self, tree, facilities):
        req = EvaluateRequest(tree, facilities[0], COUNT)
        with QueryRuntime(_config()) as rt:
            service = QueryService(rt)
            first = asyncio.run(service.submit(req))
            second = asyncio.run(service.submit(req))  # fresh loop, idle
            service.close()
        assert first.value == second.value

    def test_stats_is_a_consistent_snapshot(self, tree, facilities):
        """The public ``stats`` accessor returns a copy: mutating (or
        even assigning through) a snapshot must never perturb the
        service's own accounting — the torn-counter / corruption
        regression the HTTP ``GET /stats`` endpoint would amplify."""
        req = EvaluateRequest(tree, facilities[0], COUNT)
        with QueryRuntime(_config()) as rt:
            service = QueryService(rt)
            try:
                asyncio.run(service.submit(req))
                snapshot = service.stats
                assert snapshot.requests_completed == 1
                # fresh object per read, not the live instance
                assert snapshot is not service.stats
                # a caller scribbling on a snapshot changes nothing
                snapshot.requests_completed = 10_000
                snapshot.requests_submitted = -5
                assert service.stats.requests_completed == 1
                assert service.stats.requests_submitted == 1
                # the accessor is read-only: the live counters cannot be
                # replaced wholesale by assignment
                with pytest.raises(AttributeError):
                    service.stats = snapshot
                # counters keep accruing into the (private) live object
                asyncio.run(service.submit(req))
                assert service.stats.requests_completed == 2
                _assert_outcomes_sum(service.stats)
            finally:
                service.close()

    def test_service_value_property(self, tree, facilities):
        async def drive():
            async with QueryService(QueryRuntime(_config())) as svc:
                ev = await svc.submit(EvaluateRequest(tree, facilities[0], COUNT))
                cov = await svc.submit(
                    MaxKCovRequest(tree, tuple(facilities), 2, ENDPOINT)
                )
                top = await svc.submit(
                    KMaxRRSTRequest(tree, tuple(facilities), 2, ENDPOINT)
                )
                return ev, cov, top

        ev, cov, top = asyncio.run(drive())
        assert ev.service_value == ev.value
        assert cov.service_value == cov.value.combined_service
        with pytest.raises(QueryError):
            top.service_value


class TestEmptyFacilitiesValidation:
    """The empty-candidate-set bugfix: requests (and their sync entry
    points) must reject ``facilities=()`` eagerly, exactly like the
    ``k <= 0`` validation — previously construction succeeded and
    ``plan().execute()`` returned an empty ranking/fleet, which over
    HTTP becomes a 200 with an empty answer for a malformed request.
    A candidate set naming a facility id twice is rejected the same
    way."""

    REQUEST_TYPES = (
        KMaxRRSTRequest,
        MaxKCovRequest,
        ExactMaxKCovRequest,
        GeneticMaxKCovRequest,
    )

    @pytest.mark.parametrize("request_type", REQUEST_TYPES)
    def test_request_construction_rejects_empty_facilities(
        self, request_type, tree
    ):
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            request_type(tree, (), 3, ENDPOINT)
        # any empty iterable is rejected, not just the literal tuple
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            request_type(tree, [], 3, ENDPOINT)
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            request_type(tree, iter(()), 3, ENDPOINT)

    @pytest.mark.parametrize("request_type", REQUEST_TYPES)
    def test_request_construction_rejects_repeated_facilities(
        self, request_type, tree, facilities
    ):
        # the paper's candidate F is a set: the same route twice, or
        # another route under its id, would be ranked or picked twice
        f, g = facilities[:2]
        for repeated in ((f, g, f), (f, g, FacilityRoute(g.facility_id, f.stops))):
            with pytest.raises(QueryError, match=f"distinct.*id {repeated[-1].facility_id} more"):
                request_type(tree, repeated, 2, ENDPOINT)

    @pytest.mark.parametrize("request_type", REQUEST_TYPES)
    def test_single_facility_still_accepted(
        self, request_type, tree, facilities
    ):
        request = request_type(tree, (facilities[0],), 1, ENDPOINT)
        assert request.facilities == (facilities[0],)

    def test_sync_entry_points_mirror_the_check(self, tree, taxi_users):
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            top_k_facilities(tree, [], 3, ENDPOINT)
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            maxkcov_tq(tree, [], 2, ENDPOINT)
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            exact_max_k_coverage(taxi_users, [], 2, ENDPOINT, lambda f: {})
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            genetic_max_k_coverage(taxi_users, [], 2, ENDPOINT, lambda f: {})

    @pytest.mark.parametrize("solver", ["top_k", "maxkcov", "exact", "genetic"])
    def test_sync_entry_points_reject_repeated_facilities(
        self, tree, taxi_users, facilities, solver
    ):
        # top_k_facilities(tree, [f, f, g], 2, ...) used to rank f twice
        call = {
            "top_k": lambda fs: top_k_facilities(tree, fs, 2, ENDPOINT),
            "maxkcov": lambda fs: maxkcov_tq(tree, fs, 2, ENDPOINT),
            "exact": lambda fs: exact_max_k_coverage(taxi_users, fs, 2, ENDPOINT, lambda f: {}),
            "genetic": lambda fs: genetic_max_k_coverage(taxi_users, fs, 2, ENDPOINT, lambda f: {}),
        }[solver]
        f, g = facilities[:2]
        for repeated in ([f, f, g], [f, g, FacilityRoute(f.facility_id, g.stops)]):
            with pytest.raises(QueryError, match=f"distinct.*id {f.facility_id} more"):
                call(repeated)
        call([f, g])
