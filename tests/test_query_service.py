"""Differential suite for the asyncio serving layer (ISSUE 4).

The contract: :class:`repro.service.QueryService` never changes an
answer or a counter.  For every request type × probe-scheduling path
(inline, thread fan-out), the
service's :class:`QueryResult.value` and per-request ``stats`` must be
``==`` to what the synchronous functions produce when called in
submission order against an identically configured runtime, and the
service runtime's merged grand total must equal the sequential
baseline's.  On top of parity: failures and cancellations settling
into outcome counters, repeats riding earlier work as cache hits, and
cores on the loop (a service runs every core on its event loop's
thread and starts no thread).  A test that needs a request in flight holds it in an open
batch group and steps the loop with ``asyncio.sleep(0)``, never with a
timed sleep.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro import (
    EvaluateRequest,
    FacilityRoute,
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
    TQTree,
    TQTreeConfig,
    evaluate_service,
    exact_max_k_coverage,
    genetic_max_k_coverage,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.errors import QueryError
from repro.queries.maxkcov import tq_match_fn
from repro.service import QueryPlanner
from repro.service.http import Catalog, wire

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
        MaxKCovRequest(tree, subset, 2, COUNT),
        EvaluateRequest(tree, facilities[3], COUNT),
    ]


def _sync_baseline(requests, runtime):
    """The synchronous answers, called in submission order against one
    shared runtime — the sequential schedule the service's coalescing
    order is provably equivalent to.  Returns (values, per-request
    stats) with stats read exactly as a sync caller would, each checked
    ``==`` the runtime total's growth over its call."""
    values = []
    deltas = []
    for req in requests:
        before = dataclasses.replace(runtime.stats)
        stats = QueryStats()
        if isinstance(req, EvaluateRequest):
            value = evaluate_service(
                req.tree, req.facility, req.spec, stats=stats, runtime=runtime
            )
            matches = None
            if req.collect_matches:
                walk = tq_match_fn(req.tree, req.spec, runtime, stats)
                matches = walk(req.facility).as_dict()
            values.append((value, matches))
        elif isinstance(req, KMaxRRSTRequest):
            result = top_k_facilities(
                req.tree, req.facilities, req.k, req.spec, runtime=runtime
            )
            values.append(result)
            stats = result.stats
        else:
            values.append(maxkcov_tq(
                req.tree, req.facilities, req.k, req.spec,
                req.prune_factor, runtime=runtime, stats=stats,
            ))
        after = runtime.stats
        assert stats == QueryStats(**{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(QueryStats)
        })
        deltas.append(stats)
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
    for all three request types."""

    def test_mixed_requests_bit_identical(self, tree, facilities):
        requests = _mixed_requests(tree, facilities)
        config = _config()
        with QueryRuntime(config) as base_rt:
            base_values, base_deltas = _sync_baseline(requests, base_rt)
            base_total = dataclasses.replace(base_rt.stats)

        async def drive():
            with QueryRuntime(config) as rt:
                async with QueryService(rt) as service:
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
        """Duplicates run one after the other, alone or in one group,
        and the later ones ride the first's walk as cache hits — never
        counted as coalesced."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive(batch_window):
            config = ServiceConfig(batch_window=batch_window)
            async with QueryService(QueryRuntime(_config()), config) as svc:
                return await svc.run([req, req, req]), svc.stats

        for batch_window in (0.0, 0.005):
            results, stats = asyncio.run(drive(batch_window))
            assert len({r.value for r in results}) == 1
            assert stats.probe_units_planned == 3
            assert stats.probe_units_coalesced == 0
            assert stats.dedup_rate == 0.0
            # the repeats did no geometric work: masks were served from
            # the first pass (cache hit, zero fresh probes)
            for repeat in results[1:]:
                assert repeat.stats.points_scanned == 0
                assert repeat.stats.cache_hits > 0

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


class TestProbeUnits:
    def test_a_collecting_unit_names_no_model(self, tree, facilities):
        """A match-set walk serves every model at its psi: MaxkCov
        requests under COUNT and under LENGTH over the same facilities
        plan equal collecting units (an evaluate collecting matches
        plans one of them), and each still plans a collecting and a
        scoring unit per facility."""
        planner = QueryPlanner()
        routes = tuple(facilities[:4])
        count, length = (
            planner.plan(MaxKCovRequest(tree, routes, 2, spec)).units for spec in (COUNT, LENGTH)
        )
        collecting = {unit for unit in count if unit[4]}
        assert collecting == {unit for unit in length if unit[4]}
        assert {unit[3] for unit in collecting} == {None}
        assert len(count) == len(length) == 2 * len(routes) == 2 * len(collecting)
        assert count - collecting != length - collecting
        evaluate = planner.plan(EvaluateRequest(tree, routes[0], LENGTH, collect_matches=True))
        assert len(evaluate.units) == 1 and evaluate.units <= collecting


class TestAdmissionControl:
    @pytest.mark.parametrize("batch_window", [0.0, 0.005])
    def test_run_awaits_siblings_of_a_failed_request(
        self, tree, facilities, batch_window
    ):
        """A failing core inside run() must not abandon its siblings:
        every other request completes (and is accrued) before the first
        failure, in submission order, propagates."""
        requests = [
            EvaluateRequest(tree, facilities[i % len(facilities)], COUNT)
            for i in range(6)
        ]
        failing = {id(requests[1]): "first", id(requests[3]): "second"}

        async def drive():
            with QueryRuntime(_config()) as rt:
                config = ServiceConfig(batch_window=batch_window)
                async with QueryService(rt, config) as svc:
                    planner = svc.planner

                    class FailingPlanner:
                        def plan(self, request):
                            plan = planner.plan(request)
                            if id(request) not in failing:
                                return plan

                            def execute(runtime):
                                raise QueryError(failing[id(request)])

                            return dataclasses.replace(plan, execute=execute)

                    svc.planner = FailingPlanner()
                    with pytest.raises(QueryError, match="first"):
                        await svc.run(requests)
                    return svc.stats, dataclasses.replace(rt.stats)

        stats, total = asyncio.run(drive())
        assert stats.requests_completed == 4  # siblings ran to completion
        assert stats.requests_failed == 2
        assert stats.requests_rejected == 0
        _assert_outcomes_sum(stats)
        with QueryRuntime(_config()) as rt:
            _, deltas = _sync_baseline([requests[i] for i in (0, 2, 4, 5)], rt)
        expected = QueryStats()
        for delta in deltas:
            expected = expected.merge(delta)
        assert total == expected  # the four siblings, and nothing else

    def test_fresh_request_completes_in_its_submission_step(
        self, tree, facilities
    ):
        """With nothing in flight and batching off, a submission runs its
        core and settles before its first await: one step of the
        coroutine returns the result."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            async with QueryService(QueryRuntime(_config())) as svc:
                step = svc.submit(req)
                with pytest.raises(StopIteration) as stop:
                    step.send(None)
                return stop.value.value, svc.stats

        result, stats = asyncio.run(drive())
        assert result.value == evaluate_service(tree, facilities[0], COUNT)
        assert stats.requests_completed == 1

    def test_group_fails_when_closed_while_waiting(self, tree, facilities):
        """A batch group that has not run yet when the service closes
        fails its members with the documented QueryError instead of
        running them."""
        requests = [EvaluateRequest(tree, f, COUNT) for f in facilities[:3]]

        async def drive():
            with QueryRuntime(_config()) as rt:
                config = ServiceConfig(batch_window=0.005)
                async with QueryService(rt, config) as svc:
                    tasks = [
                        asyncio.ensure_future(svc.submit(r)) for r in requests
                    ]
                    await asyncio.sleep(0)  # all three joined the group
                    assert svc.in_flight == len(requests)
                    svc.close()
                    outcomes = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                    return outcomes, svc.stats, dataclasses.replace(rt.stats)

        outcomes, stats, total = asyncio.run(drive())
        for outcome in outcomes:
            assert isinstance(outcome, QueryError)
            assert "closed" in str(outcome)
        assert stats.requests_failed == len(requests)
        assert stats.batch_groups_run == 0
        assert total == QueryStats()
        _assert_outcomes_sum(stats)

    def test_cancelled_members_leave_nothing_in_flight(
        self, tree, facilities
    ):
        """Cancelled group members settle as cancelled and leave
        nothing in flight: the group skips them, and a later submit is
        answered as if they had never been sent."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        async def drive():
            config = ServiceConfig(batch_window=0.005)
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt, config) as svc:
                    await svc.submit(req)
                    for _ in range(3):
                        waiters = [
                            asyncio.ensure_future(svc.submit(req))
                            for _ in range(2)
                        ]
                        await asyncio.sleep(0)  # both joined the group
                        assert svc.in_flight == 2
                        for waiter in waiters:
                            waiter.cancel()
                        outcomes = await asyncio.gather(
                            *waiters, return_exceptions=True
                        )
                        assert all(
                            isinstance(o, asyncio.CancelledError)
                            for o in outcomes
                        )
                    assert svc.in_flight == 0
                    result = await svc.submit(req)
                    return result, svc.stats

        result, stats = asyncio.run(drive())
        assert result.value == evaluate_service(tree, facilities[0], COUNT)
        assert stats.requests_cancelled == 6
        assert stats.requests_rejected == 0
        assert stats.requests_completed == 2
        _assert_outcomes_sum(stats)

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
    """The CI smoke: 32 concurrent mixed requests, parity with the
    synchronous calls."""

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

    def test_32_concurrent_requests_parity(self, tree, facilities):
        requests = self._smoke_requests(tree, facilities)
        config = _config()
        with QueryRuntime(config) as base_rt:
            base_values, base_deltas = _sync_baseline(requests, base_rt)
            base_total = dataclasses.replace(base_rt.stats)

        async def drive():
            with QueryRuntime(config) as rt:
                async with QueryService(rt) as service:
                    results = await service.run(requests)
                return results, dataclasses.replace(rt.stats), service.stats

        results, total, service_stats = asyncio.run(drive())
        for req, result, expected, delta in zip(
            requests, results, base_values, base_deltas
        ):
            _assert_result_equal(req, result, expected, delta)
        assert total == base_total
        assert service_stats.requests_completed == self.N_REQUESTS
        # facilities repeat across the 30 evaluates, so the repeats
        # ride the earlier walks as cache hits
        assert total.cache_hits > 0


class TestCoresOnTheLoop:
    def test_cores_run_on_the_loop_thread_and_start_no_thread(
        self, tree, facilities
    ):
        """Every core of all three request types runs on the thread that
        runs the service's event loop, and the service starts no
        thread of its own."""
        requests = _mixed_requests(tree, facilities)
        ran_on = []

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt) as svc:
                    planner = svc.planner

                    class RecordingPlanner:
                        def plan(self, request):
                            plan = planner.plan(request)

                            def execute(runtime):
                                ran_on.append(threading.current_thread())
                                return plan.execute(runtime)

                            return dataclasses.replace(plan, execute=execute)

                    svc.planner = RecordingPlanner()
                    return await svc.run(requests)

        before = threading.enumerate()
        results = asyncio.run(drive())
        assert threading.enumerate() == before
        assert {type(r) for r in requests} == {type(r.request) for r in results}
        assert ran_on == [threading.current_thread()] * len(requests)

    def test_a_running_core_holds_the_loop(self, tree, facilities):
        """The trade of cores on the loop: while a core runs — even one
        that blocks for 20 ms — no other task on the loop takes a step;
        they resume once it returns."""
        requests = [EvaluateRequest(tree, f, COUNT) for f in facilities[:3]]
        ticks = 0
        seen = []

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        async def drive():
            with QueryRuntime(_config()) as rt:
                async with QueryService(rt) as svc:
                    planner = svc.planner

                    class TickReadingPlanner:
                        def plan(self, request):
                            plan = planner.plan(request)

                            def execute(runtime):
                                before = ticks
                                threading.Event().wait(0.02)
                                result = plan.execute(runtime)
                                seen.append((before, ticks))
                                return result

                            return dataclasses.replace(plan, execute=execute)

                    svc.planner = TickReadingPlanner()
                    ticking = asyncio.ensure_future(ticker())
                    await asyncio.sleep(0)
                    started = ticks
                    results = await svc.run(requests)
                    await asyncio.sleep(0)
                    resumed = ticks
                    ticking.cancel()
                    return results, started, resumed

        results, started, resumed = asyncio.run(drive())
        assert [r.value for r in results] == [
            evaluate_service(tree, r.facility, COUNT) for r in requests
        ]
        assert len(seen) == len(requests)
        assert all(before == after for before, after in seen)
        assert started >= 1
        assert resumed > seen[-1][1]

    def test_cancel_while_waiting_lands_in_one_counter(self, tree, facilities):
        """A submission cancelled while it waits in an open batch group
        counts as cancelled and nothing else; its siblings complete."""
        requests = [EvaluateRequest(tree, f, COUNT) for f in facilities[:3]]

        async def drive():
            with QueryRuntime(_config()) as rt:
                config = ServiceConfig(batch_window=0.005)
                async with QueryService(rt, config) as svc:
                    tasks = [
                        asyncio.ensure_future(svc.submit(r)) for r in requests
                    ]
                    await asyncio.sleep(0)  # all three submitted
                    assert not tasks[1].done()
                    tasks[1].cancel()
                    outcomes = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                    return outcomes, svc.stats

        outcomes, stats = asyncio.run(drive())
        assert isinstance(outcomes[1], asyncio.CancelledError)
        for i in (0, 2):
            assert outcomes[i].value == evaluate_service(
                tree, requests[i].facility, COUNT
            )
        assert stats.requests_submitted == 3
        assert stats.requests_cancelled == 1
        assert stats.requests_completed == 2
        assert stats.requests_failed == 0
        _assert_outcomes_sum(stats)


class TestServiceLifecycle:
    def test_rebind_refused_while_a_request_waits(self, tree, facilities):
        """A request still waiting in a group on one loop blocks binding
        the service to another — a fresh loop would drop the group
        under it.  Once it settles, the next loop binds."""
        req = EvaluateRequest(tree, facilities[0], COUNT)

        def submit_on_another_loop(svc):
            box = {}

            def target():
                try:
                    asyncio.run(svc.submit(req))
                except QueryError as exc:
                    box["error"] = exc

            thread = threading.Thread(target=target)
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
            return box.get("error")

        async def drive(svc):
            member = asyncio.ensure_future(svc.submit(req))
            await asyncio.sleep(0)  # the member waits in the open group
            assert svc.in_flight == 1
            error = submit_on_another_loop(svc)
            return error, await member

        with QueryRuntime(_config()) as rt:
            svc = QueryService(rt, ServiceConfig(batch_window=0.005))
            error, result = asyncio.run(drive(svc))
            assert "another event loop" in str(error)
            plain = evaluate_service(tree, facilities[0], COUNT)
            assert result.value == plain
            assert asyncio.run(svc.submit(req)).value == plain
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

    REQUEST_TYPES = (KMaxRRSTRequest, MaxKCovRequest)

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

    @pytest.mark.parametrize("solver", ["top_k", "maxkcov", "exact", "genetic"])
    def test_sync_entry_points_accept_a_single_facility(
        self, tree, taxi_users, facilities, solver
    ):
        f = facilities[0]
        match_fn = tq_match_fn(tree, ENDPOINT)
        answer = {
            "top_k": lambda: top_k_facilities(tree, [f], 1, ENDPOINT),
            "maxkcov": lambda: maxkcov_tq(tree, [f], 1, ENDPOINT),
            "exact": lambda: exact_max_k_coverage(taxi_users, [f], 1, ENDPOINT, match_fn),
            "genetic": lambda: genetic_max_k_coverage(taxi_users, [f], 1, ENDPOINT, match_fn),
        }[solver]()
        if solver == "top_k":
            assert [s.facility for s in answer.ranking] == [f]
        else:
            assert answer.facility_ids() == (f.facility_id,)

    @pytest.fixture(scope="class")
    def wire_catalog(self, tree, facilities):
        catalog = Catalog()
        catalog.add_tree("city", tree, source="conftest taxi users")
        catalog.add_facility_set("buses", facilities, source="conftest bus routes")
        return catalog

    @staticmethod
    def _decode(catalog, rtype, facility_ids):
        return wire.decode_request(
            {"type": rtype, "tree": "city", "facility_set": "buses",
             "facility_ids": facility_ids, "k": 1,
             "spec": {"model": "endpoint", "psi": PSI}},
            catalog,
        )

    @pytest.mark.parametrize("rtype", ["kmaxrrst", "maxkcov"])
    def test_wire_rejects_empty_facility_ids(self, wire_catalog, rtype):
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            self._decode(wire_catalog, rtype, [])

    @pytest.mark.parametrize("rtype", ["kmaxrrst", "maxkcov"])
    def test_wire_rejects_repeated_facility_ids(self, wire_catalog, rtype):
        with pytest.raises(QueryError, match="distinct.*1 more than once"):
            self._decode(wire_catalog, rtype, [1, 0, 1])

    @pytest.mark.parametrize("rtype", ["kmaxrrst", "maxkcov"])
    def test_wire_accepts_a_single_facility_id(
        self, wire_catalog, facilities, rtype
    ):
        request = self._decode(wire_catalog, rtype, [3])
        assert request.facilities == (facilities[3],)
        assert wire.request_type(request) == rtype
