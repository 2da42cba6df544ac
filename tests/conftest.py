"""Shared fixtures: a small deterministic city with users and facilities."""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro import (
    BBox,
    CityModel,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_taxi_trips,
)

# A compact test city: small enough that every oracle comparison is fast,
# dense enough that facilities genuinely serve users.
TEST_PSI = 400.0


class GatedPlanner:
    """Installs itself as ``service``'s planner so one request's core
    blocks until ``release`` is set.  Cores run on the service's event
    loop, so this parks the loop itself: use it only where the test
    drives that loop from another thread (a background server).  The
    first planned request that ``select`` accepts is gated; ``started``
    is set once its core is running, and ``loop`` is the event loop it
    runs on."""

    def __init__(self, service, select=lambda request: True) -> None:
        self._inner = service.planner
        service.planner = self
        self._select = select
        self._armed = True
        self.started = threading.Event()
        self.release = threading.Event()
        self.loop = None

    def plan(self, request):
        plan = self._inner.plan(request)
        if not (self._armed and self._select(request)):
            return plan
        self._armed = False

        def execute(runtime):
            self.loop = asyncio.get_running_loop()
            self.started.set()
            assert self.release.wait(30), "gate never released"
            return plan.execute(runtime)

        return dataclasses.replace(plan, execute=execute)


@pytest.fixture(scope="session")
def city() -> CityModel:
    return CityModel.generate(seed=11, size=10_000.0, n_hotspots=6)


@pytest.fixture(scope="session")
def taxi_users(city):
    return generate_taxi_trips(400, city, seed=1)


@pytest.fixture(scope="session")
def checkin_users(city):
    return generate_checkin_trajectories(150, city, seed=2, min_points=3, max_points=8)


@pytest.fixture(scope="session")
def facilities(city):
    return generate_bus_routes(12, city, seed=3, n_stops=16)


@pytest.fixture(scope="session")
def endpoint_spec() -> ServiceSpec:
    return ServiceSpec(ServiceModel.ENDPOINT, psi=TEST_PSI)


@pytest.fixture(scope="session")
def count_spec() -> ServiceSpec:
    return ServiceSpec(ServiceModel.COUNT, psi=TEST_PSI)


@pytest.fixture(scope="session")
def length_spec() -> ServiceSpec:
    return ServiceSpec(ServiceModel.LENGTH, psi=TEST_PSI)


@pytest.fixture(scope="session")
def unit_box() -> BBox:
    return BBox(0.0, 0.0, 1000.0, 1000.0)


@pytest.fixture
def probe_calls():
    """Every ``QueryRuntime.probe_mask`` call, as the points it probed."""
    calls = []
    inner = QueryRuntime.probe_mask

    def counting(self, stops, coords, psi, stats=None):
        calls.append(len(coords))
        return inner(self, stops, coords, psi, stats)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryRuntime, "probe_mask", counting)
        yield calls
