"""Shared fixtures: a small deterministic city with users and facilities."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import (
    BBox,
    CityModel,
    ServiceModel,
    ServiceSpec,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_taxi_trips,
)

# A compact test city: small enough that every oracle comparison is fast,
# dense enough that facilities genuinely serve users.
TEST_PSI = 400.0


#: The two probe-scheduling paths the engine has (DESIGN.md §5.1), as
#: parametrize ids: every probe inline, or every multi-shard /
#: cellstring probe fanned out over the runtime's thread pool.
SCHEDULING = ("serial", "threads")


@pytest.fixture
def scheduling_workers(monkeypatch):
    """``mode -> max_workers`` for one leg of the scheduling matrix.

    ``"serial"`` is a one-worker runtime (no pool: always inline);
    ``"threads"`` is a two-worker runtime with the engine's
    ``FANOUT_MIN_POINTS`` patched to 1 for the rest of the test, so
    every non-empty probe block takes the fan-out path."""

    def workers(mode: str) -> int:
        if mode == "serial":
            return 1
        assert mode == "threads", mode
        monkeypatch.setattr("repro.engine.grid.FANOUT_MIN_POINTS", 1)
        return 2

    return workers


class GatedPlanner:
    """Installs itself as ``service``'s planner so one request's core
    parks on the bridge pool until ``release`` is set — the
    deterministic way to keep the bridge busy, a queue slot taken or a
    request in flight (no wall-clock sleeps).  The first planned
    request that ``select`` accepts is gated; ``started`` is set once
    its core is running."""

    def __init__(self, service, select=lambda request: True) -> None:
        self._inner = service.planner
        service.planner = self
        self._select = select
        self._armed = True
        self.started = threading.Event()
        self.release = threading.Event()

    def plan(self, request):
        plan = self._inner.plan(request)
        if not (self._armed and self._select(request)):
            return plan
        self._armed = False

        def execute(runtime):
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
