"""Seeded inputs: datasets, facility pools and op schedules.

``--seed`` drives everything generated here and nothing else; the
program under test only ever receives the generated objects or the CSV
files saved from them.  Every workload issues the same four operations
(``spec.OPS``) in a seeded interleaving with fixed counts, so a
schedule — and every work counter it causes — is a pure function of
``(workload, seed, seconds)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro import (
    CityModel,
    FacilityRoute,
    ServiceModel,
    ServiceSpec,
    Trajectory,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_gps_traces,
    generate_taxi_trips,
)

from . import spec as S


class Op(NamedTuple):
    """One user-visible action of the schedule."""

    kind: str  # one of spec.OPS
    parts: Tuple[Tuple[str, int], ...]  # (tree name, index into Inputs.specs) it runs against
    fids: Tuple[int, ...]  # facility ids == indices into Inputs.pool
    k: int  # answer size for kmaxrrst / maxkcov, 0 otherwise
    member_specs: Tuple[int, ...]  # wave only: one spec index per member, or ()
    due: float  # open loop: seconds after the timed phase starts


@dataclass
class Inputs:
    workload: str
    users: Dict[str, List[Trajectory]]
    pool: List[FacilityRoute]
    specs: List[ServiceSpec]
    schedule: List[Op]
    fingerprint: str


def city() -> CityModel:
    return CityModel.generate(seed=S.CITY_SEED, size=S.CITY_SIZE)


def _kinds(counts: Dict[str, int], rng: np.random.Generator) -> List[str]:
    kinds = [op for op in S.OPS for _ in range(counts[op])]
    return [kinds[i] for i in rng.permutation(len(kinds))]


def _arity(cfg: dict, kind: str) -> Tuple[int, int]:
    """(facilities the op names, k)."""
    if kind == "evaluate":
        return 1, 0
    if kind == "wave":
        return S.WAVE, 0
    return cfg["candidates"][kind]


def _paper_cold(cfg, counts, seed):
    rng = np.random.default_rng([seed, 1])
    c = city()
    users = {"main": generate_taxi_trips(cfg["users"], c, seed=seed * 10 + 1)}
    kinds = _kinds(counts, rng)
    n_routes = sum(_arity(cfg, kind)[0] for kind in kinds)
    pool = generate_bus_routes(n_routes, c, seed=seed * 10 + 2, n_stops=cfg["stops"])
    specs = [ServiceSpec(ServiceModel.ENDPOINT, psi=cfg["psi"])]
    schedule, cursor = [], 0
    for kind in kinds:
        n, k = _arity(cfg, kind)
        # fresh routes for every op: nothing computed earlier can answer
        schedule.append(Op(kind, (("main", 0),), tuple(range(cursor, cursor + n)), k, (), 0.0))
        cursor += n
    return users, pool, specs, schedule


def _paper_multipoint(cfg, counts, seed):
    rng = np.random.default_rng([seed, 2])
    c = city()
    users = {
        "gps": generate_gps_traces(
            cfg["gps_traces"], c, seed=seed * 10 + 1, min_points=15, max_points=40
        ),
        "chk": generate_checkin_trajectories(cfg["checkins"], c, seed=seed * 10 + 2),
    }
    pool: List[FacilityRoute] = []
    for i, (n_routes, n_stops) in enumerate(cfg["routes"]):
        pool += generate_bus_routes(
            n_routes, c, seed=seed * 10 + 3 + i, n_stops=n_stops, start_id=len(pool)
        )
    n_plain = len(pool)
    n_hot, hot_stops = cfg["hot_networks"]
    for j in range(n_hot):
        # a whole network probed as one facility: 64 routes' stops merged
        lines = generate_bus_routes(hot_stops // 128, c, seed=seed * 10 + 7 + j, n_stops=128)
        pool.append(FacilityRoute(len(pool), [s for r in lines for s in r.stops]))
    specs = [
        ServiceSpec(ServiceModel.LENGTH, psi=cfg["psi"], normalize=True),
        ServiceSpec(ServiceModel.COUNT, psi=cfg["psi"], normalize=True),
    ]
    # every action asks both indexes, one after the other: the two trees
    # cost up to 2x apart, and a median over a two-mode mix would jump
    # between the modes from seed to seed
    parts = (("gps", 0), ("chk", 1))
    schedule = []
    for kind in _kinds(counts, rng):
        n, k = _arity(cfg, kind)
        # the whole networks are evaluated on their own only: inside a
        # wave or a candidate set one 8,192-stop member would dwarf the
        # rest and split the op's cost into two modes
        domain = len(pool) if kind == "evaluate" else n_plain
        fids = tuple(int(i) for i in rng.choice(domain, size=n, replace=False))
        schedule.append(Op(kind, parts, fids, k, (), 0.0))
    return users, pool, specs, schedule


def _serving(cfg, counts, seed, seconds):
    rng = np.random.default_rng([seed, 3])
    c = city()
    users = {"main": generate_taxi_trips(cfg["users"], c, seed=seed * 10 + 1)}
    n_routes, n_stops = cfg["routes"]
    pool = generate_bus_routes(n_routes, c, seed=seed * 10 + 2, n_stops=n_stops)
    specs = [ServiceSpec(ServiceModel.ENDPOINT, psi=psi) for psi in cfg["psis"]]
    n_endpoint = len(specs)
    if cfg["count_share"]:
        specs.append(ServiceSpec(ServiceModel.COUNT, psi=cfg["psis"][0], normalize=True))
    weights = np.ones(n_routes)
    if cfg["zipf"]:
        weights = 1.0 / np.arange(1, n_routes + 1) ** cfg["zipf"]
        weights = weights[rng.permutation(n_routes)]
    weights = weights / weights.sum()
    kinds = _kinds(counts, rng)
    # open loop: Poisson arrivals, stretched to span exactly the timed
    # phase so every seed offers the same rate n_ops / seconds
    gaps = rng.exponential(1.0, size=len(kinds) + 1)
    dues = np.cumsum(gaps)[:-1] * (seconds / gaps.sum())
    if cfg["loop"] != "open":
        dues = np.zeros(len(kinds))
    mid = n_endpoint // 2

    def draw(kind):
        n = _arity(cfg, kind)[0]
        return tuple(int(i) for i in rng.choice(n_routes, size=n, replace=False, p=weights))

    # the multi-facility solvers ask about a few standing candidate sets
    # again and again (a planner refreshing its shortlists): after the
    # first answer their cost is one mode, not a cold/warm mix that shifts
    # with the seed; fresh candidate sets are paper_cold's job
    standing = {
        kind: [draw(kind) for _ in range(cfg["solver_sets"])] for kind in ("kmaxrrst", "maxkcov")
    }
    schedule = []
    for kind, due in zip(kinds, dues):
        k = _arity(cfg, kind)[1]
        if kind in standing:
            fids = standing[kind][int(rng.integers(cfg["solver_sets"]))]
        else:
            fids = draw(kind)
        spec_i, member_specs = int(rng.integers(n_endpoint)), ()
        if cfg["count_share"] and rng.random() < cfg["count_share"]:
            spec_i = n_endpoint
        elif n_endpoint > 1 and kind == "wave":
            # a radius per member, in rotation: every wave mixes the radii
            # the same way instead of being cheap or dear as a whole
            member_specs = tuple((spec_i + j) % n_endpoint for j in range(len(fids)))
        elif n_endpoint > 1 and kind != "evaluate":
            spec_i = mid  # one radius for the multi-facility solvers: one cost mode
        schedule.append(Op(kind, (("main", spec_i),), fids, k, member_specs, float(due)))
    return users, pool, specs, schedule


def _fingerprint(users, pool, specs, schedule) -> str:
    h = hashlib.sha256()
    for name in sorted(users):
        h.update(name.encode())
        h.update(np.asarray([u.traj_id for u in users[name]], dtype=np.int64).tobytes())
        h.update(np.concatenate([u.coords for u in users[name]]).tobytes())
    for f in pool:
        h.update(np.int64(f.facility_id).tobytes())
        h.update(np.ascontiguousarray(f.stop_coords).tobytes())
    h.update(repr([(s.model.value, s.psi, s.normalize) for s in specs]).encode())
    h.update(repr([tuple(op) for op in schedule]).encode())
    return h.hexdigest()


def generate(workload: str, seed: int, seconds: float) -> Inputs:
    cfg = S.WORKLOADS[workload]
    counts = S.scaled_counts(workload, seconds)
    if workload == "paper_cold":
        parts = _paper_cold(cfg, counts, seed)
    elif workload == "paper_multipoint":
        parts = _paper_multipoint(cfg, counts, seed)
    else:
        parts = _serving(cfg, counts, seed, seconds)
    return Inputs(workload, *parts, fingerprint=_fingerprint(*parts))
