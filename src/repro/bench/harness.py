"""Experiment harness: workloads, parameter grids, timing.

The paper's Table III defines the parameter grid; :data:`PAPER_PARAMETERS`
records it verbatim alongside the scaled values this reproduction runs by
default.  CPython is 1–2 orders of magnitude slower than the paper's Java
setup, so default workload sizes are divided by ``~90`` (users) and
``~8–16`` (facilities) — the *relative* behaviour of the competitors is
what the figure sweeps reproduce, and every size can be scaled back up with
the ``REPRO_BENCH_SCALE`` environment variable.

:class:`WorkloadFactory` memoises datasets and indexes so sweeps measure
query time, not dataset generation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import IndexVariant, RuntimeConfig
from ..core.service import ServiceModel, ServiceSpec
from ..core.trajectory import FacilityRoute, Trajectory
from ..datasets import (
    CityModel,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_gps_traces,
    generate_taxi_trips,
)
from ..index.builder import (
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
)
from ..index.tqtree import TQTree
from ..queries.baseline import BaselineIndex
from ..runtime import QueryRuntime

__all__ = [
    "PAPER_PARAMETERS",
    "bench_scale",
    "scaled",
    "Timer",
    "time_call",
    "WorkloadFactory",
    "DEFAULTS",
    "parse_runtime_spec",
]


@dataclass(frozen=True)
class ParameterRow:
    """One row of the paper's Table III, with our scaled defaults."""

    name: str
    paper_range: Tuple
    paper_default: object
    scaled_range: Tuple
    scaled_default: object


#: Table III of the paper (defaults the paper shows in bold are not
#: recoverable from the text; the conventional middle values are used).
PAPER_PARAMETERS: Tuple[ParameterRow, ...] = (
    ParameterRow("routes", ("NY", "BJ"), "NY", ("NY-like", "BJ-like"), "NY-like"),
    ParameterRow(
        "datasets", ("NYT", "NYF", "BJG"), "NYT",
        ("NYT-like", "NYF-like", "BJG-like"), "NYT-like",
    ),
    ParameterRow(
        "n_trajectories",
        (203_308, 357_139, 697_796, 1_032_637),
        357_139,
        (6_000, 12_000, 24_000, 36_000),
        12_000,
    ),
    ParameterRow("n_stops", (8, 16, 32, 64, 128, 256, 512), 32,
                 (8, 16, 32, 64, 128, 256, 512), 32),
    ParameterRow("n_facilities", (8, 16, 32, 64, 128, 256, 512), 64,
                 (8, 16, 32, 64, 128), 32),
    ParameterRow("k", (4, 8, 16, 32), 8, (4, 8, 16, 32), 8),
)


@dataclass(frozen=True)
class _Defaults:
    """Scaled default experiment parameters (one place to tune)."""

    # 12k trips/day puts the 0.5-3 day sweep at 6k-36k users: large
    # enough that the BL > TQ(B) > TQ(Z) separation of the paper emerges
    # (below ~10k users vectorised full scans beat selective navigation),
    # small enough that the full suite runs in minutes under CPython.
    users_per_day: int = 12_000
    day_sweep: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0)
    n_stops: int = 32
    stop_sweep: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)
    n_facilities: int = 32
    facility_sweep: Tuple[int, ...] = (8, 16, 32, 64, 128)
    k: int = 8
    k_sweep: Tuple[int, ...] = (4, 8, 16, 32)
    psi: float = 300.0
    beta: int = 64
    city_seed: int = 42
    # 12 km edge: with the scaled user counts this reproduces the point
    # density (points per psi-disc) of the paper's metropolitan datasets,
    # which is what the BL-vs-TQ cost ratio depends on.
    city_size: float = 12_000.0


DEFAULTS = _Defaults()


def parse_runtime_spec(spec: str) -> RuntimeConfig:
    """A :class:`RuntimeConfig` from a ``SHARDS`` spec.

    This is the grammar of the figure driver's ``--runtime`` flag:
    ``auto``, ``4``, … — the shard count (``0`` / ``auto`` = the AUTO
    heuristic).  The backend stays ``AUTO`` (grid for stop-dense sets),
    since the shard axis is what the runtime sweeps vary.
    """
    parts = [p.strip() for p in spec.split(":")]
    if not any(parts):
        raise ValueError(f"empty runtime spec: {spec!r}")
    if len(parts) > 1:
        # the retired ':WORKERS' half is an error, never silently dropped
        raise ValueError(f"runtime spec has too many fields: {spec!r}")
    shards = 0 if parts[0] == "auto" else int(parts[0])
    return RuntimeConfig(shards=shards)


def bench_scale() -> float:
    """Workload multiplier from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


def scaled(n: int) -> int:
    """``n`` adjusted by the bench scale, at least 1."""
    return max(1, int(round(n * bench_scale())))


class Timer:
    """A context-manager stopwatch."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start


def time_call(fn: Callable[[], object], repeats: int = 1) -> Tuple[object, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best seconds)."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


class WorkloadFactory:
    """Memoised datasets and indexes for the benchmark sweeps.

    All artefacts are keyed by their full parameterisation, so a sweep
    that reuses the 1-day workload pays generation and index construction
    once.  A single shared city (seeded) underlies everything, exactly as
    one real metropolitan area underlies the paper's sweeps.

    ``runtime_config``, when given, makes the factory *runtime-aware*:
    :meth:`query_runtime` hands every TQ-path sweep a fresh
    :class:`~repro.runtime.QueryRuntime` under that shard
    configuration (the figure driver's ``--runtime`` flag sets it), so
    the paper's Figure 6–9 experiments can be re-run through the
    runtime.  ``None`` keeps the legacy plain-dense path.
    """

    def __init__(
        self,
        defaults: _Defaults = DEFAULTS,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.defaults = defaults
        self.runtime_config = runtime_config
        self.city = CityModel.generate(
            seed=defaults.city_seed, size=defaults.city_size
        )
        self._users: Dict[Tuple, List[Trajectory]] = {}
        self._facilities: Dict[Tuple, List[FacilityRoute]] = {}
        self._trees: Dict[Tuple, TQTree] = {}
        self._baselines: Dict[Tuple, BaselineIndex] = {}

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def taxi_users(self, days: float = 1.0) -> List[Trajectory]:
        """NYT-like workload: ``days`` worth of taxi trips."""
        n = scaled(int(self.defaults.users_per_day * days))
        key = ("taxi", n)
        if key not in self._users:
            self._users[key] = generate_taxi_trips(n, self.city, seed=101)
        return self._users[key]

    def checkin_users(self, n: Optional[int] = None) -> List[Trajectory]:
        """NYF-like workload: multipoint check-in sequences."""
        n = scaled(n if n is not None else self.defaults.users_per_day // 2)
        key = ("checkin", n)
        if key not in self._users:
            self._users[key] = generate_checkin_trajectories(
                n, self.city, seed=102, min_points=3, max_points=10
            )
        return self._users[key]

    def geolife_users(self, n: Optional[int] = None) -> List[Trajectory]:
        """BJG-like workload: dense GPS traces."""
        n = scaled(n if n is not None else self.defaults.users_per_day // 8)
        key = ("geolife", n)
        if key not in self._users:
            self._users[key] = generate_gps_traces(
                n, self.city, seed=103, min_points=15, max_points=40
            )
        return self._users[key]

    def facilities(
        self, n: Optional[int] = None, n_stops: Optional[int] = None
    ) -> List[FacilityRoute]:
        """NY-like bus routes with a fixed per-route stop count."""
        n = n if n is not None else self.defaults.n_facilities
        n_stops = n_stops if n_stops is not None else self.defaults.n_stops
        key = (n, n_stops)
        if key not in self._facilities:
            self._facilities[key] = generate_bus_routes(
                n, self.city, seed=104, n_stops=n_stops
            )
        return self._facilities[key]

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def tq_tree(
        self,
        users: Sequence[Trajectory],
        use_zorder: bool = True,
        variant: IndexVariant = IndexVariant.ENDPOINT,
    ) -> TQTree:
        key = ("tq", id(users), use_zorder, variant)
        if key not in self._trees:
            if variant is IndexVariant.SEGMENTED:
                build = build_segmented
                tree = build(users, beta=self.defaults.beta,
                             space=self.city.bounds, use_zorder=use_zorder)
            elif variant is IndexVariant.FULL:
                tree = build_full(users, beta=self.defaults.beta,
                                  space=self.city.bounds, use_zorder=use_zorder)
            elif use_zorder:
                tree = build_tq_zorder(users, beta=self.defaults.beta,
                                       space=self.city.bounds)
            else:
                tree = build_tq_basic(users, beta=self.defaults.beta,
                                      space=self.city.bounds)
            tree.warm_zindex()
            self._trees[key] = tree
        return self._trees[key]

    def baseline(self, users: Sequence[Trajectory]) -> BaselineIndex:
        key = ("bl", id(users))
        if key not in self._baselines:
            self._baselines[key] = BaselineIndex.build(
                users, capacity=self.defaults.beta, space=self.city.bounds
            )
        return self._baselines[key]

    def spec(self, model: ServiceModel = ServiceModel.ENDPOINT) -> ServiceSpec:
        normalize = model is not ServiceModel.ENDPOINT
        return ServiceSpec(model, psi=self.defaults.psi, normalize=normalize)

    # ------------------------------------------------------------------
    # execution runtimes
    # ------------------------------------------------------------------
    def query_runtime(self) -> Optional[QueryRuntime]:
        """A fresh runtime under the factory's ``runtime_config``, or
        ``None`` when the factory is not runtime-aware.

        Fresh per call: each sweep leg owns its caches, so one leg's
        warm masks cannot contaminate another's measurement.
        """
        if self.runtime_config is None:
            return None
        return QueryRuntime(self.runtime_config)
