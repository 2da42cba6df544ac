"""Proximity engine vs dense broadcast: where the stop grid wins.

Two entry points:

* ``pytest benchmarks/bench_engine.py`` — pytest-benchmark series over
  stop counts and psi values, one series per
  :class:`~repro.core.config.ProximityBackend` path;
* ``PYTHONPATH=src python -m benchmarks.bench_engine`` — standalone
  harness run that measures the same sweep with
  :func:`repro.bench.harness.time_call`, verifies dense/grid scores
  agree, and records the baseline timings (and speedups) in
  ``BENCH_engine.json`` at the repository root.

The sweep regenerates the engine's design claim: with stop-dense
facilities (>= 200 stops) and small psi the grid beats the dense
all-pairs broadcast by well over 3x, while tiny stop sets stay on the
dense path (AUTO) because bucketing would cost more than it saves.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import WorkloadFactory, host_metadata, scaled, time_call
from repro.core.config import ProximityBackend
from repro.core.service import ServiceModel, ServiceSpec
from repro.engine import BatchQueryEngine
from repro.runtime import QueryRuntime

from .conftest import run_once

STOP_COUNTS = (64, 200, 512)
PSIS = (50.0, 150.0, 300.0)
BACKENDS = ("DENSE", "GRID")
_BACKEND = {
    "DENSE": ProximityBackend.DENSE,
    "GRID": ProximityBackend.GRID,
}

#: The workload the acceptance claim is stated on: >= 200 stops per
#: facility, psi small relative to the city edge.
_N_FACILITIES = 8
_USER_DAYS = 0.5


def _engine(users, backend: ProximityBackend) -> BatchQueryEngine:
    return BatchQueryEngine(users, runtime=QueryRuntime(backend=backend))


def _engine_fn(factory: WorkloadFactory, backend: ProximityBackend,
               n_stops: int, psi: float):
    users = factory.taxi_users(_USER_DAYS)
    probe = factory.facilities(_N_FACILITIES, n_stops)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
    requests = [(f, spec) for f in probe]

    def fn():
        # fresh engine per round: measures mask work, not cache replay
        return _engine(users, backend).run(requests).scores

    return fn


@pytest.mark.engine_smoke
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_stops", STOP_COUNTS)
def test_engine_stop_sweep(benchmark, factory, backend, n_stops):
    fn = _engine_fn(factory, _BACKEND[backend], n_stops, 150.0)
    run_once(benchmark, fn)
    benchmark.extra_info.update(
        {"figure": "engine", "series": backend, "x_stops": n_stops}
    )


@pytest.mark.engine_smoke
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("psi", PSIS)
def test_engine_psi_sweep(benchmark, factory, backend, psi):
    fn = _engine_fn(factory, _BACKEND[backend], 200, psi)
    run_once(benchmark, fn)
    benchmark.extra_info.update(
        {"figure": "engine", "series": backend, "x_psi": psi}
    )


def main(out_path: str = None) -> dict:
    """Measure the sweep, check agreement, write ``BENCH_engine.json``."""
    factory = WorkloadFactory()
    users = factory.taxi_users(_USER_DAYS)
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": scaled(int(12_000 * _USER_DAYS)),
            "n_facilities": _N_FACILITIES,
            "service_model": "endpoint",
        },
        "rows": [],
    }
    for n_stops in STOP_COUNTS:
        for psi in PSIS:
            probe = factory.facilities(_N_FACILITIES, n_stops)
            spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
            requests = [(f, spec) for f in probe]
            dense_engine = _engine(users, ProximityBackend.DENSE)
            grid_engine = _engine(users, ProximityBackend.GRID)
            # warm (probe concatenation, grid build), then verify agreement
            dense_scores = dense_engine.run(requests)
            grid_scores = grid_engine.run(requests)
            if dense_scores.scores != grid_scores.scores:
                raise AssertionError(
                    f"engine mismatch at n_stops={n_stops} psi={psi}"
                )
            # time the mask + aggregation work on warm engines with the
            # per-run mask memo bypassed via fresh caches
            def dense_fn():
                dense_engine.cache.clear()
                return dense_engine.run(requests)

            def grid_fn():
                grid_engine.cache.clear()
                return grid_engine.run(requests)

            _, dense_s = time_call(dense_fn, repeats=3)
            _, grid_s = time_call(grid_fn, repeats=3)
            report["rows"].append(
                {
                    "n_stops": n_stops,
                    "psi": psi,
                    "dense_seconds": dense_s,
                    "grid_seconds": grid_s,
                    "speedup": dense_s / grid_s if grid_s > 0 else float("inf"),
                    "dense_distance_evals": dense_scores.stats.distance_evals,
                    "grid_distance_evals": grid_scores.stats.distance_evals,
                }
            )
    target = Path(out_path) if out_path else Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    target.write_text(json.dumps(report, indent=2) + "\n")
    best = max(r["speedup"] for r in report["rows"])
    claim = [
        r for r in report["rows"] if r["n_stops"] >= 200 and r["psi"] <= 150.0
    ]
    print(f"wrote {target}")
    print(f"best speedup: {best:.1f}x")
    for r in claim:
        print(
            f"  n_stops={r['n_stops']} psi={r['psi']}: "
            f"{r['speedup']:.1f}x ({r['dense_seconds']*1e3:.1f}ms -> "
            f"{r['grid_seconds']*1e3:.1f}ms)"
        )
    return report


if __name__ == "__main__":
    main()
