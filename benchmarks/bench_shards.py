"""One shard vs many: where shard fan-out wins.

Two entry points:

* ``pytest benchmarks/bench_shards.py`` — pytest-benchmark series over
  the grid at one shard and at ``AUTO`` shards (small, smoke-sized);
* ``PYTHONPATH=src python -m benchmarks.bench_shards`` — standalone
  harness run on the acceptance workload (stop-dense facilities at
  >= 10k stops, a large concatenated probe block), verifying that the
  multi-shard scores *and* merged work counters match the one-shard
  run exactly, and recording timings and speedups in
  ``BENCH_shards.json`` at the repository root.  (The committed file
  predates the removal of the nine-cell-probe ``StopGrid``: its
  ``grid_seconds`` column is that deleted path, not ``shards=1``.)

Why more shards win even on one core: the per-shard point prefilter
keeps every binary search on a slice small enough to stay
cache-resident.  With multiple cores the runtime's thread pool stacks
parallel fan-out on top (the numpy kernels release the GIL); this
harness records the serial-shard numbers so the recorded speedup is
reproducible on any machine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import WorkloadFactory, host_metadata, scaled, time_call
from repro.core.config import ProximityBackend, RuntimeConfig, auto_shard_count
from repro.core.service import ServiceModel, ServiceSpec
from repro.engine import BatchQueryEngine
from repro.runtime import QueryRuntime

from .conftest import run_once

#: The acceptance workload: stop counts at and above 10k, psi small
#: relative to the city edge, one large concatenated probe block.
STOP_COUNTS = (10_000, 20_000)
PSIS = (100.0, 150.0)
SHARD_SERIES = ("GRID1", "SHARD_AUTO", "SHARD_8")
_N_FACILITIES = 4
_N_TRACE_USERS = 3_000  # GPS traces: ~15-40 points each => ~80k probes


def _series_runtime(series: str, max_workers: int = 0) -> QueryRuntime:
    """The runtime behind one benchmark series.

    ``GRID1`` is the grid at one shard; the ``SHARD_*`` series differ
    only in shard count, so any timing gap is the shard layer itself.
    """
    shards = {"GRID1": 1, "SHARD_AUTO": 0, "SHARD_8": 8}[series]
    return QueryRuntime(
        RuntimeConfig(
            backend=ProximityBackend.GRID, shards=shards, max_workers=max_workers
        )
    )


def _requests(factory: WorkloadFactory, n_stops: int, psi: float):
    probe = factory.facilities(_N_FACILITIES, n_stops)
    spec = ServiceSpec(ServiceModel.COUNT, psi=psi)
    return [(f, spec) for f in probe]


@pytest.mark.engine_smoke
@pytest.mark.parametrize("series", ("GRID1", "SHARD_AUTO"))
def test_shards_smoke_sweep(benchmark, factory, series):
    """Small smoke-sized series so CI sees the shard path regularly."""
    users = factory.geolife_users(400)
    requests = _requests(factory, 2_000, 150.0)
    runtime = _series_runtime(series)

    def fn():
        runtime.cache.clear()  # measure mask work, not cache replay
        return BatchQueryEngine(users, runtime=runtime).run(requests).scores

    run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "shards", "series": series})


@pytest.mark.parametrize("series", SHARD_SERIES)
@pytest.mark.parametrize("n_stops", STOP_COUNTS)
def test_shards_stop_sweep(benchmark, factory, series, n_stops):
    users = factory.geolife_users(_N_TRACE_USERS)
    requests = _requests(factory, n_stops, 150.0)
    runtime = _series_runtime(series)

    def fn():
        runtime.cache.clear()
        return BatchQueryEngine(users, runtime=runtime).run(requests).scores

    run_once(benchmark, fn)
    benchmark.extra_info.update(
        {"figure": "shards", "series": series, "x_stops": n_stops}
    )


def main(out_path: str = None) -> dict:
    """Measure the sweep, verify parity, write ``BENCH_shards.json``."""
    factory = WorkloadFactory()
    users = factory.geolife_users(_N_TRACE_USERS)
    n_probe_points = int(sum(u.n_points for u in users))
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": scaled(_N_TRACE_USERS),
            "n_probe_points": n_probe_points,
            "n_facilities": _N_FACILITIES,
            "service_model": "count",
            "cpu_count": os.cpu_count(),
        },
        "rows": [],
    }
    for n_stops in STOP_COUNTS:
        for psi in PSIS:
            requests = _requests(factory, n_stops, psi)
            rt_grid = _series_runtime("GRID1")
            rt_shard = _series_runtime("SHARD_AUTO")
            grid_engine = BatchQueryEngine(users, runtime=rt_grid)
            shard_engine = BatchQueryEngine(users, runtime=rt_shard)
            # warm (probe concat, grid/shard builds), then verify parity:
            # scores AND merged per-shard work counters must match the
            # one-shard run exactly
            grid_res = grid_engine.run(requests)
            shard_res = shard_engine.run(requests)
            if grid_res.scores != shard_res.scores:
                raise AssertionError(
                    f"sharded scores diverge at n_stops={n_stops} psi={psi}"
                )
            if grid_res.stats != shard_res.stats:
                raise AssertionError(
                    f"sharded stats diverge at n_stops={n_stops} psi={psi}: "
                    f"{shard_res.stats} != {grid_res.stats}"
                )

            def timed(engine, runtime):
                def fn():
                    runtime.cache.clear()
                    return engine.run(requests)

                return fn

            # best-of-5: single-core boxes are noisy and the claim is a
            # ratio of two best-case mask passes
            _, grid_s = time_call(timed(grid_engine, rt_grid), repeats=5)
            _, shard_s = time_call(timed(shard_engine, rt_shard), repeats=5)
            report["rows"].append(
                {
                    "n_stops": n_stops,
                    "psi": psi,
                    "n_shards": auto_shard_count(n_stops),
                    "grid_seconds": grid_s,
                    "sharded_seconds": shard_s,
                    "speedup": grid_s / shard_s if shard_s > 0 else float("inf"),
                    "scores_equal": True,
                    "stats_equal": True,
                    "distance_evals": grid_res.stats.distance_evals,
                }
            )
    target = Path(out_path) if out_path else Path(__file__).resolve().parent.parent / "BENCH_shards.json"
    claim = [r for r in report["rows"] if r["n_stops"] >= 10_000]
    report["claim"] = {
        "description": "AUTO shards vs one shard, >=10k stops",
        "min_speedup": min(r["speedup"] for r in claim),
        "max_speedup": max(r["speedup"] for r in claim),
    }
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")
    for r in report["rows"]:
        print(
            f"  n_stops={r['n_stops']} psi={r['psi']} shards={r['n_shards']}: "
            f"{r['speedup']:.1f}x ({r['grid_seconds']*1e3:.1f}ms -> "
            f"{r['sharded_seconds']*1e3:.1f}ms)"
        )
    return report


if __name__ == "__main__":
    main()
