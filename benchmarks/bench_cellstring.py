"""Cellstring tier vs the live grid: precompute once, probe cheap.

Two entry points:

* ``pytest benchmarks/bench_cellstring.py`` — pytest-benchmark series
  over the grid and cellstring runtime paths (small sizes, smoke-sized);
* ``PYTHONPATH=src python -m benchmarks.bench_cellstring`` — standalone
  harness run on the acceptance workload (stop-dense facilities at
  >= 10k stops, a large concatenated probe block), verifying that the
  cellstring masks are *bit-identical* to the dense oracle and the
  scores match the grid path exactly, then recording the cold
  rasterization cost alongside the warm repeated-query speedup in
  ``BENCH_cellstring.json`` at the repository root.  ``--smoke`` runs a
  reduced sweep with the same parity assertions and writes nothing —
  the CI entry point.

The trade the numbers capture: rasterizing a facility's psi-disc union
into sorted Morton cellstrings costs real build time (hundreds of
milliseconds at 10k stops — reported honestly per row), but after that
a probe batch is three ``searchsorted`` membership passes with the
exact kernel confined to boundary cells.  For the serving pattern —
static facilities probed by stream after stream of user points — the
build amortises across every repeated query, which is why the claim is
about *warm* passes with the index already in the shard store.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import WorkloadFactory, host_metadata, scaled, time_call
from repro.core.config import ProximityBackend, RuntimeConfig
from repro.core.service import ServiceModel, ServiceSpec, StopSet
from repro.engine import BatchQueryEngine, build_cellstring_index
from repro.runtime import QueryRuntime

from .conftest import run_once

#: The acceptance workload: stop counts at and above 10k, psi small
#: relative to the city edge, one large concatenated probe block.
STOP_COUNTS = (10_000, 20_000)
PSIS = (100.0, 150.0)
SERIES = ("GRID1", "CELLSTRING")
_N_FACILITIES = 4
_N_TRACE_USERS = 3_000  # GPS traces: ~15-40 points each => ~80k probes

#: ``--smoke`` sizes: the same code path at CI-friendly scale.
_SMOKE_STOP_COUNTS = (2_000,)
_SMOKE_PSIS = (150.0,)
_SMOKE_TRACE_USERS = 400


def _series_runtime(series: str) -> QueryRuntime:
    """The runtime behind one benchmark series.

    ``GRID1`` is the single-grid live-geometry path; ``CELLSTRING``
    differs only in backend, so any timing gap is the precomputed tier
    itself.  Both probe inline (one worker): the claim is a single-core
    ratio reproducible on any machine.
    """
    backend = {
        "GRID1": ProximityBackend.GRID,
        "CELLSTRING": ProximityBackend.CELLSTRING,
    }[series]
    shards = 1 if series == "GRID1" else 0
    return QueryRuntime(
        RuntimeConfig(backend=backend, shards=shards, max_workers=0)
    )


def _requests(factory: WorkloadFactory, n_stops: int, psi: float):
    probe = factory.facilities(_N_FACILITIES, n_stops)
    spec = ServiceSpec(ServiceModel.COUNT, psi=psi)
    return [(f, spec) for f in probe]


@pytest.mark.engine_smoke
@pytest.mark.parametrize("series", SERIES)
def test_cellstring_smoke_sweep(benchmark, factory, series):
    """Small smoke-sized series so CI sees the cellstring path regularly."""
    users = factory.geolife_users(400)
    requests = _requests(factory, 2_000, 150.0)
    runtime = _series_runtime(series)

    def fn():
        runtime.cache.clear()  # measure mask work, not cache replay
        return BatchQueryEngine(users, runtime=runtime).run(requests).scores

    run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "cellstring", "series": series})


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("n_stops", STOP_COUNTS)
def test_cellstring_stop_sweep(benchmark, factory, series, n_stops):
    users = factory.geolife_users(_N_TRACE_USERS)
    requests = _requests(factory, n_stops, 150.0)
    runtime = _series_runtime(series)

    def fn():
        runtime.cache.clear()
        return BatchQueryEngine(users, runtime=runtime).run(requests).scores

    run_once(benchmark, fn)
    benchmark.extra_info.update(
        {"figure": "cellstring", "series": series, "x_stops": n_stops}
    )


#: The direct dense-oracle parity check runs on this many probe points
#: per facility: the dense broadcast is O(points x stops) in time *and*
#: memory, so at 20k stops x 80k probes it would dwarf the measurement
#: itself.  The full block is still held to bit-identity against the
#: grid path (exact per the tier-1 differential suites), so every
#: probe point is covered by an equality chain ending at the oracle.
_ORACLE_SAMPLE_POINTS = 20_000


def _assert_oracle_parity(requests, probe_block, psi):
    """Every facility's cellstring mask must be bit-identical to the
    exact paths before any timing is trusted: the dense oracle directly
    on a deterministic probe subsample, and the live grid on the full
    block."""
    sample = probe_block[:: max(1, probe_block.shape[0] // _ORACLE_SAMPLE_POINTS)]
    for f, _ in requests:
        idx = build_cellstring_index(f.stop_coords, psi)
        dense = StopSet.of_facility(f).covered_mask(sample, psi)
        if not np.array_equal(dense, idx.covered_mask(sample, psi)):
            raise AssertionError(
                f"cellstring mask diverges from dense oracle: facility "
                f"{f.facility_id}, psi={psi}"
            )
        from repro.engine import GriddedStopSet

        grid_mask = GriddedStopSet(f.stop_coords, psi).covered_mask(
            probe_block, psi
        )
        if not np.array_equal(grid_mask, idx.covered_mask(probe_block, psi)):
            raise AssertionError(
                f"cellstring mask diverges from grid path on the full "
                f"block: facility {f.facility_id}, psi={psi}"
            )


def main(out_path: str = None, smoke: bool = False) -> dict:
    """Measure the sweep, verify parity, write ``BENCH_cellstring.json``."""
    stop_counts = _SMOKE_STOP_COUNTS if smoke else STOP_COUNTS
    psis = _SMOKE_PSIS if smoke else PSIS
    n_users = _SMOKE_TRACE_USERS if smoke else _N_TRACE_USERS
    repeats = 2 if smoke else 5
    factory = WorkloadFactory()
    users = factory.geolife_users(n_users)
    probe_block = np.concatenate([u.coords for u in users])
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": scaled(n_users),
            "n_probe_points": int(probe_block.shape[0]),
            "n_facilities": _N_FACILITIES,
            "service_model": "count",
            "cpu_count": os.cpu_count(),
            "smoke": smoke,
        },
        "rows": [],
    }
    for n_stops in stop_counts:
        for psi in psis:
            requests = _requests(factory, n_stops, psi)
            # 1. parity against the dense oracle, bit for bit
            _assert_oracle_parity(requests, probe_block, psi)
            # 2. cold build cost: rasterizing every facility from scratch
            def build_all():
                return [
                    build_cellstring_index(f.stop_coords, psi)
                    for f, _ in requests
                ]

            indexes, build_s = time_call(build_all, repeats=1)
            n_cells = int(sum(i.n_cells for i in indexes))
            index_bytes = int(sum(i.nbytes for i in indexes))
            # 3. grid-vs-cellstring score parity through the full engine
            rt_grid = _series_runtime("GRID1")
            rt_cell = _series_runtime("CELLSTRING")
            grid_engine = BatchQueryEngine(users, runtime=rt_grid)
            cell_engine = BatchQueryEngine(users, runtime=rt_cell)
            grid_res = grid_engine.run(requests)
            cell_res = cell_engine.run(requests)  # warms the shard store
            if grid_res.scores != cell_res.scores:
                raise AssertionError(
                    f"cellstring scores diverge at n_stops={n_stops} psi={psi}"
                )

            def timed(engine, runtime):
                def fn():
                    runtime.cache.clear()  # keep the mask work, drop replay
                    return engine.run(requests)

                return fn

            # best-of-N warm passes: the indexes sit in the shard store,
            # so this is the repeated-query cost a serving workload pays
            _, grid_s = time_call(timed(grid_engine, rt_grid), repeats=repeats)
            _, cell_s = time_call(timed(cell_engine, rt_cell), repeats=repeats)
            row = {
                    "n_stops": n_stops,
                    "psi": psi,
                    "build_seconds": build_s,
                    "n_cells": n_cells,
                    "index_bytes": index_bytes,
                    "grid_seconds": grid_s,
                    "cellstring_seconds": cell_s,
                    "warm_speedup": grid_s / cell_s if cell_s > 0 else float("inf"),
                    "builds_amortised_after_queries": (
                        build_s / (grid_s - cell_s) if grid_s > cell_s else None
                    ),
                    "oracle_parity": True,
                    "scores_equal": True,
            }
            report["rows"].append(row)
            amort = row["builds_amortised_after_queries"]
            print(
                f"  n_stops={n_stops} psi={psi}: build "
                f"{row['build_seconds']*1e3:.0f}ms, warm "
                f"{row['warm_speedup']:.1f}x ({row['grid_seconds']*1e3:.1f}ms "
                f"-> {row['cellstring_seconds']*1e3:.1f}ms)"
                + (f", amortised after {amort:.1f} queries" if amort else ""),
                flush=True,
            )
    claim_rows = [r for r in report["rows"] if r["n_stops"] >= 10_000]
    if claim_rows:
        report["claim"] = {
            "description": (
                "warm repeated-query passes, cellstring vs single-grid "
                "runtime, >=10k stops (cold build cost reported per row)"
            ),
            "min_warm_speedup": min(r["warm_speedup"] for r in claim_rows),
            "max_warm_speedup": max(r["warm_speedup"] for r in claim_rows),
        }
    if smoke and out_path is None:
        print("smoke run: parity verified, no report written")
        return report
    target = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_cellstring.json"
    )
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep with full parity assertions; writes no report",
    )
    parser.add_argument("--out", default=None, help="report path override")
    args = parser.parse_args()
    main(out_path=args.out, smoke=args.smoke)
