"""Serving-layer benchmark: concurrent mixed workloads with coalescing.

Two entry points:

* ``pytest benchmarks/bench_service.py`` — a small pytest-benchmark
  smoke series so CI exercises the asyncio service path regularly;
* ``PYTHONPATH=src python -m benchmarks.bench_service`` — standalone
  harness run on the acceptance workload: 64 concurrent mixed requests
  (the three evaluate service models plus a kMaxRRST and a MaxkCov per
  batch) at request-overlap factors {0, 0.5, 0.9}, verifying
  **in-harness** that every service answer equals the direct
  synchronous call, and recording throughput and the probe-dedup rate
  in ``BENCH_service.json`` at the repository root.

What the numbers mean: the *overlap factor* controls how many distinct
facilities the 64 requests draw from (overlap 0 → every evaluate names
its own facility; overlap 0.9 → ~6 facilities serve the whole batch).
Overlapping requests share probe units, so the service coalesces them:
later requests ride the masks and match sets the first request for
each unit computed, and ``dedup_rate`` reports the fraction of planned
probe units served that way.  ``service_seconds`` vs
``sequential_seconds`` compares the concurrent service schedule to the
same requests called synchronously in submission order against an
identically configured runtime — on a single-core box the service can
only add scheduling overhead on disjoint workloads (the parity checks
are the point there); the coalescing win shows up as overlap grows and
on multi-core hosts, whose fingerprint the ``host`` block records.

The **batched leg** measures cross-request batching
(``ServiceConfig.batch_window``): 64 concurrent *distinct* evaluate
requests (ENDPOINT/COUNT alternating — the batch-eligible models) at
each overlap factor, with the window off and on.  Before any timing,
the harness asserts bit-identical values between the two settings
*and* the exactly-merged stats contract — the batched per-request
``QueryStats`` summed over the wave equal one sequential
:class:`~repro.engine.BatchQueryEngine` pass over the same requests,
bit for bit.  The acceptance bar (``claim.batched_speedup_at_overlap0
>= 2``) is asserted in-harness: at overlap 0 coalescing finds nothing
to dedup (every facility is distinct), so the entire win is the merge
— one shared probe-block pass instead of 64 tree walks.

``--smoke`` runs a miniature of both legs (parity asserts included,
no report written) so CI exercises the batched path on every push.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

import pytest

from repro.bench.harness import WorkloadFactory, host_metadata, time_call
from repro.core.config import (
    ProximityBackend,
    RuntimeConfig,
    ServiceConfig,
)
from repro.core.service import ServiceModel, ServiceSpec
from repro.core.stats import QueryStats
from repro.engine.batch import BatchQueryEngine
from repro.queries.evaluate import evaluate_service
from repro.queries.kmaxrrst import top_k_facilities
from repro.queries.maxkcov import maxkcov_tq
from repro.runtime import QueryRuntime
from repro.service import (
    EvaluateRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryService,
)

from .conftest import run_once

#: The acceptance workload.
N_REQUESTS = 64
OVERLAP_FACTORS = (0.0, 0.5, 0.9)
PSI = 300.0
_N_USERS = 1_500
_N_FACILITY_POOL = 64
_N_STOPS = 24
_MODELS = (ServiceModel.COUNT, ServiceModel.ENDPOINT, ServiceModel.LENGTH)

#: The batched leg: window long enough that a wave registering in one
#: event-loop tick forms one group, short enough to stay invisible
#: next to the work it merges.
BATCH_WINDOW = 0.005
_BATCH_MODELS = (ServiceModel.ENDPOINT, ServiceModel.COUNT)


def _runtime() -> QueryRuntime:
    return QueryRuntime(
        RuntimeConfig(
            backend=ProximityBackend.GRID, shards=0, max_workers=None,
        )
    )


def _requests(tree, facilities, n_requests: int, overlap: float):
    """A mixed batch whose facility reuse is set by ``overlap``.

    ``overlap`` is the fraction of requests that re-use a facility
    another request in the batch also names: the evaluate requests draw
    round-robin from a pool of ``round(n * (1 - overlap))`` facilities.
    The final two requests are a kMaxRRST and a MaxkCov over the first
    eight facilities, so every batch mixes all request shapes.
    """
    n_evaluate = n_requests - 2
    pool_size = max(1, round(n_evaluate * (1.0 - overlap)))
    pool = [facilities[i % len(facilities)] for i in range(pool_size)]
    requests = [
        EvaluateRequest(
            tree,
            pool[i % pool_size],
            ServiceSpec(_MODELS[i % len(_MODELS)], psi=PSI),
        )
        for i in range(n_evaluate)
    ]
    head = tuple(facilities[:8])
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=PSI)
    requests.append(KMaxRRSTRequest(tree, head, 3, spec))
    requests.append(MaxKCovRequest(tree, head, 2, spec))
    return requests


def _sequential(requests, runtime):
    """The direct synchronous calls, submission order, shared runtime."""
    values = []
    for req in requests:
        if isinstance(req, EvaluateRequest):
            values.append(
                evaluate_service(
                    req.tree, req.facility, req.spec, runtime=runtime
                )
            )
        elif isinstance(req, KMaxRRSTRequest):
            values.append(
                top_k_facilities(
                    req.tree, req.facilities, req.k, req.spec, runtime=runtime
                ).ranking
            )
        else:
            result = maxkcov_tq(
                req.tree, req.facilities, req.k, req.spec,
                req.prune_factor, runtime=runtime,
            )
            values.append((result.facility_ids(), result.combined_service))
    return values


def _service_values(results):
    values = []
    for res in results:
        if isinstance(res.request, EvaluateRequest):
            values.append(res.value)
        elif isinstance(res.request, KMaxRRSTRequest):
            values.append(res.value.ranking)
        else:
            values.append(
                (res.value.facility_ids(), res.value.combined_service)
            )
    return values


def _drive(requests, runtime, batch_window: float = 0.0):
    async def main():
        async with QueryService(
            runtime,
            ServiceConfig(
                max_in_flight=8, queue_depth=max(N_REQUESTS, len(requests)),
                batch_window=batch_window,
            ),
        ) as service:
            results = await service.run(requests)
            return results, service.stats

    return asyncio.run(main())


# ----------------------------------------------------------------------
# the batched leg
# ----------------------------------------------------------------------
def _distinct_evaluates(tree, facilities, n_requests: int, overlap: float):
    """``n_requests`` evaluate requests alternating the batch-eligible
    models (ENDPOINT, COUNT), facility reuse set by ``overlap`` exactly
    as in :func:`_requests` — at overlap 0 every request names its own
    facility, so coalescing finds nothing and any win is the merge."""
    pool_size = max(1, round(n_requests * (1.0 - overlap)))
    pool = [facilities[i % len(facilities)] for i in range(pool_size)]
    return [
        EvaluateRequest(
            tree,
            pool[i % pool_size],
            ServiceSpec(_BATCH_MODELS[i % len(_BATCH_MODELS)], psi=PSI),
        )
        for i in range(n_requests)
    ]


def _assert_batched_parity(tree, requests, batched_results, plain_results,
                           batched_stats):
    """The acceptance checks that precede any timing claim.

    * values: the batched schedule answers bit-identically to
      ``batch_window=0`` (which the differential suite in turn holds to
      the synchronous cores);
    * stats: the batched per-request ``QueryStats`` are an exact split
      — summed over the wave they equal one sequential
      :class:`BatchQueryEngine` pass over the same requests, bit for
      bit;
    * accounting: every unit landed in ``probe_units_batched`` and the
      outcome-sum invariant held.
    """
    batched_values = [r.value for r in batched_results]
    plain_values = [r.value for r in plain_results]
    if batched_values != plain_values:
        raise AssertionError(
            "batched values diverge from batch_window=0 values"
        )
    with _runtime() as runtime:
        engine = BatchQueryEngine(tuple(tree.trajectories()), runtime=runtime)
        sequential_pass = QueryStats()
        for req in requests:
            engine.query(req.facility, req.spec, sequential_pass)
    merged = QueryStats()
    for res in batched_results:
        merged.merge(res.stats)
    if merged != sequential_pass:
        raise AssertionError(
            "batched per-request stats do not merge to the sequential "
            f"engine pass: {merged} != {sequential_pass}"
        )
    if batched_stats.probe_units_batched != len(requests):
        raise AssertionError(
            f"expected all {len(requests)} units batched, got "
            f"{batched_stats.probe_units_batched}"
        )
    outcomes = (
        batched_stats.requests_completed
        + batched_stats.requests_failed
        + batched_stats.requests_cancelled
    )
    if outcomes != batched_stats.requests_submitted:
        raise AssertionError("outcome-sum invariant broke under batching")


def _batched_leg(tree, facilities, n_requests: int, repeats: int) -> list:
    """Measure batch_window off vs on at every overlap factor; parity
    and the stats contract are asserted before each timing pair."""
    rows = []
    for overlap in OVERLAP_FACTORS:
        requests = _distinct_evaluates(tree, facilities, n_requests, overlap)
        with _runtime() as runtime:
            plain_results, _ = _drive(requests, runtime)
        with _runtime() as runtime:
            batched_results, batched_stats = _drive(
                requests, runtime, batch_window=BATCH_WINDOW
            )
        _assert_batched_parity(
            tree, requests, batched_results, plain_results, batched_stats
        )

        def plain_pass():
            with _runtime() as runtime:
                return _drive(requests, runtime)

        def batched_pass():
            with _runtime() as runtime:
                return _drive(requests, runtime, batch_window=BATCH_WINDOW)

        _, plain_s = time_call(plain_pass, repeats=repeats)
        _, batched_s = time_call(batched_pass, repeats=repeats)
        rows.append(
            {
                "overlap": overlap,
                "n_requests": n_requests,
                "batch_window": BATCH_WINDOW,
                "unbatched_seconds": plain_s,
                "batched_seconds": batched_s,
                "batched_vs_unbatched": plain_s / batched_s,
                "batched_throughput_rps": n_requests / batched_s,
                "probe_units_batched": batched_stats.probe_units_batched,
                "answers_equal": True,
                "stats_exactly_merged": True,
            }
        )
    return rows


@pytest.mark.engine_smoke
@pytest.mark.parametrize("overlap", OVERLAP_FACTORS)
def test_service_smoke_sweep(benchmark, factory, overlap):
    """Small smoke series so CI sees the service path regularly."""
    users = factory.taxi_users(0.1)
    tree = factory.tq_tree(users)
    facilities = factory.facilities(16, 12)
    requests = _requests(tree, facilities, 16, overlap)

    def fn():
        with _runtime() as runtime:
            results, _ = _drive(requests, runtime)
        return len(results)

    run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "service", "series": f"overlap{overlap}"})


@pytest.mark.engine_smoke
def test_service_batched_smoke(benchmark, factory):
    """The batched path under CI: parity + exactly-merged stats on a
    miniature distinct-evaluate wave."""
    users = factory.taxi_users(0.1)
    tree = factory.tq_tree(users)
    facilities = factory.facilities(16, 12)
    requests = _distinct_evaluates(tree, facilities, 16, 0.0)

    def fn():
        with _runtime() as runtime:
            plain, _ = _drive(requests, runtime)
        with _runtime() as runtime:
            batched, stats = _drive(
                requests, runtime, batch_window=BATCH_WINDOW
            )
        _assert_batched_parity(tree, requests, batched, plain, stats)
        return len(batched)

    run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "service", "series": "batched"})


def smoke() -> None:
    """CI's miniature: both legs, all parity asserts, no report.

    Small enough for every push (16 requests, one timing repeat); the
    values/stats assertions are identical to the full harness, so the
    batched path is held to the full contract even here — only the
    timing bar is left to the full run.
    """
    factory = WorkloadFactory()
    users = factory.taxi_users(0.1)
    tree = factory.tq_tree(users)
    facilities = factory.facilities(16, 12)
    requests = _requests(tree, facilities, 16, 0.5)
    with _runtime() as runtime:
        expected = _sequential(requests, runtime)
    with _runtime() as runtime:
        results, _ = _drive(requests, runtime)
    if _service_values(results) != expected:
        raise AssertionError("smoke: service answers diverge from direct calls")
    rows = _batched_leg(tree, facilities, n_requests=16, repeats=1)
    for row in rows:
        print(
            f"  smoke overlap={row['overlap']}: batched "
            f"{row['batched_seconds']*1e3:.1f}ms vs unbatched "
            f"{row['unbatched_seconds']*1e3:.1f}ms "
            f"({row['batched_vs_unbatched']:.2f}x), parity ok"
        )
    print("smoke ok: parity + exactly-merged stats held on both legs")


def main(out_path: str = None) -> dict:
    """Measure the sweep, verify parity, write ``BENCH_service.json``."""
    factory = WorkloadFactory()
    users = factory.taxi_users(_N_USERS / 12_000)
    tree = factory.tq_tree(users)
    facilities = factory.facilities(_N_FACILITY_POOL, _N_STOPS)
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": len(users),
            "n_requests": N_REQUESTS,
            "facility_pool": _N_FACILITY_POOL,
            "n_stops": _N_STOPS,
            "psi": PSI,
            "mix": "evaluate x3 models + kMaxRRST + MaxkCov",
        },
        "rows": [],
    }
    for overlap in OVERLAP_FACTORS:
        requests = _requests(tree, facilities, N_REQUESTS, overlap)

        # parity first: the service answers must equal the direct calls
        with _runtime() as runtime:
            expected = _sequential(requests, runtime)
        with _runtime() as runtime:
            results, service_stats = _drive(requests, runtime)
        got = _service_values(results)
        if got != expected:
            raise AssertionError(
                f"service answers diverge from direct calls at "
                f"overlap={overlap}"
            )

        # timing: fresh runtime per pass so each leg pays its own masks
        def sequential_pass():
            with _runtime() as runtime:
                return _sequential(requests, runtime)

        def service_pass():
            with _runtime() as runtime:
                return _drive(requests, runtime)

        _, sequential_s = time_call(sequential_pass, repeats=3)
        _, service_s = time_call(service_pass, repeats=3)
        report["rows"].append(
            {
                "overlap": overlap,
                "n_requests": N_REQUESTS,
                "sequential_seconds": sequential_s,
                "service_seconds": service_s,
                "service_vs_sequential": sequential_s / service_s,
                "throughput_rps": N_REQUESTS / service_s,
                "probe_units_planned": service_stats.probe_units_planned,
                "probe_units_coalesced": service_stats.probe_units_coalesced,
                "dedup_rate": service_stats.dedup_rate,
                "answers_equal": True,
            }
        )
    report["batched_rows"] = _batched_leg(
        tree, facilities, N_REQUESTS, repeats=3
    )
    overlap0 = next(
        r for r in report["batched_rows"] if r["overlap"] == 0.0
    )
    # the acceptance bar, asserted in-harness: parity above already
    # held, so this number is honest before it is ever written down
    if overlap0["batched_vs_unbatched"] < 2.0:
        raise AssertionError(
            "batched leg under the 2x acceptance bar at overlap 0: "
            f"{overlap0['batched_vs_unbatched']:.2f}x"
        )
    target = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_service.json"
    )
    report["claim"] = {
        "description": (
            "asyncio QueryService vs direct synchronous calls, 64 "
            "concurrent mixed requests per batch; answers verified "
            "equal in-harness for every row; dedup_rate is the "
            "fraction of probe units served from coalesced in-flight "
            "work.  batched_rows compare batch_window on/off over 64 "
            "concurrent distinct evaluate requests: values bit-"
            "identical and per-request stats exactly merging to one "
            "sequential BatchQueryEngine pass are asserted in-harness "
            "before timing, and the >=2x bar at overlap 0 is asserted "
            "in-harness too"
        ),
        "dedup_rate_by_overlap": {
            str(r["overlap"]): r["dedup_rate"] for r in report["rows"]
        },
        "throughput_rps_range": [
            min(r["throughput_rps"] for r in report["rows"]),
            max(r["throughput_rps"] for r in report["rows"]),
        ],
        "batched_speedup_by_overlap": {
            str(r["overlap"]): r["batched_vs_unbatched"]
            for r in report["batched_rows"]
        },
        "batched_speedup_at_overlap0": overlap0["batched_vs_unbatched"],
    }
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")
    for r in report["rows"]:
        print(
            f"  overlap={r['overlap']}: service {r['service_seconds']*1e3:.1f}ms "
            f"({r['throughput_rps']:.0f} req/s, "
            f"{r['service_vs_sequential']:.2f}x vs sequential), "
            f"dedup {r['probe_units_coalesced']}/{r['probe_units_planned']} "
            f"({r['dedup_rate']:.2f})"
        )
    for r in report["batched_rows"]:
        print(
            f"  batched overlap={r['overlap']}: "
            f"{r['batched_seconds']*1e3:.1f}ms vs "
            f"{r['unbatched_seconds']*1e3:.1f}ms unbatched "
            f"({r['batched_vs_unbatched']:.2f}x, "
            f"{r['batched_throughput_rps']:.0f} req/s)"
        )
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="report path override")
    parser.add_argument(
        "--smoke", action="store_true",
        help="miniature run with full parity asserts and no report "
        "(CI's per-push exercise of the batched path)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
    else:
        main(out_path=args.out)
