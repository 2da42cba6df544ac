"""Per-layer metrics: the traced run's legs and the table that turns
spans and public counters into the names ``BENCHMARK.json`` declares.

A layer is a ``src/repro`` package.  Which end-to-end metric each
layer metric should move, on which workload, is written down in
``perfbench/README.md`` before anything is measured.
"""

from __future__ import annotations

import asyncio
import math
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    BaselineIndex,
    EvaluateRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryRuntime,
    QueryService,
    ServiceModel,
    evaluate_service,
    maxkcov_baseline,
    maxkcov_tq,
    storage_report,
    top_k_facilities,
)

from . import spec as S
from .inputs import Inputs, Op
from .targets import LibraryTarget
from .trace import SpanTable

#: Wire request type -> the request dataclass it decodes to (a wave is
#: 16 evaluate requests).
REQUEST_CLASS = {
    "evaluate": "EvaluateRequest",
    "kmaxrrst": "KMaxRRSTRequest",
    "maxkcov": "MaxKCovRequest",
}


def same_answer(a, b, exact: bool) -> bool:
    """``==`` where the arithmetic is order-independent (ENDPOINT sums
    integers); otherwise equal to the last few ulps — two exact
    algorithms add the same fractions in different orders."""
    if exact:
        return a == b
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_answer(x, y, exact) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def is_exact(inputs: Inputs, spec_i: int) -> bool:
    return inputs.specs[spec_i].model is ServiceModel.ENDPOINT


def sample_ops(schedule: Sequence[Op], kind: str, share: float, at_least: int) -> List[Op]:
    ops = [op for op in schedule if op.kind == kind]
    return ops[: max(at_least, round(len(ops) * share))]


# ----------------------------------------------------------------------
# traced-run legs
# ----------------------------------------------------------------------
def reference_legs(
    inputs: Inputs, trees_z: Dict[str, object], basic_builders: Dict[str, Callable]
) -> Tuple[Dict[str, float], int, int]:
    """The paper's competitors on a twentieth of the ops: BL (point
    quadtree + range queries), TQ(B) and plain TQ(Z), one after the
    other on the same ops.  They move nothing end to end; they keep the
    paper's ordering claim on record and every answer must agree.
    Returns ``(metrics, answers compared, disagreements)``."""
    bl = {name: BaselineIndex.build(users) for name, users in inputs.users.items()}
    tqb = {name: basic_builders[name](inputs.users[name]) for name in inputs.users}
    lat: Dict[str, List[float]] = {}
    checked = wrong = 0

    def timed(key: str, fn: Callable, *args):
        t0 = perf_counter()
        out = fn(*args)
        lat.setdefault(key, []).append((perf_counter() - t0) * 1e3)
        return out

    # BL pays one range query per stop: an 8,192-stop network costs it
    # seconds per answer, so the legs skip ops that name one
    affordable = [
        op for op in inputs.schedule if all(inputs.pool[i].n_stops <= 1024 for i in op.fids)
    ]

    def parts(kind: str, at_least: int):
        for op in sample_ops(affordable, kind, 0.05, at_least):
            facilities = [inputs.pool[i] for i in op.fids]
            for tree, spec_i in op.parts:
                yield op, facilities, tree, inputs.specs[spec_i], is_exact(inputs, spec_i)

    for op, fs, tree, spec, exact in parts("evaluate", 10):
        answers = (
            timed("bl_evaluate", bl[tree].service_value, fs[0], spec),
            timed("tqb_evaluate", evaluate_service, tqb[tree], fs[0], spec),
            timed("tqz_evaluate", evaluate_service, trees_z[tree], fs[0], spec),
        )
        checked += 2
        wrong += sum(not same_answer(a, answers[2], exact) for a in answers[:2])
    for op, fs, tree, spec, exact in parts("kmaxrrst", 3):
        answers = [
            tuple(s.service for s in timed(key, fn, *args).ranking)
            for key, fn, args in (
                ("bl_kmaxrrst", bl[tree].top_k, (fs, op.k, spec)),
                ("tqb_kmaxrrst", top_k_facilities, (tqb[tree], fs, op.k, spec)),
                ("tqz_kmaxrrst", top_k_facilities, (trees_z[tree], fs, op.k, spec)),
            )
        ]
        checked += 2
        wrong += sum(not same_answer(a, answers[2], exact) for a in answers[:2])
    for op, fs, tree, spec, exact in parts("maxkcov", 2):
        a = timed("bl_maxkcov", maxkcov_baseline, bl[tree], inputs.users[tree], fs, op.k, spec)
        b = timed("tqz_maxkcov", maxkcov_tq, trees_z[tree], fs, op.k, spec)
        checked += 1
        wrong += not same_answer(a.combined_service, b.combined_service, exact)
    p50 = {key: median(values) for key, values in lat.items()}
    metrics = {
        f"queries.{key}_p50_ms": p50[key]
        for key in ("bl_evaluate", "tqb_evaluate", "bl_kmaxrrst", "tqb_kmaxrrst", "bl_maxkcov")
    }
    metrics["queries.tqz_over_bl_speedup"] = p50["bl_evaluate"] / p50["tqz_evaluate"]
    return metrics, checked, wrong


def service_overhead(
    inputs: Inputs, trees: Dict[str, object]
) -> Tuple[float, object, int, int]:
    """The same requests twice from cold, in the same order: direct
    library calls, then one at a time through an in-process
    ``QueryService``.  The median per-evaluate difference is what the
    serving layer costs before any socket is involved (the ROADMAP's
    0.89-0.93x anomaly).  Returns ``(overhead ms/request, ServiceStats,
    answers compared, disagreements)``."""
    ops = (
        sample_ops(inputs.schedule, "evaluate", 0.05, 20)
        + sample_ops(inputs.schedule, "kmaxrrst", 0.05, 3)
        + sample_ops(inputs.schedule, "maxkcov", 0.05, 2)
    )

    def timed(fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        return out, (perf_counter() - t0) * 1e3

    with QueryRuntime() as rt:
        direct = LibraryTarget(trees, inputs.pool, inputs.specs, rt)
        expected = [timed(direct.execute, op) for op in ops]

    def requests(op: Op):
        fs = tuple(inputs.pool[i] for i in op.fids)
        for tree_name, spec_i in op.parts:
            tree, spec = trees[tree_name], inputs.specs[spec_i]
            if op.kind == "evaluate":
                yield EvaluateRequest(tree, fs[0], spec)
            elif op.kind == "kmaxrrst":
                yield KMaxRRSTRequest(tree, fs, op.k, spec)
            else:
                yield MaxKCovRequest(tree, fs, op.k, spec)

    def normalised(op: Op, value):
        if op.kind == "kmaxrrst":
            return tuple((fs.facility.facility_id, fs.service) for fs in value.ranking)
        if op.kind == "maxkcov":
            return (value.facility_ids(), value.combined_service, value.users_fully_served)
        return value

    async def serve():
        async def action(service, op):
            return tuple([normalised(op, (await service.submit(r)).value) for r in requests(op)])

        with QueryRuntime() as rt:
            async with QueryService(rt) as service:
                served = []
                for op in ops:
                    t0 = perf_counter()
                    answer = await action(service, op)
                    served.append((answer, (perf_counter() - t0) * 1e3))
                return served, service.stats

    served, stats = asyncio.run(serve())
    wrong = sum(got != want for (got, _), (want, _) in zip(served, expected))
    extra_ms = [
        (s_ms - d_ms) / len(op.parts)
        for op, (_, s_ms), (_, d_ms) in zip(ops, served, expected)
        if op.kind == "evaluate"
    ]
    return median(extra_ms), stats, len(ops), wrong


def core_kernels(inputs: Inputs, missing: List[str]) -> Dict[str, float]:
    """Direct timed calls of the two ``core`` kernels on blocks taken
    from the workload: its first 4,096 user points against one of its
    facilities' stops."""
    out = {"core.psi_hit_ns_per_pair": 0.0, "core.morton_encode_ns_per_point": 0.0}
    users = next(iter(inputs.users.values()))
    pts = np.concatenate([u.coords for u in users])[:4096]
    stops = inputs.pool[0].stop_coords
    psi = inputs.specs[0].psi

    def best_of(fn: Callable, reps: int = 20) -> float:
        best = math.inf
        for _ in range(reps):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        return best

    try:
        from repro.core import psi_hit

        dx = pts[:, None, 0] - stops[None, :, 0]
        dy = pts[:, None, 1] - stops[None, :, 1]
        out["core.psi_hit_ns_per_pair"] = best_of(lambda: psi_hit(dx, dy, psi)) * 1e9 / dx.size
    except ImportError:
        missing.append("repro.core.psi_hit")
    try:
        from repro.core.zorder import morton_encode_array

        cells = np.floor(pts / S.CITY_SIZE * ((1 << 16) - 1)).astype(np.int64)
        ix, iy = cells[:, 0].copy(), cells[:, 1].copy()
        out["core.morton_encode_ns_per_point"] = (
            best_of(lambda: morton_encode_array(ix, iy, 16)) * 1e9 / len(ix)
        )
    except ImportError:
        missing.append("repro.core.zorder.morton_encode_array")
    return out


def io_blocks_per_evaluate(inputs: Inputs, trees: Dict[str, object], missing: List[str]) -> float:
    try:
        from repro.queries import estimate_query_blocks
    except ImportError:
        missing.append("repro.queries.estimate_query_blocks")
        return 0.0
    blocks = [
        estimate_query_blocks(trees[tree], inputs.pool[op.fids[0]], inputs.specs[spec_i]).total
        for op in sample_ops(inputs.schedule, "evaluate", 0.1, 10)
        for tree, spec_i in op.parts
    ]
    return sum(blocks) / len(blocks)


def traced_legs(
    inputs: Inputs,
    trees: Dict[str, object],
    build_s: float,
    warm_s: float,
    basic_builders: Dict[str, Callable],
    missing: List[str],
) -> Tuple[Dict[str, float], Dict[str, int], int, object]:
    """Everything the traced run measures with direct calls, the same
    for library and serving workloads.  Returns ``(metrics, answers
    compared per leg, disagreements, the in-process service's
    ServiceStats)``."""
    ref_metrics, ref_checked, ref_wrong = reference_legs(inputs, trees, basic_builders)
    overhead_ms, stats, svc_checked, svc_wrong = service_overhead(inputs, trees)
    metrics = {
        "index.build_s": build_s,
        "index.warm_zindex_s": warm_s,
        "index.nodes": sum(storage_report(tree).n_nodes for tree in trees.values()),
        "queries.io_blocks_per_evaluate": io_blocks_per_evaluate(inputs, trees, missing),
        "service.overhead_ms_per_request": overhead_ms,
    }
    metrics.update(ref_metrics)
    metrics.update(core_kernels(inputs, missing))
    checked = {"reference": ref_checked, "service": svc_checked}
    return metrics, checked, ref_wrong + svc_wrong, stats


# ----------------------------------------------------------------------
# spans + counters -> named metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def counter_metrics(
    n_ops: int, qstats, cache: Dict[str, int], store, work: SpanTable
) -> Dict[str, float]:
    """``index`` / ``queries`` / ``runtime`` / ``engine`` counters:
    ``qstats`` is the runtime's ``QueryStats`` total, ``cache`` the
    ``CoverageCache`` hits/misses, ``store`` the ``StoreStats``
    snapshot, ``work`` the spans of the process the queries ran in."""
    batch = work.durations("runtime.probe_masks_batch")
    return {
        "index.nodes_visited_per_op": qstats.nodes_visited / n_ops,
        "index.entries_scored_ratio": _ratio(qstats.entries_scored, qstats.entries_considered),
        "queries.states_pruned_ratio": _ratio(
            qstats.states_pruned, qstats.states_pruned + qstats.states_relaxed
        ),
        "runtime.probe_mask_calls_per_op": work.count("runtime.probe_mask") / n_ops,
        "runtime.probe_mask_self_ms_per_op": work.self_ms("runtime.probe_mask") / n_ops,
        "runtime.probe_points_per_op": sum(work.tags("runtime.probe_mask")) / n_ops,
        "runtime.stop_set_build_ms_per_op": work.total_ms("runtime.stop_set") / n_ops,
        "engine.cache_hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "engine.points_scanned_per_op": qstats.points_scanned / n_ops,
        "engine.distance_evals_per_op": qstats.distance_evals / n_ops,
        "engine.cells_probed_per_op": qstats.cells_probed / n_ops,
        "engine.evals_per_scanned_point": _ratio(qstats.distance_evals, qstats.points_scanned),
        "engine.store_grid_hit_ratio": _ratio(store.grid_hits, store.grid_hits + store.grid_misses),
        "engine.store_cellstring_hit_ratio": _ratio(
            store.cellstring_hits, store.cellstring_hits + store.cellstring_misses
        ),
        "engine.store_evictions": store.grid_evictions
        + store.shard_evictions
        + store.cellstring_evictions,
        "engine.cellstring_build_ms": work.total_ms("engine.cellstring_build"),
        "engine.batch_pass_ms": mean(batch),
    }


def service_metrics(table: SpanTable, stats) -> Dict[str, float]:
    """``service`` metrics from the spans of the process the
    ``QueryService`` ran in and its ``ServiceStats`` snapshot."""
    out = {
        f"service.submit_ms.{op}": mean(table.durations("service.submit", cls, kind=op))
        for op, cls in REQUEST_CLASS.items()
    }
    out.update(
        {
            "service.plan_ms": mean(table.durations("service.plan")),
            # submit's self time: its span minus planning and the core
            "service.queue_wait_ms": _ratio(
                table.self_ms("service.submit"), table.count("service.submit")
            ),
            "service.dedup_rate": stats.dedup_rate,
            "service.probe_units_planned": stats.probe_units_planned,
            "service.probe_units_coalesced": stats.probe_units_coalesced,
            "service.probe_units_batched": stats.probe_units_batched,
            "service.requests_failed": stats.requests_failed,
            "service.overload_rejects": stats.requests_rejected,
        }
    )
    return out


def query_self_metrics(table: SpanTable, span_of: Dict[str, Tuple[str, Optional[str]]]) -> Dict[str, float]:
    """``queries.<op>_self_ms``: mean self time (span minus child
    ``runtime.*`` spans) of the span that wraps each query core."""
    return {
        f"queries.{op}_self_ms": mean(table.selfs(name, tag, kind=op))
        for op, (name, tag) in span_of.items()
    }


LIBRARY_SPANS = {
    "evaluate": ("queries.evaluate", None),
    "kmaxrrst": ("queries.kmaxrrst", None),
    "maxkcov": ("queries.maxkcov", None),
}
SERVER_SPANS = {op: ("service.core", cls) for op, cls in REQUEST_CLASS.items()}


def fill_declared(metrics: Dict[str, float], declared: Sequence[str]) -> Dict[str, float]:
    """Exactly the declared names; a layer that is not on this
    workload's path (or whose entry point is gone) reads 0."""
    return {name: float(metrics.get(name, 0.0)) for name in declared}
