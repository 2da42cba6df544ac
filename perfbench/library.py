"""The two paper workloads: direct library calls, closed loop, one
caller thread, one default ``QueryRuntime``."""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import (
    QueryRuntime,
    brute_force_service,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
)

from . import layers
from . import spec as S
from .calibrate import Calibrator
from .inputs import Inputs, Op
from .measure import peak_rss_mb, slo_miss_share
from .targets import LibraryTarget
from .trace import SpanTable, Tracer


def builders(workload: str) -> Tuple[Dict[str, Callable], Dict[str, Callable]]:
    """Per tree name: the TQ(Z) builder the workload runs on and the
    TQ(B) twin its reference leg compares against."""
    if workload == "paper_multipoint":
        return (
            {"gps": build_segmented, "chk": build_full},
            {
                "gps": lambda users: build_segmented(users, use_zorder=False),
                "chk": lambda users: build_full(users, use_zorder=False),
            },
        )
    # serving workloads verify against the tree the server builds at
    # its shipped default, beta=32; paper_cold uses the paper's 64
    beta = 64 if workload == "paper_cold" else 32
    return (
        {"main": lambda users: build_tq_zorder(users, beta=beta)},
        {"main": lambda users: build_tq_basic(users, beta=beta)},
    )


def build_trees(inputs: Inputs) -> Tuple[Dict[str, object], float, float]:
    """Inputs in memory -> trees ready for the first op.  Returns
    ``(trees, build seconds, z-index warm-up seconds)``."""
    zorder, _basic = builders(inputs.workload)
    t0 = perf_counter()
    trees = {name: zorder[name](inputs.users[name]) for name in inputs.users}
    t1 = perf_counter()
    for tree in trees.values():
        tree.warm_zindex()
    return trees, t1 - t0, perf_counter() - t1


def run_schedule(
    target: LibraryTarget,
    schedule: List[Op],
    seconds: float,
    calibrator: Calibrator,
    begin_op: Callable = None,
) -> Tuple[List[float], List[object], float]:
    """Closed loop, one caller: per-op latency (ms), answers, wall (s)
    without the time the calibration kernel took between ops."""
    latencies, answers = [], []
    deadline = S.deadline_s(seconds)
    calibrating = calibrator.spent_s
    start = perf_counter()
    for i, op in enumerate(schedule):
        calibrator.maybe_sample()
        if begin_op is not None:
            begin_op(i)
        t0 = perf_counter()
        answers.append(target.execute(op))
        t1 = perf_counter()
        latencies.append((t1 - t0) * 1e3)
        if t1 - start > deadline:
            break
    return latencies, answers, perf_counter() - start - (calibrator.spent_s - calibrating)


def check_oracle(inputs: Inputs, answers: List[object], seed: int) -> Tuple[int, int]:
    """A seeded share of the evaluate answers against the brute-force
    oracle.  Returns ``(checked, wrong)``."""
    done = [i for i, op in enumerate(inputs.schedule[: len(answers)]) if op.kind == "evaluate"]
    rng = np.random.default_rng([seed, 9])
    picked = rng.choice(done, size=max(1, round(len(done) * S.ORACLE_SHARE)), replace=False)
    wrong = 0
    for i in picked:
        op = inputs.schedule[i]
        for (tree, spec_i), got in zip(op.parts, answers[i]):
            want = brute_force_service(
                inputs.users[tree], inputs.pool[op.fids[0]], inputs.specs[spec_i]
            )
            wrong += not layers.same_answer(got, want, layers.is_exact(inputs, spec_i))
    return len(picked), wrong


def by_kind(schedule: List[Op], latencies: List[float]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {op: [] for op in S.OPS}
    for op, ms in zip(schedule, latencies):
        out[op.kind].append(ms)
    return out


def trace_overhead(prefix: List[Op], plain_ms: List[float], traced_ms: List[float]) -> float:
    """Median evaluate latency of the traced pass over the untraced
    pass's, minus 1, on the ops both passes ran first (medians, because
    one slow moment of the host would swamp a sum)."""
    picked = [i for i, op in enumerate(prefix[: len(plain_ms)]) if op.kind == "evaluate"]
    plain = median([plain_ms[i] for i in picked])
    traced = median([traced_ms[i] for i in picked if i < len(traced_ms)])
    return traced / plain - 1.0


def run(inputs: Inputs, seed: int, seconds: float, trace: bool, setup_reps: int) -> dict:
    cfg = S.WORKLOADS[inputs.workload]
    calibrator = Calibrator()
    setups = []
    for _ in range(1 if trace else setup_reps):
        calibrator.burst()
        t0 = perf_counter()
        trees, build_s, warm_s = build_trees(inputs)
        runtime = QueryRuntime()
        setups.append(perf_counter() - t0)
    result: dict = {"notes": [], "missing_symbols": [], "calibrator": calibrator}

    if not trace:
        with runtime:
            target = LibraryTarget(trees, inputs.pool, inputs.specs, runtime)
            latencies, answers, wall = run_schedule(target, inputs.schedule, seconds, calibrator)
        rss = peak_rss_mb(os.getpid())
        lat = by_kind(inputs.schedule, latencies)
        checked, wrong = check_oracle(inputs, answers, seed)
        result.update(
            attempted=len(inputs.schedule),
            failed=wrong + (len(inputs.schedule) - len(answers)),
            latencies=lat,
            values={
                "setup_s": median(setups),
                "throughput_ops_s": len(answers) / wall,
                "peak_rss_mb": rss,
            },
            checked={"oracle": checked},
        )
        return result

    # --- traced run -----------------------------------------------------
    # tracing overhead: the first eighth of the schedule untraced, from a
    # cold runtime, against the same ops of the traced pass
    prefix = inputs.schedule[: max(8, len(inputs.schedule) // 8)]
    with runtime:
        plain = LibraryTarget(trees, inputs.pool, inputs.specs, runtime)
        plain_lat, _answers, _wall = run_schedule(plain, prefix, seconds, calibrator)
    tracer = Tracer()
    tracer.install()
    with QueryRuntime() as runtime:
        target = LibraryTarget(trees, inputs.pool, inputs.specs, runtime, span=tracer.call)
        latencies, answers, wall = run_schedule(
            target, inputs.schedule, seconds, calibrator, begin_op=tracer.begin_op
        )
        qstats = runtime.snapshot_stats()
        store = runtime.snapshot_store_stats()
        cache = {"hits": runtime.cache.hits, "misses": runtime.cache.misses}
    work = SpanTable(tracer.spans)
    tracer.spans = []
    lat = by_kind(inputs.schedule, latencies)
    checked, wrong = check_oracle(inputs, answers, seed)
    n_ops = len(answers)

    missing = tracer.missing
    metrics, legs_checked, legs_wrong, sstats = layers.traced_legs(
        inputs, trees, build_s, warm_s, builders(inputs.workload)[1], missing
    )
    # the in-process QueryService leg is the only service this workload has
    metrics.update(layers.service_metrics(SpanTable(tracer.spans), sstats))
    metrics.update(layers.counter_metrics(n_ops, qstats, cache, store, work))
    metrics.update(layers.query_self_metrics(work, layers.LIBRARY_SPANS))
    failed = wrong + legs_wrong + (len(inputs.schedule) - len(answers))
    metrics.update(
        {
            "bench.trace_overhead_share": trace_overhead(prefix, plain_lat, latencies),
            "bench.slo_miss_share": slo_miss_share(lat, cfg["slo_ms"], len(inputs.schedule)),
            "bench.failed_share": failed / len(inputs.schedule),
        }
    )
    result.update(
        attempted=len(inputs.schedule),
        failed=failed,
        latencies=lat,
        values=metrics,
        checked={"oracle": checked, **legs_checked},
        missing_symbols=missing,
    )
    return result
