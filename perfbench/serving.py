"""The two serving workloads: CSV inputs -> ``python -m repro.store
build`` -> ``python -m repro.serve`` -> two keep-alive connections.

One server process (``--workers 1``) and this process as the load
generator with two connection threads — the reference host has two
cores.  ``serve_hot`` is a closed loop (each connection sends its next
op when the previous one returned); ``serve_burst`` is an open loop
(ops have seeded Poisson due times and latency counts from the due
time, so a stall is charged to every op it delays).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import QueryRuntime, ServeClient, save_facilities, save_trajectories

from . import layers
from . import spec as S
from .calibrate import Calibrator
from .inputs import Inputs, Op
from .library import build_trees, builders, by_kind, trace_overhead
from .measure import peak_rss_mb, percentile, slo_miss_share
from .targets import HttpTarget, LibraryTarget, payloads
from .trace import SpanTable, Tracer

#: Two blocking client threads share one interpreter, so a wake-up can
#: wait for the other thread's GIL slice: on the reference host the
#: timer oversleep is 0.2 ms at p50, 0.4 ms at p90 and 2-3 ms at p99.
#: A run whose p99 exceeds this is flagged.
GEN_LAG_LIMIT_MS = 5.0
_PORT_LINE = re.compile(r"serving on http://([\d.]+):(\d+)")


class Server:
    """One ``repro.serve`` process (through the tracing launcher when
    ``spans_path`` is given)."""

    def __init__(self, store_dir: str, serve_args, log_path: str, spans_path: Optional[str]):
        entry = ["-m", "repro.serve"]
        if spans_path is not None:
            entry = ["-m", "perfbench.launcher", spans_path]
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "--port", "0", "--workers", "1",
             "--catalog", f"store:{store_dir}", *serve_args],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                found = _PORT_LINE.search(fh.read())
            if found:
                host, port = found.group(1), int(found.group(2))
                with ServeClient(host, port) as client:
                    client.healthz()  # raises unless 200
                return host, port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path) as fh:
            raise RuntimeError(f"server did not come up:\n{fh.read()}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def build_store(csv_users: str, csv_routes: str, out_dir: str, cfg: dict) -> float:
    argv = [sys.executable, "-m", "repro.store", "build", "--out", out_dir,
            "--source", f"csv:{csv_users}:{csv_routes}", *cfg["store_args"]]
    for psi in cfg["store_psis"]:
        argv += ["--psi", repr(psi)]
    t0 = perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Outcome:
    __slots__ = ("latency_ms", "answer", "error", "lag_ms")

    def __init__(self):
        self.latency_ms = self.answer = self.error = self.lag_ms = None

    @property
    def answered(self) -> bool:
        """Issued (the deadline did not cut the run short) and no error."""
        return self.error is None and self.latency_ms is not None


def drive(
    server: Server,
    inputs: Inputs,
    schedule: List[Op],
    seconds: float,
    open_loop: bool,
    calibrator: Calibrator,
):
    """Issue ``schedule`` over the workload's keep-alive connections.
    Returns ``(outcomes aligned with schedule, wall seconds)``; the wall
    leaves out each connection's share of the calibration kernel's time
    (spent between ops, never inside a timed one)."""
    connections = S.WORKLOADS[inputs.workload]["connections"]
    outcomes = [Outcome() for _ in schedule]
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    deadline = S.deadline_s(seconds)
    calibrating = calibrator.spent_s
    start = perf_counter() + 0.05  # every connection thread is waiting by then

    def connection() -> None:
        target = HttpTarget(server.host, server.port, inputs.specs)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None or perf_counter() - start > deadline:
                    return
                op, out = schedule[i], outcomes[i]
                due = start + (op.due if open_loop else 0.0)
                # open loop: only with time to spare, or the kernel would
                # make this op late
                if not open_loop or due - perf_counter() > 0.01:
                    calibrator.maybe_sample()
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                t0 = perf_counter()
                if open_loop and wait > 0:
                    out.lag_ms = (t0 - due) * 1e3  # timer oversleep only
                try:
                    out.answer = target.execute(op)
                except Exception as exc:  # a failed op is a result, not a crash
                    out.error = repr(exc)
                out.latency_ms = (perf_counter() - (due if open_loop else t0)) * 1e3
        finally:
            target.close()

    threads = [threading.Thread(target=connection) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf_counter() - start
    if not open_loop:
        wall -= (calibrator.spent_s - calibrating) / connections
    return outcomes, wall


def verify(inputs: Inputs, trees: Dict[str, object], outcomes: List[Outcome]) -> Tuple[int, int]:
    """Recompute every answered op in-process and require ``==`` with
    the decoded wire answer.  Returns ``(checked, wrong or failed)``."""
    memo: Dict[tuple, object] = {}
    bad = 0
    with QueryRuntime() as rt:
        oracle = LibraryTarget(trees, inputs.pool, inputs.specs, rt)
        for op, out in zip(inputs.schedule, outcomes):
            if not out.answered:
                bad += 1
                continue
            key = op[:5]  # everything but the due time
            if key not in memo:
                memo[key] = oracle.execute(op)
            bad += memo[key] != out.answer
    return len(outcomes), bad


def latencies_of(schedule: List[Op], outcomes: List[Outcome]) -> Dict[str, List[float]]:
    done = [(op, out.latency_ms) for op, out in zip(schedule, outcomes) if out.answered]
    return by_kind([op for op, _ in done], [ms for _, ms in done])


# ----------------------------------------------------------------------
def run(inputs: Inputs, seed: int, seconds: float, trace: bool, setup_reps: int, workdir: str) -> dict:
    cfg = S.WORKLOADS[inputs.workload]
    open_loop = cfg["loop"] == "open"
    csv_users = os.path.join(workdir, "users.csv")
    csv_routes = os.path.join(workdir, "routes.csv")
    save_trajectories(inputs.users["main"], csv_users)
    save_facilities(inputs.pool, csv_routes)
    calibrator = Calibrator()
    result: dict = {"notes": [], "missing_symbols": [], "calibrator": calibrator}
    sent = len(inputs.schedule)

    if not trace:
        setups, server = [], None
        try:
            for rep in range(setup_reps):
                if server is not None:  # the previous repetition's deployment
                    server.stop()
                    shutil.rmtree(store_dir)
                store_dir = os.path.join(workdir, f"store{rep}")
                calibrator.burst()
                t0 = perf_counter()
                build_store(csv_users, csv_routes, store_dir, cfg)
                server = Server(
                    store_dir, cfg["serve_args"], os.path.join(workdir, f"serve{rep}.log"), None
                )
                setups.append(perf_counter() - t0)
            outcomes, wall = drive(server, inputs, inputs.schedule, seconds, open_loop, calibrator)
            rss = peak_rss_mb(server.proc.pid)
        finally:
            if server is not None:
                server.stop()
        trees, _build_s, _warm_s = build_trees(inputs)
        checked, bad = verify(inputs, trees, outcomes)
        lat = latencies_of(inputs.schedule, outcomes)
        result.update(
            attempted=sent,
            failed=bad,
            latencies=lat,
            values={
                "setup_s": median(setups),
                "throughput_ops_s": sum(len(v) for v in lat.values()) / wall,
                "peak_rss_mb": rss,
            },
            checked={"recomputed": checked},
        )
        return result

    # --- traced run -----------------------------------------------------
    store_dir = os.path.join(workdir, "store")
    store_build_s = build_store(csv_users, csv_routes, store_dir, cfg)
    prefix = inputs.schedule[: max(8, sent // 4)]
    server = Server(store_dir, cfg["serve_args"], os.path.join(workdir, "plain.log"), None)
    try:
        plain, _wall = drive(server, inputs, prefix, seconds, open_loop, calibrator)
    finally:
        server.stop()

    tracer = Tracer()
    tracer.install()  # this process: the client-side decode + the in-process legs
    spans_path = os.path.join(workdir, "server_spans.json")
    t0 = perf_counter()
    server = Server(store_dir, cfg["serve_args"], os.path.join(workdir, "traced.log"), spans_path)
    store_open_s = perf_counter() - t0
    try:
        outcomes, wall = drive(server, inputs, inputs.schedule, seconds, open_loop, calibrator)
        with ServeClient(server.host, server.port) as client:
            sstats, qstats = client.stats()
            store = client.store_stats()
            floor = []
            for _ in range(200):
                t0 = perf_counter()
                client.healthz()
                floor.append((perf_counter() - t0) * 1e3)
    finally:
        server.stop()
    client_table = SpanTable(tracer.spans)
    tracer.spans = []
    with open(spans_path) as fh:
        dumped = json.load(fh)
    server_table = SpanTable(dumped["spans"])
    missing = sorted(set(tracer.missing) | set(dumped["missing"]))

    trees, build_s, warm_s = build_trees(inputs)
    checked, bad = verify(inputs, trees, outcomes)
    lat = latencies_of(inputs.schedule, outcomes)
    n_ops = sum(len(v) for v in lat.values())
    metrics, legs_checked, legs_wrong, _local_stats = layers.traced_legs(
        inputs, trees, build_s, warm_s, builders(inputs.workload)[1], missing
    )

    # an op the server never answered reads as infinitely slow
    plain_ms = [o.latency_ms if o.answered else float("inf") for o in plain]
    traced_ms = [o.latency_ms if o.answered else float("inf") for o in outcomes]
    lags = [o.lag_ms for o in outcomes if o.lag_ms is not None]
    store_bytes = sum(
        os.path.getsize(os.path.join(store_dir, name)) for name in os.listdir(store_dir)
    )
    failed = bad + legs_wrong
    metrics.update(
        {
            "http.floor_p50_ms": median(floor),
            "http.gen_lag_p99_ms": percentile(lags, 99) if lags else 0.0,
            "store.build_s": store_build_s,
            "store.open_s": store_open_s,
            "store.bytes": store_bytes,
            "store.bytes_per_input_byte": store_bytes
            / (os.path.getsize(csv_users) + os.path.getsize(csv_routes)),
            "store.opened": store.opened,
            "store.verified": store.verified,
            "bench.trace_overhead_share": trace_overhead(prefix, plain_ms, traced_ms),
            "bench.slo_miss_share": slo_miss_share(lat, cfg["slo_ms"], sent),
            "bench.failed_share": failed / sent,
        }
    )
    metrics.update(layers.counter_metrics(n_ops, qstats, dumped["cache"], store, server_table))
    metrics.update(layers.query_self_metrics(server_table, layers.SERVER_SPANS))
    if not metrics["queries.evaluate_self_ms"] and server_table.count("engine.batch_query"):
        # every evaluate rode the batching tier: its core is the engine pass
        metrics["queries.evaluate_self_ms"] = server_table.self_ms(
            "engine.batch_query"
        ) / server_table.count("engine.batch_query")
    metrics.update(layers.service_metrics(server_table, sstats))
    metrics.update(_http_metrics(inputs, lat, client_table, server_table))
    result.update(
        attempted=sent,
        failed=failed,
        latencies=lat,
        values=metrics,
        checked={"recomputed": checked, **legs_checked},
        missing_symbols=missing,
    )
    if metrics["http.gen_lag_p99_ms"] > GEN_LAG_LIMIT_MS:
        result["notes"].append(
            f"load generator ran late: http.gen_lag_p99_ms > {GEN_LAG_LIMIT_MS} ms"
        )
    return result


def _http_metrics(
    inputs: Inputs, lat: Dict[str, List[float]], client: SpanTable, server: SpanTable
) -> Dict[str, float]:
    """``service.http``: codec time on both ends, bytes on the wire and
    what the socket adds on top of ``QueryService.submit``."""
    out: Dict[str, float] = {}
    request_bytes: Dict[str, List[int]] = {t: [] for t in layers.REQUEST_CLASS}
    for op in inputs.schedule:
        for body in payloads(op, inputs.specs):
            request_bytes[body["type"]].append(len(json.dumps(body)))
    for rtype, cls in layers.REQUEST_CLASS.items():
        decode = server.durations("http.decode_request", rtype)
        encode = server.durations("http.encode_result", rtype)
        client_decode = client.durations("http.client_decode", rtype)
        sizes = [tag[1] for tag in client.tags("http.client_decode") if tag[0] == rtype]
        submit = server.durations("service.submit", cls, kind=rtype)
        out[f"http.decode_request_us.{rtype}"] = layers.mean(decode) * 1e3
        out[f"http.encode_result_us.{rtype}"] = layers.mean(encode) * 1e3
        out[f"http.client_decode_us.{rtype}"] = layers.mean(client_decode) * 1e3
        out[f"http.request_bytes.{rtype}"] = layers.mean(request_bytes[rtype])
        out[f"http.response_bytes.{rtype}"] = layers.mean(sizes)
        out[f"http.overhead_ms.{rtype}"] = (
            median(lat[rtype]) - median(submit) if submit and lat[rtype] else 0.0
        )
    return out
