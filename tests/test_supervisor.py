"""Differential suite for the prefork scale-out supervisor (PR 9).

The contract extends the HTTP suite one level out: the *process model*
never changes an answer or a counter.  For all five query types, the
decoded answers — value, per-request stats, match sets — from a
multi-worker prefork pool must be ``==`` to the wire projection of the
in-process :class:`repro.service.QueryService` for the identical
request sequence, across worker counts {1, 2, 4}, both ``fork`` and
``spawn`` start methods, with a batch window open, and across a
mid-run worker crash + respawn.  On top of parity: the aggregated
``/stats`` outcome-sum invariant under concurrent multi-worker load,
the zero-copy evidence when serving a ``store:<dir>`` catalog (mmap
paths on every worker, zero shared-memory segments), client GET
retry across a worker restart, and ephemeral ports throughout (no
fixed-port collisions anywhere in this file).

Sequential submissions go through :class:`ShardedServeClient`: its
consistent-hash affinity pins every request for one (tree, facility
set) pair to one worker, so per-request stats are bit-identical to the
single-process sequence — the same determinism argument the in-process
suite relies on, surviving the fan-out.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import (
    ProximityBackend,
    QueryRuntime,
    QueryService,
    RuntimeConfig,
    ServiceConfig,
)
from repro.core.config import HttpConfig
from repro.service.http import (
    ServeClient,
    ShardedServeClient,
    Supervisor,
    background_server,
    catalog_from_spec,
    wire_result,
)
from repro.service.http import wire

PSI = 400.0
SPEC = {"model": "endpoint", "psi": PSI}
COUNT_SPEC = {"model": "count", "psi": PSI}
LENGTH_SPEC = {"model": "length", "psi": PSI}

#: The catalog every leg serves, as a *spec* (spawn-mode workers
#: re-resolve it by string, so the oracle must build from the same
#: grammar — build_demo_catalog is deterministic, pinned by test_http).
CATALOG_SPEC = "demo:300:10:12:7"

RUNTIME_CONFIG = RuntimeConfig(
    backend=ProximityBackend.GRID, shards=2, max_workers=2
)
SERVICE_CONFIG = ServiceConfig(max_in_flight=4, queue_depth=64)

START_METHODS = ("fork", "spawn")


def _http_config(n_workers: int, start_method=None, **overrides) -> HttpConfig:
    kwargs = dict(
        port=0, catalog=CATALOG_SPEC, workers=n_workers,
        start_method=start_method, runtime=RUNTIME_CONFIG,
        service=SERVICE_CONFIG,
    )
    kwargs.update(overrides)
    return HttpConfig(**kwargs)


def _payloads():
    """One wire request per query type, plus a duplicate evaluate (the
    coalescer-replay case), in a fixed submission order — the same
    shape the single-process differential suite pins."""
    return [
        {"type": "evaluate", "tree": "demo", "facility_set": "demo",
         "facility_id": 0, "spec": COUNT_SPEC},
        {"type": "evaluate", "tree": "demo", "facility_set": "demo",
         "facility_id": 1, "spec": LENGTH_SPEC, "collect_matches": True},
        {"type": "evaluate", "tree": "demo", "facility_set": "demo",
         "facility_id": 0, "spec": COUNT_SPEC},  # duplicate
        {"type": "kmaxrrst", "tree": "demo", "facility_set": "demo",
         "k": 3, "spec": SPEC},
        {"type": "maxkcov", "tree": "demo", "facility_set": "demo",
         "k": 2, "spec": SPEC, "prune_factor": 4},
        {"type": "exact", "tree": "demo", "facility_set": "demo",
         "facility_ids": [0, 1, 2, 3], "k": 2, "spec": SPEC},
        {"type": "genetic", "tree": "demo", "facility_set": "demo",
         "facility_ids": [0, 1, 2, 3], "k": 2, "spec": SPEC,
         "config": {"seed": 3, "iterations": 5, "population_size": 8}},
    ]


@pytest.fixture(scope="module")
def expected():
    """The in-process QueryService's answers for the sequence, through
    the wire codecs — what any worker count must reproduce exactly."""
    catalog = catalog_from_spec(CATALOG_SPEC)
    requests = [wire.decode_request(p, catalog) for p in _payloads()]

    async def drive():
        with QueryRuntime(RUNTIME_CONFIG) as runtime:
            async with QueryService(runtime, SERVICE_CONFIG) as service:
                results = []
                for request in requests:  # sequential, like one socket
                    results.append(await service.submit(request))
                return results

    return [wire_result(r) for r in asyncio.run(drive())]


def _wait_for_respawn(supervisor: Supervisor, n_respawns: int,
                      timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (supervisor.respawns >= n_respawns
                and len(supervisor.worker_table()) == supervisor.config.workers):
            return
        time.sleep(0.05)
    raise AssertionError(
        f"worker pool did not respawn within {timeout}s "
        f"(respawns={supervisor.respawns})"
    )


class TestDifferentialAcrossWorkers:
    def test_single_process_is_the_oracle(self, expected):
        """workers=1 (the classic server) over the same catalog spec —
        the base case of the {1, 2, 4} matrix."""
        catalog = catalog_from_spec(CATALOG_SPEC)
        with background_server(
            catalog, runtime_config=RUNTIME_CONFIG,
            service_config=SERVICE_CONFIG,
        ) as h:
            with ServeClient(h.host, h.port) as client:
                got = [client.query(p) for p in _payloads()]
        assert got == expected

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("n_workers", (2, 4))
    def test_pool_bit_identical_to_single_process(
        self, expected, n_workers, start_method
    ):
        """All five query types, answers AND per-request stats, across
        the full worker x start-method matrix."""
        config = _http_config(n_workers, start_method)
        with Supervisor(config) as supervisor:
            host, port = supervisor.address
            assert port != 0  # ephemeral port resolved to a real one
            assert supervisor.start_method == start_method
            assert len(supervisor.worker_table()) == n_workers
            with ShardedServeClient(host, port) as client:
                got = [client.query(p) for p in _payloads()]
                # every worker resolved the same catalog spec (the
                # spawn path re-opens it by string)
                assert client.catalog()["spec"] == CATALOG_SPEC
        assert got == expected
        assert {r.type for r in got} == {
            "evaluate", "kmaxrrst", "maxkcov", "exact", "genetic"
        }

    def test_batch_window_pool_matches_single_process(self):
        """A pipelined submit_many wave with the server batch window
        open: the pool's answers and per-request stats must equal the
        single-process server's for the identical wave (affinity keeps
        the wave contiguous on one worker, so the window sees the same
        back-to-back arrivals)."""
        service_config = ServiceConfig(
            max_in_flight=4, queue_depth=64, batch_window=0.005
        )
        wave = [
            {"type": "evaluate", "tree": "demo", "facility_set": "demo",
             "facility_id": i % 10,
             "spec": COUNT_SPEC if i % 2 else SPEC}
            for i in range(16)
        ]
        catalog = catalog_from_spec(CATALOG_SPEC)
        with background_server(
            catalog, runtime_config=RUNTIME_CONFIG,
            service_config=service_config,
        ) as h:
            with ServeClient(h.host, h.port) as client:
                single = client.submit_many(wave)
        config = _http_config(2, "fork", service=service_config)
        with Supervisor(config) as supervisor:
            host, port = supervisor.address
            with ShardedServeClient(host, port) as client:
                pooled = client.submit_many(wave)
        assert pooled == single  # values AND stats, in wave order

    def test_kill_and_respawn_mid_run_keeps_parity(self, expected):
        """Crash the affinity worker between requests: the monitor
        reaps and respawns it, the table rebroadcasts, and the rest of
        the sequence still decodes bit-identical to the single-process
        run."""
        payloads = _payloads()
        with Supervisor(_http_config(2, "fork")) as supervisor:
            host, port = supervisor.address
            with ShardedServeClient(host, port) as client:
                got = [client.query(p) for p in payloads[:3]]
                victim = client.route(payloads[3])
                old_pid = supervisor.kill_worker(victim)
                _wait_for_respawn(supervisor, 1)
                table = {p.index: p.pid for p in supervisor.worker_table()}
                assert table[victim] != old_pid  # same slot, new process
                got.extend(client.query(p) for p in payloads[3:])
        assert supervisor.respawns == 1
        assert got == expected


class TestAggregatedStats:
    def test_outcome_sum_invariant_under_concurrent_load(self):
        """The summed service counters across workers obey
        ``submitted == completed + failed + cancelled`` after a
        concurrent multi-client run over the shared front port, and
        account for every request the clients sent."""
        n_clients, per_client = 6, 5
        payloads = _payloads()
        with Supervisor(_http_config(2, "fork")) as supervisor:
            host, port = supervisor.address
            errors = []

            def hammer(slot: int) -> None:
                try:
                    with ServeClient(host, port) as client:
                        for i in range(per_client):
                            client.query(payloads[(slot + i) % len(payloads)])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with ServeClient(host, port) as client:
                service_stats, _ = client.stats()
                body = client.request("GET", "/stats").body
        assert service_stats.requests_submitted == n_clients * per_client
        assert service_stats.requests_submitted == (
            service_stats.requests_completed
            + service_stats.requests_failed
            + service_stats.requests_cancelled
        )
        assert service_stats.requests_failed == 0
        # the aggregation really covered every worker
        assert len(body["workers"]) == 2
        per_worker = [
            payload["service"]["requests_completed"]
            for payload in body["workers"].values()
        ]
        assert sum(per_worker) == service_stats.requests_completed


class TestZeroCopyStoreServing:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        from repro.service.http.catalog import build_store_catalog

        out = tmp_path_factory.mktemp("supervisor-store")
        build_store_catalog(
            str(out), source_spec=CATALOG_SPEC, psi_values=(PSI,),
            n_shards=2,
        )
        return str(out)

    def test_every_worker_serves_via_mmap_only(self, store_dir):
        """Serving ``store:<dir>`` with N workers must not copy index
        arrays per worker: once a worker has answered a query, its stats
        section lists the mmap-backed store files it probed through."""
        import dataclasses

        config = _http_config(
            2, "spawn", catalog=f"store:{store_dir}",
            runtime=dataclasses.replace(RUNTIME_CONFIG, store_dir=store_dir),
        )
        payload = {
            "type": "evaluate", "tree": "demo", "facility_set": "demo",
            "facility_id": 0, "spec": SPEC,
        }
        with Supervisor(config) as supervisor:
            for peer in supervisor.worker_table():  # its direct listener
                with ServeClient(peer.host, peer.port) as client:
                    client.query(payload)
            host, port = supervisor.address
            with ServeClient(host, port) as client:
                body = client.request("GET", "/stats").body
        sections = {
            index: entry["worker"] for index, entry in body["workers"].items()
        }
        assert len(sections) == 2
        for index, worker in sections.items():
            assert worker["mmap_paths"], (
                f"worker {index} reports no mmap-backed store files"
            )


class TestClientRetryAcrossRestart:
    def test_idempotent_get_survives_worker_crash(self):
        """A keep-alive GET whose worker dies mid-session reconnects
        and retries transparently (idempotent methods only — the
        non-idempotent POST semantics are pinned in the client suite)."""
        with Supervisor(_http_config(2, "fork")) as supervisor:
            host, port = supervisor.address
            with ServeClient(host, port) as client:
                local = client.request("GET", "/stats?scope=local").body
                mine = local["worker"]["index"]
                supervisor.kill_worker(mine)
                _wait_for_respawn(supervisor, 1)
                # the dead keep-alive surfaces on this GET; the client
                # must reconnect (landing on a live worker) and answer
                health = client.healthz()
        assert health["status"] in ("ok", "degraded")


class TestWorkerPoolShare:
    def test_unset_max_workers_resolves_to_one_workers_share(self, monkeypatch):
        """Each prefork worker builds its own runtime: on a 2-CPU host
        two workers left at ``max_workers=None`` must each get one
        thread's share — an inline runtime — not a machine-sized pool
        apiece; an explicit setting is the operator's and is kept."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        shared = Supervisor(_http_config(2, runtime=RuntimeConfig()))
        assert shared.config.runtime.max_workers == 1
        with QueryRuntime(shared.config.runtime) as rt:
            assert rt.executor is None
        explicit = Supervisor(_http_config(2, runtime=RuntimeConfig(max_workers=4)))
        assert explicit.config.runtime.max_workers == 4
