"""Differential suite for the stdlib HTTP serving front (ISSUE 5).

The contract extends PR 4's one level up the stack: the transport never
changes an answer or a counter.  For all three query types, the decoded
HTTP answer — value, per-request stats, match sets — must be ``==`` to
the wire projection of what the in-process
:class:`repro.service.QueryService` produces for the identical request
sequence against an identically configured runtime (and the service is
itself pinned to the synchronous functions by
``tests/test_query_service.py``, so the chain reaches the oracles).
On top of parity: the error mapping (400 / 404 / 405), malformed
framing over a raw socket (400 / 413, then a close), concurrent
clients, and graceful drain with its 503 + Retry-After.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import (
    ProximityBackend,
    QueryRuntime,
    QueryService,
    RuntimeConfig,
    ServiceConfig,
    TQTree,
    TQTreeConfig,
)
from repro.core.errors import CatalogError, QueryError, ServiceOverloaded
from repro.service.http import (
    Catalog,
    ServeClient,
    WorkerPeer,
    background_server,
    build_demo_catalog,
    catalog_from_spec,
    wire_result,
)
from repro.service.http import wire
from repro.service.http.server import (
    MAX_BODY_BYTES,
    RETRY_AFTER_SECONDS,
    _http_get_json,
)

from .conftest import GatedPlanner

PSI = 400.0
SPEC = {"model": "endpoint", "psi": PSI}
COUNT_SPEC = {"model": "count", "psi": PSI}
LENGTH_SPEC = {"model": "length", "psi": PSI}

RUNTIME_CONFIG = RuntimeConfig(backend=ProximityBackend.GRID, shards=2)


@pytest.fixture(scope="module")
def catalog(taxi_users, facilities):
    cat = Catalog()
    cat.add_tree(
        "city",
        TQTree.build(taxi_users, TQTreeConfig(beta=16)),
        source="conftest taxi users",
    )
    cat.add_facility_set("buses", facilities, source="conftest bus routes")
    return cat


def _payloads():
    """One wire request per query type (plus a duplicate to exercise
    keep-alive + coalesced cache reuse, and a maxkcov over explicit
    ``facility_ids``), in a fixed submission order."""
    return [
        {"type": "evaluate", "tree": "city", "facility_set": "buses",
         "facility_id": 0, "spec": COUNT_SPEC},
        {"type": "evaluate", "tree": "city", "facility_set": "buses",
         "facility_id": 1, "spec": LENGTH_SPEC, "collect_matches": True},
        {"type": "evaluate", "tree": "city", "facility_set": "buses",
         "facility_id": 0, "spec": COUNT_SPEC},  # duplicate
        {"type": "kmaxrrst", "tree": "city", "facility_set": "buses",
         "k": 3, "spec": SPEC},
        {"type": "maxkcov", "tree": "city", "facility_set": "buses",
         "k": 2, "spec": SPEC, "prune_factor": 4},
        {"type": "maxkcov", "tree": "city", "facility_set": "buses",
         "facility_ids": [0, 1, 2, 3, 4], "k": 2, "spec": COUNT_SPEC},
    ]


def _expected_wire_results(catalog, payloads):
    """The in-process QueryService's answers for the same sequence,
    projected through the wire codecs — what a lossless transport must
    reproduce byte-for-byte."""
    requests = [wire.decode_request(p, catalog) for p in payloads]

    async def drive():
        with QueryRuntime(RUNTIME_CONFIG) as runtime:
            async with QueryService(runtime) as service:
                results = []
                for request in requests:  # sequential, like one socket
                    results.append(await service.submit(request))
                return results

    return [wire_result(r) for r in asyncio.run(drive())]


class TestHttpDifferential:
    def test_all_three_types_bit_identical_over_socket(self, catalog):
        payloads = _payloads()
        expected = _expected_wire_results(catalog, payloads)
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                got = [client.query(p) for p in payloads]
        assert got == expected  # values AND per-request stats AND matches
        # the duplicate evaluate decoded to the same answer both times
        assert got[0].value == got[2].value
        # collect_matches came through as real match sets
        assert got[1].matches is not None and len(got[1].matches) > 0
        # all three types actually crossed the wire
        assert {r.type for r in got} == set(wire.REQUEST_TYPES)

    def test_per_request_stats_equal_inprocess(self, catalog):
        """Pin the stats half of the contract explicitly: the decoded
        QueryStats of every HTTP answer equals the in-process per-request
        stats object, field for field."""
        payloads = _payloads()
        expected = _expected_wire_results(catalog, payloads)
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                got = [client.query(p) for p in payloads]
        for http_result, inproc in zip(got, expected):
            assert http_result.stats == inproc.stats

    def test_stats_endpoint_totals_match_request_sum(self, catalog):
        payloads = _payloads()
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                results = [client.query(p) for p in payloads]
                service_stats, runtime_stats = client.stats()
        assert service_stats.requests_submitted == len(payloads)
        assert service_stats.requests_completed == len(payloads)
        assert service_stats.requests_failed == 0
        assert service_stats.requests_rejected == 0
        assert service_stats.requests_cancelled == 0
        # runtime totals are exactly the merged per-request stats
        merged = results[0].stats
        for r in results[1:]:
            merged = merged.merge(r.stats)
        assert runtime_stats == merged

    def test_service_stats_is_the_stats_route_copy(self, catalog):
        """``BackgroundServer.service_stats()`` takes its copy on the
        server's loop: after a run it equals ``GET /stats``'s service
        block, and mutating one copy leaves the next unchanged."""
        payloads = _payloads()
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                for p in payloads:
                    client.query(p)
                served = wire.decode_service_stats(client.request("GET", "/stats").body["service"])
            stats = h.service_stats()
            assert stats == served and stats.requests_completed == len(payloads)
            stats.requests_completed = -1
            assert h.service_stats() == served

    def test_submit_many_pipelines_and_batches(self, catalog, facilities):
        """A submit_many wave over one keep-alive connection answers
        identically to the same payloads sent one at a time — and with
        the server's batch_window open, the whole wave merges into the
        batched tier (visible as probe_units_batched on /stats)."""
        n = min(8, len(facilities))
        payloads = [
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": facilities[i].facility_id, "spec": SPEC}
            for i in range(n)
        ]
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                singles = [client.query(p) for p in payloads]
        with background_server(
            catalog,
            runtime_config=RUNTIME_CONFIG,
            service_config=ServiceConfig(batch_window=0.05),
        ) as h:
            with ServeClient(h.host, h.port) as client:
                wave = client.submit_many(payloads)
                service_stats, _ = client.stats()
        assert [r.value for r in wave] == [r.value for r in singles]
        assert service_stats.probe_units_batched == n
        assert service_stats.requests_completed == n
        # an empty wave is a no-op, not a protocol exchange
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                assert client.submit_many([]) == []

    def test_pipelined_wave_runs_in_order(self, catalog, facilities):
        """16 pipelined evaluates with the batch window on: the server
        answers one request at a time, so each runs as its own group;
        answers and per-request stats equal the same wave with the
        window off."""
        payloads = [
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": facilities[i % 6].facility_id,
             "spec": COUNT_SPEC if i % 2 else SPEC}
            for i in range(16)
        ]

        def wave(batch_window):
            with background_server(
                catalog,
                runtime_config=RUNTIME_CONFIG,
                service_config=ServiceConfig(batch_window=batch_window),
            ) as h:
                with ServeClient(h.host, h.port) as client:
                    return client.submit_many(payloads), client.stats()[0]

        unbatched, stats0 = wave(0.0)
        batched, stats = wave(0.005)
        assert batched == unbatched  # values AND per-request stats
        assert stats.batch_groups_run == len(payloads)
        assert stats.probe_units_batched == len(payloads)
        assert stats0.batch_groups_run == 0

    def test_long_pipelined_wave_equals_singles(self, catalog, facilities):
        """A wave of 200 evaluates on one connection is answered in
        request order and == the same requests sent one at a time."""
        payloads = [
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": facilities[i % len(facilities)].facility_id,
             "spec": (SPEC, COUNT_SPEC, LENGTH_SPEC)[i % 3]}
            for i in range(200)
        ]

        def answers(send):
            with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
                with ServeClient(h.host, h.port) as client:
                    return send(client)

        singles = answers(lambda c: [c.query(p) for p in payloads])
        assert answers(lambda c: c.submit_many(payloads)) == singles

    def test_submit_many_surfaces_first_error_in_order(self, catalog):
        """Every response in a pipelined wave is read before any error
        propagates (the connection stays framed), and the error raised
        is the first failing request's, in request order."""
        payloads = [
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": 0, "spec": SPEC},
            {"type": "evaluate", "tree": "nope", "facility_set": "buses",
             "facility_id": 0, "spec": SPEC},          # 404 CatalogError
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": 0, "spec": {"model": "bogus", "psi": PSI}},
        ]
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                with pytest.raises(CatalogError):
                    client.submit_many(payloads)
                # the connection survived the wave: still usable
                follow_up = client.query(payloads[0])
                assert follow_up.value == follow_up.value

    def test_healthz_and_catalog_endpoints(self, catalog, facilities):
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            with ServeClient(h.host, h.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["in_flight"] == 0
                described = client.catalog()
        assert set(described["trees"]) == {"city"}
        assert set(described["facility_sets"]) == {"buses"}
        assert described["facility_sets"]["buses"]["n_facilities"] == len(
            facilities
        )
        assert described["facility_sets"]["buses"]["facility_ids"] == [
            f.facility_id for f in facilities
        ]


class TestErrorMapping:
    @pytest.fixture(scope="class")
    def server(self, catalog):
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            yield h

    @pytest.fixture()
    def client(self, server):
        with ServeClient(server.host, server.port) as c:
            yield c

    def test_malformed_json_body_is_400(self, client):
        response = client.request("POST", "/query")  # empty body
        assert response.status == 400
        assert response.body["error"] == "bad_request"

    def test_unknown_request_type_is_400(self, client):
        with pytest.raises(QueryError, match="unknown request type"):
            client.query({"type": "teleport", "tree": "city",
                          "facility_set": "buses", "spec": SPEC})

    @pytest.mark.parametrize("rtype", ["exact", "genetic"])
    def test_exact_and_genetic_are_unknown_types(self, client, rtype):
        # the exact and genetic solvers are library calls only: the
        # wire names the three types it serves, and the connection
        # stays up
        response = client.request(
            "POST", "/query",
            {"type": rtype, "tree": "city", "facility_set": "buses",
             "k": 2, "spec": SPEC},
        )
        assert response.status == 400
        detail = response.body["detail"]
        assert f"unknown request type {rtype!r}" in detail
        assert "['evaluate', 'kmaxrrst', 'maxkcov']" in detail
        assert client.healthz()["status"] == "ok"

    def test_unknown_tree_is_404(self, client):
        with pytest.raises(CatalogError, match="unknown tree"):
            client.query({"type": "evaluate", "tree": "atlantis",
                          "facility_set": "buses", "facility_id": 0,
                          "spec": SPEC})

    def test_unknown_facility_set_is_404(self, client):
        with pytest.raises(CatalogError, match="unknown facility set"):
            client.query({"type": "kmaxrrst", "tree": "city",
                          "facility_set": "gondolas", "k": 2, "spec": SPEC})

    def test_unknown_facility_id_is_404(self, client):
        with pytest.raises(CatalogError, match="no facility 999"):
            client.query({"type": "evaluate", "tree": "city",
                          "facility_set": "buses", "facility_id": 999,
                          "spec": SPEC})

    def test_empty_facility_ids_is_400(self, client):
        # the new empty-facilities validation, exercised via the wire
        # decoder: previously this would have been a 200 with an empty
        # ranking
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            client.query({"type": "kmaxrrst", "tree": "city",
                          "facility_set": "buses", "facility_ids": [],
                          "k": 3, "spec": SPEC})

    def test_repeated_facility_ids_is_400(self, client):
        # the paper's candidate F is a set: facility 0 twice used to
        # come back as both of "the two best"
        with pytest.raises(QueryError, match="distinct.*0 more than once"):
            client.query({"type": "kmaxrrst", "tree": "city",
                          "facility_set": "buses", "facility_ids": [0, 0, 1],
                          "k": 2, "spec": SPEC})

    def test_non_finite_psi_is_400(self, client):
        # json.loads accepts Infinity and NaN; Infinity used to reach
        # the walk and answer 500 `internal`
        for psi in (float("inf"), float("nan")):
            response = client.request(
                "POST", "/query",
                {"type": "evaluate", "tree": "city", "facility_set": "buses",
                 "facility_id": 0, "spec": {"model": "endpoint", "psi": psi}},
            )
            assert response.status == 400
            assert response.body["error"] == "bad_request"

    def test_nonpositive_k_is_400(self, client):
        with pytest.raises(QueryError, match="k must be positive"):
            client.query({"type": "maxkcov", "tree": "city",
                          "facility_set": "buses", "k": 0, "spec": SPEC})

    def test_bad_spec_model_is_400(self, client):
        with pytest.raises(QueryError, match="unknown service model"):
            client.query({"type": "evaluate", "tree": "city",
                          "facility_set": "buses", "facility_id": 0,
                          "spec": {"model": "teleportation", "psi": PSI}})

    def test_unknown_field_is_400(self, client):
        with pytest.raises(QueryError, match="unknown evaluate request"):
            client.query({"type": "evaluate", "tree": "city",
                          "facility_set": "buses", "facility_id": 0,
                          "spec": SPEC, "frobnicate": True})

    def test_wrong_method_is_405_with_allow(self, client):
        response = client.request("GET", "/query")
        assert response.status == 405
        assert response.headers.get("allow") == "POST"
        response = client.request("POST", "/stats")
        assert response.status == 405
        assert response.headers.get("allow") == "GET"

    @pytest.mark.parametrize("path", ["/nope", "/workers"])
    def test_unknown_route_is_404(self, client, path):
        response = client.request("GET", path)
        assert response.status == 404
        assert response.body["error"] == "not_found"


class TestAdmissionOverHttp:
    def test_core_runs_on_the_server_loop(self, catalog):
        """A request's core runs on the server's event loop thread —
        there is no worker pool — and parks that loop while it runs."""
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            gate = GatedPlanner(h.server.service)
            box = {}

            def query():
                with ServeClient(h.host, h.port) as c:
                    box["result"] = c.query(
                        {"type": "evaluate", "tree": "city",
                         "facility_set": "buses", "facility_id": 0,
                         "spec": SPEC}
                    )

            thread = threading.Thread(target=query)
            thread.start()
            try:
                assert gate.started.wait(10)
                assert gate.loop is h._loop
                # the parked loop cannot run even a no-op
                ping = asyncio.run_coroutine_threadsafe(asyncio.sleep(0), h._loop)
                assert not ping.done()
            finally:
                gate.release.set()
                thread.join(30)
            ping.result(10)
            assert box["result"].value > 0.0

    def test_concurrent_clients_all_get_correct_answers(self, catalog):
        """Several clients on their own connections, overlapping
        facilities: every decoded value equals the in-process value
        (values are schedule-independent; per-request stats ordering is
        pinned by the sequential differential above)."""
        payloads = [
            {"type": "evaluate", "tree": "city", "facility_set": "buses",
             "facility_id": i % 4, "spec": COUNT_SPEC}
            for i in range(12)
        ]
        expected = {
            p["facility_id"]: r.value
            for p, r in zip(payloads, _expected_wire_results(catalog, payloads))
        }
        outcomes = [None] * 4
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:

            def worker(slot):
                with ServeClient(h.host, h.port) as c:
                    outcomes[slot] = [
                        (p["facility_id"], c.query(p).value)
                        for p in payloads[slot::4]
                    ]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            stats = h.service_stats()
        for batch in outcomes:
            assert batch is not None
            for facility_id, value in batch:
                assert value == expected[facility_id]
        assert stats.requests_completed == len(payloads)
        # outcome counters sum on the wire path too
        assert (
            stats.requests_completed
            + stats.requests_failed
            + stats.requests_cancelled
            == stats.requests_submitted
        )


def _raw_exchange(host, port, data):
    """Send ``data`` on a fresh socket, read until the server closes,
    and split what came back into ``(status, headers, body)`` responses.
    A socket timeout fails the caller: the server must close."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # the server closed with our bytes unread
            if not chunk:
                break
            received += chunk
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(headers["content-length"])
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        received = rest[length:]
    return responses


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n"


class TestFraming:
    """Malformed frames over a raw socket: each is answered with its
    status and the connection is closed (RFC 9112: a ``Content-Length``
    is ``1*DIGIT``, sent once, §6.3; no whitespace before a field
    name's colon, §5.1)."""

    @pytest.fixture(scope="class")
    def server(self, catalog):
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            yield h

    @pytest.mark.parametrize(
        "frame, status",
        [
            (_HEALTHZ + b"Content-Length: 1_0\r\n\r\n" + b"x" * 10, 400),
            (_HEALTHZ + b"Content-Length: +10\r\n\r\n" + b"x" * 10, 400),
            (_HEALTHZ + b"Content-Length: -0\r\n\r\n", 400),
            (
                _HEALTHZ + b"Content-Length: 10\r\nContent-Length: 3\r\n\r\n"
                + b"x" * 10,
                400,
            ),
            (_HEALTHZ + b"Content-Length : 3\r\n\r\nabc", 400),
            (b"BOGUS\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (
                f"POST /query HTTP/1.1\r\nContent-Length: "
                f"{MAX_BODY_BYTES + 1}\r\n\r\n".encode("latin-1"),
                413,
            ),
        ],
        ids=[
            "underscore", "plus", "minus-zero", "repeated",
            "space-before-colon", "request-line", "transfer-encoding",
            "oversized-body",
        ],
    )
    def test_malformed_frame_is_answered_then_closed(self, server, frame, status):
        responses = _raw_exchange(server.host, server.port, frame)
        assert [r[0] for r in responses] == [status]
        assert responses[0][1]["connection"] == "close"

    def test_good_frame_ahead_of_a_malformed_one(self, server):
        """A good request pipelined ahead of a malformed one is
        answered first; then the malformed one gets its 400."""
        body = (
            b'{"type": "evaluate", "tree": "city", "facility_set": "buses", '
            b'"facility_id": 0, "spec": {"model": "endpoint", "psi": 400.0}}'
        )
        good = (
            f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        responses = _raw_exchange(server.host, server.port, good + b"BOGUS\r\n\r\n")
        assert [r[0] for r in responses] == [200, 400]
        assert wire.decode_result(json.loads(responses[0][2])).value > 0.0

    def test_client_refuses_a_bad_content_length(self):
        """The client applies the same rule to a response: a negative
        length is a QueryError, not a read to EOF."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()

            def answer():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}"
                    )

            thread = threading.Thread(target=answer)
            thread.start()
            with ServeClient(host, port, timeout=5) as client:
                with pytest.raises(QueryError, match="Content-Length"):
                    client.healthz()
            thread.join(10)

    _REPEATED_LENGTH = (
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\nContent-Length: 15\r\n"
        b"\r\n" + b'{"status":"ok"}'
    )

    @staticmethod
    def _answer_once(listener, response: bytes) -> threading.Thread:
        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(response)

        thread = threading.Thread(target=answer)
        thread.start()
        return thread

    def test_client_refuses_a_repeated_content_length(self):
        """Two lengths frame two different bodies; keeping either one
        could desync the stream, so the response is refused."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            thread = self._answer_once(listener, self._REPEATED_LENGTH)
            with ServeClient(host, port, timeout=5) as client:
                with pytest.raises(QueryError, match="repeated Content-Length"):
                    client.healthz()
            thread.join(10)

    def test_peer_fan_out_refuses_a_repeated_content_length(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            thread = self._answer_once(listener, self._REPEATED_LENGTH)
            with pytest.raises(QueryError, match="repeated Content-Length"):
                asyncio.run(_http_get_json(host, port, "/stats"))
            thread.join(10)


class TestDrain:
    def test_graceful_drain_completes_in_flight(self, catalog):
        """drain() must let an admitted request finish (its core is
        still running when the drain is requested), then refuse new
        connections."""
        with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
            gate = GatedPlanner(h.server.service)
            box = {}

            def inflight():
                with ServeClient(h.host, h.port) as c:
                    box["result"] = c.query(
                        {"type": "evaluate", "tree": "city",
                         "facility_set": "buses", "facility_id": 0,
                         "spec": SPEC}
                    )

            thread = threading.Thread(target=inflight)
            thread.start()
            try:
                assert gate.started.wait(10)  # admitted, core running
                assert h.server.service.in_flight == 1
                # queued behind the parked core: the drain starts once
                # the core returns
                drained = asyncio.run_coroutine_threadsafe(
                    h.server.drain(), h._loop
                )
                assert not drained.done()
            finally:
                gate.release.set()
            drained.result(30)
            thread.join(30)
            assert not thread.is_alive()
            assert h.server.draining
            # the in-flight request completed with a real answer
            assert box["result"].value > 0.0
            stats = h.service_stats()
            assert stats.requests_completed == 1
            assert stats.requests_cancelled == 0
            # and the listener is gone: fresh connections are refused
            with pytest.raises(OSError):
                socket.create_connection((h.host, h.port), timeout=2)

    def test_query_during_drain_is_503_with_retry_after(self, catalog):
        """The only 503: a POST /query arriving on an open keep-alive
        connection while the server drains.  A GET /healthz held on a
        silent peer keeps the drain waiting; the client raises
        ServiceOverloaded with the Retry-After hint, and the held
        request still completes."""
        payload = {"type": "evaluate", "tree": "city", "facility_set": "buses",
                   "facility_id": 0, "spec": SPEC}
        with socket.create_server(("127.0.0.1", 0)) as silent:
            with background_server(catalog, runtime_config=RUNTIME_CONFIG) as h:
                h.server.set_peers([WorkerPeer(0, 0, *silent.getsockname())])
                box = {}

                def held():
                    with ServeClient(h.host, h.port) as c:
                        box["health"] = c.healthz()

                with ServeClient(h.host, h.port) as client:
                    client.query(payload)  # the connection is now open
                    thread = threading.Thread(target=held)
                    thread.start()
                    peer, _ = silent.accept()  # the healthz is in flight
                    drained = asyncio.run_coroutine_threadsafe(
                        h.server.drain(), h._loop
                    )
                    deadline = time.monotonic() + 10
                    while not h.server.draining:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    with pytest.raises(ServiceOverloaded) as excinfo:
                        client.query(payload)
                    assert excinfo.value.retry_after == RETRY_AFTER_SECONDS
                    assert not drained.done()  # still waiting on the held one
                    peer.close()
                drained.result(30)
                thread.join(30)
                stats = h.service_stats()
        assert box["health"]["status"] == "degraded"  # its peer is gone
        assert stats.requests_completed == 1
        assert stats.requests_rejected == 0


class TestWireAndCatalogUnits:
    def test_content_length_is_digits_only(self):
        for value, length in (("0", 0), ("10", 10), ("007", 7)):
            assert wire.content_length(value) == length
        for value in ("", "+10", "-0", "-1", "1_0", " 1", "1e3", "\u0661"):
            with pytest.raises(ValueError):
                wire.content_length(value)

    def test_query_stats_round_trip(self):
        from repro import QueryStats

        stats = QueryStats(nodes_visited=3, distance_evals=7, cache_hits=2)
        assert wire.decode_query_stats(wire.encode_query_stats(stats)) == stats

    def test_service_stats_round_trip(self):
        from repro import ServiceStats

        stats = ServiceStats(
            requests_submitted=5, requests_completed=4, requests_failed=1,
            probe_units_planned=10, probe_units_coalesced=3,
        )
        decoded = wire.decode_service_stats(wire.encode_service_stats(stats))
        assert decoded == stats
        assert decoded.dedup_rate == stats.dedup_rate

    def test_stats_decodes_require_every_field(self):
        """The L4 contract's runtime half: a stats payload missing any
        single codec field is rejected, never defaulted to 0."""
        from repro import QueryStats, ServiceStats
        from repro.core.stats import StoreStats

        cases = [
            (wire.encode_query_stats(QueryStats()), wire.decode_query_stats),
            (
                wire.encode_service_stats(ServiceStats()),
                wire.decode_service_stats,
            ),
            (wire.encode_store_stats(StoreStats()), wire.decode_store_stats),
        ]
        for payload, decode in cases:
            assert payload, "encoder produced an empty payload"
            for field in payload:
                if field == "dedup_rate":  # derived, not required
                    continue
                partial = {k: v for k, v in payload.items() if k != field}
                with pytest.raises(QueryError, match=field):
                    decode(partial)

    def test_decode_request_requires_known_shape(self, catalog):
        with pytest.raises(QueryError, match="JSON object"):
            wire.decode_request([1, 2, 3], catalog)
        with pytest.raises(QueryError, match="must be an integer"):
            wire.decode_request(
                {"type": "kmaxrrst", "tree": "city", "facility_set": "buses",
                 "k": "three", "spec": SPEC},
                catalog,
            )
        with pytest.raises(QueryError, match="must be a list of integers"):
            catalog.select("buses", "0,1,2")

    def test_catalog_rejects_duplicates_and_misses(self, catalog, facilities):
        fresh = Catalog()
        fresh.add_facility_set("buses", facilities)
        with pytest.raises(CatalogError, match="already registered"):
            fresh.add_facility_set("buses", facilities)
        with pytest.raises(CatalogError, match="unknown tree"):
            fresh.tree("missing")

    def test_demo_catalog_spec_round_trip(self):
        catalog = catalog_from_spec("demo:200:6:8:3")
        assert catalog.tree_names == ("demo",)
        assert catalog.facility_set_names == ("demo",)
        described = catalog.describe()
        assert described["facility_sets"]["demo"]["n_facilities"] == 6
        with pytest.raises(CatalogError, match="unknown catalog spec"):
            catalog_from_spec("postgres://nope")
        with pytest.raises(CatalogError, match="must be an integer"):
            catalog_from_spec("demo:many")

    def test_csv_catalog_spec(self, tmp_path, taxi_users, facilities):
        from repro import save_facilities, save_trajectories

        users_path = tmp_path / "users.csv"
        routes_path = tmp_path / "routes.csv"
        save_trajectories(taxi_users[:50], users_path)
        save_facilities(facilities[:4], routes_path)
        catalog = catalog_from_spec(f"csv:{users_path}:{routes_path}:16")
        assert catalog.tree_names == ("main",)
        assert len(catalog.facility_set("main")) == 4

    def test_build_demo_catalog_is_deterministic(self):
        a = build_demo_catalog(n_users=100, n_facilities=4, n_stops=6, seed=5)
        b = build_demo_catalog(n_users=100, n_facilities=4, n_stops=6, seed=5)
        assert [f.stops for f in a.facility_set("demo")] == [
            f.stops for f in b.facility_set("demo")
        ]
