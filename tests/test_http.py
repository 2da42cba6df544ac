"""Differential suite for the stdlib HTTP serving front (ISSUE 5).

The contract extends PR 4's one level up the stack: the transport never
changes an answer or a counter.  For all five query types, the decoded
HTTP answer — value, per-request stats, match sets — must be ``==`` to
the wire projection of what the in-process
:class:`repro.service.QueryService` produces for the identical request
sequence against an identically configured runtime (and the service is
itself pinned to the synchronous functions by
``tests/test_query_service.py``, so the chain reaches the oracles).
On top of parity: the error mapping (400 / 404 / 503 + Retry-After /
405), admission-control shedding over the socket, concurrent clients,
and graceful drain.
"""

from __future__ import annotations

import asyncio
import socket
import threading

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
    background_server,
    build_demo_catalog,
    catalog_from_spec,
    wire_result,
)
from repro.service.http import wire

from .conftest import GatedPlanner

PSI = 400.0
SPEC = {"model": "endpoint", "psi": PSI}
COUNT_SPEC = {"model": "count", "psi": PSI}
LENGTH_SPEC = {"model": "length", "psi": PSI}

RUNTIME_CONFIG = RuntimeConfig(
    backend=ProximityBackend.GRID, shards=2, max_workers=2
)


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
    keep-alive + coalesced cache reuse), in a fixed submission order."""
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
        {"type": "exact", "tree": "city", "facility_set": "buses",
         "facility_ids": [0, 1, 2, 3, 4], "k": 2, "spec": SPEC},
        {"type": "genetic", "tree": "city", "facility_set": "buses",
         "facility_ids": [0, 1, 2, 3, 4], "k": 2, "spec": SPEC,
         "config": {"seed": 3, "iterations": 5, "population_size": 8}},
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
    def test_all_five_types_bit_identical_over_socket(self, catalog):
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
        # all five types actually crossed the wire
        assert {r.type for r in got} == {
            "evaluate", "kmaxrrst", "maxkcov", "exact", "genetic"
        }

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

    def test_wrong_typed_genetic_config_is_400(self, client):
        # regression: a wrong-typed GA-config value used to raise
        # TypeError inside GeneticConfig's range checks, escaping the
        # error mapping and killing the connection instead of a 400
        with pytest.raises(QueryError, match="must be an integer"):
            client.query({"type": "genetic", "tree": "city",
                          "facility_set": "buses", "k": 2, "spec": SPEC,
                          "config": {"population_size": "8"}})
        # the connection survived the bad request
        assert client.healthz()["status"] == "ok"

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

    def test_unknown_route_is_404(self, client):
        response = client.request("GET", "/nope")
        assert response.status == 404
        assert response.body["error"] == "not_found"


class TestAdmissionOverHttp:
    def test_overload_is_503_with_retry_after(self, catalog):
        """queue_depth=1 + a first request whose core is parked on the
        bridge: the second concurrent submission must be shed with 503
        and a Retry-After hint, and the held request must still
        complete."""
        config = ServiceConfig(queue_depth=1)
        with background_server(
            catalog, runtime_config=RUNTIME_CONFIG, service_config=config
        ) as h:
            gate = GatedPlanner(h.server.service)
            held = {}

            def hold():
                with ServeClient(h.host, h.port) as c:
                    held["result"] = c.query(
                        {"type": "evaluate", "tree": "city",
                         "facility_set": "buses", "facility_id": 0,
                         "spec": SPEC}
                    )

            thread = threading.Thread(target=hold)
            thread.start()
            # the first request holds the one queue slot: its core runs
            assert gate.started.wait(10)
            with ServeClient(h.host, h.port) as client:
                with pytest.raises(ServiceOverloaded) as excinfo:
                    client.query(
                        {"type": "evaluate", "tree": "city",
                         "facility_set": "buses", "facility_id": 1,
                         "spec": SPEC}
                    )
            assert excinfo.value.retry_after is not None
            gate.release.set()
            thread.join(30)
            assert not thread.is_alive()
            # load shedding never corrupted the held request
            assert held["result"].type == "evaluate"
            stats = h.service_stats()
            assert stats.requests_rejected >= 1
            assert stats.requests_completed == 1

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


class TestDrain:
    def test_graceful_drain_completes_in_flight(self, catalog):
        """drain() must let an admitted request finish (its core is
        parked on the bridge while the drain begins and waits), then
        refuse new connections."""
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
            assert gate.started.wait(10)  # admitted, its core running
            drained = asyncio.run_coroutine_threadsafe(
                h.server.drain(), h._loop
            )
            # a no-op queued behind drain()'s first step: once it has
            # run, the drain has begun
            asyncio.run_coroutine_threadsafe(
                asyncio.sleep(0), h._loop
            ).result(10)
            assert h.server.draining and not drained.done()
            assert h.server.service.in_flight == 1
            gate.release.set()
            drained.result(30)
            thread.join(30)
            assert not thread.is_alive()
            # the in-flight request completed with a real answer
            assert box["result"].value > 0.0
            stats = h.service_stats()
            assert stats.requests_completed == 1
            assert stats.requests_cancelled == 0
            # and the listener is gone: fresh connections are refused
            with pytest.raises(OSError):
                socket.create_connection((h.host, h.port), timeout=2)


class TestWireAndCatalogUnits:
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

    def test_worker_peers_decode_requires_every_field(self):
        entry = {"index": 0, "pid": 42, "host": "127.0.0.1", "port": 8001}
        assert wire.decode_worker_peers({"workers": [dict(entry)]}) == (
            (0, 42, "127.0.0.1", 8001),
        )
        for field in entry:
            partial = {k: v for k, v in entry.items() if k != field}
            with pytest.raises(QueryError, match=field):
                wire.decode_worker_peers({"workers": [partial]})

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
