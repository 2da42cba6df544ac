"""A minimal blocking HTTP/1.1 client for the serving front.

Stdlib-socket only, like the server it talks to.  Used by the
differential suite and the HTTP benchmark; small enough to double as
reference client code for the README's quickstart.

The client keeps one persistent keep-alive connection (reconnecting
transparently when the server closed it) and re-raises the server's
error mapping as the library's own exception types, so code written
against the in-process :class:`~repro.service.QueryService` ports
unchanged: 503 → :class:`~repro.core.errors.ServiceOverloaded` (with
the ``Retry-After`` hint on ``retry_after``), 404 →
:class:`~repro.core.errors.CatalogError`, 400 →
:class:`~repro.core.errors.QueryError`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import socket
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.errors import CatalogError, QueryError, ServiceOverloaded
from ...core.stats import QueryStats
from ..service import ServiceStats
from . import wire
from .wire import WireResult

__all__ = [
    "ServeClient",
    "ShardedServeClient",
    "HttpResponse",
    "ConnectionLost",
]


class ConnectionLost(QueryError):
    """The connection died and the exchange could not be completed
    (after the client's own one-retry budget).  A
    :class:`ShardedServeClient` uses the distinct type to know a
    failure was transport-level — worth a worker-table refresh — rather
    than an answer the server sent."""


class HttpResponse:
    """One raw HTTP exchange: status, headers, parsed JSON body."""

    def __init__(self, status: int, headers: Dict[str, str], body: dict) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HttpResponse(status={self.status}, body={self.body!r})"


class ServeClient:
    """Blocking client for one ``repro.serve`` endpoint.

    Use as a context manager (or call :meth:`close`)::

        with ServeClient(host, port) as client:
            result = client.query({
                "type": "evaluate", "tree": "demo",
                "facility_set": "demo", "facility_id": 0,
                "spec": {"model": "endpoint", "psi": 300.0},
            })
            print(result.value, result.stats.distance_evals)

    Not thread-safe: one client per thread (the benchmark opens one per
    worker), matching the one-connection-per-client design.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # one HTTP exchange
    # ------------------------------------------------------------------
    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> HttpResponse:
        """Send one request; returns the parsed response.

        Retries exactly once when the connection turns out dead — with
        method-aware semantics.  An idempotent request (GET/HEAD) is
        retried on *any* dead-connection shape, including a reset or
        EOF mid-response: re-executing it is harmless, and this is what
        rides out a worker restart behind a shared port.  A
        non-idempotent request (POST /query) is retried only when the
        death provably precedes processing — a send onto a connection
        the server already closed, or EOF before any status byte, both
        of which mean the request never reached a handler; once a
        response has started, death is an error, because the query may
        have executed.
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        idempotent = method in ("GET", "HEAD")
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(head + body)
                return self._read_response()
            except (_DeadConnection, BrokenPipeError, ConnectionResetError) as exc:
                self.close()
                mid_response = (
                    isinstance(exc, _DeadConnection) and exc.mid_response
                )
                if mid_response and not idempotent:
                    raise ConnectionLost(
                        f"connection to {self.host}:{self.port} died "
                        f"mid-response to {method} {path}: the request "
                        "may have executed, not retrying"
                    ) from None
                if attempt:
                    raise ConnectionLost(
                        f"connection to {self.host}:{self.port} closed "
                        "before a response arrived"
                    ) from None
            except BaseException:
                # any other failure (socket timeout, parse error) leaves
                # the exchange incomplete: the stream may still carry
                # this request's late response, so the connection must
                # not be reused — the next request would read the wrong
                # answer
                self.close()
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _read_response(self) -> HttpResponse:
        try:
            status_line = self._rfile.readline()
        except (ConnectionResetError, BrokenPipeError):
            raise _DeadConnection() from None
        if not status_line:
            raise _DeadConnection()  # server closed the idle connection
        # a status byte arrived: from here on the server has seen (and
        # may have executed) the request — every further death carries
        # mid_response=True so the caller can refuse to retry a POST
        try:
            parts = status_line.decode("latin-1").split(None, 2)
            try:
                if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
                    raise ValueError
                status = int(parts[1])
            except ValueError:
                raise QueryError(
                    f"malformed status line: {status_line!r}"
                ) from None
            headers: Dict[str, str] = {}
            while True:
                raw = self._rfile.readline()
                if not raw:
                    raise _DeadConnection(mid_response=True)
                if not raw.strip():
                    break
                name, sep, value = raw.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                raise QueryError(
                    f"malformed Content-Length: "
                    f"{headers.get('content-length')!r}"
                ) from None
            body = self._rfile.read(length) if length else b""
            if len(body) != length:
                raise _DeadConnection(mid_response=True)
        except (ConnectionResetError, BrokenPipeError):
            raise _DeadConnection(mid_response=True) from None
        if headers.get("connection", "").lower() == "close":
            self.close()
        payload = json.loads(body) if body else {}
        return HttpResponse(status, headers, payload)

    # ------------------------------------------------------------------
    # the API surface
    # ------------------------------------------------------------------
    def query(self, payload: dict) -> WireResult:
        """``POST /query`` → the decoded answer, or the library error
        the status encodes (see module docstring)."""
        response = self.request("POST", "/query", payload)
        if response.status == 200:
            return wire.decode_result(response.body)
        raise self._error_for(response)

    def submit_many(self, payloads: Sequence[dict]) -> List[WireResult]:
        """Pipeline a wave of ``POST /query`` bodies over the one
        connection; answers decoded in request order.

        All request bytes go out back-to-back before any response is
        read, so the whole wave registers with the server's
        :class:`~repro.service.QueryService` in sequence — with
        ``batch_window`` on they form one batch group, which is the
        client-side half of cross-request batching (the server's
        pipelined handler is the other).  Every response is read before
        anything is raised — the connection stays framed — then the
        first per-request error (request order) propagates, mirroring
        ``QueryService.run``; callers wanting per-request outcomes
        should send individually with :meth:`query`.

        Retries the whole wave exactly once when the keep-alive
        connection turns out dead before *any* response byte arrived
        (nothing was processed); a connection dying after the first
        response is an error — the remaining requests may have
        executed.
        """
        if not payloads:
            return []
        frames = []
        for payload in payloads:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"POST /query HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode("latin-1")
            frames.append(head + body)
        blob = b"".join(frames)
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            responses: List[HttpResponse] = []
            try:
                self._sock.sendall(blob)
                for _ in payloads:
                    if self._rfile is None:
                        # the server closed after an earlier response
                        # (Connection: close mid-wave, e.g. a drain)
                        raise _DeadConnection()
                    responses.append(self._read_response())
            except (_DeadConnection, BrokenPipeError, ConnectionResetError) as exc:
                self.close()
                mid_response = (
                    isinstance(exc, _DeadConnection) and exc.mid_response
                )
                if responses or mid_response or attempt:
                    raise ConnectionLost(
                        f"connection to {self.host}:{self.port} closed "
                        f"after {len(responses)} of {len(payloads)} "
                        "pipelined responses"
                    ) from None
                continue
            except BaseException:
                self.close()
                raise
            results: List[WireResult] = []
            first_error: Optional[Exception] = None
            for response in responses:
                if response.status == 200:
                    results.append(wire.decode_result(response.body))
                elif first_error is None:
                    first_error = self._error_for(response)
            if first_error is not None:
                raise first_error
            return results
        raise AssertionError("unreachable")  # pragma: no cover

    def stats(self) -> Tuple[ServiceStats, QueryStats]:
        """``GET /stats`` → (service counters, runtime totals)."""
        response = self.request("GET", "/stats")
        if response.status != 200:
            raise self._error_for(response)
        return (
            wire.decode_service_stats(response.body["service"]),
            wire.decode_query_stats(response.body["runtime"]),
        )

    def store_stats(self):
        """``GET /stats`` → the server's shard-store cache counters as a
        frozen :class:`~repro.core.stats.StoreStats` (hits/misses/
        evictions per level plus persisted-store ``opened``/
        ``verified``)."""
        response = self.request("GET", "/stats")
        if response.status != 200:
            raise self._error_for(response)
        return wire.decode_store_stats(response.body["store"])

    def healthz(self) -> dict:
        response = self.request("GET", "/healthz")
        if response.status != 200:
            raise self._error_for(response)
        return response.body

    def catalog(self) -> dict:
        response = self.request("GET", "/catalog")
        if response.status != 200:
            raise self._error_for(response)
        return response.body

    # ------------------------------------------------------------------
    def _error_for(self, response: HttpResponse) -> Exception:
        detail = response.body.get("detail", repr(response.body))
        if response.status == 503:
            error = ServiceOverloaded(detail)
            try:
                # RFC 7231 also allows an HTTP-date here (a proxy may
                # rewrite the header); surface what we can parse and
                # never let the hint mask the overload itself
                error.retry_after = float(response.headers["retry-after"])
            except (KeyError, ValueError):
                error.retry_after = None
            return error
        if response.status == 404:
            return CatalogError(detail)
        if response.status in (400, 405, 413):
            return QueryError(f"HTTP {response.status}: {detail}")
        return QueryError(
            f"unexpected HTTP {response.status} from "
            f"{self.host}:{self.port}: {detail}"
        )


class _DeadConnection(Exception):
    """Internal: the keep-alive connection died.  ``mid_response``
    distinguishes a death after the first status byte (the server saw
    the request — only idempotent methods may retry) from a dead idle
    connection (nothing was processed — anything may retry once)."""

    def __init__(self, mid_response: bool = False) -> None:
        super().__init__(mid_response)
        self.mid_response = mid_response


def _ring_point(key: str) -> int:
    """A stable 64-bit hash for ring placement.  ``hashlib`` rather
    than ``hash()``: the built-in is salted per process
    (PYTHONHASHSEED), and affinity only works if every client maps the
    same resource to the same worker."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ShardedServeClient:
    """Affinity-aware client for a prefork ``repro.serve`` pool.

    Fetches the pool's worker table from ``GET /workers`` and routes
    each query to a worker chosen by consistent-hashing its resource
    key — ``tree/facility_set`` — onto a ring of virtual nodes keyed by
    *worker index* (stable across respawns, unlike pids or ports).  All
    requests touching one resource therefore land on one worker, which
    keeps that resource's coalescer, coverage cache, and batch window
    warm in a single process instead of diluted across N — and makes a
    pool's per-request stats reproduce the single-process server's.

    Against a single-process server the table is a pool of one and
    every query routes to it, so callers need not care which deployment
    they talk to.

    When a routed worker is unreachable (killed, mid-respawn — its
    direct port died with it), the client refreshes the table from the
    front port and re-routes: a *connect* failure means the request
    never left, so even ``POST /query`` re-routes safely; a
    :class:`ConnectionLost` after bytes flowed re-routes only
    idempotent reads.  Not thread-safe, like :class:`ServeClient`.
    """

    #: Virtual nodes per worker: enough that a 4-worker ring splits
    #: resources evenly, cheap enough to rebuild on every refresh.
    REPLICAS = 64

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: The shared front port — table fetches and aggregate reads.
        self._front = ServeClient(host, port, timeout)
        self._workers: Dict[int, ServeClient] = {}
        self._table: Dict[int, Tuple[str, int]] = {}
        self._ring_points: List[int] = []
        self._ring_indices: List[int] = []

    # ------------------------------------------------------------------
    def refresh(self) -> Dict[int, Tuple[str, int]]:
        """Re-fetch the worker table and rebuild the ring; returns the
        table (``index -> (host, port)``)."""
        response = self._front.request("GET", "/workers")
        if response.status != 200:
            raise self._front._error_for(response)
        peers = wire.decode_worker_peers(response.body)
        table = {index: (host, port) for index, _pid, host, port in peers}
        if not table:
            raise QueryError(
                f"{self.host}:{self.port} reported an empty worker table"
            )
        for index, client in list(self._workers.items()):
            if table.get(index) != (client.host, client.port):
                client.close()  # respawned worker: new direct port
                del self._workers[index]
        self._table = table
        points = []
        for index in table:
            for replica in range(self.REPLICAS):
                points.append((_ring_point(f"{index}#{replica}"), index))
        points.sort()
        self._ring_points = [p for p, _ in points]
        self._ring_indices = [i for _, i in points]
        return dict(table)

    @staticmethod
    def resource_key(payload: dict) -> str:
        """What a query's affinity hashes on: the server-resident
        resources it touches."""
        return f"{payload.get('tree', '')}/{payload.get('facility_set', '')}"

    def route(self, payload: dict) -> int:
        """The worker index a payload routes to (exposed for tests and
        capacity reasoning)."""
        if not self._ring_points:
            self.refresh()
        point = _ring_point(self.resource_key(payload))
        slot = bisect.bisect(self._ring_points, point) % len(self._ring_points)
        return self._ring_indices[slot]

    def _client_for(self, index: int) -> ServeClient:
        client = self._workers.get(index)
        if client is None:
            host, port = self._table[index]
            client = ServeClient(host, port, self.timeout)
            self._workers[index] = client
        return client

    # ------------------------------------------------------------------
    def query(self, payload: dict) -> WireResult:
        """``POST /query`` on the payload's affinity worker.

        Re-routes through a table refresh exactly once if the worker
        cannot be *connected* to (provably unprocessed — safe for a
        non-idempotent POST); a connection that dies after the request
        was sent propagates :class:`ConnectionLost` unretried."""
        for attempt in (0, 1):
            index = self.route(payload)
            try:
                return self._client_for(index).query(payload)
            except (ConnectionLost, ConnectionError, OSError) as exc:
                connect_failure = not isinstance(exc, ConnectionLost)
                if attempt or not connect_failure:
                    raise
                self.refresh()
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_many(self, payloads: Sequence[dict]) -> List[WireResult]:
        """Pipeline a wave, split by affinity: each worker receives its
        resources' requests as one contiguous pipelined sub-wave (so
        per-worker batch windows still see back-to-back arrivals);
        results return in input order."""
        if not payloads:
            return []
        by_worker: Dict[int, List[int]] = {}
        for position, payload in enumerate(payloads):
            by_worker.setdefault(self.route(payload), []).append(position)
        results: List[Optional[WireResult]] = [None] * len(payloads)
        for index, positions in by_worker.items():
            wave = [payloads[p] for p in positions]
            for attempt in (0, 1):
                try:
                    answers = self._client_for(index).submit_many(wave)
                    break
                except (ConnectionLost, ConnectionError, OSError) as exc:
                    if attempt or isinstance(exc, ConnectionLost):
                        raise
                    self.refresh()
                    index = self.route(wave[0])
            for position, answer in zip(positions, answers):
                results[position] = answer
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # aggregate reads ride the front port (any worker answers for all)
    # ------------------------------------------------------------------
    def stats(self) -> Tuple[ServiceStats, QueryStats]:
        return self._front.stats()

    def store_stats(self):
        return self._front.store_stats()

    def healthz(self) -> dict:
        return self._front.healthz()

    def catalog(self) -> dict:
        return self._front.catalog()

    def workers(self) -> dict:
        response = self._front.request("GET", "/workers")
        if response.status != 200:
            raise self._front._error_for(response)
        return response.body

    def close(self) -> None:
        for client in self._workers.values():
            client.close()
        self._workers.clear()
        self._front.close()

    def __enter__(self) -> "ShardedServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
