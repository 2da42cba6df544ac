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

Against a prefork pool the same client talks to the shared front port:
the kernel hands each connection to one worker, so what one client
sends runs on that worker, in order, until the connection is replaced.
"""

from __future__ import annotations

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
    "HttpResponse",
    "ConnectionLost",
]


class ConnectionLost(QueryError):
    """The connection died and the exchange could not be completed
    (after the client's own one-retry budget).  The distinct type tells
    a transport failure apart from an answer the server sent."""


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
                try:
                    wire.add_header(headers, raw)
                except ValueError as exc:
                    raise QueryError(str(exc)) from None
            try:
                length = wire.content_length(
                    headers.get("content-length", "0")
                )
            except ValueError as exc:
                raise QueryError(str(exc)) from None
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
        read, which saves a round trip per request; the server still
        answers them one at a time, in order.  Every response is read
        before anything is raised — the connection stays framed — then the
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
