"""The stdlib HTTP/1.1 server over :class:`~repro.service.QueryService`.

``asyncio.start_server`` plus a hand-rolled HTTP/1.1 framing layer —
the container bakes no web framework, and the serving layer needs only
four routes:

* ``POST /query``  — answer one wire request (all three query types);
* ``GET /stats``   — service + runtime counter snapshots;
* ``GET /healthz`` — liveness (``ok`` serving, ``draining`` during
  shutdown);
* ``GET /catalog`` — the named resources wire requests may reference.

**Error mapping.**  The transport never invents failure semantics — it
projects the library's typed errors onto status codes:
:class:`~repro.core.errors.CatalogError` → 404 (a name the server does
not hold); :class:`~repro.core.errors.QueryError`, undecodable JSON and
malformed framing → 400 (an oversized body → 413).  Anything else
escaping a core is a genuine server bug and maps to 500 rather than
being swallowed.  The only 503 is the drain's.

**Drain.**  :meth:`HttpQueryServer.drain` stops accepting connections,
lets every request already read run to completion (bounded by
``drain_timeout``), then closes idle keep-alive connections.  New
``POST /query`` arrivals on existing connections during the drain are
answered 503 with ``Retry-After``.  The drain never cancels a request
it has read.

Connections are HTTP/1.1 keep-alive by default (``Connection: close``
honoured); request framing is by ``Content-Length``, ``1*DIGIT`` and
sent once (no chunked bodies — every client this repo ships sends
measured JSON).

**Pipelining.**  A connection answers one request at a time: read a
frame, dispatch it, write its response, read the next.  Pipelined
frames wait in the socket until then, so responses leave in request
order and backpressure is TCP's.  Cores run on the event loop anyway,
so answering a connection's frames concurrently would buy nothing.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import socket
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.config import RuntimeConfig, ServiceConfig
from ...core.errors import CatalogError, QueryError
from ...runtime import QueryRuntime
from ..service import QueryService
from . import wire
from .catalog import Catalog

__all__ = [
    "HttpQueryServer",
    "WorkerPeer",
    "BackgroundServer",
    "background_server",
    "serving",
]

#: How long one worker waits for a peer's ``/stats?scope=local`` when
#: aggregating — a dead peer (killed, mid-respawn) must degrade the
#: aggregate, not hang it.
PEER_STATS_TIMEOUT = 5.0


@dataclass(frozen=True)
class WorkerPeer:
    """One worker process in a prefork pool, as every other worker sees
    it: its pool index, its pid, and its *direct* address — the
    worker-private listener the aggregated ``/stats`` and ``/healthz``
    fan out over, as opposed to the shared front port the kernel
    load-balances."""

    index: int
    pid: int
    host: str
    port: int


#: Framing bounds: a request line / header block / body larger than
#: these is rejected rather than buffered without limit.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: What a 503 tells the client about when to come back.
RETRY_AFTER_SECONDS = 1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _ProtocolError(Exception):
    """A malformed HTTP frame: carries the status to answer with."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class _Response:
    status: int
    payload: dict
    headers: Tuple[Tuple[str, str], ...] = ()


class HttpQueryServer:
    """One listening socket serving one :class:`QueryService` and one
    :class:`Catalog` (see module docstring).

    The server borrows both — it never closes the service or the
    runtime; whoever composed the deployment (the ``repro.serve`` CLI,
    :func:`background_server`, a test) owns their lifecycles.
    """

    def __init__(
        self,
        service: QueryService,
        catalog: Catalog,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 10.0,
        sockets: Optional[Sequence[socket.socket]] = None,
        worker_index: Optional[int] = None,
    ) -> None:
        self.service = service
        self.catalog = catalog
        self._host = host
        self._port = port
        self._drain_timeout = drain_timeout
        #: Pre-bound listening sockets (the prefork supervisor's worker
        #: path): the first is the *front* (shared) listener, the last
        #: the worker's *direct* listener.  ``None`` binds host/port.
        self._sockets = list(sockets) if sockets is not None else None
        #: This process's index in a prefork pool, or ``None`` for the
        #: classic single-process server.
        self.worker_index = worker_index
        self._servers: List[asyncio.base_events.Server] = []
        self._address: Optional[Tuple[str, int]] = None
        self._direct_address: Optional[Tuple[str, int]] = None
        self._peers: Tuple[WorkerPeer, ...] = ()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)`` with any
        ephemeral port (``port=0``) resolved.

        With pre-bound ``sockets`` one accept loop starts per socket —
        all feeding the same connection handler, so front-port and
        direct-port requests are indistinguishable past accept."""
        if self._servers:
            raise QueryError("server already started")
        if self._sockets is not None:
            for sock in self._sockets:
                self._servers.append(
                    await asyncio.start_server(
                        self._handle_connection, sock=sock
                    )
                )
            first = self._servers[0].sockets[0].getsockname()
            last = self._servers[-1].sockets[0].getsockname()
            self._address = (first[0], first[1])
            self._direct_address = (last[0], last[1])
        else:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection, self._host, self._port
                )
            )
            sockname = self._servers[0].sockets[0].getsockname()
            self._address = (sockname[0], sockname[1])
            self._direct_address = self._address
        return self._address

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise QueryError("server not started")
        return self._address

    @property
    def direct_address(self) -> Tuple[str, int]:
        """The worker-private listener's address (== :attr:`address`
        for a single-listener server)."""
        if self._direct_address is None:
            raise QueryError("server not started")
        return self._direct_address

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def peers(self) -> Tuple[WorkerPeer, ...]:
        return self._peers

    def set_peers(self, peers: Sequence[WorkerPeer]) -> None:
        """Install the worker table (every worker in the pool, self
        included).  Runs on the server's loop: a worker's control-pipe
        reader thread hands it over with ``loop.call_soon_threadsafe``."""
        self._peers = tuple(sorted(peers, key=lambda p: p.index))

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests
        (bounded by ``drain_timeout``), close remaining connections."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._busy:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._idle.wait(), self._drain_timeout)
        for writer in list(self._writers):
            writer.close()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain — the CLI's main loop."""
        await stop.wait()
        await self.drain()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one request at a time: read a frame, dispatch it,
        write its response, repeat (see *Pipelining* in the module
        docstring).  A request already read runs to completion even when
        its peer has vanished — read work is never cancelled, matching
        the drain semantics."""
        self._writers.add(writer)
        try:
            try:
                while True:
                    try:
                        frame = await self._read_request(reader)
                    except _ProtocolError as exc:
                        response = _Response(
                            exc.status,
                            {"error": "bad_request", "detail": exc.detail},
                        )
                        await self._write_response(writer, response, close=True)
                        break
                    if frame is None:
                        break  # clean EOF between requests
                    method, path, headers, body = frame
                    self._busy += 1
                    self._idle.clear()
                    try:
                        response = await self._dispatch(method, path, body)
                    except Exception as exc:  # pragma: no cover - server bug
                        response = _Response(
                            500,
                            {"error": "internal",
                             "detail": f"{type(exc).__name__}: {exc}"},
                        )
                    finally:
                        self._busy -= 1
                        if self._busy == 0:
                            self._idle.set()
                    close = self._draining or _wants_close(headers)
                    await self._write_response(writer, response, close=close)
                    if close:
                        break
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # peer went away mid-frame or mid-response
            finally:
                self._writers.discard(writer)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
        except asyncio.CancelledError:
            # only loop shutdown cancels handlers (drain closes writers
            # instead); cleanup already ran, and a handler task that
            # *ends* cancelled makes asyncio's streams done-callback
            # re-raise inside the event loop and log spurious noise —
            # finish normally instead
            pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise _ProtocolError(400, "truncated request line") from None
        except asyncio.LimitOverrunError:
            raise _ProtocolError(400, "request line too long") from None
        if len(line) > MAX_REQUEST_LINE:
            raise _ProtocolError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _ProtocolError(400, f"malformed request line: {line!r}")
        method, path, version = parts
        if not version.startswith("HTTP/1."):
            raise _ProtocolError(400, f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        total = 0
        while True:
            try:
                raw = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                raise _ProtocolError(400, "truncated headers") from None
            total += len(raw)
            if total > MAX_HEADER_BYTES:
                raise _ProtocolError(400, "headers too large")
            stripped = raw.strip()
            if not stripped:
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            # no whitespace around a field name (RFC 9112 §5.1): a
            # "Content-Length :" another parser skips would desync us
            if not sep or not name or name != name.strip():
                raise _ProtocolError(400, f"malformed header: {raw!r}")
            name = name.lower()
            if name == "content-length" and name in headers:
                raise _ProtocolError(400, "repeated Content-Length")
            headers[name] = value.strip()
        if "transfer-encoding" in headers:
            # Content-Length is the only framing this server speaks; a
            # silently-ignored chunked body would desynchronize the
            # connection (the chunk stream would parse as request lines)
            raise _ProtocolError(
                400,
                "Transfer-Encoding is not supported; send a "
                "Content-Length-framed body",
            )
        try:
            length = wire.content_length(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _ProtocolError(400, str(exc)) from None
        if length > MAX_BODY_BYTES:
            raise _ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes) -> _Response:
        path, _, query = path.partition("?")
        local_scope = "scope=local" in query.split("&")
        if path == "/query":
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._handle_query(body)
        if path == "/stats":
            if method != "GET":
                return _method_not_allowed("GET")
            if self._peers and not local_scope:
                return _Response(200, await self._aggregated_stats_payload())
            return _Response(200, self._stats_payload())
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            if self._peers and not local_scope:
                return _Response(200, await self._aggregated_healthz_payload())
            return _Response(200, self._healthz_payload())
        if path == "/catalog":
            if method != "GET":
                return _method_not_allowed("GET")
            return _Response(200, self.catalog.describe())
        return _Response(
            404,
            {
                "error": "not_found",
                "detail": f"no route {path!r} (try /query, /stats, "
                "/healthz, /catalog)",
            },
        )

    async def _handle_query(self, body: bytes) -> _Response:
        if self._draining:
            return _Response(
                503,
                {"error": "overloaded",
                 "detail": "server is draining; retry against a peer"},
                headers=(("Retry-After", str(RETRY_AFTER_SECONDS)),),
            )
        try:
            payload = json.loads(body)
        except ValueError as exc:
            return _Response(
                400,
                {"error": "bad_request", "detail": f"body is not valid JSON: {exc}"},
            )
        try:
            request = wire.decode_request(payload, self.catalog)
        except CatalogError as exc:
            return _Response(404, {"error": "not_found", "detail": str(exc)})
        except QueryError as exc:
            return _Response(400, {"error": "bad_request", "detail": str(exc)})
        except Exception as exc:
            # a decode surprise (a validation the codec missed) must
            # never kill the connection: it is still the client's body
            return _Response(
                400,
                {
                    "error": "bad_request",
                    "detail": f"undecodable request: {type(exc).__name__}: {exc}",
                },
            )
        try:
            result = await self.service.submit(request)
        except QueryError as exc:
            # a core-raised QueryError (the request constructed, so this
            # is an execution-time complaint): still the client's 400;
            # anything else is a server bug, answered 500 by the caller
            return _Response(400, {"error": "bad_request", "detail": str(exc)})
        return _Response(200, wire.encode_result(result))

    def _stats_payload(self) -> dict:
        payload = {
            "service": wire.encode_service_stats(self.service.stats),
            "runtime": wire.encode_query_stats(
                self.service.runtime.snapshot_stats()
            ),
            "store": wire.encode_store_stats(
                self.service.runtime.snapshot_store_stats()
            ),
            "in_flight": self.service.in_flight,
        }
        if self.worker_index is not None:
            runtime = self.service.runtime
            payload["worker"] = {
                "index": self.worker_index,
                "pid": os.getpid(),
                "host": self.direct_address[0],
                "port": self.direct_address[1],
                # the zero-copy evidence: store files served over mmap
                # views instead of private index copies
                "mmap_paths": list(runtime.worker_mmap_paths()),
            }
        return payload

    def _healthz_payload(self) -> dict:
        status = "draining" if self._draining else "ok"
        payload = {"status": status, "in_flight": self.service.in_flight}
        if self.worker_index is not None:
            payload["worker"] = {
                "index": self.worker_index, "pid": os.getpid(),
            }
        return payload

    # ------------------------------------------------------------------
    # cross-worker aggregation (the prefork pool's shared /stats story)
    # ------------------------------------------------------------------
    async def _peer_payloads(self, path: str) -> Dict[str, dict]:
        """Fetch ``path`` from every worker in the table — self served
        locally, peers over their direct listeners, concurrently.  An
        unreachable peer (killed, mid-respawn) degrades to an ``error``
        entry instead of failing the aggregate."""

        async def fetch(peer: WorkerPeer) -> Tuple[str, dict]:
            if peer.index == self.worker_index:
                if path.startswith("/healthz"):
                    return str(peer.index), self._healthz_payload()
                return str(peer.index), self._stats_payload()
            try:
                payload = await asyncio.wait_for(
                    _http_get_json(peer.host, peer.port, path),
                    PEER_STATS_TIMEOUT,
                )
            except (OSError, asyncio.TimeoutError, QueryError) as exc:
                payload = {
                    "error": "unreachable",
                    "detail": f"worker {peer.index} (pid {peer.pid}): "
                    f"{type(exc).__name__}: {exc}",
                }
            return str(peer.index), payload

        pairs = await asyncio.gather(*(fetch(p) for p in self._peers))
        return dict(pairs)

    async def _aggregated_stats_payload(self) -> dict:
        """The pool-wide ``GET /stats``: per-worker payloads under
        ``workers`` plus *summed* service/runtime/store counters in the
        single-process payload's shape — a client summing outcomes or
        asserting invariants reads the same keys either way."""
        workers = await self._peer_payloads("/stats?scope=local")
        reachable = [w for w in workers.values() if "error" not in w]
        payload = {
            "service": wire.encode_service_stats(
                _sum_stats(
                    [wire.decode_service_stats(w["service"]) for w in reachable]
                )
            ),
            "runtime": wire.encode_query_stats(
                _sum_stats(
                    [wire.decode_query_stats(w["runtime"]) for w in reachable]
                )
            ),
            "store": wire.encode_store_stats(
                _sum_stats(
                    [wire.decode_store_stats(w["store"]) for w in reachable]
                )
            ),
            "in_flight": sum(w["in_flight"] for w in reachable),
            "workers": workers,
        }
        return payload

    async def _aggregated_healthz_payload(self) -> dict:
        """The pool-wide ``GET /healthz``: overall status is ``ok``
        only when every worker answered ``ok`` — a missing or draining
        worker degrades the pool, visibly."""
        workers = await self._peer_payloads("/healthz?scope=local")
        statuses = [w.get("status") for w in workers.values()]
        if all(s == "ok" for s in statuses):
            status = "ok"
        elif any(s == "draining" for s in statuses):
            status = "draining"
        else:
            status = "degraded"
        return {
            "status": status,
            "in_flight": sum(
                w.get("in_flight", 0)
                for w in workers.values()
                if "error" not in w
            ),
            "workers": workers,
        }

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response, close: bool
    ) -> None:
        body = json.dumps(response.payload).encode("utf-8")
        reason = _REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in response.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def _sum_stats(items):
    """Field-wise sum of same-type counter dataclasses (ServiceStats /
    QueryStats / StoreStats — every field an int).  ``items`` is never
    empty on the aggregation path: the local worker always contributes."""
    cls = type(items[0])
    return cls(
        **{
            f.name: sum(getattr(item, f.name) for item in items)
            for f in dataclasses.fields(cls)
        }
    )


async def _http_get_json(host: str, port: int, path: str) -> dict:
    """One ``GET`` against a peer worker's direct listener, parsed as
    JSON.  Deliberately minimal (one-shot connection, Content-Length
    framing only) — this is the intra-pool stats fan-out, talking to a
    server this very module implements."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise QueryError(f"malformed peer status line: {status_line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise QueryError(
                f"malformed peer status line: {status_line!r}"
            ) from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw:
                raise QueryError("peer closed inside response headers")
            if not raw.strip():
                break
            try:
                wire.add_header(headers, raw)
            except ValueError as exc:
                raise QueryError(f"peer sent a {exc}") from None
        try:
            length = wire.content_length(headers.get("content-length", "0"))
        except ValueError as exc:
            raise QueryError(f"peer sent a {exc}") from None
        body = await reader.readexactly(length) if length else b""
        if status != 200:
            raise QueryError(f"peer answered HTTP {status}")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise QueryError(f"peer body is not valid JSON: {exc}") from None
    except asyncio.IncompleteReadError:
        raise QueryError("peer closed inside response body") from None
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def _wants_close(headers: Dict[str, str]) -> bool:
    return headers.get("connection", "").lower() == "close"


def _method_not_allowed(allowed: str) -> _Response:
    return _Response(
        405,
        {"error": "method_not_allowed", "detail": f"use {allowed}"},
        headers=(("Allow", allowed),),
    )


# ----------------------------------------------------------------------
# deployment composition (shared by the CLI and in-process embedding)
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def serving(
    catalog: Catalog,
    runtime_config: Optional[RuntimeConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout: float = 10.0,
    sockets: Optional[Sequence[socket.socket]] = None,
    worker_index: Optional[int] = None,
):
    """Compose and start the full deployment (runtime → service →
    HTTP server), yield the started server, and tear it down in
    dependency order on exit: drain (unless the body already did),
    then close the service.

    ``sockets`` / ``worker_index`` are the prefork worker path: serve
    pre-bound listeners (shared front + worker-direct) under a pool
    identity instead of binding ``host:port``."""
    runtime = QueryRuntime(
        runtime_config if runtime_config is not None else RuntimeConfig()
    )
    service = QueryService(runtime, service_config)
    try:
        server = HttpQueryServer(
            service,
            catalog,
            host=host,
            port=port,
            drain_timeout=drain_timeout,
            sockets=sockets,
            worker_index=worker_index,
        )
        await server.start()
        try:
            yield server
        finally:
            if not server.draining:
                await server.drain()
    finally:
        service.close()


# ----------------------------------------------------------------------
# in-process embedding (tests, benchmarks, notebooks)
# ----------------------------------------------------------------------
class BackgroundServer:
    """A running server on its own thread + event loop.

    Created by :func:`background_server`; exposes the bound address,
    :meth:`drain` and :meth:`service_stats`, each run on the server's
    loop, so a synchronous caller (a test, the benchmark harness) can
    drive a real socket without owning an event loop.
    """

    def __init__(self) -> None:
        self.address: Optional[Tuple[str, int]] = None
        self.server: Optional[HttpQueryServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def drain(self, timeout: float = 30.0) -> None:
        """Run the server's drain on its loop; returns when complete."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout)

    def service_stats(self):
        """A copy of the served :class:`QueryService`'s counters, taken
        on the server's loop (the thread that owns the service)."""

        async def snapshot():
            return self.server.service.stats

        return asyncio.run_coroutine_threadsafe(snapshot(), self._loop).result(60)


@contextlib.contextmanager
def background_server(
    catalog: Catalog,
    runtime_config: Optional[RuntimeConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout: float = 10.0,
):
    """Run a fully composed server (runtime → service → HTTP) on a
    background thread; yields a :class:`BackgroundServer`.

    On exit the server drains and the service closes (waiting for
    running cores) — the complete deployment teardown, in dependency
    order.
    """
    handle = BackgroundServer()

    def runner() -> None:
        async def main() -> None:
            async with serving(
                catalog,
                runtime_config=runtime_config,
                service_config=service_config,
                host=host,
                port=port,
                drain_timeout=drain_timeout,
            ) as server:
                handle.address = server.address
                handle.server = server
                handle._loop = asyncio.get_running_loop()
                handle._stop = asyncio.Event()
                handle._ready.set()
                await handle._stop.wait()

        try:
            asyncio.run(main())
        except BaseException as exc:  # startup or teardown failure
            handle._error = exc
            handle._ready.set()

    thread = threading.Thread(
        target=runner, name="repro-http-server", daemon=True
    )
    thread.start()
    handle._ready.wait(60)
    if handle._error is not None:
        raise handle._error
    if handle.address is None:
        raise QueryError("HTTP server failed to start within 60s")
    try:
        yield handle
    finally:
        if handle._loop is not None and handle._loop.is_running():
            handle._loop.call_soon_threadsafe(handle._stop.set)
        thread.join(60)
        if thread.is_alive():  # pragma: no cover - teardown hang
            raise QueryError("HTTP server failed to shut down within 60s")
