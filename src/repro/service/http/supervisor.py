"""Prefork multi-process serving: N workers over one listen port.

The single-process server (``server.py``) is one asyncio loop that
runs every query core itself — one process, one GIL.  This
module stands up ``HttpConfig.workers`` full serving stacks, each its
own process running ``QueryRuntime → QueryService → HttpQueryServer``,
so RPS scales with cores instead of stopping at one.

**Process model.**  A :class:`Supervisor` (the parent) owns the listen
port and the worker table; it runs no queries itself.  Each worker is a
``multiprocessing.Process`` executing :func:`_worker_main`: compose the
full deployment, serve until told to drain, exit 0.  A worker that
*crashes* (killed, segfault, OOM) is reaped and respawned by the
supervisor's monitor thread without the listen port ever closing;
workers that exit because a drain was requested are not respawned.

**Listener sharing.**  Every worker binds its own ``SO_REUSEPORT``
socket on the shared port and the kernel load-balances incoming
connections across the listening sockets.  The supervisor holds a bound
but *never-listening* ``SO_REUSEPORT`` socket on the same port for its
whole life: TCP connection dispatch only considers listening sockets,
so the probe receives nothing, but it pins the port — an ephemeral
``port=0`` resolves once, before any worker launches, and the port
cannot be stolen even while every worker is mid-respawn.  A platform
without ``SO_REUSEPORT`` gets a :class:`~repro.core.errors.QueryError`
from :meth:`Supervisor.start`.

**The catalog is opened once, copied never.**  Under ``fork`` the
supervisor resolves the catalog spec first and workers inherit the live
objects copy-on-write.  Under ``spawn``/``forkserver`` each worker
re-opens the spec itself — which for ``store:<dir>`` catalogs is
O(open): every worker memory-maps the same immutable index files, so
all N processes (and their runtimes' shard stores) share one physical
page-cache copy.  ``GET /stats`` reports each worker's ``mmap_paths``
so the zero-copy claim is checkable over the wire.

**Worker table.**  Each worker also binds a private *direct* listener
(ephemeral port) and reports it over its control pipe; once all
workers are up the supervisor broadcasts the full table to every
worker.  The table serves the peer fan-out only: ``GET /stats`` /
``GET /healthz`` on the shared port aggregate across it, per-worker
payloads plus summed counters (``?scope=local`` asks a worker for only
its own).  Which worker answers a query is the kernel's choice, one
connection to one worker; no answer depends on it.

**Drain.**  ``Supervisor.stop()`` (or SIGTERM/SIGINT to the
supervisor) fans out SIGTERM; each worker runs the single-process
graceful drain — stop accepting, finish in-flight requests, exit — and
the supervisor joins them, hard-killing only workers that overrun the
drain timeout.  Workers also watch their control pipe: if the
supervisor vanishes (EOF), they drain on their own rather than serving
as orphans.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional, Tuple, Union

from ...core.config import HttpConfig
from ...core.errors import QueryError, ReproError
from .catalog import Catalog, catalog_from_spec
from .server import WorkerPeer, serving

__all__ = [
    "Supervisor",
    "run_supervisor",
    "reuseport_available",
    "with_derived_store_dir",
]

#: Listen backlog for shared/direct listeners (matches the asyncio
#: default magnitude).
_BACKLOG = 128

#: Slack past ``drain_timeout`` before a draining worker is hard-killed.
_JOIN_SLACK = 10.0

#: Monitor thread poll interval (sentinel/pipe wait timeout).
_MONITOR_TICK = 0.25


def reuseport_available() -> bool:
    """Whether this platform can share a port via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


def with_derived_store_dir(config: HttpConfig) -> HttpConfig:
    """For a ``store:<dir>`` catalog with no explicit runtime
    ``store_dir``, point the runtime's persisted-index spill at the
    catalog directory — the ShardStore then *opens* precomputed
    grid/cellstring files over mmap views instead of rebuilding them on
    first query (the single-process CLI applies the same derivation)."""
    if config.catalog.startswith("store:") and config.runtime.store_dir is None:
        store_dir = config.catalog.split(":", 1)[1]
        return dataclasses.replace(
            config,
            runtime=dataclasses.replace(config.runtime, store_dir=store_dir),
        )
    return config


def _bind_socket(
    host: str, port: int, reuseport: bool, listen: bool
) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(_BACKLOG)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _worker_main(
    index: int,
    config: HttpConfig,
    catalog_source: Union[Catalog, str],
    front: Tuple[str, int],
    conn: Connection,
) -> None:
    """Worker process entry point (module-level: picklable for spawn).

    Protocol on ``conn`` (duplex, supervisor on the other end):

    * worker → supervisor: ``("ready", index, pid, host, port)`` once
      serving (host/port = the worker's direct listener), or
      ``("failed", index, detail)`` if bring-up failed;
    * supervisor → worker: ``("peers", [(index, pid, host, port), ...])``
      whenever the table changes, ``("drain",)`` to request a graceful
      exit; EOF means the supervisor is gone — drain too.
    """
    try:
        _worker_serve(index, config, catalog_source, front, conn)
    except BaseException as exc:
        with contextlib.suppress(Exception):
            conn.send(("failed", index, f"{type(exc).__name__}: {exc}"))
        raise


def _worker_serve(
    index: int,
    config: HttpConfig,
    catalog_source: Union[Catalog, str],
    front: Tuple[str, int],
    conn: Connection,
) -> None:
    if isinstance(catalog_source, Catalog):
        catalog = catalog_source  # fork: inherited copy-on-write
    else:
        catalog = catalog_from_spec(catalog_source)
    front_sock = _bind_socket(*front, reuseport=True, listen=True)
    direct_sock = _bind_socket(config.host, 0, reuseport=False, listen=True)

    async def amain() -> None:
        async with serving(
            catalog,
            runtime_config=config.runtime,
            service_config=config.service,
            drain_timeout=config.drain_timeout,
            sockets=[front_sock, direct_sock],
            worker_index=index,
        ) as server:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(sig, stop.set)
            host, port = server.direct_address
            conn.send(("ready", index, os.getpid(), host, port))

            def read_control() -> None:
                try:
                    while True:
                        msg = conn.recv()
                        if msg[0] == "peers":
                            server.set_peers(
                                [WorkerPeer(*entry) for entry in msg[1]]
                            )
                        elif msg[0] == "drain":
                            loop.call_soon_threadsafe(stop.set)
                except (EOFError, OSError):
                    # the supervisor is gone; an orphan must not keep
                    # the port — drain and exit
                    with contextlib.suppress(RuntimeError):
                        loop.call_soon_threadsafe(stop.set)

            reader = threading.Thread(
                target=read_control,
                name=f"repro-worker-{index}-control",
                daemon=True,
            )
            reader.start()
            await server.serve_until(stop)

    asyncio.run(amain())


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "conn", "peer", "conn_dead")

    def __init__(self, index: int, process, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.peer: Optional[WorkerPeer] = None
        self.conn_dead = False


class Supervisor:
    """The prefork parent: owns the port, the workers, and the table.

    Use as a context manager (tests, embedding) or via
    :func:`run_supervisor` (the CLI)::

        with Supervisor(config) as sup:
            host, port = sup.address
            ...  # point clients at the shared port

    ``start()`` returns only once every worker has reported ready, so
    the address is immediately serviceable.  ``stop()`` drains.
    """

    def __init__(self, config: HttpConfig) -> None:
        if config.workers < 2:
            raise QueryError(
                f"Supervisor is for workers >= 2, got {config.workers} "
                "(use the single-process server)"
            )
        self.config = with_derived_store_dir(config)
        self._ctx = multiprocessing.get_context(config.start_method)
        self._workers: Dict[int, _WorkerHandle] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._probe: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._catalog_source: Union[Catalog, str, None] = None
        #: Workers respawned after a crash (observability / tests).
        self.respawns = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The shared front address, ephemeral port resolved."""
        if self._address is None:
            raise QueryError("supervisor not started")
        return self._address

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    def worker_table(self) -> Tuple[WorkerPeer, ...]:
        with self._lock:
            return tuple(
                h.peer for h in self._workers.values() if h.peer is not None
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 120.0) -> Tuple[str, int]:
        """Bind the port, resolve the catalog, launch and await every
        worker, broadcast the table, start the monitor."""
        if self._address is not None:
            raise QueryError("supervisor already started")
        if not reuseport_available():
            raise QueryError(
                "prefork workers share the listen port through "
                "SO_REUSEPORT, which this platform does not have "
                "(serve with workers=1)"
            )
        config = self.config
        if self.start_method == "fork":
            # resolve once; workers inherit the live objects
            # copy-on-write at fork time
            self._catalog_source = catalog_from_spec(config.catalog)
        else:
            # spawn/forkserver: each worker re-opens the spec (O(open)
            # for store catalogs — shared pages, not copies)
            self._catalog_source = config.catalog
        # bound but never listening: pins the port for the
        # supervisor's lifetime without receiving connections
        self._probe = _bind_socket(
            config.host, config.port, reuseport=True, listen=False
        )
        self._address = self._probe.getsockname()
        try:
            for index in range(config.workers):
                self._spawn(index)
            deadline = time.monotonic() + ready_timeout
            for index in range(config.workers):
                self._await_ready(self._workers[index], deadline)
        except BaseException:
            self.stop(drain=False)
            raise
        self._broadcast_peers()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()
        return self._address

    def stop(self, drain: bool = True) -> None:
        """Shut the pool down: stop respawning, signal every worker
        (SIGTERM for a graceful drain, SIGKILL when ``drain=False``),
        join them — hard-killing drain stragglers past the timeout —
        and release the port."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(_JOIN_SLACK + self.config.drain_timeout)
            self._monitor = None
        with self._lock:
            handles = list(self._workers.values())
        for h in handles:
            if h.process.is_alive():
                try:
                    if drain:
                        os.kill(h.process.pid, signal.SIGTERM)
                    else:
                        h.process.kill()
                except (ProcessLookupError, OSError):
                    pass
        budget = (self.config.drain_timeout + _JOIN_SLACK) if drain else _JOIN_SLACK
        deadline = time.monotonic() + budget
        for h in handles:
            h.process.join(max(0.0, deadline - time.monotonic()))
            if h.process.is_alive():  # drain overrun: hard stop
                h.process.kill()
                h.process.join(_JOIN_SLACK)
            with contextlib.suppress(OSError):
                h.conn.close()
        with self._lock:
            self._workers.clear()
        if self._probe is not None:
            with contextlib.suppress(OSError):
                self._probe.close()
            self._probe = None

    def __enter__(self) -> "Supervisor":
        if self._address is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # test / chaos hook
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (mid-run crash injection for tests); the
        monitor reaps and respawns it.  Returns the killed pid."""
        with self._lock:
            handle = self._workers[index]
        pid = handle.process.pid
        with contextlib.suppress(ProcessLookupError, OSError):
            os.kill(pid, signal.SIGKILL)
        return pid

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self.config,
                self._catalog_source,
                self._address,
                child_conn,
            ),
            name=f"repro-http-worker-{index}",
        )
        process.start()
        child_conn.close()
        with self._lock:
            self._workers[index] = _WorkerHandle(index, process, parent_conn)

    def _await_ready(self, handle: _WorkerHandle, deadline: float) -> None:
        while handle.peer is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise QueryError(
                    f"worker {handle.index} did not report ready in time"
                )
            if not _mp_wait([handle.conn, handle.process.sentinel], remaining):
                continue
            if not handle.conn.poll():
                raise QueryError(
                    f"worker {handle.index} (pid {handle.process.pid}) "
                    f"exited during startup "
                    f"(exit code {handle.process.exitcode})"
                )
            msg = handle.conn.recv()
            if msg[0] == "ready":
                _, index, pid, host, port = msg
                handle.peer = WorkerPeer(index, pid, host, port)
            elif msg[0] == "failed":
                raise QueryError(
                    f"worker {handle.index} failed to start: {msg[2]}"
                )

    def _broadcast_peers(self) -> None:
        table = [
            (p.index, p.pid, p.host, p.port) for p in self.worker_table()
        ]
        with self._lock:
            handles = list(self._workers.values())
        for h in handles:
            if h.conn_dead:
                continue
            try:
                h.conn.send(("peers", table))
            except (BrokenPipeError, OSError):
                h.conn_dead = True  # dying worker; sentinel will fire

    def _monitor_loop(self) -> None:
        """Reap crashed workers and respawn them; pump control pipes.
        Runs until :meth:`stop` — which joins this thread *before*
        signalling workers, so a drain-requested exit never respawns."""
        while not self._stopping.is_set():
            with self._lock:
                handles = list(self._workers.values())
            waitees: List = []
            by_sentinel = {}
            by_conn = {}
            for h in handles:
                waitees.append(h.process.sentinel)
                by_sentinel[h.process.sentinel] = h
                if not h.conn_dead:
                    waitees.append(h.conn)
                    by_conn[h.conn] = h
            ready = _mp_wait(waitees, timeout=_MONITOR_TICK)
            for obj in ready:
                if self._stopping.is_set():
                    return
                if obj in by_conn:
                    h = by_conn[obj]
                    try:
                        h.conn.recv()  # late messages; nothing expected
                    except (EOFError, OSError):
                        h.conn_dead = True
                elif obj in by_sentinel:
                    self._respawn(by_sentinel[obj])

    def _respawn(self, handle: _WorkerHandle) -> None:
        handle.process.join(_JOIN_SLACK)
        with contextlib.suppress(OSError):
            handle.conn.close()
        if self._stopping.is_set():
            return
        index = handle.index
        self._spawn(index)
        self.respawns += 1
        with self._lock:
            fresh = self._workers[index]
        try:
            self._await_ready(fresh, time.monotonic() + 120.0)
        except QueryError:
            # it died again before ready; the monitor will see the
            # sentinel and try once more — a persistently crashing
            # worker surfaces as visible churn, not a silent hang
            return
        self._broadcast_peers()


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------
def run_supervisor(config: HttpConfig) -> int:
    """``python -m repro.serve --workers N``: start the pool, serve
    until SIGINT/SIGTERM, drain.  Mirrors the single-process CLI's exit
    discipline (operator mistakes exit 2 with a message)."""
    print(
        f"resolving catalog {config.catalog!r} for {config.workers} "
        f"workers ...",
        flush=True,
    )
    supervisor = Supervisor(config)
    try:
        host, port = supervisor.start()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = supervisor.worker_table()
    print(
        f"serving on http://{host}:{port}  "
        f"({len(table)} workers, "
        f"start_method={supervisor.start_method}; "
        f"pids: {', '.join(str(p.pid) for p in table)})",
        flush=True,
    )
    stop = threading.Event()

    def _handler(signum, frame):  # pragma: no cover - signal path
        stop.set()

    signal.signal(signal.SIGINT, _handler)
    signal.signal(signal.SIGTERM, _handler)
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:  # pragma: no cover - platform dependent
        pass
    print("draining workers ...", flush=True)
    supervisor.stop()
    print("drained; shutting down", flush=True)
    return 0
