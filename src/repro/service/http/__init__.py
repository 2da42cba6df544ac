"""The stdlib HTTP serving front over :class:`~repro.service.QueryService`.

Three pieces, one per layer of the network story:

* :mod:`~repro.service.http.wire` — the JSON codec between sockets and
  the in-process request/result dataclasses;
* :mod:`~repro.service.http.catalog` — named server-resident resources
  (trees, facility sets) that wire requests reference, since live
  index objects cannot cross the socket;
* :mod:`~repro.service.http.server` / :mod:`~repro.service.http.client`
  — the ``asyncio.start_server`` HTTP/1.1 server (routes, error
  mapping, graceful drain) and the blocking stdlib client the tests
  and benchmark drive it with;
* :mod:`~repro.service.http.supervisor` — the prefork scale-out layer:
  N worker processes sharing one listen port over the same
  memory-mapped store catalog.

Run a server from the command line with ``python -m repro.serve``
(``--workers N`` for the prefork pool).
"""

from .catalog import (
    Catalog,
    build_demo_catalog,
    build_store_catalog,
    catalog_from_spec,
    open_store_catalog,
)
from .client import ConnectionLost, HttpResponse, ServeClient
from .server import (
    BackgroundServer,
    HttpQueryServer,
    WorkerPeer,
    background_server,
    serving,
)
from .supervisor import Supervisor, reuseport_available, run_supervisor
from .wire import (
    WireFleet,
    WireRanking,
    WireResult,
    decode_request,
    decode_result,
    encode_result,
    wire_result,
)

__all__ = [
    "Catalog",
    "build_demo_catalog",
    "build_store_catalog",
    "catalog_from_spec",
    "open_store_catalog",
    "HttpQueryServer",
    "BackgroundServer",
    "background_server",
    "serving",
    "WorkerPeer",
    "Supervisor",
    "run_supervisor",
    "reuseport_available",
    "ServeClient",
    "ConnectionLost",
    "HttpResponse",
    "WireResult",
    "WireRanking",
    "WireFleet",
    "decode_request",
    "decode_result",
    "encode_result",
    "wire_result",
]
