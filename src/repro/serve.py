"""``python -m repro.serve`` — run the HTTP serving front.

Composes the full deployment stack from command-line flags — catalog
(named trees + facility sets), :class:`~repro.runtime.QueryRuntime`
(backend / shards), :class:`~repro.service.QueryService`
(batching), :class:`~repro.service.http.HttpQueryServer`
(transport) — serves until SIGINT/SIGTERM, then drains gracefully:
in-flight requests complete, new ones are shed with 503.

Quickstart::

    PYTHONPATH=src python -m repro.serve --port 8314 &
    curl -s localhost:8314/query -d '{
        "type": "kmaxrrst", "tree": "demo", "facility_set": "demo",
        "k": 3, "spec": {"model": "endpoint", "psi": 300.0}}'
    curl -s localhost:8314/stats

See ``--help`` for the catalog spec grammar and every serving knob.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from typing import Optional, Sequence

from .core.config import (
    SHARDS_AUTO,
    HttpConfig,
    ProximityBackend,
    RuntimeConfig,
    ServiceConfig,
)
from .core.errors import ReproError
from .service.http import catalog_from_spec
from .service.http.server import serving
from .service.http.supervisor import run_supervisor, with_derived_store_dir

__all__ = ["build_parser", "config_from_args", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve the paper's trajectory-coverage queries over HTTP "
            "(stdlib only; POST /query, GET /stats, /healthz, /catalog)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=8314,
        help="listen port (0 asks the OS for an ephemeral one)",
    )
    parser.add_argument(
        "--catalog", default="demo",
        help=(
            "resource catalog spec: "
            "'demo[:n_users[:n_facilities[:n_stops[:seed]]]]' for the "
            "synthetic city, 'csv:<users_path>:<facilities_path>[:beta]' "
            "for datasets saved by repro.datasets, or 'store:<dir>' for a "
            "persisted catalog precomputed by 'python -m repro.store "
            "build' (O(open) startup; the runtime also opens that "
            "directory's index files instead of rebuilding) "
            "(default: demo)"
        ),
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to wait for in-flight requests at shutdown",
    )
    scaleout = parser.add_argument_group("scale-out (prefork workers)")
    scaleout.add_argument(
        "--workers", type=int, default=1,
        help="serving processes sharing the listen port; each runs the "
        "full runtime/service/HTTP stack over the same memory-mapped "
        "store catalog (1 = classic single-process server)",
    )
    scaleout.add_argument(
        "--start-method", default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for workers "
        "(default: the platform default)",
    )
    service = parser.add_argument_group("service (batching)")
    service.add_argument(
        "--batch-window", type=float, default=0.0,
        help="> 0 defers every request to a group that runs the "
        "requests arriving in one loop iteration in submission order "
        "(the length is unused; 0 runs each request at once)",
    )
    runtime = parser.add_argument_group("runtime")
    runtime.add_argument(
        "--backend", default="auto",
        choices=[b.value for b in ProximityBackend],
        help="proximity backend for exact psi-distance checks",
    )
    runtime.add_argument(
        "--shards", type=int, default=SHARDS_AUTO,
        help="grid shard count (0 = auto per stop set)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> HttpConfig:
    """Fold parsed flags into one validated :class:`HttpConfig`."""
    return HttpConfig(
        host=args.host,
        port=args.port,
        catalog=args.catalog,
        drain_timeout=args.drain_timeout,
        workers=args.workers,
        start_method=args.start_method,
        service=ServiceConfig(batch_window=args.batch_window),
        runtime=RuntimeConfig(
            backend=ProximityBackend(args.backend),
            shards=args.shards,
        ),
    )


def run(config: HttpConfig) -> int:
    """Build the deployment described by ``config`` and serve until a
    termination signal arrives."""
    # for store catalogs the catalog directory doubles as the runtime's
    # persisted-index spill: ShardStore opens precomputed grid/cellstring
    # files from it instead of rebuilding them on first query
    config = with_derived_store_dir(config)
    if config.workers > 1:
        # prefork scale-out: a supervisor owns the port, N worker
        # processes each run this module's single-process stack
        try:
            return run_supervisor(config)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"resolving catalog {config.catalog!r} ...", flush=True)
    try:
        catalog = catalog_from_spec(config.catalog)
    except (ReproError, OSError) as exc:
        # a bad spec or a missing CSV path is an operator mistake, not
        # a crash: say what went wrong, exit like a CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def amain() -> None:
        async with serving(
            catalog,
            runtime_config=config.runtime,
            service_config=config.service,
            host=config.host,
            port=config.port,
            drain_timeout=config.drain_timeout,
        ) as server:
            host, port = server.address
            trees = ", ".join(catalog.tree_names)
            sets = ", ".join(catalog.facility_set_names)
            print(
                f"serving on http://{host}:{port}  "
                f"(trees: {trees}; facility sets: {sets})"
            )
            print(
                f"  try: curl -s {host}:{port}/query -d "
                "'{\"type\": \"kmaxrrst\", "
                f"\"tree\": \"{catalog.tree_names[0]}\", "
                f"\"facility_set\": \"{catalog.facility_set_names[0]}\", "
                "\"k\": 3, \"spec\": {\"model\": \"endpoint\", "
                "\"psi\": 300.0}}'",
                flush=True,
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(sig, stop.set)
            await server.serve_until(stop)
            print("drained; shutting down")

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        pass
    except (ReproError, OSError) as exc:
        # bind failures (port in use, privileged port) are operator
        # mistakes too: same clean exit as a bad catalog spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
