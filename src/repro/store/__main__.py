"""``python -m repro.store`` — build, inspect, and verify store files.

Subcommands::

    build    --out DIR [--source SPEC] [--psi X ...] [--shards N] [--beta B]
             Precompute a catalog directory offline; serve it with
             ``python -m repro.serve --catalog store:DIR``.
    inspect  PATH...
             Print each store file's header (kind, meta, segments) as
             JSON, without loading payloads.
    verify   PATH...
             Re-read each store file (or every ``*.idx`` plus the
             manifest of a directory) with content-hash verification;
             exit 1 if anything fails or a file the manifest names is
             missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Set

from ..core.errors import StoreError
from ..service.http.catalog import build_store_catalog
from .catalog import read_manifest
from .format import inspect_store_file, read_store_file


def _manifest_files(manifest: Dict) -> Set[str]:
    """Every file a manifest names: tree users bundles, facility-set
    bundles and index files (two routes with equal stops share one)."""
    try:
        return (
            {files["users"] for files in manifest["trees"].values()}
            | {entry["file"] for entry in manifest["facility_sets"].values()}
            | set(manifest.get("index_files", ()))
        )
    except (AttributeError, TypeError, KeyError) as exc:
        raise StoreError(f"malformed manifest entry: {exc!r}") from exc


def _cmd_build(args: argparse.Namespace) -> int:
    manifest = build_store_catalog(
        args.out,
        source_spec=args.source,
        psi_values=args.psi,
        n_shards=args.shards,
        beta=args.beta,
    )
    n_files = len(_manifest_files(manifest)) + 1  # and catalog.json
    print(
        f"built store catalog at {args.out} from {args.source!r}: "
        f"{len(manifest['trees'])} tree(s), "
        f"{len(manifest['facility_sets'])} facility set(s), "
        f"{n_files} files"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    for path in args.paths:
        print(json.dumps(inspect_store_file(path), indent=2, sort_keys=True))
    return 0


def _verify_targets(paths: List[str]) -> List[str]:
    targets: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            # a directory must be a store catalog holding every file it names
            named = _manifest_files(read_manifest(path))
            missing = sorted(n for n in named if not os.path.isfile(os.path.join(path, n)))
            if missing:
                raise StoreError(f"store catalog {path!r} is missing {', '.join(missing)}")
            targets.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".idx")
            )
        else:
            targets.append(path)
    return targets


def _cmd_verify(args: argparse.Namespace) -> int:
    targets = _verify_targets(args.paths)
    for path in targets:
        read_store_file(path, mmap_mode="r", verify=True)
        print(f"ok {path}")
    print(f"verified {len(targets)} file(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Build, inspect, and verify persistent index stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="precompute a catalog directory")
    build.add_argument("--out", required=True, help="output directory")
    build.add_argument(
        "--source",
        default="demo",
        help="source catalog spec (demo[:...] or csv:<users>:<facilities>)",
    )
    build.add_argument(
        "--psi",
        type=float,
        action="append",
        help="serving radius to precompute indexes for (repeatable; "
        "default 300.0)",
    )
    build.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count for persisted grids (0 = auto, the serving "
        "default)",
    )
    build.add_argument("--beta", type=int, default=32, help="z-order beta")
    build.set_defaults(func=_cmd_build)

    inspect_ = sub.add_parser("inspect", help="print store-file headers")
    inspect_.add_argument("paths", nargs="+", help="store files")
    inspect_.set_defaults(func=_cmd_inspect)

    verify = sub.add_parser(
        "verify", help="content-hash-verify store files or directories"
    )
    verify.add_argument("paths", nargs="+", help="store files or catalog dirs")
    verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    if args.command == "build" and not args.psi:
        args.psi = [300.0]
    try:
        return args.func(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
