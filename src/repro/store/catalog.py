"""Store-catalog manifest primitives.

A store catalog is a directory of persisted resources tied together by
a ``catalog.json`` manifest: trajectory and facility bundles and one
index file per (facility, psi, tier) named by the
exact spill-file tokens :class:`repro.engine.ShardStore` probes.  This
module owns the manifest format — its name, schema version, and atomic
read/write — which is all the *store* layer needs to know about
catalogs.

Building a catalog from a source spec and reconstructing a live serving
:class:`~repro.service.http.catalog.Catalog` from one are serving-layer
concerns and live next to the catalog class they produce:
:func:`repro.service.http.catalog.build_store_catalog` /
:func:`~repro.service.http.catalog.open_store_catalog` (the
``python -m repro.store build`` / ``--catalog store:<dir>`` pair).

Every on-disk failure raises :class:`~repro.core.errors.StoreError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict

from ..core.errors import StoreError

__all__ = [
    "DEFAULT_PSI",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "read_manifest",
    "write_manifest",
]

MANIFEST_NAME = "catalog.json"

#: Manifest schema version; bumped on incompatible layout changes.
MANIFEST_VERSION = 1

#: Default serving radius the index files are precomputed for — the
#: benchmarks' and examples' standard psi.
DEFAULT_PSI = 300.0


def write_manifest(out_dir: str, manifest: Dict) -> None:
    """Atomically write ``manifest`` as ``<out_dir>/catalog.json``."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=MANIFEST_NAME + ".", suffix=".tmp", dir=out_dir
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write manifest {path!r}: {exc}") from exc


def read_manifest(store_dir: str) -> Dict:
    """The parsed ``catalog.json`` of ``store_dir``; StoreError on any
    problem."""
    path = os.path.join(store_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise StoreError(
            f"{store_dir!r} is not a store catalog (no readable "
            f"{MANIFEST_NAME}): {exc}"
        ) from exc
    except ValueError as exc:
        raise StoreError(f"malformed manifest {path!r}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreError(f"malformed manifest {path!r}: not an object")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise StoreError(
            f"manifest {path!r} has version {version!r}; this build reads "
            f"version {MANIFEST_VERSION} only"
        )
    for key in ("trees", "facility_sets", "beta"):
        if key not in manifest:
            raise StoreError(f"manifest {path!r} is missing {key!r}")
    return manifest
