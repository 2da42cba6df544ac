"""Memory-mapped persistent index store.

One index per file in a versioned container format (:mod:`.format`);
:func:`save_index` / :func:`open_index` round-trip the engine's
:class:`~repro.engine.shards.ShardedStopGrid` and
:class:`~repro.engine.cellstring.CellstringIndex` through it with
zero-copy ``np.memmap`` reads, so startup is O(open) instead of
O(rebuild) and concurrent processes share one read-only mapping per
file.  :mod:`.catalog` owns the ``catalog.json`` manifest format that
ties a directory of store files into a serving catalog; building and
opening whole catalogs (``python -m repro.store build`` →
``--catalog store:<dir>``) lives with the catalog class it produces,
in :mod:`repro.service.http.catalog`.

Every on-disk failure is a :class:`~repro.core.errors.StoreError`.
"""

from .catalog import read_manifest, write_manifest
from .codecs import (
    open_index,
    open_trajectory_bundle,
    save_index,
    save_trajectory_bundle,
)
from .format import (
    FORMAT_VERSION,
    MAGIC,
    inspect_store_file,
    read_store_file,
    write_store_file,
)

# The engine's shard store reads spilled indexes through a registered
# opener rather than importing the store (which builds on the engine);
# importing repro.store is what plugs the on-disk format in.
from ..engine.shards import register_spill_opener as _register_spill_opener

_register_spill_opener(open_index)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_store_file",
    "read_store_file",
    "inspect_store_file",
    "save_index",
    "open_index",
    "save_trajectory_bundle",
    "open_trajectory_bundle",
    "read_manifest",
    "write_manifest",
]
