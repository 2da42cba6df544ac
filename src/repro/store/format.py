"""The on-disk container: one index per file, arrays page-aligned.

Layout (all integers little-endian)::

    offset 0   magic            b"RPROIDX1"                 (8 bytes)
    offset 8   format version   uint32                      (currently 1)
    offset 12  header length H  uint64
    offset 20  header           H bytes of UTF-8 JSON
    ...        zero padding to the next 4096-byte boundary
    ...        raw segment bytes, each segment 4096-aligned

The JSON header fully describes the payload::

    {
      "kind": "cellstring",          # what open_index reconstructs
      "meta": {...},                 # scalar fields (psi, geometry, ...)
      "content_hash": "<sha256 hex>",
      "segments": [
        {"name": "coords", "dtype": "<f8", "shape": [m, 2],
         "offset": 0, "nbytes": ...},   # offset relative to data start
        ...
      ]
    }

Segment offsets are relative to the (page-aligned) start of the data
region, so the header can be serialized in one pass — its own length
never feeds back into the offsets it records.

``content_hash`` is SHA-256 over a canonical JSON rendering of
``(kind, meta, segment names/dtypes/shapes)`` followed by every
segment's raw bytes in order.  :func:`read_store_file` recomputes it by
default, so silent corruption (a torn write, bit rot, a partially
copied file) surfaces as a typed :class:`~repro.core.errors.StoreError`
— never as garbage arrays.  Opening with ``mmap_mode="r"`` maps the
file read-only and returns zero-copy ``np.memmap`` views; several
processes opening the same path share one physical read-only mapping
through the page cache, which is the whole point of the store.

Writes are atomic: the payload lands in a temporary file in the target
directory, is fsynced, and is moved into place with :func:`os.replace`
— a crashed build can leave a stale temp file, never a half-written
store file under the final name.

Alignment is 4096 bytes (the common page size) so every segment's view
starts on a page boundary — mmap'd access patterns stay page-granular
and int64/float64 views are always safely aligned.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.errors import StoreError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_store_file",
    "read_store_file",
    "inspect_store_file",
]

MAGIC = b"RPROIDX1"
FORMAT_VERSION = 1

#: Segment alignment: one page, so mmap views are page- and
#: dtype-aligned regardless of what precedes them.
_ALIGN = 4096

#: ``(magic, version, header_length)`` — the fixed prelude.
_PRELUDE = struct.Struct("<8sIQ")

#: The only segment dtypes the format admits.  Everything the engine
#: persists is int64 or float64; restricting the set keeps the opener's
#: attack/corruption surface small (a header naming any other dtype is
#: malformed by definition, not merely unusual).
_DTYPES = ("<i8", "<f8")

#: Backstop on header size: a parseable-but-absurd header length must
#: not make the opener allocate gigabytes before validation.
_MAX_HEADER_BYTES = 64 * 1024 * 1024


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _canonical_identity(kind: str, meta: Dict[str, Any], segments) -> bytes:
    """The hashed identity prefix: kind, meta, and segment *structure*
    (offsets excluded — where bytes land in the file is layout, not
    content)."""
    identity = {
        "kind": kind,
        "meta": meta,
        "segments": [
            {"name": s["name"], "dtype": s["dtype"], "shape": s["shape"]}
            for s in segments
        ],
    }
    return json.dumps(identity, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _content_hash(kind, meta, segments, payloads) -> str:
    digest = hashlib.sha256()
    digest.update(_canonical_identity(kind, meta, segments))
    digest.update(b"\x00")
    for raw in payloads:
        digest.update(raw)
    return digest.hexdigest()


def _validated_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """``meta`` checked JSON-round-trippable with scalar values only."""
    if not isinstance(meta, dict):
        raise StoreError(f"meta must be a dict, got {type(meta).__name__}")
    for key, value in meta.items():
        if not isinstance(key, str):
            raise StoreError(f"meta keys must be strings, got {key!r}")
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise StoreError(
                f"meta values must be scalars, got {key}={value!r}"
            )
    return meta


def write_store_file(
    path: str, kind: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> str:
    """Serialize ``arrays`` (name-ordered as given) under ``kind``/``meta``
    to ``path`` atomically; returns the content hash (sha256 hex).

    Every array must be int64 or float64; each is written contiguous
    and page-aligned.  The write lands in a same-directory temp file
    first and is moved into place with :func:`os.replace`, so a crash
    mid-write never leaves a half-file under the final name.
    """
    if not isinstance(kind, str) or not kind:
        raise StoreError(f"kind must be a non-empty string, got {kind!r}")
    meta = _validated_meta(meta)
    segments = []
    payloads = []
    offset = 0
    for name, arr in arrays.items():
        if not isinstance(name, str) or not name:
            raise StoreError(f"segment name must be a non-empty string, got {name!r}")
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _DTYPES:
            raise StoreError(
                f"segment {name!r} has dtype {arr.dtype.str}; the store "
                f"format admits only {_DTYPES}"
            )
        raw = arr.astype(dtype, copy=False).tobytes()
        segments.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        payloads.append(raw)
        offset = _align_up(offset + len(raw))
    header = {
        "kind": kind,
        "meta": meta,
        "content_hash": _content_hash(kind, meta, segments, payloads),
        "segments": segments,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align_up(_PRELUDE.size + len(header_bytes))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_PRELUDE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            fh.write(b"\x00" * (data_start - _PRELUDE.size - len(header_bytes)))
            pos = 0
            for seg, raw in zip(segments, payloads):
                fh.write(b"\x00" * (seg["offset"] - pos))
                fh.write(raw)
                pos = seg["offset"] + len(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        raise StoreError(f"cannot write store file {path!r}: {exc}") from exc
    finally:
        if os.path.exists(tmp_path):  # failure path: never leave temps
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - racing cleanup
                pass
    return header["content_hash"]


def _read_header(path: str) -> Tuple[dict, int]:
    """``(header, data_start)``; every malformation is a StoreError."""
    try:
        with open(path, "rb") as fh:
            prelude = fh.read(_PRELUDE.size)
            if len(prelude) < _PRELUDE.size:
                raise StoreError(
                    f"store file {path!r} is truncated: {len(prelude)} bytes, "
                    f"prelude needs {_PRELUDE.size}"
                )
            magic, version, header_len = _PRELUDE.unpack(prelude)
            if magic != MAGIC:
                raise StoreError(
                    f"store file {path!r} has bad magic {magic!r} "
                    f"(expected {MAGIC!r})"
                )
            if version != FORMAT_VERSION:
                raise StoreError(
                    f"store file {path!r} has format version {version}; this "
                    f"build reads version {FORMAT_VERSION} only"
                )
            if header_len > _MAX_HEADER_BYTES:
                raise StoreError(
                    f"store file {path!r} claims a {header_len}-byte header "
                    f"(cap {_MAX_HEADER_BYTES}); refusing"
                )
            header_bytes = fh.read(header_len)
    except OSError as exc:
        raise StoreError(f"cannot read store file {path!r}: {exc}") from exc
    if len(header_bytes) < header_len:
        raise StoreError(
            f"store file {path!r} is truncated inside the header "
            f"({len(header_bytes)} of {header_len} bytes)"
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreError(
            f"store file {path!r} has a malformed header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise StoreError(f"store file {path!r} header is not an object")
    for key in ("kind", "meta", "content_hash", "segments"):
        if key not in header:
            raise StoreError(
                f"store file {path!r} header is missing {key!r}"
            )
    if not isinstance(header["segments"], list):
        raise StoreError(f"store file {path!r} header segments is not a list")
    return header, _align_up(_PRELUDE.size + header_len)


def _validated_segment(path: str, seg: Any, file_size: int, data_start: int):
    """One header segment entry checked against the actual file size."""
    if not isinstance(seg, dict):
        raise StoreError(f"store file {path!r} has a malformed segment entry")
    try:
        name = seg["name"]
        dtype = seg["dtype"]
        shape = tuple(int(d) for d in seg["shape"])
        offset = int(seg["offset"])
        nbytes = int(seg["nbytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(
            f"store file {path!r} has a malformed segment entry: {exc}"
        ) from exc
    if dtype not in _DTYPES:
        raise StoreError(
            f"store file {path!r} segment {name!r} names dtype {dtype!r}; "
            f"the format admits only {_DTYPES}"
        )
    if any(d < 0 for d in shape):
        raise StoreError(
            f"store file {path!r} segment {name!r} has negative shape {shape}"
        )
    expected = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    if expected != nbytes:
        raise StoreError(
            f"store file {path!r} segment {name!r}: shape {shape} x "
            f"{dtype} is {expected} bytes, header claims {nbytes}"
        )
    if offset < 0 or data_start + offset + nbytes > file_size:
        raise StoreError(
            f"store file {path!r} is truncated: segment {name!r} ends at "
            f"byte {data_start + offset + nbytes}, file has {file_size}"
        )
    return name, dtype, shape, offset, nbytes


def read_store_file(
    path: str, mmap_mode: Optional[str] = "r", verify: bool = True
) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
    """``(kind, meta, arrays)`` from a store file.

    ``mmap_mode="r"`` (the default) returns zero-copy read-only
    ``np.memmap`` views — O(open) regardless of payload size, and
    processes opening the same path share one physical mapping.
    ``mmap_mode=None`` loads eagerly into private read-only arrays
    (bit-identical content, no file handle kept).  Any other mode is
    refused: the store's sharing semantics rest on mappings being
    read-only.

    ``verify=True`` recomputes the content hash over the mapped
    segments (touches every payload page once); ``verify=False`` skips
    it for callers who just verified the same file.

    Every failure mode — missing file, truncation, bad magic, wrong
    version, malformed header, hash mismatch — raises
    :class:`~repro.core.errors.StoreError`.
    """
    if mmap_mode not in (None, "r"):
        raise StoreError(
            f"mmap_mode must be 'r' or None, got {mmap_mode!r}: the store "
            f"shares mappings read-only"
        )
    header, data_start = _read_header(path)
    try:
        file_size = os.path.getsize(path)
    except OSError as exc:  # pragma: no cover - raced deletion
        raise StoreError(f"cannot stat store file {path!r}: {exc}") from exc
    kind = header["kind"]
    meta = header["meta"]
    if not isinstance(kind, str) or not isinstance(meta, dict):
        raise StoreError(f"store file {path!r} has a malformed header")
    specs = [
        _validated_segment(path, seg, file_size, data_start)
        for seg in header["segments"]
    ]
    if mmap_mode == "r":
        try:
            base = np.memmap(path, mode="r", dtype=np.uint8)
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"cannot map store file {path!r}: {exc}"
            ) from exc
        def segment(offset: int, nbytes: int, dtype: str, shape):
            lo = data_start + offset
            return base[lo : lo + nbytes].view(dtype).reshape(shape)
    else:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise StoreError(
                f"cannot read store file {path!r}: {exc}"
            ) from exc
        def segment(offset: int, nbytes: int, dtype: str, shape):
            lo = data_start + offset
            arr = np.frombuffer(
                blob, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
                offset=lo,
            ).reshape(shape).copy()
            arr.setflags(write=False)
            return arr
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset, nbytes in specs:
        if name in arrays:
            raise StoreError(
                f"store file {path!r} has duplicate segment {name!r}"
            )
        arrays[name] = segment(offset, nbytes, dtype, shape)
    if verify:
        segments = [
            {"name": n, "dtype": d, "shape": list(s)}
            for n, d, s, _, _ in specs
        ]
        actual = _content_hash(
            kind, meta, segments, (a.tobytes() for a in arrays.values())
        )
        if actual != header["content_hash"]:
            raise StoreError(
                f"store file {path!r} fails content-hash verification "
                f"(stored {header['content_hash'][:12]}..., computed "
                f"{actual[:12]}...): the file is corrupt"
            )
    return kind, meta, arrays


def inspect_store_file(path: str) -> Dict[str, Any]:
    """The parsed header plus file-level facts, without loading payloads.

    Structural validation only — use ``verify`` /
    :func:`read_store_file` to check payload integrity.
    """
    header, data_start = _read_header(path)
    size = os.path.getsize(path)
    for seg in header["segments"]:
        _validated_segment(path, seg, size, data_start)
    return {
        "path": os.path.abspath(path),
        "format_version": FORMAT_VERSION,
        "kind": header["kind"],
        "meta": header["meta"],
        "content_hash": header["content_hash"],
        "file_bytes": size,
        "segments": header["segments"],
    }
