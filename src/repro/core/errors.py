"""Typed exceptions raised by the :mod:`repro` library.

Every error deliberately produced by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``AttributeError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Raised for degenerate or inconsistent geometric inputs.

    Examples: a bounding box with ``max < min``, or a negative expansion
    radius.
    """


class TrajectoryError(ReproError):
    """Raised for invalid trajectory definitions.

    Examples: a trajectory with fewer than one point, non-finite
    coordinates, or malformed point tuples.
    """


class IndexError_(ReproError):
    """Raised for index construction or update failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class QueryError(ReproError):
    """Raised for invalid query parameters.

    Examples: ``k <= 0``, a negative serving distance ``psi``, or an
    unknown service model.
    """


class ServiceOverloaded(QueryError):
    """Raised by :class:`repro.service.http.ServeClient` for a 503 from
    a draining server; ``retry_after`` carries its ``Retry-After`` hint.

    Subclasses :class:`QueryError` so existing "invalid query" handlers
    keep working; callers that want to retry later or against another
    server catch this type specifically.
    """


class CatalogError(ReproError):
    """Raised by the serving layer's resource catalog when a wire
    request names a tree, facility set, or facility id that is not
    registered.

    Deliberately *not* a :class:`QueryError`: a missing resource is not
    a malformed query, and the HTTP front maps the two differently
    (404 versus 400).
    """


class DatasetError(ReproError):
    """Raised by synthetic dataset generators and the CSV I/O layer."""


class StoreError(ReproError):
    """Raised by the persistent index store (:mod:`repro.store`) for any
    on-disk failure: a truncated or missing file, bad magic, an
    unsupported format version, a malformed header, or a content-hash
    mismatch.

    One type on purpose: callers opening a store file handle *corrupt*
    uniformly (rebuild, refuse, or report), so the low-level cause —
    ``struct.error``, ``ValueError``, short read — must never leak as
    itself.  The serving catalog maps this to
    :class:`CatalogError` at its boundary, keeping the HTTP error
    mapping (404-style resource failure, not a 400 query complaint).
    """
