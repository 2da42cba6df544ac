"""Vectorised proximity engine: grid-bucketed coverage, caching, batching.

This package accelerates the one operation every evaluator in the
library bottoms out in — "which user points lie within ``psi`` of this
facility's stops?" — without ever changing an answer.  The pieces:

* :class:`ShardedStopGrid` / :class:`GriddedStopSet` / :class:`ShardStore`
  (:mod:`.shards`, geometry in :mod:`.grid`) — one uniform grid over
  facility stops with cell size above ``psi``, so a point's coverage
  check gathers candidates from the 3x3 surrounding cells instead of
  broadcasting against every stop.  The sorted cell-key layout is cut
  into N contiguous shards (one shard is the plain grid; more split one
  batched query across slices, probed one after another on the calling
  thread), per-shard :class:`~repro.core.stats.QueryStats` merge back
  into the caller's totals, and built grids are shared across
  facilities by stop-coordinate content hash.  Exposed behind the existing
  :class:`~repro.core.service.StopSet` contract and routed through the
  same :func:`~repro.core.service.psi_hit` kernel, so masks are
  bit-identical to the dense path.
* :class:`CoverageCache` (:mod:`.cache`) — one record per walk: its
  division plan, per-q-node service values and match sets, so re-walks
  and MaxkCovRST's solvers stop paying full price.
* :class:`BatchQueryEngine` (:mod:`.batch`) — accepts many
  ``(facility, ServiceSpec)`` requests over one user set, sharing the
  probe-coordinate concatenation, grid construction, and its own
  memoised masks across them; returns per-query scores plus one aggregated
  :class:`~repro.core.stats.QueryStats`.
* :class:`CellstringIndex` / :class:`CellstringStopSet`
  (:mod:`.cellstring`) — the stop set's ``psi``-disc union rasterized
  once into sorted Morton-key arrays (coarse reject, fine-interior
  accept, exact kernel only in boundary cells), so repeated probes of a
  static facility become sorted-array membership; builds are shared by
  content through the same :class:`ShardStore`.

A dressed stop set builds one index, at the radius it was dressed for;
the :class:`ShardStore` caches built grids and cellstrings in two
tables keyed by stop content and radius.

**When the grid wins:** stop-dense facilities (hundreds of stops) with
small ``psi`` relative to the stop extent — the dense broadcast pays
``O(points x stops)`` while the grid pays ``O(points x candidates)``
with a few candidates per point.  **When dense is still used:** tiny
stop sets (below :data:`~repro.engine.grid.AUTO_MIN_STOPS` under
``ProximityBackend.AUTO``), and radii at or above the built grid's
cell size, where 3x3 gathering would approach a full scan anyway; the
fallback is automatic and exact.

Everything here layers strictly on :mod:`repro.core` — the query layer
imports the engine, never the reverse — and the brute-force oracle path
remains intact as the reference against which the engine is
differential-tested (``tests/test_engine_oracle.py``).
"""

from .batch import BatchQueryEngine, BatchResult
from .cache import CoverageCache
from .cellstring import (
    AUTO_CELLSTRING_MIN_STOPS,
    CellstringIndex,
    CellstringStopSet,
    build_cellstring_index,
)
from .grid import AUTO_MIN_STOPS
from .shards import GriddedStopSet, ShardedStopGrid, ShardStore, StopShard

__all__ = [
    "GriddedStopSet",
    "AUTO_MIN_STOPS",
    "AUTO_CELLSTRING_MIN_STOPS",
    "CellstringIndex",
    "CellstringStopSet",
    "build_cellstring_index",
    "CoverageCache",
    "BatchQueryEngine",
    "BatchResult",
    "StopShard",
    "ShardedStopGrid",
    "ShardStore",
]
