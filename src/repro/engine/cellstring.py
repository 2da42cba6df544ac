"""Precomputed supercover cellstrings: coverage as sorted-key membership.

The grid engine (:mod:`repro.engine.shards`) runs live geometry on every
probe: each batch gathers candidate stops from the 3x3 cells around
every point and kernels every candidate pair.  For the serving pattern
the runtime and service layers built toward — the *same* facility probed
by stream after stream of user points — most of that work re-derives an
answer that never changes: whether a given cell of space lies inside the
facility's union of ``psi``-discs.

The cellstring tier precomputes exactly that.  At build time the stop
set's disc union is rasterized into sorted ``int64`` arrays of
fixed-depth Morton keys (:func:`repro.core.zorder.morton_encode_array`
— the same ``x | y << 1`` digit convention as the TQ-tree's z-order)
at two levels over one lattice:

* **coarse keys** — every covered fine cell truncated to a coarser
  level by dropping its low digit pairs (a pure bit-prefix, so coarse
  and fine levels can never disagree about where a cell sits); a probe
  point whose coarse key misses this array is provably uncovered;
* **interior keys** — fine cells lying *entirely* inside the union;
  membership alone proves coverage, no kernel runs;
* **boundary keys** — fine cells the union's boundary may cross, each
  carrying its candidate stops in CSR layout; only points landing in
  these cells reach the exact :func:`~repro.core.service.psi_hit`
  kernel, and only against that cell's candidates.

A probe batch is then three ``searchsorted`` membership passes — coarse
to reject, interior to accept, boundary to kernel-check — with no
per-point Python and no 3x3 gather.

Cell classification is asymmetric on purpose.  With ``eps`` a small
absolute slack scaled to the coordinate magnitude (``_EPS_REL`` times
the stop/psi scale, many orders above accumulated float error):

* a cell is **covered** by a stop when its nearest point lies within
  ``psi + eps`` — inflation, so any point the dense kernel would accept
  always lands in a covered cell;
* a cell is **interior** when its farthest corner lies within
  ``psi - 4 * eps`` of some stop — deflation, so membership-acceptance
  can never claim a point the dense kernel would reject.

Misclassification under floating point therefore only ever moves a cell
from *interior* to *boundary*, where the exact kernel decides — slower,
never wrong.  ``psi == 0`` degenerates cleanly: no cell is interior,
cells containing stops are boundary, and the kernel reduces to exact
coincidence.  Masks are **bit-identical** to the dense oracle for every
input, which ``tests/test_cellstring.py`` and the cross-backend fuzz
suite hold to ``==``.

Stats accounting (additive, so chunked fan-out merges exactly):
``points_scanned`` counts points surviving the coarse reject,
``cells_probed`` counts boundary-cell consultations, and
``distance_evals`` counts kernel pairs.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..core.errors import QueryError
from ..core.geometry import BBox, Point
from ..core.service import StopSet, coverage_kernel, psi_hit
from ..core.stats import QueryStats
from ..core.zorder import morton_encode_array
from .grid import (
    _cell_indices_of,
    _expand_candidate_pairs,
    _validated_stop_coords,
    worth_fanning_out,
)

__all__ = [
    "CellstringIndex",
    "CellstringStopSet",
    "build_cellstring_index",
    "AUTO_CELLSTRING_MIN_STOPS",
]

#: ``ProximityBackend.AUTO`` only builds cellstrings at or above this
#: stop count: rasterizing the disc union costs ~50 cells per stop, so
#: small sets amortise faster on the live grid (or stay dense below
#: :data:`~repro.engine.grid.AUTO_MIN_STOPS`).
AUTO_CELLSTRING_MIN_STOPS = 4096

#: Cap on the fine lattice depth (cells per axis is ``2 ** depth``).
#: Bounds both build cost and key magnitude; at the cap the fine cell
#: may exceed ``psi / _FINE_CELLS_PER_PSI``, which only widens boundary
#: bands (more kernel work), never breaks parity.
_MAX_FINE_DEPTH = 12

#: How many levels the coarse key drops below the fine key (a coarse
#: cell covers ``4 ** drop`` fine cells).  Coarse membership is a pure
#: prefix test — ``fine_key >> (2 * drop)`` — so both levels describe
#: the same lattice by construction.
_COARSE_LEVEL_DROP = 3

#: The fine cell edge targets ``psi`` divided by this: small enough
#: that genuinely interior cells exist (the cell diagonal stays well
#: under ``psi``), large enough that a stop's disc rasterizes into a
#: few dozen cells, not thousands.
_FINE_CELLS_PER_PSI = 2.0

#: Classification slack as a fraction of the coordinate scale.  Chosen
#: so ``eps`` exceeds accumulated float error (~1e-16 relative) by nine
#: orders of magnitude while staying geometrically negligible; the
#: interior test deflates by ``4 * eps`` so its safety margin dominates
#: the inflation's even when ``psi`` is barely above ``eps``.
_EPS_REL = 1e-7

#: Lattice slack: the space square exceeds the padded stop extent by
#: this relative margin, so every in-space point floors strictly below
#: ``2 ** depth``.
_SPACE_MARGIN = 1e-7

#: How many contiguous point chunks a fanned-out probe block is cut into.
_FANOUT_CHUNKS = 8

#: Per-stop-set memo of built indexes by query radius (rasterization
#: bakes ``psi`` in, unlike the grid's cell-size slack).  Small FIFO:
#: serving workloads probe one or two radii per facility.
_PSI_MEMO_CAP = 4


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each ``keys`` element in sorted unique ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_keys, keys), sorted_keys.size - 1
    )
    return sorted_keys[pos] == keys


def _cellstring_geometry(
    arr: np.ndarray, psi: float
) -> Tuple[float, float, float, int, float]:
    """``(ox, oy, cell, depth, eps)`` for a populated stop array.

    The space is a square anchored ``psi + 2 * eps`` below the stop
    bounding box, wide enough that every point within ``psi`` of a stop
    floors into ``[0, 2 ** depth)`` on both axes even after float
    rounding — so an out-of-range index is a sound rejection.
    """
    xmin, ymin = arr.min(axis=0)
    xmax, ymax = arr.max(axis=0)
    scale = float(
        max(1.0, abs(xmin), abs(xmax), abs(ymin), abs(ymax), psi)
    )
    eps = _EPS_REL * scale
    pad = psi + 2.0 * eps
    ox = float(xmin) - pad
    oy = float(ymin) - pad
    extent = float(max(xmax - xmin, ymax - ymin)) + 2.0 * pad
    target = psi / _FINE_CELLS_PER_PSI
    if not target > 0.0:
        target = extent / 64.0
    # discs are inflated by ``eps`` before rasterising: cells finer than
    # that only multiply boundary cells without separating anything
    target = max(target, eps)
    depth = 0
    if extent > 0.0 and target > 0.0:
        ratio = extent / target
        if not np.isfinite(ratio):
            depth = _MAX_FINE_DEPTH
        elif ratio > 1.0:
            depth = min(int(np.ceil(np.log2(ratio))), _MAX_FINE_DEPTH)
    cell = (extent / float(1 << depth)) * (1.0 + _SPACE_MARGIN)
    if not cell > 0.0:
        cell = 1.0
    return ox, oy, cell, depth, eps


class CellstringIndex:
    """The rasterized disc-union of one stop set at one radius.

    Immutable after construction; build through
    :func:`build_cellstring_index` (or share builds through
    :meth:`repro.engine.shards.ShardStore.cellstring_index`).
    """

    __slots__ = (
        "coords",
        "psi",
        "ox",
        "oy",
        "cell",
        "depth",
        "coarse_shift",
        "coarse_keys",
        "interior_keys",
        "boundary_keys",
        "boundary_indptr",
        "boundary_stops",
    )

    def __init__(
        self,
        coords: np.ndarray,
        psi: float,
        ox: float,
        oy: float,
        cell: float,
        depth: int,
        coarse_shift: int,
        coarse_keys: np.ndarray,
        interior_keys: np.ndarray,
        boundary_keys: np.ndarray,
        boundary_indptr: np.ndarray,
        boundary_stops: np.ndarray,
    ) -> None:
        self.coords = coords
        self.psi = float(psi)
        self.ox = ox
        self.oy = oy
        self.cell = cell
        self.depth = depth
        self.coarse_shift = coarse_shift
        self.coarse_keys = coarse_keys
        self.interior_keys = interior_keys
        self.boundary_keys = boundary_keys
        self.boundary_indptr = boundary_indptr
        self.boundary_stops = boundary_stops

    # ------------------------------------------------------------------
    @property
    def n_stops(self) -> int:
        return int(self.coords.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.coords.shape[0] == 0

    @property
    def n_cells(self) -> int:
        """Covered fine cells (interior plus boundary)."""
        return int(self.interior_keys.size + self.boundary_keys.size)

    @property
    def n_coarse_cells(self) -> int:
        return int(self.coarse_keys.size)

    @property
    def n_boundary_candidates(self) -> int:
        """Total (boundary cell, candidate stop) CSR pairs."""
        return int(self.boundary_stops.size)

    @property
    def nbytes(self) -> int:
        """Index array payload (what a persisted store would serialize)."""
        return int(
            self.coarse_keys.nbytes
            + self.interior_keys.nbytes
            + self.boundary_keys.nbytes
            + self.boundary_indptr.nbytes
            + self.boundary_stops.nbytes
        )

    # ------------------------------------------------------------------
    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Boolean mask: which ``coords`` rows are within ``psi`` of a
        stop.  Bit-identical to the dense :func:`coverage_kernel`.

        The index is radius-specific; a query at any other ``psi``
        falls back to the exact dense kernel (never wrong, never fast).
        """
        pts = np.asarray(coords, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        n = pts.shape[0]
        out = np.zeros(n, dtype=bool)
        if self.is_empty:
            return out
        if float(psi) != self.psi:
            return coverage_kernel(pts, self.coords, psi, stats)
        ij = _cell_indices_of(pts, self.ox, self.oy, self.cell)
        n_axis = np.int64(1) << np.int64(self.depth)
        ix = ij[:, 0]
        iy = ij[:, 1]
        valid = (ix >= 0) & (ix < n_axis) & (iy >= 0) & (iy < n_axis)
        vi = np.nonzero(valid)[0]
        if vi.size == 0:
            return out
        keys = morton_encode_array(ix[vi], iy[vi], self.depth)
        # coarse reject: a prefix miss proves the point uncovered
        alive = _member(self.coarse_keys, keys >> np.int64(self.coarse_shift))
        vi = vi[alive]
        keys = keys[alive]
        if stats is not None:
            stats.points_scanned += int(vi.size)
        if vi.size == 0:
            return out
        # fine interior accept: membership alone proves coverage
        inside = _member(self.interior_keys, keys)
        out[vi[inside]] = True
        vi = vi[~inside]
        keys = keys[~inside]
        if vi.size == 0:
            return out
        # boundary cells: exact kernel over the cell's candidates only
        if self.boundary_keys.size == 0:
            return out
        pos = np.minimum(
            np.searchsorted(self.boundary_keys, keys),
            self.boundary_keys.size - 1,
        )
        found = self.boundary_keys[pos] == keys
        vi = vi[found]
        pos = pos[found]
        if stats is not None:
            stats.cells_probed += int(vi.size)
        if vi.size == 0:
            return out
        lo = self.boundary_indptr[pos]
        counts = self.boundary_indptr[pos + 1] - lo
        total = int(counts.sum())
        if stats is not None:
            stats.distance_evals += total
        if total == 0:
            return out
        pair_point, pair_slot = _expand_candidate_pairs(
            lo[:, None], counts[:, None], counts, total
        )
        cand = self.boundary_stops[pair_slot]
        sub = pts[vi]
        dx = sub[pair_point, 0] - self.coords[cand, 0]
        dy = sub[pair_point, 1] - self.coords[cand, 1]
        out[vi[pair_point[psi_hit(dx, dy, psi)]]] = True
        return out

    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        """True when ``p`` is within ``psi`` of any stop."""
        mask = self.covered_mask(
            np.array([[p.x, p.y]], dtype=np.float64), psi, stats
        )
        return bool(mask.size and mask[0])


def build_cellstring_index(coords: np.ndarray, psi: float) -> CellstringIndex:
    """Rasterize the ``psi``-disc union of ``coords`` into a
    :class:`CellstringIndex`.

    Per stop, the cells of a window just wider than the inflated disc
    are classified by exact rectangle distance: nearest point within
    ``psi + eps`` marks *covered*, farthest corner within
    ``psi - 4 * eps`` marks *interior*.  Covered-but-not-interior cells
    become boundary cells carrying their covering stops as CSR
    candidates.
    """
    arr = _validated_stop_coords(coords, psi)
    m = arr.shape[0]
    psi = float(psi)
    empty_keys = np.zeros(0, dtype=np.int64)
    if m == 0:
        return CellstringIndex(
            arr, psi, 0.0, 0.0, 1.0, 0, 0,
            empty_keys, empty_keys, empty_keys,
            np.zeros(1, dtype=np.int64), empty_keys,
        )
    ox, oy, cell, depth, eps = _cellstring_geometry(arr, psi)
    n_axis = np.int64(1) << np.int64(depth)
    r_out = psi + eps
    r_in = max(psi - 4.0 * eps, 0.0)
    sx = arr[:, 0]
    sy = arr[:, 1]
    # per-stop cell window: the inflated disc's index span, widened by
    # one cell on each side to absorb floor-quotient rounding
    ix0 = np.clip(np.floor((sx - r_out - ox) / cell) - 1, 0, float(n_axis - 1))
    ix1 = np.clip(np.floor((sx + r_out - ox) / cell) + 1, 0, float(n_axis - 1))
    iy0 = np.clip(np.floor((sy - r_out - oy) / cell) - 1, 0, float(n_axis - 1))
    iy1 = np.clip(np.floor((sy + r_out - oy) / cell) + 1, 0, float(n_axis - 1))
    ix0 = ix0.astype(np.int64)
    ix1 = ix1.astype(np.int64)
    iy0 = iy0.astype(np.int64)
    iy1 = iy1.astype(np.int64)
    wx = ix1 - ix0 + 1
    wy = iy1 - iy0 + 1
    counts = wx * wy
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    # expand every (stop, window cell) pair flat
    stop_idx = np.repeat(np.arange(m, dtype=np.int64), counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    wys = np.repeat(wy, counts)
    cix = np.repeat(ix0, counts) + local // wys
    ciy = np.repeat(iy0, counts) + local % wys
    # exact point-to-rectangle distances, squared
    cx0 = ox + cix * cell
    cy0 = oy + ciy * cell
    cx1 = cx0 + cell
    cy1 = cy0 + cell
    sxp = sx[stop_idx]
    syp = sy[stop_idx]
    ndx = sxp - np.clip(sxp, cx0, cx1)
    ndy = syp - np.clip(syp, cy0, cy1)
    mind2 = ndx * ndx + ndy * ndy
    fdx = np.maximum(np.abs(sxp - cx0), np.abs(sxp - cx1))
    fdy = np.maximum(np.abs(syp - cy0), np.abs(syp - cy1))
    maxd2 = fdx * fdx + fdy * fdy
    covered = mind2 <= r_out * r_out
    interior = covered & (r_in > 0.0) & (maxd2 <= r_in * r_in)
    keys_cov = morton_encode_array(cix[covered], ciy[covered], depth)
    stops_cov = stop_idx[covered]
    interior_cov = interior[covered]
    # group pairs by cell; a cell is interior when ANY stop's disc
    # swallows it whole
    uniq_keys, inverse = np.unique(keys_cov, return_inverse=True)
    interior_cell = (
        np.bincount(
            inverse, weights=interior_cov.astype(np.float64),
            minlength=uniq_keys.size,
        )
        > 0.0
    )
    interior_keys = np.ascontiguousarray(uniq_keys[interior_cell])
    bmask = ~interior_cell[inverse]
    bkeys = keys_cov[bmask]
    bstops = stops_cov[bmask]
    order = np.argsort(bkeys, kind="stable")  # stops stay ascending per cell
    bkeys = bkeys[order]
    bstops = np.ascontiguousarray(bstops[order])
    boundary_keys, bcounts = np.unique(bkeys, return_counts=True)
    boundary_indptr = np.zeros(boundary_keys.size + 1, dtype=np.int64)
    np.cumsum(bcounts, out=boundary_indptr[1:])
    coarse_shift = 2 * min(_COARSE_LEVEL_DROP, depth)
    coarse_keys = np.unique(uniq_keys >> np.int64(coarse_shift))
    return CellstringIndex(
        arr,
        psi,
        ox,
        oy,
        cell,
        depth,
        coarse_shift,
        np.ascontiguousarray(coarse_keys),
        interior_keys,
        np.ascontiguousarray(boundary_keys),
        boundary_indptr,
        bstops,
    )


class CellstringStopSet(StopSet):
    """A :class:`StopSet` whose coverage checks ride precomputed
    cellstring indexes.

    Drop-in for the base class everywhere, like
    :class:`~repro.engine.shards.GriddedStopSet`: same results for every
    input, different work profile — build cost up front, membership
    probes after.  Indexes are radius-specific, built lazily per query
    ``psi`` (small FIFO memo) once ``n_stops >= min_stops``; below the
    threshold checks stay dense.  A ``store``
    (:class:`~repro.engine.shards.ShardStore`) shares builds across
    facilities with content-identical stops; ``executor`` — an
    :class:`~concurrent.futures.Executor` or a zero-arg callable
    resolving to one at query time (the runtime's live-executor getter)
    — fans probe blocks of at least
    :data:`~repro.engine.grid.FANOUT_MIN_POINTS` points out in
    contiguous chunks whose masks concatenate and whose stats merge
    exactly (the counters are per-point sums, so chunking is invisible
    in the totals).
    """

    __slots__ = ("cs_psi", "min_stops", "_store", "_executor", "_memo", "_memo_lock")

    def __init__(
        self,
        coords: np.ndarray,
        psi: float,
        min_stops: int = 1,
        store=None,
        executor: Union[Executor, Callable[[], Optional[Executor]], None] = None,
    ) -> None:
        super().__init__(coords)
        if not psi >= 0:
            raise QueryError(f"psi must be >= 0, got {psi}")
        self.cs_psi = float(psi)
        self.min_stops = max(1, int(min_stops))
        self._store = store
        self._executor = executor
        self._memo: dict = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _index_for(self, psi: float) -> Optional[CellstringIndex]:
        if self.n_stops < self.min_stops:
            return None
        key = float(psi)
        with self._memo_lock:
            idx = self._memo.get(key)
            if idx is not None:
                return idx
            if self._store is not None:
                idx = self._store.cellstring_index(self.coords, key)
            else:
                idx = build_cellstring_index(self.coords, key)
            self._memo[key] = idx
            while len(self._memo) > _PSI_MEMO_CAP:
                # dicts iterate in insertion order: drop the oldest radius
                del self._memo[next(iter(self._memo))]
            return idx

    # ------------------------------------------------------------------
    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        idx = self._index_for(psi)
        if idx is None:
            return super().covers_point(p, psi, stats)
        return idx.covers_point(p, psi, stats)

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        idx = self._index_for(psi)
        if idx is None:
            return super().covered_mask(coords, psi, stats)
        pts = np.asarray(coords, dtype=np.float64)
        if pts.ndim == 2 and worth_fanning_out(pts.shape[0]):
            ex = self._executor() if callable(self._executor) else self._executor
            if ex is not None:
                return self._fanout_mask(idx, pts, psi, stats, ex)
        return idx.covered_mask(pts, psi, stats)

    @staticmethod
    def _fanout_mask(
        idx: CellstringIndex,
        pts: np.ndarray,
        psi: float,
        stats: Optional[QueryStats],
        ex: Executor,
    ) -> np.ndarray:
        """Probe contiguous point chunks on the executor's threads.

        The index arrays are immutable and shared; chunk masks
        concatenate in order and the per-point stats counters are
        additive, so the result — mask and merged stats — is identical
        to the inline probe.
        """
        bounds = np.linspace(0, pts.shape[0], _FANOUT_CHUNKS + 1).astype(int)
        spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

        def run(span: Tuple[int, int]):
            local = QueryStats() if stats is not None else None
            return idx.covered_mask(pts[span[0]:span[1]], psi, local), local

        parts = list(ex.map(run, spans))
        if stats is not None:
            for _, local in parts:
                stats.merge(local)
        return np.concatenate([mask for mask, _ in parts])

    def restricted_to(self, box: BBox) -> "CellstringStopSet":
        if self.is_empty:
            return self
        return CellstringStopSet(
            self.coords[self._restriction_mask(box)],
            self.cs_psi,
            self.min_stops,
            store=self._store,
            executor=self._executor,
        )
