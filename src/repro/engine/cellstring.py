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

The build streams over the stops: each block of consecutive stops,
about :data:`~repro.core.service.PAIRS_PER_PASS` (stop, window cell)
pairs, is classified and cut down to its covered pairs before the next
block starts, and one stable sort groups those by cell.  Its transient
is a few columns of covered pairs — a 15 MB tracemalloc peak for 8,192
uniform stops at ``psi = 300`` over a 12 km square, where one flat pass
over every window cell peaked at 114 MB.

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

Stats accounting: ``points_scanned`` counts points surviving the
coarse reject, ``cells_probed`` counts boundary-cell consultations, and
``distance_evals`` counts kernel pairs.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from ..core.errors import QueryError
from ..core.service import PAIRS_PER_PASS, StopSet, coverage_kernel, psi_hit
from ..core.stats import QueryStats
from ..core.zorder import morton_encode_array
from .grid import _cell_indices_of, _expand_candidate_pairs, _validated_stop_coords

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
        if math.isinf(self.psi * self.psi):
            # psi_hit accepts every offset but a NaN one at a radius
            # whose square overflows, and every stop is finite: any one
            # stop decides (the build rasterized nothing)
            return coverage_kernel(pts, self.coords[:1], psi, stats)
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


def _stop_windows(
    arr: np.ndarray, ox: float, oy: float, cell: float, depth: int, r_out: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ix0, iy0, wx, wy)``: each stop's cell window, the inflated
    disc's index span widened by one cell on each side to absorb
    floor-quotient rounding, clipped to the lattice."""
    top = float((1 << depth) - 1)
    sx = arr[:, 0]
    sy = arr[:, 1]
    ix0 = np.clip(np.floor((sx - r_out - ox) / cell) - 1, 0, top).astype(np.int64)
    ix1 = np.clip(np.floor((sx + r_out - ox) / cell) + 1, 0, top).astype(np.int64)
    iy0 = np.clip(np.floor((sy - r_out - oy) / cell) - 1, 0, top).astype(np.int64)
    iy1 = np.clip(np.floor((sy + r_out - oy) / cell) + 1, 0, top).astype(np.int64)
    return ix0, iy0, ix1 - ix0 + 1, iy1 - iy0 + 1


def _pass_bounds(counts: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive stop ranges ``[lo, hi)`` holding at most
    :data:`~repro.core.service.PAIRS_PER_PASS` window cells each — or
    one stop, when that stop's window alone is larger."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < ends.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + PAIRS_PER_PASS, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def build_cellstring_index(coords: np.ndarray, psi: float) -> CellstringIndex:
    """Rasterize the ``psi``-disc union of ``coords`` into a
    :class:`CellstringIndex`.

    Per stop, the cells of a window just wider than the inflated disc
    are classified by exact rectangle distance: nearest point within
    ``psi + eps`` marks *covered*, farthest corner within
    ``psi - 4 * eps`` marks *interior*.  Covered-but-not-interior cells
    become boundary cells carrying their covering stops as CSR
    candidates.

    The (stop, window cell) pairs are classified one block of
    consecutive stops at a time, about
    :data:`~repro.core.service.PAIRS_PER_PASS` pairs a pass; a pass
    keeps only its covered pairs, in stop order, and one stable sort
    groups them by cell.  Every per-pair expression is elementwise, so
    the index is the same, array for array, as one pass over all pairs —
    but the transient is the covered pairs' few columns, not some twenty
    columns of every window cell.
    """
    arr = _validated_stop_coords(coords, psi)
    psi = float(psi)
    empty_keys = np.zeros(0, dtype=np.int64)
    if arr.shape[0] == 0 or math.isinf(psi * psi):
        # nothing to rasterize: no stop, or a radius whose square
        # overflows, where every non-NaN point is covered
        # (CellstringIndex.covered_mask)
        return CellstringIndex(
            arr, psi, 0.0, 0.0, 1.0, 0, 0,
            empty_keys, empty_keys, empty_keys,
            np.zeros(1, dtype=np.int64), empty_keys,
        )
    ox, oy, cell, depth, eps = _cellstring_geometry(arr, psi)
    r_out = psi + eps
    r_in = max(psi - 4.0 * eps, 0.0)
    ix0, iy0, wx, wy = _stop_windows(arr, ox, oy, cell, depth, r_out)
    counts = wx * wy
    sx = arr[:, 0]
    sy = arr[:, 1]
    key_parts, stop_parts, interior_parts = [], [], []
    for lo, hi in _pass_bounds(counts):
        # expand this block's (stop, window cell) pairs flat
        c = counts[lo:hi]
        stop_idx = np.repeat(np.arange(lo, hi, dtype=np.int64), c)
        local = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(c) - c, c
        )
        wys = np.repeat(wy[lo:hi], c)
        cix = np.repeat(ix0[lo:hi], c) + local // wys
        ciy = np.repeat(iy0[lo:hi], c) + local % wys
        # exact point-to-rectangle distances, squared
        cx0 = ox + cix * cell
        cy0 = oy + ciy * cell
        cx1 = cx0 + cell
        cy1 = cy0 + cell
        sxp = sx[stop_idx]
        syp = sy[stop_idx]
        ndx = sxp - np.clip(sxp, cx0, cx1)
        ndy = syp - np.clip(syp, cy0, cy1)
        fdx = np.maximum(np.abs(sxp - cx0), np.abs(sxp - cx1))
        fdy = np.maximum(np.abs(syp - cy0), np.abs(syp - cy1))
        # near the largest radius with a finite square, a squared
        # distance can overflow to inf: that only keeps a cell out of
        # "covered" when it lies past r_out, and out of "interior" — the
        # safe directions, as in psi_hit
        with np.errstate(over="ignore"):
            mind2 = ndx * ndx + ndy * ndy
            maxd2 = fdx * fdx + fdy * fdy
        covered = mind2 <= r_out * r_out
        interior = covered & (r_in > 0.0) & (maxd2 <= r_in * r_in)
        key_parts.append(morton_encode_array(cix[covered], ciy[covered], depth))
        stop_parts.append(stop_idx[covered])
        interior_parts.append(interior[covered])
    keys_cov = np.concatenate(key_parts)
    del key_parts
    # group the covered pairs by cell: the pairs arrive in stop order, so
    # a stable sort keeps each cell's stops ascending
    order = np.argsort(keys_cov, kind="stable")
    keys_cov = keys_cov[order]
    stops_cov = np.concatenate(stop_parts)[order]
    interior_cov = np.concatenate(interior_parts)[order]
    del stop_parts, interior_parts, order
    first = np.empty(keys_cov.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys_cov[1:], keys_cov[:-1], out=first[1:])
    cell_start = np.flatnonzero(first)
    uniq_keys = keys_cov[cell_start]
    cell_pairs = np.diff(cell_start, append=keys_cov.size)
    # a cell is interior when ANY stop's disc swallows it whole
    interior_cell = np.logical_or.reduceat(interior_cov, cell_start)
    boundary_cell = ~interior_cell
    bmask = np.repeat(boundary_cell, cell_pairs)
    boundary_keys = uniq_keys[boundary_cell]
    boundary_indptr = np.zeros(boundary_keys.size + 1, dtype=np.int64)
    np.cumsum(cell_pairs[boundary_cell], out=boundary_indptr[1:])
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
        coarse_keys,
        uniq_keys[interior_cell],
        boundary_keys,
        boundary_indptr,
        stops_cov[bmask],
    )


class CellstringStopSet(StopSet):
    """A :class:`StopSet` whose coverage checks ride one precomputed
    cellstring index, rasterized at ``cs_psi``, the radius the set was
    dressed for.

    Drop-in for the base class everywhere, like
    :class:`~repro.engine.shards.GriddedStopSet`: same results for every
    input, different work profile — build cost up front, membership
    probes after.  The index is built lazily on first use once
    ``n_stops >= min_stops``; below the threshold checks stay dense, and
    a probe at another radius stays exact through the index's own dense
    fallback.  A ``store`` (:class:`~repro.engine.shards.ShardStore`)
    shares builds across facilities with content-identical stops.
    """

    __slots__ = ("cs_psi", "min_stops", "_store", "_index")

    def __init__(
        self,
        coords: np.ndarray,
        psi: float,
        min_stops: int = 1,
        store=None,
    ) -> None:
        super().__init__(coords)
        if not psi >= 0:
            raise QueryError(f"psi must be >= 0, got {psi}")
        self.cs_psi = float(psi)
        self.min_stops = max(1, int(min_stops))
        self._store = store
        self._index: Optional[CellstringIndex] = None

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        if self.n_stops < self.min_stops:
            return super().covered_mask(coords, psi, stats)
        if self._index is None:
            if self._store is not None:
                self._index = self._store.cellstring_index(self.coords, self.cs_psi)
            else:
                self._index = build_cellstring_index(self.coords, self.cs_psi)
        return self._index.covered_mask(coords, psi, stats)

    def with_coords(self, coords: np.ndarray) -> "CellstringStopSet":
        return CellstringStopSet(
            coords,
            self.cs_psi,
            self.min_stops,
            store=self._store,
        )
