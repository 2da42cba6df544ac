"""Uniform stop-grid geometry: cell sizing, lattice origin, cell indices.

A stop grid buckets facility stops into uniform cells whose edge exceeds
``psi`` strictly, so a user point within ``psi`` of some stop finds that
stop in the 3x3 block of cells around its own cell.  This module holds
the geometry every grid-shaped index shares — the safe cell edge, the
snapped lattice origin, clamped integer cell coordinates, and the flat
(point, stop) candidate-pair expansion the exact
:func:`repro.core.service.psi_hit` kernel runs over.  The grid itself
(sorted cell keys, row-range candidate gathering, shards) is
:class:`~repro.engine.shards.ShardedStopGrid`; the cellstring tier
(:mod:`.cellstring`) reuses the same helpers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.errors import QueryError

__all__ = ["AUTO_MIN_STOPS"]

#: With fewer stops than this the dense broadcast beats grid bookkeeping;
#: ``ProximityBackend.AUTO`` only builds grids at or above it.
AUTO_MIN_STOPS = 48

#: Cap on grid cells per axis.  Keeps cell keys well inside int64 and
#: bounds the floor-quotient magnitude so the 3x3 sufficiency argument
#: survives floating-point division error (see ``_derive_cell_size``).
_MAX_CELLS_PER_AXIS = 1 << 20

#: Relative margin by which cells exceed ``psi``.  With ``cell > psi``
#: strictly, a point and a stop within ``psi`` have cell indices that
#: differ by at most 1 per axis even after floating-point rounding of
#: the two floor quotients.
_CELL_MARGIN = 1e-7


def _snap_origin(vmin: float, cell: float) -> float:
    """The largest lattice multiple of ``cell`` not exceeding ``vmin``.

    Rounding in ``floor(vmin / cell) * cell`` can land a hair above
    ``vmin``, which would push the minimum stop into cell index -1; step
    one cell down when it does so indices stay non-negative.

    ``vmin / cell`` can overflow to infinity outright (tiny derived
    cells under huge coordinates — an all-coincident stop set with a
    subnormal ``psi``).  Any origin at or below ``vmin`` keeps masks
    exact — snapping only pins the cell lattice, which
    ``distance_evals``, ``cells_probed`` and persisted grids depend on —
    so fall back to ``vmin`` itself rather than propagate a non-finite
    origin into every cell index.
    """
    # Python floats: an infinite cell (a radius near the float maximum)
    # makes ``0 * inf``, a NaN without a warning
    origin = float(np.floor(vmin / cell)) * cell
    if not np.isfinite(origin):
        return float(vmin)
    if origin > vmin:
        origin -= cell
    return float(origin)


def _derive_cell_size(psi: float, extent: float) -> float:
    """A safe cell edge: ``> psi`` strictly, never more than ~1M cells/axis.

    Every branch re-checks the strict ``cell > psi`` invariant the 3x3
    argument rests on, because near the float minimum the arithmetic
    that normally guarantees it degrades: ``psi * (1 + margin)`` rounds
    back to ``psi`` for subnormal ``psi``, and ``extent / 64`` can
    underflow to ``0``.  Such inputs fall through to wider candidates,
    ending at ``1.0`` (which exceeds any ``psi`` that reaches a
    fallthrough).  The cells-per-axis clamp keeps the invariant too:
    it only engages when ``extent > cap * cell > cap * psi``, but the
    guard re-checks rather than trusting float division.
    """
    # a Python float overflows to inf without a warning (np.float64 warns)
    cell = float(psi) * (1.0 + _CELL_MARGIN)
    if not cell > psi:
        # psi == 0 (exact-coincidence serving) or subnormal psi whose
        # scaled value rounded back down.
        cell = extent / 64.0
        if not cell > psi:
            cell = 1.0
    if extent > 0.0 and extent / cell > _MAX_CELLS_PER_AXIS:
        clamped = extent / _MAX_CELLS_PER_AXIS
        if clamped > psi:
            cell = clamped
    return cell


def _validated_stop_coords(coords: np.ndarray, psi: float) -> np.ndarray:
    """The ``(n, 2)`` float64 stop array without its non-finite rows, or
    a :exc:`QueryError`.  The dense kernel defines a stop with a NaN or
    infinite coordinate as covering nothing, so dropping it keeps every
    mask ``==`` dense and keeps non-finite values out of the lattice
    arithmetic."""
    arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise QueryError(f"stop coords must be (n, 2), got {arr.shape}")
    if not psi >= 0:
        raise QueryError(f"psi must be >= 0, got {psi}")
    finite = np.isfinite(arr)
    if not finite.all():
        arr = np.ascontiguousarray(arr[finite.all(axis=1)])
    return arr


def _grid_geometry(
    arr: np.ndarray, psi: float, cell_size: Optional[float]
) -> Tuple[float, float, float]:
    """``(cell, ox, oy)`` for a populated stop array.

    One place holds the geometric safety invariants every grid flavour
    shares: the cell must exceed ``psi`` *strictly* (at ``cell == psi``,
    floor rounding can land a within-psi stop outside the 3x3
    neighbourhood) and the origin snaps down to the global lattice.
    """
    xmin, ymin = arr.min(axis=0)
    xmax, ymax = arr.max(axis=0)
    extent = float(max(xmax - xmin, ymax - ymin))
    cell = float(cell_size) if cell_size is not None else _derive_cell_size(
        psi, extent
    )
    if not cell > psi:
        raise QueryError(
            f"cell_size {cell} must exceed psi {psi} strictly: at "
            f"cell == psi, floor rounding can land a within-psi stop "
            f"outside the 3x3 neighbourhood"
        )
    return cell, _snap_origin(float(xmin), cell), _snap_origin(float(ymin), cell)


#: Clamp on floor quotients before the int64 cast.  Probe points far
#: outside a tiny-celled grid can overflow the division (past 2**63 or
#: to infinity), making the float-to-int cast undefined.  Real cell
#: indices are bounded by ``_MAX_CELLS_PER_AXIS`` plus one, far below
#: the clamp, so a clamped value never aliases a populated cell: extra
#: *candidates* are always filtered by the exact kernel, and clamping
#: never removes an in-range index — so masks are unaffected.  The
#: clamp stays low enough that neighbour-key arithmetic (the grid
#: row stride is 2**21) cannot overflow int64 either.
_INDEX_CLAMP = float(np.int64(1) << np.int64(40))


def _cell_indices_of(
    pts: np.ndarray, ox: float, oy: float, cell: float
) -> np.ndarray:
    """Integer cell coordinates of ``pts`` (may be negative)."""
    out = np.empty(pts.shape, dtype=np.int64)
    # a quotient past the float range overflows to +-inf, which the
    # clip below pins to the clamp like any other far-away cell
    with np.errstate(over="ignore"):
        qx = np.floor((pts[:, 0] - ox) / cell)
        qy = np.floor((pts[:, 1] - oy) / cell)
    # NaN coordinates (and NaN - inf arithmetic) survive np.clip; pin
    # them to the clamp so the int cast is defined and the point lands
    # outside every populated cell — a sound rejection, not UB.
    np.nan_to_num(qx, copy=False, nan=_INDEX_CLAMP)
    np.nan_to_num(qy, copy=False, nan=_INDEX_CLAMP)
    np.clip(qx, -_INDEX_CLAMP, _INDEX_CLAMP, out=qx)
    np.clip(qy, -_INDEX_CLAMP, _INDEX_CLAMP, out=qy)
    out[:, 0] = qx
    out[:, 1] = qy
    return out


def _expand_candidate_pairs(
    lo: np.ndarray, counts: np.ndarray, per_point: np.ndarray, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-(point, range) candidate runs into (point, stop) pairs.

    ``lo``/``counts`` are ``(n, k)`` range starts and lengths into a
    sorted stop layout; the result indexes every candidate pair so the
    exact kernel can run over all of them at once.
    """
    counts_flat = counts.ravel()
    run_ends = np.cumsum(counts_flat)
    run_starts = run_ends - counts_flat
    pair_point = np.repeat(np.arange(counts.shape[0]), per_point)
    pair_stop = (
        np.arange(total)
        - np.repeat(run_starts, counts_flat)
        + np.repeat(lo.ravel(), counts_flat)
    )
    return pair_point, pair_stop
