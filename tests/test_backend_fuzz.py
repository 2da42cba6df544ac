"""Randomized cross-backend differential fuzz.

Every proximity backend is a *work profile*, never an answer profile:
``DENSE``, ``GRID`` (at every shard count), and ``CELLSTRING`` must
return bit-identical masks for identical inputs, and their
:class:`~repro.core.stats.QueryStats` accounting must be exactly
additive — probing a block in chunks and merging the per-chunk stats
must equal one unchunked run, because that is the invariant the
per-shard merge and the runtime's service totals lean on.

Seeded ``numpy`` fuzz rather than Hypothesis: the trials sweep stop
counts across the AUTO thresholds, radii from zero to world-spanning,
probe coordinates far outside the stop extent, and snapped coordinates
that manufacture exact ``dist == psi`` ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ProximityBackend,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    StopSet,
)

BACKENDS = (
    ProximityBackend.DENSE,
    ProximityBackend.GRID,
    ProximityBackend.CELLSTRING,
)
SHARD_COUNTS = (1, 2, 7)

#: Stop counts straddling AUTO_MIN_STOPS (48); radii from zero through
#: world-spanning; probes drawn wider than the stop extent.
_STOP_COUNTS = (1, 2, 7, 47, 48, 120)
_PSIS = (0.0, 0.25, 3.0, 40.0, 900.0)


def _random_case(rng: np.random.Generator, n_stops: int):
    # snap to 0.25 so exact dist == psi ties actually occur
    stops = np.round(rng.uniform(0.0, 200.0, size=(n_stops, 2)) * 4.0) / 4.0
    n_probe = int(rng.integers(1, 80))
    probe = np.round(rng.uniform(-50.0, 250.0, size=(n_probe, 2)) * 4.0) / 4.0
    return stops, probe


def _runtimes():
    """One runtime per (backend, shard count) execution shape."""
    return [
        QueryRuntime(RuntimeConfig(backend=backend, shards=shards))
        for backend in BACKENDS
        for shards in SHARD_COUNTS
    ]


@pytest.mark.parametrize("seed", range(6))
def test_all_backends_bit_identical(seed):
    rng = np.random.default_rng(1000 + seed)
    runtimes = _runtimes()
    for n_stops in _STOP_COUNTS:
        stops, probe = _random_case(rng, n_stops)
        for psi in _PSIS:
            expected = StopSet(stops).covered_mask(probe, psi)
            for rt in runtimes:
                mask = rt.probe_mask(stops, probe, psi)
                assert np.array_equal(expected, mask), (
                    f"backend={rt.config.backend.value} "
                    f"shards={rt.config.shards} n_stops={n_stops} psi={psi}"
                )


@pytest.mark.parametrize("seed", range(3))
def test_stats_merge_is_chunk_invariant(seed):
    """Chunked probes merge to exactly the unchunked totals, for every
    backend — the additivity the per-shard merge depends on."""
    rng = np.random.default_rng(2000 + seed)
    runtimes = _runtimes()
    for n_stops in (7, 48, 120):
        stops, _ = _random_case(rng, n_stops)
        probe = np.round(
            rng.uniform(-50.0, 250.0, size=(91, 2)) * 4.0
        ) / 4.0
        for psi in (0.0, 3.0, 40.0):
            for rt in runtimes:
                dressed = rt.stop_set(StopSet(stops), psi)
                whole = QueryStats()
                full_mask = dressed.covered_mask(probe, psi, whole)
                merged = QueryStats()
                parts = []
                for chunk in np.array_split(probe, 4):
                    local = QueryStats()
                    parts.append(dressed.covered_mask(chunk, psi, local))
                    merged.merge(local)
                assert np.array_equal(full_mask, np.concatenate(parts))
                assert merged == whole, (
                    f"backend={rt.config.backend.value} "
                    f"shards={rt.config.shards} n_stops={n_stops} psi={psi}"
                )


@pytest.mark.parametrize("seed", range(3))
def test_repeat_probes_deterministic(seed):
    """Two identical probes through one runtime agree exactly — mask and
    stats — even though the second ride memoized builds."""
    rng = np.random.default_rng(3000 + seed)
    stops, probe = _random_case(rng, 96)
    for backend in BACKENDS:
        with QueryRuntime(RuntimeConfig(backend=backend)) as rt:
            dressed = rt.stop_set(StopSet(stops), 12.0)
            s1, s2 = QueryStats(), QueryStats()
            m1 = dressed.covered_mask(probe, 12.0, s1)
            m2 = dressed.covered_mask(probe, 12.0, s2)
            assert np.array_equal(m1, m2)
            assert s1 == s2


def test_covers_point_agrees_across_backends():
    rng = np.random.default_rng(4000)
    stops, probe = _random_case(rng, 64)
    from repro.core.geometry import Point

    points = [Point(float(x), float(y)) for x, y in probe[:25]]
    for psi in (0.0, 3.0, 40.0):
        dense = StopSet(stops)
        expected = [dense.covers_point(p, psi) for p in points]
        for backend in BACKENDS:
            with QueryRuntime(RuntimeConfig(backend=backend)) as rt:
                dressed = rt.stop_set(StopSet(stops), psi)
                got = [dressed.covers_point(p, psi) for p in points]
                assert got == expected, backend.value
