"""Frozen workload definitions and the ``BENCHMARK.json`` metric table.

``BENCHMARK.json`` is the single source of metric *names*, units,
better-directions and regression bounds; everything the contract does
not let that file carry — dataset sizes, op counts, the open-loop rate,
latency limits, input fingerprints — is frozen here.  Sizes were tuned
on the 2-core reference host so that one run's timed phase takes about
``REFERENCE_SECONDS``; change any of them only in a PR that changes
nothing else and re-measures the baseline.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Timed-phase length the op counts below were sized for.  ``--seconds``
#: scales every count by ``seconds / REFERENCE_SECONDS`` so the schedule
#: (and with it every work counter) is a pure function of seed + seconds.
REFERENCE_SECONDS = 15.0
#: Pinned to one thread in this process and every child, so a 2-core
#: host is not oversubscribed (set before numpy loads: this module must
#: not import it).
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SETUP_REPS = 3

#: The map is part of the workload, not of the seed: trips, routes and
#: schedules vary with ``--seed``, the city they are drawn from does not.
CITY_SEED = 42
CITY_SIZE = 12_000.0

OPS = ("evaluate", "wave", "kmaxrrst", "maxkcov")
WAVE = 16
#: Share of evaluate answers checked against ``brute_force_service``.
ORACLE_SHARE = 0.05

WORKLOADS: Dict[str, dict] = {
    # Library calls, closed loop, 1 caller; every op uses routes never
    # seen before, so no cache or store can answer.
    "paper_cold": {
        "kind": "library",
        "users": 12_000,
        "stops": 32,
        "psi": 300.0,
        "counts": {"evaluate": 1000, "wave": 100, "kmaxrrst": 100, "maxkcov": 24},
        "candidates": {"kmaxrrst": (16, 4), "maxkcov": (8, 3)},
        "slo_ms": {"evaluate": 10.0, "wave": 175.0, "kmaxrrst": 160.0, "maxkcov": 1200.0},
    },
    # Library calls, closed loop, 1 caller; two multipoint trees, big
    # stop sets reused uniformly (AUTO climbs to grid/cellstring, the
    # CoverageCache does the work once warm).
    "paper_multipoint": {
        "kind": "library",
        "gps_traces": 300,
        "checkins": 1200,
        "routes": ((32, 128), (32, 512)),
        "hot_networks": (2, 8192),
        "psi": 300.0,
        "counts": {"evaluate": 400, "wave": 50, "kmaxrrst": 50, "maxkcov": 24},
        "candidates": {"kmaxrrst": (16, 4), "maxkcov": (8, 3)},
        "slo_ms": {"evaluate": 27.0, "wave": 460.0, "kmaxrrst": 400.0, "maxkcov": 570.0},
    },
    # HTTP, closed loop, 1 keep-alive connection, shipped defaults;
    # almost every probe is a cache hit.
    "serve_hot": {
        "kind": "serving",
        "loop": "closed",
        "connections": 1,
        "users": 3_000,
        "routes": (64, 32),
        "psis": (300.0,),
        "store_psis": (300.0,),
        "count_share": 0.2,
        "zipf": 0.6,
        "serve_args": (),
        "store_args": (),
        "solver_sets": 4,
        "counts": {"evaluate": 3000, "wave": 120, "kmaxrrst": 100, "maxkcov": 50},
        "candidates": {"kmaxrrst": (16, 4), "maxkcov": (8, 3)},
        "slo_ms": {"evaluate": 8.0, "wave": 78.0, "kmaxrrst": 45.0, "maxkcov": 125.0},
    },
    # HTTP, open loop at a fixed rate, batching window on, working set
    # larger than the ShardStore's 256-grid cap.
    "serve_burst": {
        "kind": "serving",
        "loop": "open",
        "connections": 2,
        "users": 2_500,
        "routes": (320, 64),
        "psis": (150.0, 300.0, 600.0),
        "store_psis": (300.0,),
        "count_share": 0.0,
        "zipf": 0.0,
        "serve_args": ("--batch-window", "0.005", "--shards", "2"),
        "store_args": ("--shards", "2"),
        "solver_sets": 8,
        "counts": {"evaluate": 200, "wave": 100, "kmaxrrst": 60, "maxkcov": 30},
        "candidates": {"kmaxrrst": (8, 2), "maxkcov": (4, 2)},
        "slo_ms": {"evaluate": 38.0, "wave": 135.0, "kmaxrrst": 24.0, "maxkcov": 51.0},
    },
}

#: Latencies every untraced run also prints (and records under
#: ``extra``) without a bound, and the traced run reports as per-layer
#: metrics: on the reference host they vary too much from seed to seed
#: to gate on (see README "Steadiness").  Each tail has >= 10 samples
#: beyond it at the frozen counts.
EXTRA_LATENCIES = (
    "wave_p50_ms",
    "kmaxrrst_p50_ms",
    "maxkcov_p50_ms",
    "evaluate_p95_ms",
    "wave_p75_ms",
    "kmaxrrst_p75_ms",
)

#: sha256 of inputs + schedule at ``REFERENCE_SECONDS`` for the two
#: shipped seeds; a run on one of these seeds whose fingerprint differs
#: measured a different load and fails.
FINGERPRINTS: Dict[str, Dict[int, str]] = {
    "paper_cold": {
        1: "3546c0913b9600ea50e87da87fda6f447342db2e2819dbc2c0a07ec2927523c4",
        2: "43dd6fd9eaba87c842d32a3fa42e2ffc90fb1fb1e7504078936d13e07df066b4",
    },
    "paper_multipoint": {
        1: "53af68a647314f1b61449bcfbdd6b03c2b79b061e3ccd33ff6044305b0ca5fa2",
        2: "6d1343bf0672f9c93da3c555803625584e2c5ad162b41adf5b7184b366747ea1",
    },
    "serve_hot": {
        1: "d2fb8f6b665e39bf17bdff2788d60569f61b5ed0464674ed0ef645a69e4be751",
        2: "553155581df5af245be3badb63ee9a80f31875a9200e3cc76cf5118b8f6d88bd",
    },
    "serve_burst": {
        1: "75eb83f9904adad6cf6efd2b9176177e29896c9b06bb0ce6d7a76109063e946a",
        2: "47a283ccaaf8ff0064efc7ec6a56507fd12a6afd15b65529106b28792fe8a1c3",
    },
}

#: Work counters that must repeat exactly between two runs of one
#: library workload at one seed (``repeat --traced`` asserts it).
EXACT_COUNTERS = (
    "index.nodes",
    "index.nodes_visited_per_op",
    "queries.io_blocks_per_evaluate",
    "runtime.probe_mask_calls_per_op",
    "runtime.probe_points_per_op",
    "engine.points_scanned_per_op",
    "engine.distance_evals_per_op",
    "engine.cells_probed_per_op",
)


def deadline_s(seconds: float) -> float:
    """A run stops issuing ops this long into its timed phase, so a
    much slower program still ends inside the driver's cap (unissued ops
    count as failed).  The floor covers short runs, whose one-time cold
    costs do not shrink with ``--seconds``."""
    return max(3.0 * seconds, 20.0)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def scaled_counts(workload: str, seconds: float) -> Dict[str, int]:
    scale = seconds / REFERENCE_SECONDS
    return {
        op: max(2, round(n * scale))
        for op, n in WORKLOADS[workload]["counts"].items()
    }


_PERCENTILE = re.compile(r"^(evaluate|wave|kmaxrrst|maxkcov)_p(\d+)_ms$")


def latency_metrics(names: List[str]) -> List[tuple]:
    """``(metric name, op, percentile)`` for every ``<op>_p<NN>_ms``."""
    out = []
    for name in names:
        m = _PERCENTILE.match(name)
        if m:
            out.append((name, m.group(1), int(m.group(2))))
    return out
