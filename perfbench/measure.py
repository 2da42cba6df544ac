"""Small measuring helpers shared by every workload."""

from __future__ import annotations

import math
import os
import platform
from typing import Dict, List, Sequence

import numpy as np

from . import BENCH_VERSION
from . import spec as S


def host_block() -> dict:
    return {
        "bench_version": BENCH_VERSION,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in S.BLAS_ENV},
    }


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100.0 * n))


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def latency_summary(
    metric_names: List[str],
    latencies_ms: Dict[str, List[float]],
) -> Dict[str, float]:
    """Every ``<op>_p<NN>_ms`` metric named, from the op latencies."""
    return {
        name: percentile(latencies_ms[op], p)
        for name, op, p in S.latency_metrics(metric_names)
    }


def slo_miss_share(
    latencies_ms: Dict[str, List[float]], slo_ms: Dict[str, float], sent: int
) -> float:
    """Share of the ops sent that were slower than their op type's
    limit, failed, or were never answered."""
    done = sum(len(values) for values in latencies_ms.values())
    slow = sum(
        sum(1 for v in values if v > slo_ms[op]) for op, values in latencies_ms.items()
    )
    return (slow + sent - done) / sent
