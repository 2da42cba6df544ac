"""Result files, the repeatability check and the two-file comparison.

A result file holds one or more *sets*; a set is one record per
(workload, trace mode).  A metric's value in a file is the median over
its sets, and its spread is ``(max - min) / median`` over them — with a
single set the spread is unknown and a comparison can only say
better/worse, never ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from . import BENCH_VERSION
from . import spec as S


def save(path: str, sets: List[list]) -> None:
    with open(path, "w") as fh:
        json.dump({"bench_version": BENCH_VERSION, "sets": sets}, fh, indent=1)


def load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("bench_version") != BENCH_VERSION:
        raise SystemExit(f"{path}: bench_version {data.get('bench_version')} != {BENCH_VERSION}")
    return data


def _values(sets: List[list], trace: int) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for records in sets:
        for rec in records:
            if rec["trace"] != trace:
                continue
            for name, m in rec["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(m["value"])
            if trace == 0:  # the untraced run's unbounded tails and shares
                for name, value in rec["extra"].items():
                    out.setdefault((rec["workload"], name), []).append(value)
    return out


def _nprocs(sets: List[list]) -> set:
    return {rec["host"]["nproc"] for records in sets for rec in records}


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def check_repeat(sets: List[list], bench: dict) -> List[str]:
    """Two sets of one commit must agree on every end-to-end metric
    within its bound, both ways round; work counters of the library
    workloads must repeat exactly."""
    problems = []
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    first, second = _values(sets[:1], 0), _values(sets[1:2], 0)
    for (workload, name), a in first.items():
        m = bounded.get(name)
        if m is None:
            continue
        b = second[(workload, name)]
        gap = max(worse_by(a[0], b[0], m["better"]), worse_by(b[0], a[0], m["better"]))
        if gap > m["bound"]:
            problems.append(
                f"{workload} {name}: {a[0]:.6g} vs {b[0]:.6g} {m['unit']} "
                f"differ by {gap:.3f} > bound {m['bound']}"
            )
    first, second = _values(sets[:1], 1), _values(sets[1:2], 1)
    for (workload, name), a in first.items():
        if name in S.EXACT_COUNTERS and S.WORKLOADS[workload]["kind"] == "library":
            b = second[(workload, name)]
            if a[0] != b[0]:
                problems.append(f"{workload} {name}: exact counter {a[0]!r} != {b[0]!r}")
    for records in sets:
        problems += [
            f"{rec['workload']} (trace={rec['trace']}): {rec['failed']} failed"
            for rec in records
            if not rec["correct"]
        ]
    return problems


def compare_files(path_a: str, path_b: str, bench: dict) -> int:
    """One row per workload x metric: both medians, the ratio b/a (base
    = a) and a verdict.  Returns the exit code: 1 when any bounded
    metric got worse by more than its bound."""
    a, b = load(path_a), load(path_b)
    if _nprocs(a["sets"]) != _nprocs(b["sets"]):
        raise SystemExit(
            f"refusing to compare: nproc {_nprocs(a['sets'])} vs {_nprocs(b['sets'])}"
        )
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    regressed = 0
    print(f"{'workload':18s} {'metric':40s} {'a':>12s} {'b':>12s} {'b/a':>8s}  verdict")
    for trace in (0, 1):
        va, vb = _values(a["sets"], trace), _values(b["sets"], trace)
        for key in sorted(va):
            if key not in vb:
                continue
            m = declared.get(key[1], {})
            med_a, med_b = statistics.median(va[key]), statistics.median(vb[key])
            ratio = med_b / med_a if med_a else float("nan")
            bound = m.get("bound")
            verdict = "-"
            if bound is not None:
                spread = max(_spread(va[key]), _spread(vb[key]))
                worse = worse_by(med_a, med_b, m["better"])
                if spread > bound:
                    verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
                elif worse > bound:
                    verdict = f"WORSE by {worse:.3f} > bound {bound}"
                    regressed += 1
                elif worse < -bound:
                    verdict = f"better by {-worse:.3f}"
                else:
                    verdict = "same (within bound)"
            print(
                f"{key[0]:18s} {key[1]:40s} {med_a:12.6g} {med_b:12.6g} {ratio:8.3f}  {verdict}"
            )
    return 1 if regressed else 0


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else 0.0
