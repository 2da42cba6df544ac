"""perfbench — the repository's one end-to-end benchmark.

Drives the system through its public surface only (dataset generators,
index builders, the query functions, ``python -m repro.store build``,
``python -m repro.serve`` and :class:`repro.ServeClient`) on four seeded
workloads, and reports user-visible latency, throughput, set-up time and
memory, plus a per-layer attribution from a separate traced run.  See
``perfbench/README.md`` for the metric and workload definitions and
``BENCHMARK.json`` for names, units and regression bounds.
"""

BENCH_VERSION = 1
