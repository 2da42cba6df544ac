"""Regenerate every table and figure of the paper's evaluation section.

Each ``fig*``/``table*`` function runs the corresponding experiment at the
scaled default sizes (see :mod:`repro.bench.harness`) and returns a
:class:`Figure` whose series mirror the lines of the paper's plot.  The
package is runnable::

    python -m repro.bench              # everything (minutes)
    python -m repro.bench fig6a fig7b  # a subset

Every TQ-path experiment is built on the :class:`~repro.runtime.
QueryRuntime` execution layer, so the Figure 6–9 sweeps (and the
MaxkCovRST experiments that stack on them) can be re-run through a
runtime at any shard count with the ``--runtime`` flag::

    python -m repro.bench fig6a --runtime 7
    python -m repro.bench fig7c --runtime auto

The spec is ``SHARDS`` (see
:func:`~repro.bench.harness.parse_runtime_spec`); without the flag the
sweeps run the legacy plain-dense path, which is what the paper's
competitors used.  Each timed competitor gets a *fresh* runtime and its
coverage cache is cleared between timed passes, so the numbers measure
geometric work, not cache replay; answers never depend on the runtime
(the differential suites hold every configuration to ``==``).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.service import ServiceModel, ServiceSpec
from ..queries.evaluate import evaluate_service
from ..queries.exact import approximation_ratio, exact_max_k_coverage
from ..queries.genetic import GeneticConfig, genetic_max_k_coverage
from ..queries.kmaxrrst import top_k_facilities
from ..queries.maxkcov import (
    greedy_max_k_coverage,
    maxkcov_baseline,
    maxkcov_tq,
    tq_match_fn,
)
from ..datasets.summaries import summarize_facilities, summarize_users
from ..index.builder import build_tq_basic, build_tq_zorder
from .harness import (
    DEFAULTS,
    PAPER_PARAMETERS,
    Timer,
    WorkloadFactory,
    parse_runtime_spec,
)

__all__ = ["Figure", "Series", "ALL_FIGURES", "run_figure", "render", "main"]


def _best_of(factory, make_fn, repeats: int) -> float:
    """The timing scaffold every competitor-time helper shares.

    ``make_fn(rt)`` builds the zero-arg measured pass given the sweep
    leg's runtime (``None`` on the legacy path).  One untimed warm pass
    absorbs lazy construction (caches, and under a ``--runtime``
    configuration the grids/shards in the runtime's store); the
    coverage cache is cleared before *every* pass so runtime-routed
    legs re-measure the geometric work instead of replaying memoised
    masks; the best of ``repeats`` timed passes suppresses scheduler
    noise.
    """
    rt = factory.query_runtime()
    fn = make_fn(rt)

    def one_pass():
        if rt is not None:
            rt.cache.clear()
        fn()

    one_pass()  # warm
    best = float("inf")
    for _ in range(max(1, repeats)):
        with Timer() as t:
            one_pass()
        best = min(best, t.seconds)
    return best


@dataclass
class Series:
    """One line of a figure: (x, y) pairs."""

    name: str
    points: List[Tuple[object, float]] = field(default_factory=list)

    def add(self, x: object, y: float) -> None:
        self.points.append((x, y))


@dataclass
class Figure:
    """A regenerated table/figure."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def series_named(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        s = Series(name)
        self.series.append(s)
        return s


def render(figure: Figure) -> str:
    """Paper-style fixed-width rendering of a figure's series."""
    lines = [f"{figure.fig_id} — {figure.title}", f"  y: {figure.ylabel}"]
    if figure.notes:
        lines.append(f"  note: {figure.notes}")
    names = [s.name for s in figure.series]
    header = f"  {figure.xlabel:>12} " + " ".join(f"{n:>12}" for n in names)
    lines.append(header)
    xs: List[object] = []
    for s in figure.series:
        for x, _ in s.points:
            if x not in xs:
                xs.append(x)
    table: Dict[object, Dict[str, float]] = {x: {} for x in xs}
    for s in figure.series:
        for x, y in s.points:
            table[x][s.name] = y
    for x in xs:
        row = f"  {str(x):>12} "
        row += " ".join(
            f"{table[x].get(n, float('nan')):>12.5f}" for n in names
        )
        lines.append(row)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Section VI-B(1): computing the service value of one facility
# ----------------------------------------------------------------------
def _service_value_time(
    factory, users, method: str, facilities, spec, repeats: int = 3
) -> float:
    """Mean per-facility service-value time for one competitor."""

    def make_fn(rt):
        if method == "BL":
            index = factory.baseline(users)
            return lambda: [index.service_value(f, spec) for f in facilities]
        tree = factory.tq_tree(users, use_zorder=(method == "TQ(Z)"))
        return lambda: [
            evaluate_service(tree, f, spec, runtime=rt) for f in facilities
        ]

    return _best_of(factory, make_fn, repeats) / len(facilities)


def fig6a(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 6(a)", "service-value time vs #user trajectories (NYT-like)",
        "days", "seconds per facility",
        notes=f"{DEFAULTS.users_per_day} trips/day (scaled), "
        f"S={DEFAULTS.n_stops}, psi={DEFAULTS.psi}",
    )
    spec = factory.spec()
    probe = factory.facilities(8, DEFAULTS.n_stops)
    for days in DEFAULTS.day_sweep:
        users = factory.taxi_users(days)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                days, _service_value_time(factory, users, method, probe, spec)
            )
    return fig


def fig6b(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 6(b)", "service-value time vs #stops (NYT-like)",
        "stops", "seconds per facility",
        notes="1-day workload",
    )
    spec = factory.spec()
    users = factory.taxi_users(1.0)
    for n_stops in DEFAULTS.stop_sweep:
        probe = factory.facilities(8, n_stops)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                n_stops, _service_value_time(factory, users, method, probe, spec)
            )
    return fig


def bench_psi(factory: WorkloadFactory) -> Figure:
    """Section VI-B(1)(iii): psi sensitivity (graph omitted in the paper)."""
    fig = Figure(
        "Section VI-B(1)(iii)", "service-value time vs psi (NYT-like)",
        "psi", "seconds per facility",
        notes="paper reports no significant change except for BL",
    )
    users = factory.taxi_users(1.0)
    probe = factory.facilities(8, DEFAULTS.n_stops)
    for psi in (100.0, 200.0, 400.0, 800.0):
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                psi, _service_value_time(factory, users, method, probe, spec)
            )
    return fig


# ----------------------------------------------------------------------
# Section VI-B(2): processing kMaxRRST (NYT-like)
# ----------------------------------------------------------------------
def _topk_time(factory, users, method, facilities, k, spec, repeats: int = 2) -> float:
    def make_fn(rt):
        if method == "BL":
            index = factory.baseline(users)
            return lambda: index.top_k(facilities, k, spec)
        tree = factory.tq_tree(users, use_zorder=(method == "TQ(Z)"))
        return lambda: top_k_facilities(tree, facilities, k, spec, runtime=rt)

    return _best_of(factory, make_fn, repeats)


def fig7a(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 7(a)", "kMaxRRST time vs #user trajectories (NYT-like)",
        "days", "seconds per query",
        notes=f"N={DEFAULTS.n_facilities}, S={DEFAULTS.n_stops}, k={DEFAULTS.k}",
    )
    spec = factory.spec()
    facilities = factory.facilities()
    for days in DEFAULTS.day_sweep:
        users = factory.taxi_users(days)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                days, _topk_time(factory, users, method, facilities, DEFAULTS.k, spec)
            )
    return fig


def fig7b(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 7(b)", "kMaxRRST time vs k (NYT-like)", "k", "seconds per query",
        notes="BL is flat in k by construction",
    )
    spec = factory.spec()
    users = factory.taxi_users(1.0)
    facilities = factory.facilities()
    for k in DEFAULTS.k_sweep:
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                k, _topk_time(factory, users, method, facilities, k, spec)
            )
    return fig


def fig7c(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 7(c)", "kMaxRRST time vs #stops (NYT-like)", "stops",
        "seconds per query",
    )
    spec = factory.spec()
    users = factory.taxi_users(1.0)
    for n_stops in DEFAULTS.stop_sweep:
        facilities = factory.facilities(DEFAULTS.n_facilities, n_stops)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                n_stops,
                _topk_time(factory, users, method, facilities, DEFAULTS.k, spec),
            )
    return fig


def fig7d(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 7(d)", "kMaxRRST time vs #facilities (NYT-like)", "facilities",
        "seconds per query",
    )
    spec = factory.spec()
    users = factory.taxi_users(1.0)
    for n in DEFAULTS.facility_sweep:
        facilities = factory.facilities(n, DEFAULTS.n_stops)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                n, _topk_time(factory, users, method, facilities, DEFAULTS.k, spec)
            )
    return fig


# ----------------------------------------------------------------------
# Section VI-B(3): multipoint datasets (NYF-like, BJG-like)
# ----------------------------------------------------------------------
def _multipoint_methods(factory, users):
    """The six competitors of Figure 8: BL + {S,F}-TQ x {B,Z}."""
    return {
        "BL": ("bl", None),
        "S-TQ(B)": ("tq", (IndexVariant.SEGMENTED, False)),
        "S-TQ(Z)": ("tq", (IndexVariant.SEGMENTED, True)),
        "F-TQ(B)": ("tq", (IndexVariant.FULL, False)),
        "F-TQ(Z)": ("tq", (IndexVariant.FULL, True)),
    }


def _multipoint_topk_time(factory, users, method_key, facilities, spec) -> float:
    kind, params = method_key

    def make_fn(rt):
        if kind == "bl":
            index = factory.baseline(users)
            return lambda: index.top_k(facilities, DEFAULTS.k, spec)
        variant, use_z = params
        tree = factory.tq_tree(users, use_zorder=use_z, variant=variant)
        return lambda: top_k_facilities(
            tree, facilities, DEFAULTS.k, spec, runtime=rt
        )

    return _best_of(factory, make_fn, 2)


def fig8a(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 8(a)", "kMaxRRST vs #stops (NYF-like multipoint)", "stops",
        "seconds per query", notes="COUNT service, segmented vs full index",
    )
    users = factory.checkin_users()
    spec = factory.spec(ServiceModel.COUNT)
    for n_stops in DEFAULTS.stop_sweep[:5]:
        facilities = factory.facilities(DEFAULTS.n_facilities, n_stops)
        for name, key in _multipoint_methods(factory, users).items():
            fig.series_named(name).add(
                n_stops, _multipoint_topk_time(factory, users, key, facilities, spec)
            )
    return fig


def fig8b(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 8(b)", "kMaxRRST vs #facilities (NYF-like multipoint)",
        "facilities", "seconds per query",
    )
    users = factory.checkin_users()
    spec = factory.spec(ServiceModel.COUNT)
    for n in DEFAULTS.facility_sweep:
        facilities = factory.facilities(n, DEFAULTS.n_stops)
        for name, key in _multipoint_methods(factory, users).items():
            fig.series_named(name).add(
                n, _multipoint_topk_time(factory, users, key, facilities, spec)
            )
    return fig


def _geolife_segments(factory) -> List:
    """The paper's BJG setup: every point pair is its own trajectory."""
    from ..index.builder import segment_dataset

    key = ("geolife-seg",)
    if key not in factory._users:
        factory._users[key] = segment_dataset(factory.geolife_users())
    return factory._users[key]


def fig9a(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 9(a)", "kMaxRRST vs #stops (BJG-like, segmented dataset)",
        "stops", "seconds per query",
        notes="every point pair treated as one trajectory (paper setup)",
    )
    users = _geolife_segments(factory)
    spec = factory.spec()
    for n_stops in DEFAULTS.stop_sweep[:5]:
        facilities = factory.facilities(DEFAULTS.n_facilities, n_stops)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                n_stops,
                _topk_time(factory, users, method, facilities, DEFAULTS.k, spec),
            )
    return fig


def fig9b(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Figure 9(b)", "kMaxRRST vs #facilities (BJG-like, segmented dataset)",
        "facilities", "seconds per query",
    )
    users = _geolife_segments(factory)
    spec = factory.spec()
    for n in DEFAULTS.facility_sweep:
        facilities = factory.facilities(n, DEFAULTS.n_stops)
        for method in ("BL", "TQ(B)", "TQ(Z)"):
            fig.series_named(method).add(
                n, _topk_time(factory, users, method, facilities, DEFAULTS.k, spec)
            )
    return fig


# ----------------------------------------------------------------------
# Section VI-B(4): MaxkCovRST
# ----------------------------------------------------------------------
def _maxkcov_run(factory, users, method, facilities, k, spec):
    rt = factory.query_runtime()
    if method == "G(BL)":
        index = factory.baseline(users)
        fn = lambda: maxkcov_baseline(  # noqa: E731
            index, users, facilities, k, spec
        )
    elif method == "Gn-TQ(Z)":
        tree = factory.tq_tree(users, use_zorder=True)
        match = tq_match_fn(tree, spec, runtime=rt)
        fn = lambda: genetic_max_k_coverage(  # noqa: E731
            users, facilities, k, spec, match, GeneticConfig(seed=7),
            runtime=rt,
        )
    else:
        tree = factory.tq_tree(users, use_zorder=(method == "G-TQ(Z)"))
        fn = lambda: maxkcov_tq(  # noqa: E731
            tree, facilities, k, spec, runtime=rt
        )
    with Timer() as t:
        result = fn()
    return result, t.seconds


MAXKCOV_METHODS = ("G(BL)", "G-TQ(B)", "G-TQ(Z)", "Gn-TQ(Z)")


def fig10ab(factory: WorkloadFactory) -> Tuple[Figure, Figure]:
    fa = Figure(
        "Figure 10(a)", "MaxkCovRST time vs #users (NYT-like)", "days",
        "seconds per query", notes=f"k={DEFAULTS.k}, N={DEFAULTS.n_facilities}",
    )
    fb = Figure(
        "Figure 10(b)", "MaxkCovRST #users served vs #users (NYT-like)",
        "days", "# users served",
    )
    spec = factory.spec()
    facilities = factory.facilities()
    for days in DEFAULTS.day_sweep:
        users = factory.taxi_users(days)
        for method in MAXKCOV_METHODS:
            result, seconds = _maxkcov_run(
                factory, users, method, facilities, DEFAULTS.k, spec
            )
            fa.series_named(method).add(days, seconds)
            fb.series_named(method).add(days, float(result.users_fully_served))
    return fa, fb


def fig10cd(factory: WorkloadFactory) -> Tuple[Figure, Figure]:
    fc = Figure(
        "Figure 10(c)", "MaxkCovRST time vs #facilities (NYT-like)",
        "facilities", "seconds per query",
    )
    fd = Figure(
        "Figure 10(d)", "MaxkCovRST #users served vs #facilities (NYT-like)",
        "facilities", "# users served",
        notes="the 20-iteration GA degrades as N grows (paper's finding)",
    )
    spec = factory.spec()
    users = factory.taxi_users(1.0)
    for n in DEFAULTS.facility_sweep:
        facilities = factory.facilities(n, DEFAULTS.n_stops)
        for method in MAXKCOV_METHODS:
            result, seconds = _maxkcov_run(
                factory, users, method, facilities, DEFAULTS.k, spec
            )
            fc.series_named(method).add(n, seconds)
            fd.series_named(method).add(n, float(result.users_fully_served))
    return fc, fd


def fig11(factory: WorkloadFactory) -> Tuple[Figure, Figure]:
    """Approximation ratios need the exact optimum, so instances shrink:
    k=4 and at most 32 facilities."""
    fa = Figure(
        "Figure 11(a)", "approximation ratio vs #users (NYT-like)", "days",
        "ratio to exact", notes="k=4, N=16 (reduced so exact B&B completes)",
    )
    fb = Figure(
        "Figure 11(b)", "approximation ratio vs #facilities (NYT-like)",
        "facilities", "ratio to exact", notes="k=4",
    )
    k = 4
    spec = factory.spec()

    def ratios(users, facilities):
        rt = factory.query_runtime()
        tree = factory.tq_tree(users, use_zorder=True)
        match = tq_match_fn(tree, spec, runtime=rt)
        greedy = greedy_max_k_coverage(users, facilities, k, spec, match)
        ga = genetic_max_k_coverage(
            users, facilities, k, spec, match, GeneticConfig(seed=7),
            runtime=rt,
        )
        exact = exact_max_k_coverage(
            users, facilities, k, spec, match, runtime=rt
        )
        return (
            approximation_ratio(greedy, exact),
            approximation_ratio(ga, exact),
        )

    for days in (0.5, 1.0, 2.0):
        users = factory.taxi_users(days)
        g, ga = ratios(users, factory.facilities(16, DEFAULTS.n_stops))
        fa.series_named("G-TQ(Z)").add(days, g)
        fa.series_named("Gn-TQ(Z)").add(days, ga)
    users = factory.taxi_users(1.0)
    for n in (8, 16, 32):
        g, ga = ratios(users, factory.facilities(n, DEFAULTS.n_stops))
        fb.series_named("G-TQ(Z)").add(n, g)
        fb.series_named("Gn-TQ(Z)").add(n, ga)
    return fa, fb


# ----------------------------------------------------------------------
# Section VI-B(4) text: index construction time
# ----------------------------------------------------------------------
def construction(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Construction", "index construction time vs #user trajectories",
        "days", "seconds",
        notes="paper: 0.74-3.74 s TQ(B), 1.03-9.95 s TQ(Z) at 203k-1.03M users",
    )
    for days in DEFAULTS.day_sweep:
        users = factory.taxi_users(days)
        with Timer() as t:
            build_tq_basic(users, beta=DEFAULTS.beta, space=factory.city.bounds)
        fig.series_named("TQ(B)").add(days, t.seconds)
        with Timer() as t:
            build_tq_zorder(users, beta=DEFAULTS.beta, space=factory.city.bounds)
        fig.series_named("TQ(Z)").add(days, t.seconds)
    return fig


# ----------------------------------------------------------------------
# ablations (design choices from DESIGN.md, beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_pruning(factory: WorkloadFactory) -> Figure:
    """The mechanism behind Figures 6-7: how many stored entries each
    method must exact-check per facility evaluation.  This is the
    machine-independent form of the paper's pruning claim."""
    from ..queries.evaluate import QueryStats

    fig = Figure(
        "Ablation: pruning", "entries exact-checked per facility evaluation",
        "days", "entries",
        notes="|UL| touched: BL = all points in range; TQ = candidates after pruning",
    )
    spec = factory.spec()
    probe = factory.facilities(8, DEFAULTS.n_stops)
    for days in DEFAULTS.day_sweep:
        users = factory.taxi_users(days)
        for use_z, name in ((False, "TQ(B)"), (True, "TQ(Z)")):
            tree = factory.tq_tree(users, use_zorder=use_z)
            stats = QueryStats()
            rt = factory.query_runtime()
            for f in probe:
                evaluate_service(tree, f, spec, stats=stats, runtime=rt)
            fig.series_named(name).add(days, stats.entries_scored / len(probe))
        fig.series_named("stored entries").add(days, float(len(users)))
    return fig


def ablation_beta(factory: WorkloadFactory) -> Figure:
    """Sensitivity to the block size beta (bucket capacity and node
    split threshold)."""
    fig = Figure(
        "Ablation: beta", "service-value time vs block size beta (TQ(Z))",
        "beta", "seconds per facility",
    )
    users = factory.taxi_users(1.0)
    spec = factory.spec()
    probe = factory.facilities(8, DEFAULTS.n_stops)
    for beta in (16, 32, 64, 128, 256):
        tree = build_tq_zorder(users, beta=beta, space=factory.city.bounds)
        tree.warm_zindex()
        rt = factory.query_runtime()
        for f in probe:  # warm
            evaluate_service(tree, f, spec, runtime=rt)
        if rt is not None:
            rt.cache.clear()
        with Timer() as t:
            for f in probe:
                evaluate_service(tree, f, spec, runtime=rt)
        fig.series_named("TQ(Z)").add(beta, t.seconds / len(probe))
    return fig


# ----------------------------------------------------------------------
# Tables I-III
# ----------------------------------------------------------------------
def table1(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Table I", "facility trajectory datasets (scaled substitutes)",
        "dataset", "count",
        notes="paper: NY 2,024 routes / 16,999 stops; BJ 1,842 / 21,489",
    )
    ny = summarize_facilities("NY-like", factory.facilities(253, None))
    bj = summarize_facilities("BJ-like", factory.facilities(230, None))
    fig.series_named("# facilities").add(ny.name, float(ny.n_facilities))
    fig.series_named("# stop points").add(ny.name, float(ny.n_stop_points))
    fig.series_named("# facilities").add(bj.name, float(bj.n_facilities))
    fig.series_named("# stop points").add(bj.name, float(bj.n_stop_points))
    return fig


def table2(factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Table II", "user trajectory datasets (scaled substitutes)",
        "dataset", "count",
        notes="paper: NYT 1,032,637 p2p; NYF 212,751 multi; BJG 30,266 multi",
    )
    rows = [
        summarize_users("NYT-like", factory.taxi_users(3.0)),
        summarize_users("NYF-like", factory.checkin_users()),
        summarize_users("BJG-like", factory.geolife_users()),
    ]
    for r in rows:
        fig.series_named("# trajectories").add(r.name, float(r.n_trajectories))
        fig.series_named("# points").add(r.name, float(r.n_points))
        fig.series_named("multipoint").add(r.name, float(r.kind == "multipoint"))
    return fig


def table3(_factory: WorkloadFactory) -> Figure:
    fig = Figure(
        "Table III", "experiment parameters: paper range vs scaled range",
        "parameter", "default",
    )
    for row in PAPER_PARAMETERS:
        if isinstance(row.paper_default, (int, float)):
            fig.series_named("paper default").add(row.name, float(row.paper_default))
            fig.series_named("scaled default").add(row.name, float(row.scaled_default))
    return fig


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
ALL_FIGURES: Dict[str, Callable] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "psi": bench_psi,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig7c": fig7c,
    "fig7d": fig7d,
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig10ab": fig10ab,
    "fig10cd": fig10cd,
    "fig11": fig11,
    "construction": construction,
    "ablation_pruning": ablation_pruning,
    "ablation_beta": ablation_beta,
}


def run_figure(name: str, factory: Optional[WorkloadFactory] = None) -> List[Figure]:
    """Run one experiment by key; returns its figure(s)."""
    if name not in ALL_FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)}")
    factory = factory or WorkloadFactory()
    out = ALL_FIGURES[name](factory)
    return list(out) if isinstance(out, tuple) else [out]


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIG",
        help=f"subset to run (default: all of {', '.join(ALL_FIGURES)})",
    )
    parser.add_argument(
        "--runtime",
        metavar="SHARDS",
        default=None,
        help="run the TQ-path sweeps through a QueryRuntime with this "
        "grid shard count, e.g. 'auto', '1', '7' (default: the legacy "
        "plain-dense path)",
    )
    args = parser.parse_args(list(argv))
    try:
        runtime_config = (
            parse_runtime_spec(args.runtime) if args.runtime else None
        )
    except (ValueError, QueryError) as exc:
        parser.error(str(exc))
    names = args.figures or list(ALL_FIGURES)
    factory = WorkloadFactory(runtime_config=runtime_config)
    if runtime_config is not None:
        print(f"runtime: {runtime_config}")
        print()
    t0 = time.perf_counter()
    for name in names:
        for fig in run_figure(name, factory):
            print(render(fig))
            print()
    print(f"total wall time: {time.perf_counter() - t0:.1f}s")
    return 0

