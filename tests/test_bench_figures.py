"""Tests for figure regeneration (tiny workloads, structure checks)."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench.figures as figures
from repro.bench.figures import Figure, Series, render, run_figure
from repro.bench.harness import WorkloadFactory, _Defaults

TINY = _Defaults(
    users_per_day=80,
    day_sweep=(0.5, 1.0),
    n_stops=8,
    stop_sweep=(4, 8),
    n_facilities=4,
    facility_sweep=(2, 4),
    k=2,
    k_sweep=(1, 2),
    psi=400.0,
    beta=8,
    city_seed=3,
    city_size=3_000.0,
)


@pytest.fixture()
def tiny(monkeypatch):
    """A tiny factory with the figure module's sweep globals shrunk."""
    monkeypatch.setattr(figures, "DEFAULTS", TINY)
    return WorkloadFactory(TINY)


def series_dict(fig: Figure):
    return {s.name: s.points for s in fig.series}


class TestRender:
    def test_renders_all_series_and_rows(self):
        fig = Figure("Figure X", "demo", "x", "seconds")
        fig.series_named("A").add(1, 0.5)
        fig.series_named("A").add(2, 0.25)
        fig.series_named("B").add(1, 1.5)
        text = render(fig)
        assert "Figure X" in text
        assert "A" in text and "B" in text
        assert "0.50000" in text and "1.50000" in text
        assert "nan" in text  # B has no value at x=2

    def test_series_named_reuses(self):
        fig = Figure("f", "t", "x", "y")
        a = fig.series_named("A")
        assert fig.series_named("A") is a

    def test_notes_rendered(self):
        fig = Figure("f", "t", "x", "y", notes="hello")
        assert "hello" in render(fig)


class TestRunFigure:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_table3_is_static(self, tiny):
        (fig,) = run_figure("table3", tiny)
        names = {x for s in fig.series for x, _ in s.points}
        assert {"n_trajectories", "n_stops", "n_facilities", "k"} <= names

    def test_fig6a_structure(self, tiny):
        (fig,) = run_figure("fig6a", tiny)
        got = series_dict(fig)
        assert set(got) == {"BL", "TQ(B)", "TQ(Z)"}
        for name, points in got.items():
            assert [x for x, _ in points] == list(TINY.day_sweep)
            assert all(y >= 0 for _, y in points)

    def test_fig7b_k_sweep(self, tiny):
        (fig,) = run_figure("fig7b", tiny)
        got = series_dict(fig)
        for points in got.values():
            assert [x for x, _ in points] == list(TINY.k_sweep)

    def test_fig10_pairs(self, tiny):
        figs = run_figure("fig10ab", tiny)
        assert len(figs) == 2
        time_fig, served_fig = figs
        assert "time" in time_fig.title
        assert "served" in served_fig.title
        for s in served_fig.series:
            assert all(y >= 0 for _, y in s.points)

    def test_fig11_ratios_bounded(self, tiny):
        figs = run_figure("fig11", tiny)
        assert len(figs) == 2
        for fig in figs:
            for s in fig.series:
                assert all(0.0 <= y <= 1.0 for _, y in s.points)

    def test_construction_two_series(self, tiny):
        (fig,) = run_figure("construction", tiny)
        assert {s.name for s in fig.series} == {"TQ(B)", "TQ(Z)"}

    def test_ablation_pruning_bounded_by_stored(self, tiny):
        (fig,) = run_figure("ablation_pruning", tiny)
        got = series_dict(fig)
        stored = dict(got["stored entries"])
        for name in ("TQ(B)", "TQ(Z)"):
            for x, y in got[name]:
                assert y <= stored[x]

    def test_all_registry_names_resolve(self):
        for name, fn in figures.ALL_FIGURES.items():
            assert callable(fn), name

    @pytest.mark.parametrize("name", list(figures.ALL_FIGURES))
    def test_every_figure_runs_with_complete_series(self, tiny, name):
        """Tier-1 executes every registered sweep: each series has a
        finite y at every x of its figure, so the competitors (BL /
        TQ(B) / TQ(Z) where present) are compared over one x axis."""
        figs = run_figure(name, tiny)
        assert figs
        for fig in figs:
            assert fig.series, fig.fig_id
            xs = [x for x, _ in fig.series[0].points]
            assert xs, fig.fig_id
            for s in fig.series:
                assert [x for x, _ in s.points] == xs, (fig.fig_id, s.name)
                assert all(math.isfinite(y) for _, y in s.points), (
                    fig.fig_id, s.name,
                )

    def test_package_cli_is_clean_under_the_tier1_warning_filter(self):
        """``python -m repro.bench`` is the documented entry point; it
        must survive ``error::RuntimeWarning`` (running the figures
        module itself trips runpy's found-in-sys.modules warning)."""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.bench", "table3"],
            capture_output=True,
            text=True,
            cwd=root,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Table III" in proc.stdout and "n_trajectories" in proc.stdout


class TestRuntimeAwareSweeps:
    """The Figure 6–9 sweeps must run through a runtime at any shard
    and worker count (the driver's ``--runtime`` flag) with the same
    series structure as the legacy path."""

    @pytest.mark.parametrize("spec", ["1", "2:2"])
    def test_fig6a_structure_under_runtimes(self, monkeypatch, spec):
        from repro.bench.harness import parse_runtime_spec

        monkeypatch.setattr(figures, "DEFAULTS", TINY)
        factory = WorkloadFactory(
            TINY, runtime_config=parse_runtime_spec(spec)
        )
        (fig,) = run_figure("fig6a", factory)
        got = series_dict(fig)
        assert set(got) == {"BL", "TQ(B)", "TQ(Z)"}
        for points in got.values():
            assert [x for x, _ in points] == list(TINY.day_sweep)
            assert all(y >= 0 for _, y in points)

    def test_fig7b_and_fig10_run_under_runtime(self, monkeypatch):
        from repro.bench.harness import parse_runtime_spec

        monkeypatch.setattr(figures, "DEFAULTS", TINY)
        factory = WorkloadFactory(
            TINY, runtime_config=parse_runtime_spec("2:2")
        )
        (fig7,) = run_figure("fig7b", factory)
        for points in series_dict(fig7).values():
            assert [x for x, _ in points] == list(TINY.k_sweep)
        time_fig, served_fig = run_figure("fig10ab", factory)
        # the runtime never changes answers: "# users served" under a
        # runtime equals the legacy path's
        plain_served = series_dict(
            run_figure("fig10ab", WorkloadFactory(TINY))[1]
        )
        assert series_dict(served_fig) == plain_served

    def test_main_accepts_runtime_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(figures, "DEFAULTS", TINY)
        # table3 is static (no sweeps), so main() stays fast while still
        # exercising the --runtime CLI wiring end to end
        assert figures.main(["table3", "--runtime", "1"]) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out and "Table III" in out
