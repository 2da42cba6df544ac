"""Smoke test of the benchmark itself (not in tier-1 ``testpaths``; run
``python -m pytest perfbench/test_smoke.py``): a ``--smoke`` set at 1/20
of the op counts emits every metric ``BENCHMARK.json`` declares and
passes the correctness gate, untraced and traced."""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_set(tmp_path, *flags):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--smoke", "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return json.load(fh)["sets"][0], elapsed


def _check(records, trace, declared):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    assert [r["workload"] for r in records if r["trace"] == trace] == workloads
    names = [m["name"] for m in bench[declared]]
    for rec in records:
        if rec["trace"] != trace:
            continue
        assert list(rec["metrics"]) == names
        assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
        assert not rec["missing_symbols"]
        assert all(isinstance(m["value"], float) for m in rec["metrics"].values())


def test_smoke_set_end_to_end(tmp_path):
    records, elapsed = _run_set(tmp_path)
    _check(records, 0, "end_to_end")
    assert all(m["value"] > 0 for r in records for m in r["metrics"].values())
    assert elapsed < 30


def test_smoke_set_traced(tmp_path):
    records, _elapsed = _run_set(tmp_path, "--trace", "1")
    _check(records, 1, "per_layer")
    by_workload = {r["workload"]: r["metrics"] for r in records}
    assert by_workload["serve_hot"]["http.floor_p50_ms"]["value"] > 0
    assert by_workload["paper_cold"]["http.floor_p50_ms"]["value"] == 0
