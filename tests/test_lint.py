"""``repro.lint`` — the framework itself, and the tree it guards.

Three layers of coverage:

* fixture tests — each rule L1–L5 gets a tiny deliberately-bad package
  proving it fires with the exact rule id and line, and a clean twin
  proving it stays quiet (so a refactor of a rule cannot silently turn
  it into a no-op);
* the real tree — the full pass over the installed ``src/repro`` must
  report zero findings against the shipped (empty) baseline, which is
  what makes every architectural invariant self-enforcing in tier-1;
* mutation tests — the acceptance-criteria regressions: deleting a
  stats field from a wire codec table, or adding a ``queries`` →
  ``engine`` import, must each produce a finding.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import (
    REPRO_CONFIG,
    BlockingConfig,
    CodecPairing,
    LayerConfig,
    LintConfig,
    LintConfigError,
    SourceIndex,
    format_findings,
    run_lint,
    run_rules,
)

REPRO_ROOT = Path(repro.__file__).parent
REPO_ROOT = REPRO_ROOT.parent.parent
BASELINE = REPO_ROOT / "lint_baseline.json"


def write_pkg(tmp_path: Path, files: dict) -> Path:
    """Materialise ``files`` (relative path -> source) as package ``pkg``."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.parent != root and not (path.parent / "__init__.py").exists():
            (path.parent / "__init__.py").write_text("")
        path.write_text(textwrap.dedent(source))
    return root


TWO_LAYERS = LayerConfig(
    assignments=(
        ("pkg.low", "low"),
        ("pkg.high", "high"),
        ("pkg", "root"),
    ),
    allowed={"low": (), "high": ("low",), "root": ("low", "high")},
    banned_names={"low": ("ForbiddenKnob",)},
)


def lint_pkg(root: Path, config: LintConfig, select=None):
    return run_rules(SourceIndex(root), config, select=select)


# ----------------------------------------------------------------------
# L1 — layer DAG
# ----------------------------------------------------------------------
class TestLayerRule:
    def test_upward_import_fires_with_line(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    import os

                    from .high import helper
                    """,
                "high.py": "def helper():\n    return 1\n",
            },
        )
        findings = lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L1"])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("L1", "pkg/low.py", 3)
        ]
        assert "may not import layer 'high'" in findings[0].message
        assert findings[0].hint

    def test_deferred_import_is_still_an_edge(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    def f():
                        from .high import helper
                        return helper()
                    """,
                "high.py": "def helper():\n    return 1\n",
            },
        )
        findings = lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L1"])
        assert [(f.rule, f.line) for f in findings] == [("L1", 2)]
        assert "deferred import" in findings[0].message

    def test_banned_symbol_fires_even_from_allowed_layer(self, tmp_path):
        # the import edge itself (low -> low) is fine; the symbol is not
        root = write_pkg(
            tmp_path,
            {
                "low/a.py": "from .b import ForbiddenKnob\n",
                "low/b.py": "ForbiddenKnob = 1\n",
                "high.py": "",
            },
        )
        findings = lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L1"])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("L1", "pkg/low/a.py", 1)
        ]
        assert "ForbiddenKnob" in findings[0].message

    def test_downward_and_external_imports_are_clean(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": "import os\nimport numpy\n",
                "high.py": "from .low import x\nfrom . import low\n",
            },
        )
        assert lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L1"]) == []

    def test_package_init_may_reexport_its_subtree(self, tmp_path):
        # pkg/__init__.py importing pkg.high is aggregation, not an edge
        root = write_pkg(
            tmp_path,
            {"low.py": "", "high.py": "helper = 1\n"},
        )
        (root / "__init__.py").write_text("from .high import helper\n")
        cfg = LayerConfig(
            assignments=TWO_LAYERS.assignments,
            allowed={"low": (), "high": ("low",), "root": ()},
        )
        assert lint_pkg(root, LintConfig(layer=cfg), select=["L1"]) == []

    def test_unassigned_module_is_a_config_finding(self, tmp_path):
        root = write_pkg(tmp_path, {"low.py": "", "stray.py": ""})
        cfg = LayerConfig(
            assignments=(("pkg.low", "low"),), allowed={"low": ()}
        )
        findings = lint_pkg(root, LintConfig(layer=cfg), select=["L1"])
        assert {f.path for f in findings} == {"pkg/__init__.py", "pkg/stray.py"}
        assert all("not assigned" in f.message for f in findings)


# ----------------------------------------------------------------------
# L2 — asyncio blocking calls
# ----------------------------------------------------------------------
ASYNC_CFG = LintConfig(layer=TWO_LAYERS, blocking=BlockingConfig())


class TestBlockingRule:
    def test_time_sleep_in_async_def(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    import time

                    async def handler():
                        time.sleep(1)
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(root, ASYNC_CFG, select=["L2"])
        assert [(f.rule, f.line) for f in findings] == [("L2", 4)]
        assert "time.sleep" in findings[0].message

    def test_blocking_socket_op_and_sync_open(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    async def handler(sock, path):
                        data = sock.recv(1024)
                        with open(path) as fh:
                            return fh.read(), data
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(root, ASYNC_CFG, select=["L2"])
        assert [(f.rule, f.line) for f in findings] == [("L2", 2), ("L2", 3)]

    def test_core_call_on_the_loop_is_clean(self, tmp_path):
        """Query cores run on the event loop: calling one directly in
        an ``async def`` is not a finding."""
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    from .low import evaluate_core

                    async def handler(tree, f, spec):
                        return evaluate_core(tree, f, spec)
                    """,
                "low.py": "def evaluate_core(*a):\n    return 0\n",
            },
        )
        assert lint_pkg(root, ASYNC_CFG, select=["L2"]) == []

    def test_thread_lock_acquire_and_hold_across_await(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    import threading

                    class Service:
                        def __init__(self):
                            self._lock = threading.Lock()

                        async def bad_acquire(self):
                            self._lock.acquire()

                        async def bad_hold(self, fut):
                            with self._lock:
                                await fut
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(root, ASYNC_CFG, select=["L2"])
        assert [(f.rule, f.line) for f in findings] == [("L2", 8), ("L2", 12)]
        assert "acquire" in findings[0].message
        assert "across an await" in findings[1].message

    def test_bounded_lock_hold_and_executor_bridge_are_clean(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    import asyncio
                    import threading

                    from .low import evaluate_core

                    class Service:
                        def __init__(self):
                            self._stats_lock = threading.Lock()
                            self._sem = asyncio.Semaphore(4)
                            self.count = 0

                        async def handler(self, loop, tree):
                            await self._sem.acquire()
                            with self._stats_lock:
                                self.count += 1
                            return await loop.run_in_executor(
                                None, evaluate_core, tree
                            )
                    """,
                "low.py": "def evaluate_core(*a):\n    return 0\n",
            },
        )
        assert lint_pkg(root, ASYNC_CFG, select=["L2"]) == []

    def test_sync_function_is_out_of_scope(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    import time

                    def worker():
                        time.sleep(1)
                    """,
                "low.py": "",
            },
        )
        assert lint_pkg(root, ASYNC_CFG, select=["L2"]) == []


# ----------------------------------------------------------------------
# L4 — wire-codec completeness
# ----------------------------------------------------------------------
def codec_cfg(**kw) -> LintConfig:
    return LintConfig(
        layer=TWO_LAYERS, codecs=(CodecPairing(**kw),)
    )


class TestCodecRule:
    def test_missing_field_in_table(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    from dataclasses import dataclass

                    @dataclass
                    class Rec:
                        a: int
                        b: int
                    """,
                "high.py": '_REC_FIELDS = ("a",)\n',
            },
        )
        cfg = codec_cfg(
            dataclass="pkg.low.Rec", tuple_name="pkg.high._REC_FIELDS"
        )
        findings = lint_pkg(root, cfg, select=["L4"])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("L4", "pkg/high.py", 1)
        ]
        assert "Rec.b is missing" in findings[0].message

    def test_stale_table_entry_fires_too(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    from dataclasses import dataclass

                    @dataclass
                    class Rec:
                        a: int
                    """,
                "high.py": '_REC_FIELDS = ("a", "gone")\n',
            },
        )
        cfg = codec_cfg(
            dataclass="pkg.low.Rec", tuple_name="pkg.high._REC_FIELDS"
        )
        findings = lint_pkg(root, cfg, select=["L4"])
        assert len(findings) == 1
        assert "'gone'" in findings[0].message

    def test_complete_table_and_fields_idiom_are_clean(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    from dataclasses import dataclass

                    @dataclass
                    class Rec:
                        a: int
                        b: int
                    """,
                "high.py": """\
                    import dataclasses

                    from .low import Rec

                    _REC_FIELDS = ("a", "b")
                    _DYN_FIELDS = tuple(f.name for f in dataclasses.fields(Rec))
                    """,
            },
        )
        for table in ("_REC_FIELDS", "_DYN_FIELDS"):
            cfg = codec_cfg(
                dataclass="pkg.low.Rec", tuple_name=f"pkg.high.{table}"
            )
            assert lint_pkg(root, cfg, select=["L4"]) == []

    def test_function_pairing_with_aliases_and_exclude(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "low.py": """\
                    from dataclasses import dataclass

                    @dataclass
                    class Req:
                        tree: object
                        facility: object
                        local_only: bool
                    """,
                "high.py": """\
                    def decode(payload):
                        return payload["tree"], payload["facility_id"]
                    """,
            },
        )
        cfg = codec_cfg(
            dataclass="pkg.low.Req",
            functions=("pkg.high.decode",),
            aliases={"facility": ("facility_id",)},
            exclude=("local_only",),
        )
        assert lint_pkg(root, cfg, select=["L4"]) == []
        # without the exclude, the uncodable field is a finding
        cfg = codec_cfg(
            dataclass="pkg.low.Req",
            functions=("pkg.high.decode",),
            aliases={"facility": ("facility_id",)},
        )
        findings = lint_pkg(root, cfg, select=["L4"])
        assert len(findings) == 1
        assert "local_only" in findings[0].message

    def test_unknown_dataclass_is_config_error(self, tmp_path):
        root = write_pkg(tmp_path, {"low.py": "", "high.py": ""})
        cfg = codec_cfg(
            dataclass="pkg.low.Nope", tuple_name="pkg.high._NOPE"
        )
        with pytest.raises(LintConfigError):
            lint_pkg(root, cfg, select=["L4"])


# ----------------------------------------------------------------------
# L5 — resource lifecycle
# ----------------------------------------------------------------------
class TestLifecycleRule:
    def test_unclosed_shared_memory_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    from multiprocessing import shared_memory

                    def leak(n):
                        shm = shared_memory.SharedMemory(create=True, size=n)
                        shm.buf[0] = 1
                        return bytes(shm.buf)
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(
            root, LintConfig(layer=TWO_LAYERS), select=["L5"]
        )
        assert [(f.rule, f.line) for f in findings] == [("L5", 4)]
        assert "SharedMemory(create=True)" in findings[0].message

    def test_straight_line_release_is_flagged_as_leak_on_raise(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    def risky(path, data):
                        fh = open(path, "w")
                        fh.write(data)
                        fh.close()
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(
            root, LintConfig(layer=TWO_LAYERS), select=["L5"]
        )
        assert [(f.rule, f.line) for f in findings] == [("L5", 2)]
        assert "straight-line" in findings[0].message

    def test_with_finally_and_class_cleanup_are_clean(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    import numpy as np
                    from multiprocessing import shared_memory

                    def scoped(path):
                        with open(path) as fh:
                            return fh.read()

                    def careful(n):
                        shm = shared_memory.SharedMemory(create=True, size=n)
                        try:
                            return bytes(shm.buf)
                        finally:
                            shm.close()
                            shm.unlink()

                    def handoff(path):
                        base = np.memmap(path, mode="r")
                        return base

                    class Block:
                        def __init__(self, n):
                            self.shm = shared_memory.SharedMemory(
                                create=True, size=n
                            )

                        def release(self):
                            self.shm.close()
                            self.shm.unlink()
                    """,
                "low.py": "",
            },
        )
        assert lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L5"]) == []

    def test_attach_without_create_is_out_of_scope(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    from multiprocessing import shared_memory

                    def attach(name):
                        shm = shared_memory.SharedMemory(name=name)
                        return bytes(shm.buf)
                    """,
                "low.py": "",
            },
        )
        assert lint_pkg(root, LintConfig(layer=TWO_LAYERS), select=["L5"]) == []

    def test_class_owned_resource_without_cleanup_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "high.py": """\
                    from multiprocessing import shared_memory

                    class Block:
                        def __init__(self, n):
                            self.shm = shared_memory.SharedMemory(create=True, size=n)
                    """,
                "low.py": "",
            },
        )
        findings = lint_pkg(
            root, LintConfig(layer=TWO_LAYERS), select=["L5"]
        )
        assert [(f.rule, f.line) for f in findings] == [("L5", 5)]
        assert "no cleanup method" in findings[0].message


# ----------------------------------------------------------------------
# the real tree: zero findings, enforced in tier-1
# ----------------------------------------------------------------------
class TestRealTree:
    def test_shipped_baseline_is_empty(self):
        payload = json.loads(BASELINE.read_text())
        assert payload == {"version": 1, "findings": []}

    def test_full_pass_is_clean(self):
        findings = run_lint(REPRO_ROOT, REPRO_CONFIG, baseline_path=BASELINE)
        assert findings == [], "\n" + format_findings(findings)

    def test_cli_exits_zero_with_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["count"] == 0

    def test_cli_rejects_unknown_rule(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--select", "L9"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr


# ----------------------------------------------------------------------
# mutation tests: the acceptance-criteria regressions
# ----------------------------------------------------------------------
@pytest.fixture()
def mutable_tree(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(
        REPRO_ROOT, dest, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dest


class TestMutations:
    def test_deleting_codec_stats_field_fails_lint(self, mutable_tree):
        wire = mutable_tree / "service" / "http" / "wire.py"
        source = wire.read_text()
        assert '    "cache_hits",\n' in source
        wire.write_text(source.replace('    "cache_hits",\n', "", 1))
        findings = run_lint(mutable_tree, REPRO_CONFIG, select=["L4"])
        assert any(
            f.rule == "L4" and "cache_hits" in f.message for f in findings
        )

    def test_queries_engine_import_fails_lint(self, mutable_tree):
        evaluate = mutable_tree / "queries" / "evaluate.py"
        with evaluate.open("a") as fh:
            fh.write("\nfrom ..engine.shards import ShardedStopGrid\n")
        findings = run_lint(mutable_tree, REPRO_CONFIG, select=["L1"])
        assert any(
            f.rule == "L1"
            and f.path == "repro/queries/evaluate.py"
            and "engine" in f.message
            for f in findings
        )
