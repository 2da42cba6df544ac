"""Findings, rule configuration, and the baseline file format.

A :class:`Finding` is one violation: rule id, location, a one-line
statement of the defect, and a one-line fix hint.  Baselines exist so
the tool can be adopted incrementally on a dirty tree — a baseline
entry matches on ``(rule, path, message)`` (never the line number,
which drifts under unrelated edits).  This repository ships an *empty*
baseline: violations get fixed, not baselined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BlockingConfig",
    "CodecPairing",
    "Finding",
    "LayerConfig",
    "LifecycleConfig",
    "LintConfig",
    "LintConfigError",
    "apply_baseline",
    "load_baseline",
]

BASELINE_VERSION = 1


class LintConfigError(Exception):
    """The lint configuration itself is broken (distinct from findings:
    a config error is exit code 2, never a silent pass)."""


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str  #: posix path relative to the scan root's parent
    line: int
    message: str
    hint: str

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def as_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule}: {self.message}\n"
            f"    hint: {self.hint}"
        )


# ----------------------------------------------------------------------
# rule configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerConfig:
    """The declared layer DAG (rule L1).

    ``assignments`` maps module-path prefixes to layer names, most
    specific prefix wins.  ``allowed`` maps each layer to the layers it
    may import (itself is always allowed); any internal import whose
    target layer is not in the importer's allowed set — upward *or*
    skipping a declared boundary — is a violation.  ``banned_names``
    additionally bans specific *symbols* per layer regardless of where
    they are re-exported from (e.g. ``queries`` may never touch
    ``ProximityBackend`` even though it lives in ``core.config``).
    """

    assignments: Tuple[Tuple[str, str], ...]
    allowed: Mapping[str, Tuple[str, ...]]
    banned_names: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    def layer_of(self, module: str) -> Optional[str]:
        best: Optional[Tuple[str, str]] = None
        for prefix, layer in self.assignments:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, layer)
        return best[1] if best else None


@dataclass(frozen=True)
class BlockingConfig:
    """What rule L2 considers loop-blocking inside ``async def``."""

    #: dotted-name suffixes whose *call* blocks the loop outright
    blocking_calls: Tuple[str, ...] = (
        "time.sleep",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.check_output",
        "subprocess.check_call",
        "os.waitpid",
    )
    #: method names that block when invoked on any receiver (raw
    #: sockets / pipes; asyncio streams never expose these names)
    blocking_methods: Tuple[str, ...] = (
        "accept",
        "recv",
        "recv_into",
        "recvfrom",
        "sendall",
        "makefile",
    )
    #: file-opening callables (sync file I/O on the loop)
    open_calls: Tuple[str, ...] = ("open", "os.fdopen", "io.open")


@dataclass(frozen=True)
class CodecPairing:
    """One L4 contract: a dataclass held against its wire codec.

    Either ``tuple_name`` names a module-level field table (a literal
    string tuple, or the ``tuple(f.name for f in fields(X))`` idiom,
    accepted as complete by construction), or ``functions`` names codec
    functions in whose bodies every field (or one of its ``aliases``)
    must appear as a string constant.  ``exclude`` lists fields that
    deliberately do not cross the wire.
    """

    dataclass: str  #: e.g. ``repro.core.stats.QueryStats``
    tuple_name: str = ""  #: e.g. ``repro.service.http.wire._QUERY_STATS_FIELDS``
    functions: Tuple[str, ...] = ()
    aliases: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    exclude: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LifecycleConfig:
    """Rule L5 knobs: which cleanup spellings satisfy a creation."""

    #: method names that count as releasing a resource
    release_methods: Tuple[str, ...] = (
        "close",
        "unlink",
        "release",
        "shutdown",
        "terminate",
        "cleanup",
    )
    #: class methods in which a ``self.<attr>`` resource may be released
    cleanup_methods: Tuple[str, ...] = (
        "close",
        "release",
        "shutdown",
        "unlink",
        "stop",
        "terminate",
        "cleanup",
        "__exit__",
        "__del__",
    )


@dataclass(frozen=True)
class LintConfig:
    layer: LayerConfig
    blocking: BlockingConfig = BlockingConfig()
    codecs: Tuple[CodecPairing, ...] = ()
    lifecycle: LifecycleConfig = LifecycleConfig()
    #: attribute-mutating method names rule L3 treats as writes
    mutator_methods: Tuple[str, ...] = (
        "merge",
        "append",
        "extend",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "insert",
        "sort",
        "reverse",
    )


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> List[Tuple[str, str, str]]:
    """``(rule, path, message)`` triples the run should suppress."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise LintConfigError(f"cannot read baseline {path}: {exc}") from exc
    except ValueError as exc:
        raise LintConfigError(f"malformed baseline {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("version") != BASELINE_VERSION
        or not isinstance(payload.get("findings"), list)
    ):
        raise LintConfigError(
            f"baseline {path} must be "
            f'{{"version": {BASELINE_VERSION}, "findings": [...]}}'
        )
    out = []
    for entry in payload["findings"]:
        if not isinstance(entry, dict):
            raise LintConfigError(f"baseline {path}: entries must be objects")
        try:
            out.append(
                (str(entry["rule"]), str(entry["path"]), str(entry["message"]))
            )
        except KeyError as exc:
            raise LintConfigError(
                f"baseline {path}: entry missing {exc}"
            ) from exc
    return out


def apply_baseline(
    findings: Sequence[Finding], baseline: Sequence[Tuple[str, str, str]]
) -> List[Finding]:
    keys = set(baseline)
    return [f for f in findings if f.baseline_key not in keys]
