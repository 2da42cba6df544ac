"""Findings and rule configuration.

A :class:`Finding` is one violation: rule id, location, a one-line
statement of the defect, and a one-line fix hint.  Nothing suppresses
a finding: violations get fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "BlockingConfig",
    "CodecPairing",
    "Finding",
    "LayerConfig",
    "LifecycleConfig",
    "LintConfig",
    "LintConfigError",
]


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
