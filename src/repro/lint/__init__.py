"""Architecture and concurrency invariant checker for this repository.

Run it with ``python -m repro.lint``.  The rules (layer DAG, asyncio
blocking calls, guarded-by discipline, wire-codec completeness,
resource lifecycle) are documented in DESIGN.md §11; the repository's
declared architecture lives in :mod:`repro.lint.defaults`.

This package deliberately imports nothing from the rest of ``repro``
(it is a side layer that analyses the tree as text) and uses only the
standard library, so it runs in CI before any dependency install.
"""

from .defaults import REPRO_CONFIG, REPRO_LAYERS
from .model import (
    BlockingConfig,
    CodecPairing,
    Finding,
    LayerConfig,
    LifecycleConfig,
    LintConfig,
    LintConfigError,
)
from .rules import RULES, run_rules
from .runner import format_findings, run_lint
from .sourcemodel import SourceIndex

__all__ = [
    "BlockingConfig",
    "CodecPairing",
    "Finding",
    "LayerConfig",
    "LifecycleConfig",
    "LintConfig",
    "LintConfigError",
    "REPRO_CONFIG",
    "REPRO_LAYERS",
    "RULES",
    "SourceIndex",
    "format_findings",
    "run_lint",
    "run_rules",
]
