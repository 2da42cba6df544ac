"""The repository's own lint configuration.

This is the declared architecture of ``src/repro`` — the layer DAG,
the wire-codec pairings, and the concurrency conventions — spelled as
data so rules check it instead of DESIGN.md prose.  Fixture tests
build tiny :class:`~repro.lint.model.LintConfig` objects of their own;
this module is only about *this* tree.
"""

from __future__ import annotations

from .model import BlockingConfig, CodecPairing, LayerConfig, LifecycleConfig, LintConfig

__all__ = ["REPRO_CONFIG", "REPRO_LAYERS"]

#: Longest prefix wins, so ``repro.service.http`` beats ``repro.service``
#: and the ``__main__`` entry points beat their packages.
REPRO_LAYERS = LayerConfig(
    assignments=(
        ("repro.core", "core"),
        ("repro.index", "index"),
        ("repro.engine", "engine"),
        ("repro.store", "store"),
        ("repro.store.__main__", "app"),
        ("repro.runtime", "runtime"),
        ("repro.queries", "queries"),
        ("repro.service", "service"),
        ("repro.service.http", "http"),
        ("repro.datasets", "datasets"),
        ("repro.bench", "bench"),
        ("repro.lint", "lint"),
        ("repro.serve", "app"),
        ("repro.__main__", "app"),
        ("repro", "root"),
    ),
    allowed={
        "core": (),
        "index": ("core",),
        "engine": ("core",),
        "store": ("core", "index", "engine"),
        "runtime": ("core", "engine", "store"),
        "queries": ("core", "index", "runtime"),
        "service": ("core", "index", "runtime", "queries"),
        "http": (
            "core",
            "index",
            "engine",
            "runtime",
            "queries",
            "service",
            "store",
            "datasets",
        ),
        "datasets": ("core",),
        "bench": ("core", "index", "runtime", "queries", "datasets"),
        "lint": (),
        "app": (
            "core",
            "index",
            "engine",
            "store",
            "runtime",
            "queries",
            "service",
            "http",
            "datasets",
            "bench",
            "lint",
            "root",
        ),
        # the top-level package __init__ re-exports the public API
        "root": (
            "core",
            "index",
            "engine",
            "store",
            "runtime",
            "queries",
            "service",
            "http",
            "datasets",
            "bench",
        ),
    },
    # queries/ must stay backend-agnostic: it may never name the backend
    # enum even though it is importable from the allowed core layer.
    banned_names={"queries": ("ProximityBackend",)},
)

REPRO_CONFIG = LintConfig(
    layer=REPRO_LAYERS,
    blocking=BlockingConfig(),
    codecs=(
        CodecPairing(
            dataclass="repro.core.stats.QueryStats",
            tuple_name="repro.service.http.wire._QUERY_STATS_FIELDS",
        ),
        CodecPairing(
            dataclass="repro.core.stats.StoreStats",
            tuple_name="repro.service.http.wire._STORE_STATS_FIELDS",
        ),
        CodecPairing(
            dataclass="repro.service.service.ServiceStats",
            tuple_name="repro.service.http.wire._SERVICE_STATS_FIELDS",
        ),
        CodecPairing(
            dataclass="repro.service.requests.EvaluateRequest",
            functions=("repro.service.http.wire.decode_request",),
            aliases={"facility": ("facility_id",)},
        ),
        CodecPairing(
            dataclass="repro.service.requests.KMaxRRSTRequest",
            functions=("repro.service.http.wire.decode_request",),
            aliases={"facilities": ("facility_ids", "facility_set")},
        ),
        CodecPairing(
            dataclass="repro.service.requests.MaxKCovRequest",
            functions=("repro.service.http.wire.decode_request",),
            aliases={"facilities": ("facility_ids", "facility_set")},
        ),
        CodecPairing(
            dataclass="repro.service.requests.QueryResult",
            functions=(
                "repro.service.http.wire.encode_result",
                "repro.service.http.wire.decode_result",
            ),
            # the originating request object does not cross the wire;
            # results are correlated by transport framing instead
            exclude=("request",),
        ),
    ),
    lifecycle=LifecycleConfig(),
)
