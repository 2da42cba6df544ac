"""JSON wire schema for the HTTP serving front.

The codec layer between the socket and the in-process serving types:

* **requests** — :func:`decode_request` turns one JSON body into the
  matching :class:`~repro.service.requests.QueryRequest` dataclass,
  resolving resource *names* against the server's
  :class:`~repro.service.http.catalog.Catalog` (live trees and
  facility lists cannot cross the wire).  Decoding is strict: unknown
  keys, missing fields, and wrong types are
  :class:`~repro.core.errors.QueryError` (the server's 400); names the
  catalog does not hold are :class:`~repro.core.errors.CatalogError`
  (404).  Because the decoder constructs the real request dataclasses,
  every construction-time validation — ``k <= 0``, empty facility
  tuples, bad specs — applies to wire traffic identically.
* **results** — :func:`encode_result` projects a
  :class:`~repro.service.requests.QueryResult` onto JSON-safe data;
  :func:`decode_result` (the client side) lifts that JSON into a
  :class:`WireResult`, with per-request stats as a real
  :class:`~repro.core.stats.QueryStats`.  The pair is a faithful
  round-trip for everything the wire carries — JSON floats serialise
  via ``repr`` and parse back bit-identically — so the differential
  suite can hold an HTTP answer to ``==`` against
  ``decode_result(encode_result(in_process_result))``
  (:func:`wire_result` is that composition).
* **stats** — codecs for :class:`~repro.core.stats.QueryStats` and
  :class:`~repro.service.ServiceStats`, used by results and by
  ``GET /stats``.

Request bodies (``POST /query``)::

    {"type": "evaluate", "tree": NAME, "facility_set": NAME,
     "facility_id": INT, "spec": SPEC, "collect_matches": BOOL?}
    {"type": "kmaxrrst", "tree": NAME, "facility_set": NAME,
     "facility_ids": [INT, ...]?, "k": INT, "spec": SPEC}
    {"type": "maxkcov",  ... as kmaxrrst ..., "prune_factor": INT?}
    {"type": "exact",    ... as kmaxrrst ...}
    {"type": "genetic",  ... as kmaxrrst ..., "config": GA_CONFIG?}

with ``SPEC = {"model": "endpoint"|"count"|"length", "psi": FLOAT,
"normalize": BOOL?}``; omitting ``facility_ids`` selects the whole
named set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ...core.errors import QueryError
from ...core.service import ServiceModel, ServiceSpec
from ...core.stats import QueryStats, StoreStats
from ...queries.genetic import GeneticConfig
from ..requests import (
    EvaluateRequest,
    ExactMaxKCovRequest,
    GeneticMaxKCovRequest,
    KMaxRRSTRequest,
    MaxKCovRequest,
    QueryRequest,
    QueryResult,
)
from ..service import ServiceStats
from .catalog import Catalog

__all__ = [
    "REQUEST_TYPES",
    "WireFleet",
    "WireRanking",
    "WireResult",
    "decode_request",
    "decode_result",
    "decode_query_stats",
    "decode_service_stats",
    "decode_worker_peers",
    "encode_result",
    "encode_query_stats",
    "encode_service_stats",
    "encode_worker_peers",
    "wire_result",
]

#: The five query types the wire speaks, by their JSON tag.
REQUEST_TYPES = ("evaluate", "kmaxrrst", "maxkcov", "exact", "genetic")


# ----------------------------------------------------------------------
# field helpers (strict: a bad field is a 400, never a silent default)
# ----------------------------------------------------------------------
def _mapping(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise QueryError(f"{what} must be a JSON object, got {payload!r}")
    return payload


def _str_field(payload: Mapping, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise QueryError(
            f"field {key!r} must be a non-empty string, got {value!r}"
        )
    return value


def _int_field(payload: Mapping, key: str, default: Optional[int] = None) -> int:
    if key not in payload and default is not None:
        return default
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _bool_field(payload: Mapping, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise QueryError(f"field {key!r} must be a boolean, got {value!r}")
    return value


def _number_field(payload: Mapping, key: str) -> float:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _reject_unknown_keys(payload: Mapping, allowed: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise QueryError(
            f"unknown {what} field(s) {unknown} (allowed: {sorted(allowed)})"
        )


# ----------------------------------------------------------------------
# spec / GA-config codecs
# ----------------------------------------------------------------------
def decode_spec(payload: Any) -> ServiceSpec:
    payload = _mapping(payload, "spec")
    _reject_unknown_keys(payload, ("model", "psi", "normalize"), "spec")
    model_name = _str_field(payload, "model")
    try:
        model = ServiceModel(model_name)
    except ValueError:
        raise QueryError(
            f"unknown service model {model_name!r} (choose from "
            f"{[m.value for m in ServiceModel]})"
        ) from None
    return ServiceSpec(
        model,
        _number_field(payload, "psi"),
        normalize=_bool_field(payload, "normalize", True),
    )


def encode_spec(spec: ServiceSpec) -> dict:
    return {
        "model": spec.model.value,
        "psi": spec.psi,
        "normalize": spec.normalize,
    }


_GA_INT_FIELDS = (
    "population_size", "iterations", "tournament_size", "elitism", "seed",
)
_GA_RATE_FIELDS = ("crossover_rate", "mutation_rate")
_GA_FIELDS = tuple(f.name for f in dataclasses.fields(GeneticConfig))


def decode_genetic_config(payload: Any) -> GeneticConfig:
    payload = _mapping(payload, "genetic config")
    _reject_unknown_keys(payload, _GA_FIELDS, "genetic config")
    # type-check each provided field here (a wrong-typed value would
    # otherwise raise TypeError inside GeneticConfig's range checks,
    # escaping the 400 mapping); GeneticConfig.__post_init__ then owns
    # the range validation
    kwargs: Dict[str, Any] = {}
    for name in _GA_INT_FIELDS:
        if name in payload:
            kwargs[name] = _int_field(payload, name)
    for name in _GA_RATE_FIELDS:
        if name in payload:
            kwargs[name] = _number_field(payload, name)
    return GeneticConfig(**kwargs)


# ----------------------------------------------------------------------
# request decoding (server side)
# ----------------------------------------------------------------------
_COMMON_KEYS = ("type", "tree", "facility_set", "spec")
_ALLOWED_KEYS = {
    "evaluate": _COMMON_KEYS + ("facility_id", "collect_matches"),
    "kmaxrrst": _COMMON_KEYS + ("facility_ids", "k"),
    "maxkcov": _COMMON_KEYS + ("facility_ids", "k", "prune_factor"),
    "exact": _COMMON_KEYS + ("facility_ids", "k"),
    "genetic": _COMMON_KEYS + ("facility_ids", "k", "config"),
}


def decode_request(payload: Any, catalog: Catalog) -> QueryRequest:
    """One JSON body → the in-process request dataclass it names."""
    payload = _mapping(payload, "request")
    rtype = _str_field(payload, "type")
    if rtype not in REQUEST_TYPES:
        raise QueryError(
            f"unknown request type {rtype!r} (choose from {list(REQUEST_TYPES)})"
        )
    _reject_unknown_keys(payload, _ALLOWED_KEYS[rtype], f"{rtype} request")
    tree = catalog.tree(_str_field(payload, "tree"))
    spec = decode_spec(payload.get("spec"))
    set_name = _str_field(payload, "facility_set")
    if rtype == "evaluate":
        facility = catalog.facility(set_name, _int_field(payload, "facility_id"))
        return EvaluateRequest(
            tree,
            facility,
            spec,
            collect_matches=_bool_field(payload, "collect_matches", False),
        )
    facilities = catalog.select(set_name, payload.get("facility_ids"))
    k = _int_field(payload, "k")
    if rtype == "kmaxrrst":
        return KMaxRRSTRequest(tree, facilities, k, spec)
    if rtype == "maxkcov":
        return MaxKCovRequest(
            tree, facilities, k, spec,
            prune_factor=_int_field(payload, "prune_factor", 4),
        )
    if rtype == "exact":
        return ExactMaxKCovRequest(tree, facilities, k, spec)
    config = (
        decode_genetic_config(payload["config"])
        if "config" in payload
        else GeneticConfig()
    )
    return GeneticMaxKCovRequest(tree, facilities, k, spec, config)


def request_type(request: QueryRequest) -> str:
    """The wire tag of an in-process request."""
    if isinstance(request, EvaluateRequest):
        return "evaluate"
    if isinstance(request, KMaxRRSTRequest):
        return "kmaxrrst"
    if isinstance(request, MaxKCovRequest):
        return "maxkcov"
    if isinstance(request, ExactMaxKCovRequest):
        return "exact"
    if isinstance(request, GeneticMaxKCovRequest):
        return "genetic"
    raise QueryError(f"unknown request type: {type(request).__name__}")


# ----------------------------------------------------------------------
# stats codecs
# ----------------------------------------------------------------------
# The stats field tables are spelled out literally — not derived with
# dataclasses.fields() — so they are part of the wire schema's source of
# truth: adding a counter without touching its codec, or deleting one
# from a codec, is a static L4 lint failure, not a runtime default-to-0.
_QUERY_STATS_FIELDS = (
    "nodes_visited",
    "entries_considered",
    "entries_scored",
    "states_relaxed",
    "states_pruned",
    "points_scanned",
    "distance_evals",
    "cells_probed",
    "cache_hits",
)
_SERVICE_STATS_FIELDS = (
    "requests_submitted",
    "requests_completed",
    "requests_failed",
    "requests_rejected",
    "requests_cancelled",
    "probe_units_planned",
    "probe_units_coalesced",
    "probe_units_batched",
    "batch_groups_run",
)


def encode_query_stats(stats: QueryStats) -> dict:
    return {name: getattr(stats, name) for name in _QUERY_STATS_FIELDS}


def decode_query_stats(payload: Any) -> QueryStats:
    payload = _mapping(payload, "query stats")
    _reject_unknown_keys(payload, _QUERY_STATS_FIELDS, "query stats")
    # every counter is required: a missing field (version skew, a
    # truncated payload) must fail loudly, not decode as zero
    return QueryStats(
        **{name: _int_field(payload, name) for name in _QUERY_STATS_FIELDS}
    )


_STORE_STATS_FIELDS = (
    "grid_hits",
    "grid_misses",
    "grid_evictions",
    "shard_hits",
    "shard_misses",
    "shard_evictions",
    "cellstring_hits",
    "cellstring_misses",
    "cellstring_evictions",
    "opened",
    "verified",
)


def encode_store_stats(stats: StoreStats) -> dict:
    return {name: getattr(stats, name) for name in _STORE_STATS_FIELDS}


def decode_store_stats(payload: Any) -> StoreStats:
    payload = _mapping(payload, "store stats")
    _reject_unknown_keys(payload, _STORE_STATS_FIELDS, "store stats")
    # like the query stats: every counter required, skew fails loudly
    return StoreStats(
        **{name: _int_field(payload, name) for name in _STORE_STATS_FIELDS}
    )


def encode_service_stats(stats: ServiceStats) -> dict:
    payload = {name: getattr(stats, name) for name in _SERVICE_STATS_FIELDS}
    payload["dedup_rate"] = stats.dedup_rate
    return payload


def decode_service_stats(payload: Any) -> ServiceStats:
    payload = _mapping(payload, "service stats")
    _reject_unknown_keys(
        payload, _SERVICE_STATS_FIELDS + ("dedup_rate",), "service stats"
    )
    # dedup_rate is derived (a property) — carried for humans, dropped here
    return ServiceStats(
        **{name: _int_field(payload, name) for name in _SERVICE_STATS_FIELDS}
    )


_WORKER_PEER_FIELDS = ("index", "pid", "host", "port")


def encode_worker_peers(peers: Any) -> dict:
    """The ``GET /workers`` payload: the prefork pool's worker table.

    ``peers`` is any iterable of objects carrying ``index``/``pid``/
    ``host``/``port`` (the server's ``WorkerPeer``); entries go out in
    index order so the payload is deterministic across workers.
    """
    return {
        "workers": [
            {name: getattr(p, name) for name in _WORKER_PEER_FIELDS}
            for p in sorted(peers, key=lambda p: p.index)
        ]
    }


def decode_worker_peers(payload: Any) -> Tuple[Tuple[int, int, str, int], ...]:
    """``(index, pid, host, port)`` per worker from a ``/workers``
    payload, in index order.  Strict like every other codec here: a
    missing or extra field is version skew and fails loudly."""
    payload = _mapping(payload, "worker table")
    _reject_unknown_keys(payload, ("workers",), "worker table")
    entries = payload.get("workers")
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise QueryError("worker table 'workers' must be a list")
    peers = []
    for entry in entries:
        entry = _mapping(entry, "worker entry")
        _reject_unknown_keys(entry, _WORKER_PEER_FIELDS, "worker entry")
        peers.append(
            (
                _int_field(entry, "index"),
                _int_field(entry, "pid"),
                _str_field(entry, "host"),
                _int_field(entry, "port"),
            )
        )
    return tuple(sorted(peers))


# ----------------------------------------------------------------------
# result codecs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WireRanking:
    """A kMaxRRST answer as the wire carries it: ``(facility_id,
    service)`` pairs in rank order."""

    ranking: Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class WireFleet:
    """A MaxkCov-family answer as the wire carries it."""

    facility_ids: Tuple[int, ...]
    combined_service: float
    users_fully_served: int
    step_gains: Tuple[float, ...]


@dataclass(frozen=True)
class WireResult:
    """One decoded HTTP answer (the client-side mirror of
    :class:`~repro.service.requests.QueryResult`, with facilities
    reduced to their ids)."""

    type: str
    value: Union[float, WireRanking, WireFleet]
    stats: QueryStats
    matches: Optional[Dict[int, Tuple[int, ...]]] = None


def encode_result(result: QueryResult) -> dict:
    """Project one answered request onto JSON-safe data (server side)."""
    rtype = request_type(result.request)
    value: Any
    if rtype == "evaluate":
        value = float(result.value)
    elif rtype == "kmaxrrst":
        value = {
            "ranking": [
                {"facility_id": fs.facility.facility_id, "service": fs.service}
                for fs in result.value.ranking
            ]
        }
    else:
        fleet = result.value
        value = {
            "facility_ids": list(fleet.facility_ids()),
            "combined_service": fleet.combined_service,
            "users_fully_served": fleet.users_fully_served,
            "step_gains": list(fleet.step_gains),
        }
    payload: dict = {
        "type": rtype,
        "value": value,
        "stats": encode_query_stats(result.stats),
    }
    if result.matches is not None:
        payload["matches"] = {
            str(traj_id): list(indices)
            for traj_id, indices in result.matches.items()
        }
    else:
        payload["matches"] = None
    return payload


def decode_result(payload: Any) -> WireResult:
    """Lift one JSON answer into a :class:`WireResult` (client side)."""
    payload = _mapping(payload, "result")
    _reject_unknown_keys(
        payload, ("type", "value", "stats", "matches"), "result"
    )
    rtype = _str_field(payload, "type")
    if rtype not in REQUEST_TYPES:
        raise QueryError(f"unknown result type {rtype!r}")
    raw = payload.get("value")
    value: Union[float, WireRanking, WireFleet]
    if rtype == "evaluate":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise QueryError(f"evaluate value must be a number, got {raw!r}")
        value = float(raw)
    elif rtype == "kmaxrrst":
        raw = _mapping(raw, "kmaxrrst value")
        entries = raw.get("ranking")
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise QueryError(f"ranking must be a list, got {entries!r}")
        value = WireRanking(
            tuple(
                (
                    _int_field(_mapping(entry, "ranking entry"), "facility_id"),
                    _number_field(entry, "service"),
                )
                for entry in entries
            )
        )
    else:
        raw = _mapping(raw, f"{rtype} value")
        ids = raw.get("facility_ids")
        gains = raw.get("step_gains")
        for seq, what in ((ids, "facility_ids"), (gains, "step_gains")):
            if not isinstance(seq, Sequence) or isinstance(seq, (str, bytes)):
                raise QueryError(f"{what} must be a list, got {seq!r}")
        for i in ids:
            if isinstance(i, bool) or not isinstance(i, int):
                raise QueryError(f"facility_ids must be integers, got {ids!r}")
        for g in gains:
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise QueryError(f"step_gains must be numbers, got {gains!r}")
        value = WireFleet(
            facility_ids=tuple(ids),
            combined_service=_number_field(raw, "combined_service"),
            users_fully_served=_int_field(raw, "users_fully_served"),
            step_gains=tuple(float(g) for g in gains),
        )
    stats = decode_query_stats(payload.get("stats"))
    raw_matches = payload.get("matches")
    matches: Optional[Dict[int, Tuple[int, ...]]] = None
    if raw_matches is not None:
        raw_matches = _mapping(raw_matches, "matches")
        matches = {}
        for key, indices in raw_matches.items():
            try:
                traj_id = int(key)
            except (TypeError, ValueError):
                raise QueryError(
                    f"matches keys must be integer ids, got {key!r}"
                ) from None
            if not isinstance(indices, Sequence) or isinstance(
                indices, (str, bytes)
            ):
                raise QueryError(
                    f"matches[{key}] must be a list, got {indices!r}"
                )
            for i in indices:
                if isinstance(i, bool) or not isinstance(i, int):
                    raise QueryError(
                        f"matches[{key}] must be integer indices, got "
                        f"{indices!r}"
                    )
            matches[traj_id] = tuple(indices)
    return WireResult(rtype, value, stats, matches)


def wire_result(result: QueryResult) -> WireResult:
    """The wire projection of an in-process result: what a client would
    decode had this result crossed the socket.  The differential
    suite's comparison anchor."""
    return decode_result(encode_result(result))
