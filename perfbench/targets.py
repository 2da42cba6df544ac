"""The two ways an :class:`~perfbench.inputs.Op` reaches the program.

:class:`LibraryTarget` calls the query functions directly (the paper
workloads, and the in-process recomputation that checks every served
answer); :class:`HttpTarget` sends the same op over one keep-alive
connection.  Both return one answer per ``op.parts`` entry, each in one
normalised form, so answers compare with ``==`` across the two:

* evaluate  -> float
* wave      -> tuple of floats
* kmaxrrst  -> tuple of (facility id, service)
* maxkcov   -> (facility ids, combined service, users fully served)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro import (
    FacilityRoute,
    QueryRuntime,
    ServeClient,
    ServiceSpec,
    evaluate_service,
    maxkcov_tq,
    top_k_facilities,
)

from .inputs import Op


def _no_span(name: str, fn: Callable, args=()):
    return fn(*args)


class LibraryTarget:
    def __init__(
        self,
        trees: Dict[str, object],
        pool: Sequence[FacilityRoute],
        specs: Sequence[ServiceSpec],
        runtime: Optional[QueryRuntime],
        span: Callable = _no_span,
    ) -> None:
        self.trees = trees
        self.pool = pool
        self.specs = specs
        self.runtime = runtime
        self.span = span

    def _part(self, op: Op, tree, spec):
        facilities = [self.pool[i] for i in op.fids]
        rt = self.runtime
        if op.kind == "evaluate":
            return evaluate_service(tree, facilities[0], spec, runtime=rt)
        if op.kind == "wave":
            specs = [self.specs[i] for i in op.member_specs] or [spec] * len(facilities)
            return tuple(
                evaluate_service(tree, f, s, runtime=rt) for f, s in zip(facilities, specs)
            )
        if op.kind == "kmaxrrst":
            result = top_k_facilities(tree, facilities, op.k, spec, runtime=rt)
            return tuple((fs.facility.facility_id, fs.service) for fs in result.ranking)
        fleet = maxkcov_tq(tree, facilities, op.k, spec, runtime=rt)
        return (fleet.facility_ids(), fleet.combined_service, fleet.users_fully_served)

    def _action(self, op: Op):
        return tuple(
            self._part(op, self.trees[tree], self.specs[spec_i]) for tree, spec_i in op.parts
        )

    def execute(self, op: Op):
        return self.span(f"queries.{op.kind}", self._action, (op,))


def _wire_spec(spec: ServiceSpec) -> dict:
    return {"model": spec.model.value, "psi": spec.psi, "normalize": spec.normalize}


def payloads(op: Op, specs: Sequence[ServiceSpec], set_name: str = "main") -> List[dict]:
    """The wire bodies of one single-part op (16 for a wave, else 1)."""
    ((tree, spec_i),) = op.parts
    base = {"tree": tree, "facility_set": set_name, "spec": _wire_spec(specs[spec_i])}
    if op.kind == "evaluate":
        # spelling the default out changes nothing for the server; it lets
        # the traced run tell a single evaluate from a wave member
        return [dict(base, type="evaluate", facility_id=op.fids[0], collect_matches=False)]
    if op.kind == "wave":
        member_specs = op.member_specs or (spec_i,) * len(op.fids)
        return [
            dict(base, type="evaluate", facility_id=fid, spec=_wire_spec(specs[i]))
            for fid, i in zip(op.fids, member_specs)
        ]
    return [dict(base, type=op.kind, facility_ids=list(op.fids), k=op.k)]


class HttpTarget:
    """One connection; not thread-safe (one per generator thread)."""

    def __init__(self, host: str, port: int, specs: Sequence[ServiceSpec]) -> None:
        self.client = ServeClient(host, port, timeout=60.0)
        self.specs = specs

    def close(self) -> None:
        self.client.close()

    def execute(self, op: Op):
        bodies = payloads(op, self.specs)
        if op.kind == "wave":
            return (tuple(r.value for r in self.client.submit_many(bodies)),)
        value = self.client.query(bodies[0]).value
        if op.kind == "kmaxrrst":
            value = tuple(value.ranking)
        elif op.kind == "maxkcov":
            value = (tuple(value.facility_ids), value.combined_service, value.users_fully_served)
        return (value,)
