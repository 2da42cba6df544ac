"""Request and result shapes for the asyncio serving layer.

One frozen dataclass per query type the service answers — evaluate,
kMaxRRST, MaxkCov (greedy) — each carrying exactly the
arguments its synchronous function takes, minus the execution plumbing
(``runtime=`` lives on the :class:`~repro.service.QueryService`, not on
requests).  A request is pure data: hashable-by-identity, reusable, and
safe to submit to several services at once.

:class:`QueryResult` is the uniform reply: the request it answers, the
query-type-specific ``value`` (a float for evaluate, a
:class:`~repro.queries.kmaxrrst.KMaxRRSTResult` for kMaxRRST, a
:class:`~repro.queries.maxkcov.MaxKCovResult` for MaxkCov), and the
*per-request* :class:`~repro.core.stats.QueryStats` — the counters of
the synchronous call the request was lowered onto, which is what the
differential suite compares with ``==``.  That call also accrued them
into the service runtime's grand total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from ..core.errors import QueryError
from ..core.service import ServiceSpec
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute, require_candidates, require_positive_int
from ..index.tqtree import TQTree
from ..queries.kmaxrrst import KMaxRRSTResult
from ..queries.maxkcov import MaxKCovResult

__all__ = [
    "EvaluateRequest",
    "KMaxRRSTRequest",
    "MaxKCovRequest",
    "QueryRequest",
    "QueryResult",
]


@dataclass(frozen=True)
class EvaluateRequest:
    """One facility's service value ``SO(U, f)`` (Algorithms 1/2).

    ``collect_matches`` additionally returns the per-user served point
    indices on :attr:`QueryResult.matches` (the MaxkCovRST match-set
    shape): the facility's match set at ``spec.psi`` is walked after
    the evaluate (:func:`~repro.queries.evaluate.walk_matches`, which
    selects its own zReduce candidates) and its counters join the
    request's.  The flag is part of the request's probe-unit identity.
    """

    tree: TQTree
    facility: FacilityRoute
    spec: ServiceSpec
    collect_matches: bool = False


@dataclass(frozen=True)
class KMaxRRSTRequest:
    """The k individually best facilities (kMaxRRST, Section IV-B)."""

    tree: TQTree
    facilities: Tuple[FacilityRoute, ...]
    k: int
    spec: ServiceSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "facilities", tuple(self.facilities))
        require_candidates(self.facilities)
        require_positive_int("k", self.k)


@dataclass(frozen=True)
class MaxKCovRequest:
    """The paper's two-step greedy MaxkCovRST (shortlist + greedy)."""

    tree: TQTree
    facilities: Tuple[FacilityRoute, ...]
    k: int
    spec: ServiceSpec
    prune_factor: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "facilities", tuple(self.facilities))
        require_candidates(self.facilities)
        require_positive_int("k", self.k)
        require_positive_int("prune_factor", self.prune_factor)


#: Anything the planner knows how to lower.
QueryRequest = Union[EvaluateRequest, KMaxRRSTRequest, MaxKCovRequest]


@dataclass(frozen=True)
class QueryResult:
    """One answered request (see module docstring).

    ``value`` carries the query-type-specific answer; ``stats`` the
    per-request work counters (bit-identical to the synchronous call's);
    ``matches`` the collected match sets when the request asked for
    them (:class:`EvaluateRequest` with ``collect_matches=True``).
    """

    request: QueryRequest
    value: Any
    stats: QueryStats
    matches: Optional[Mapping[int, Tuple[int, ...]]] = None

    @property
    def service_value(self) -> float:
        """The scalar service value, for requests that have one."""
        if isinstance(self.value, float):
            return self.value
        if isinstance(self.value, MaxKCovResult):
            return self.value.combined_service
        if isinstance(self.value, KMaxRRSTResult):
            raise QueryError(
                "a kMaxRRST result ranks many facilities; read "
                "result.value.ranking instead of service_value"
            )
        raise QueryError(
            f"no scalar service value on {type(self.value).__name__}"
        )
