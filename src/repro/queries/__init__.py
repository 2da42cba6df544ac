"""Query layer: kMaxRRST, MaxkCovRST, and the baseline competitors."""

from .baseline import BaselineIndex
from .components import DivisionPlan, FacilityComponent
from .evaluate import (
    MatchCollector,
    QueryStats,
    evaluate_core,
    evaluate_node_trajectories,
    evaluate_service,
)
from .exact import approximation_ratio, exact_core, exact_max_k_coverage
from .iomodel import BlockCosts, estimate_query_blocks
from .genetic import GeneticConfig, genetic_core, genetic_max_k_coverage
from .kmaxrrst import (
    FacilityScore,
    KMaxRRSTResult,
    top_k_core,
    top_k_facilities,
)
from .range_search import trajectories_in_range, trajectories_served_by_stop
from .maxkcov import (
    MaxKCovResult,
    baseline_match_fn,
    core_match_fn,
    greedy_max_k_coverage,
    maxkcov_baseline,
    maxkcov_core,
    maxkcov_tq,
    tq_match_fn,
)

__all__ = [
    "BaselineIndex",
    "FacilityComponent",
    "DivisionPlan",
    "MatchCollector",
    "QueryStats",
    "evaluate_core",
    "evaluate_service",
    "evaluate_node_trajectories",
    "top_k_core",
    "top_k_facilities",
    "FacilityScore",
    "KMaxRRSTResult",
    "MaxKCovResult",
    "greedy_max_k_coverage",
    "maxkcov_core",
    "maxkcov_tq",
    "maxkcov_baseline",
    "core_match_fn",
    "tq_match_fn",
    "baseline_match_fn",
    "GeneticConfig",
    "genetic_core",
    "genetic_max_k_coverage",
    "exact_core",
    "exact_max_k_coverage",
    "approximation_ratio",
    "trajectories_in_range",
    "trajectories_served_by_stop",
    "BlockCosts",
    "estimate_query_blocks",
]
