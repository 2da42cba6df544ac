"""Query layer: kMaxRRST, MaxkCovRST, and the baseline competitors."""

from .baseline import BaselineIndex
from .evaluate import DivisionPlan, QueryStats, evaluate_service, walk_matches
from .exact import approximation_ratio, exact_max_k_coverage
from .iomodel import BlockCosts, estimate_query_blocks
from .genetic import GeneticConfig, genetic_max_k_coverage
from .kmaxrrst import FacilityScore, KMaxRRSTResult, top_k_facilities
from .range_search import trajectories_in_range, trajectories_served_by_stop
from .maxkcov import (
    MaxKCovResult,
    baseline_match_fn,
    greedy_max_k_coverage,
    maxkcov_baseline,
    maxkcov_tq,
    tq_match_fn,
)

__all__ = [
    "BaselineIndex",
    "DivisionPlan",
    "QueryStats",
    "evaluate_service",
    "walk_matches",
    "top_k_facilities",
    "FacilityScore",
    "KMaxRRSTResult",
    "MaxKCovResult",
    "greedy_max_k_coverage",
    "maxkcov_tq",
    "maxkcov_baseline",
    "tq_match_fn",
    "baseline_match_fn",
    "GeneticConfig",
    "genetic_max_k_coverage",
    "exact_max_k_coverage",
    "approximation_ratio",
    "trajectories_in_range",
    "trajectories_served_by_stop",
    "BlockCosts",
    "estimate_query_blocks",
]
