"""Genetic-algorithm MaxkCovRST solver (the paper's Gn-TQ(Z)).

The paper's Section VI compares the greedy against a genetic algorithm
run for 20 iterations over the TQ(Z) match sets, observing that it "performs
poorly in terms of the number of users served when the number of
facilities is large" (Figure 10(d)).  This module reproduces that
competitor: a generational GA over k-subsets of the facility set with
tournament selection, repair crossover, and point mutation.

Fitness is the combined coverage value computed from precomputed
per-facility match sets, so the solver is agnostic to which index
produced them (pass :func:`repro.queries.maxkcov.tq_match_fn` for the
paper's configuration).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.errors import QueryError
from ..core.service import CoverageState, MatchSet, ServiceSpec, as_match_set
from ..core.trajectory import FacilityRoute, Trajectory, UserPointTable
from ..runtime import QueryRuntime, coerce_runtime
from .maxkcov import MatchFn, MaxKCovResult

__all__ = ["GeneticConfig", "genetic_core", "genetic_max_k_coverage"]


@dataclass(frozen=True)
class GeneticConfig:
    """GA hyper-parameters; defaults follow the paper's 20 iterations."""

    population_size: int = 32
    iterations: int = 20
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    elitism: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise QueryError("population_size must be >= 2")
        if self.iterations < 0:
            raise QueryError("iterations must be >= 0")
        if self.tournament_size < 1:
            raise QueryError("tournament_size must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise QueryError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise QueryError("mutation_rate must be in [0, 1]")
        if self.elitism < 0 or self.elitism > self.population_size:
            raise QueryError("elitism must be in [0, population_size]")


def genetic_core(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    match_fn: MatchFn,
    config: GeneticConfig = GeneticConfig(),
    runtime: Optional[QueryRuntime] = None,
) -> MaxKCovResult:
    """The pure step behind :func:`genetic_max_k_coverage`: the seeded
    generational GA itself, runtime used only to dedupe ``match_fn``
    calls through its cache.  Deterministic for a fixed
    ``config.seed``, so the service path reproduces the synchronous
    answer exactly.  Planner-consumable — :class:`repro.service
    .QueryPlanner` lowers a ``GeneticMaxKCovRequest`` onto this.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    if not facilities:
        return MaxKCovResult((), 0.0, 0, ())
    k = min(k, len(facilities))
    rng = random.Random(config.seed)
    if runtime is not None:
        match_fn = runtime.cache.cached_match_fn(match_fn)
    users = UserPointTable.of(users)
    matches: List[MatchSet] = [as_match_set(users, match_fn(f)) for f in facilities]
    n = len(facilities)

    fitness_cache: Dict[FrozenSet[int], float] = {}

    def fitness(genome: FrozenSet[int]) -> float:
        cached = fitness_cache.get(genome)
        if cached is not None:
            return cached
        state = CoverageState(users, spec)
        for idx in genome:
            state.add(matches[idx])
        fitness_cache[genome] = state.value
        return state.value

    def random_genome() -> FrozenSet[int]:
        return frozenset(rng.sample(range(n), k))

    def tournament(pop: List[FrozenSet[int]]) -> FrozenSet[int]:
        contenders = [pop[rng.randrange(len(pop))] for _ in range(config.tournament_size)]
        return max(contenders, key=fitness)

    def crossover(a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        # union-and-sample repair keeps the genome a valid k-subset
        pool = list(a | b)
        if len(pool) <= k:
            extra = [i for i in range(n) if i not in pool]
            pool.extend(rng.sample(extra, k - len(pool)))
            return frozenset(pool)
        return frozenset(rng.sample(pool, k))

    def mutate(genome: FrozenSet[int]) -> FrozenSet[int]:
        if rng.random() >= config.mutation_rate or len(genome) == n:
            return genome
        members = list(genome)
        out_pool = [i for i in range(n) if i not in genome]
        members[rng.randrange(len(members))] = out_pool[rng.randrange(len(out_pool))]
        return frozenset(members)

    population = [random_genome() for _ in range(config.population_size)]
    best = max(population, key=fitness)
    for _generation in range(config.iterations):
        population.sort(key=fitness, reverse=True)
        next_pop: List[FrozenSet[int]] = population[: config.elitism]
        while len(next_pop) < config.population_size:
            parent_a = tournament(population)
            if rng.random() < config.crossover_rate:
                parent_b = tournament(population)
                child = crossover(parent_a, parent_b)
            else:
                child = parent_a
            next_pop.append(mutate(child))
        population = next_pop
        generation_best = max(population, key=fitness)
        if fitness(generation_best) > fitness(best):
            best = generation_best

    state = CoverageState(users, spec)
    gains: List[float] = []
    for idx in sorted(best):
        gains.append(state.add(matches[idx]))
    return MaxKCovResult(
        tuple(facilities[i] for i in sorted(best)),
        state.value,
        state.users_fully_served(),
        tuple(gains),
    )


def genetic_max_k_coverage(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    k: int,
    spec: ServiceSpec,
    match_fn: MatchFn,
    config: GeneticConfig = GeneticConfig(),
    runtime: Optional[QueryRuntime] = None,
) -> MaxKCovResult:
    """Approximate MaxkCovRST with a generational GA.

    Chromosomes are k-subsets of facility indices.  Returns the best
    subset seen across all generations (elitism preserves it within the
    population as well).  A ``runtime`` dedupes ``match_fn`` calls
    against other solvers sharing its cache.

    A thin synchronous wrapper over :func:`genetic_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    It also mirrors ``GeneticMaxKCovRequest``'s validation: an empty
    candidate set is a malformed query, not an empty fleet.
    """
    if not facilities:
        raise QueryError(
            "facilities must be non-empty: an empty candidate set has "
            "no fleet to return"
        )
    return genetic_core(
        users, facilities, k, spec, match_fn, config, coerce_runtime(runtime)
    )
