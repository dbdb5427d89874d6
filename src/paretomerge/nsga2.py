"""Elitist bi-objective NSGA-II over merge genotypes.

Determinism contract: one master seed feeds named sub-streams keyed by
(generation, operator), so stochastic decisions never depend on evaluation
order and the search trajectory is identical for any worker count. A run
builds 1 + 3 * generations generators. With N candidates of d variables:

- generation 0, init: an (N, d) uniform draw over the search box;
- each later generation, tournament: N first entrants, then N offsets in
  [1, N) that pick each one's distinct opponent;
- crossover: N/2 pair draws against the crossover probability, then an
  (N/2, d) draw of spread variates;
- mutation: an (N, d) draw against the per-variable probability, then an
  (N, d) draw of perturbation variates.

The operators work on (N, d) arrays; a ``Genotype`` is built only for
evaluation. The returned front is computed over every evaluated
individual, not just the final population.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import SearchConfigError
from .evaluation import CallableFitness, FitnessEvaluator, ObjectiveVector
from .merge import Genotype, MergeKind, default_genotype_bounds

# Operator codes for the named RNG sub-streams.
_OP_INIT = 0
_OP_TOURNAMENT = 1
_OP_CROSSOVER = 2
_OP_MUTATION = 3


@dataclass
class SbxParams:
    probability: float = 0.9
    eta: float = 15.0


@dataclass
class MutationParams:
    per_variable_probability: float | None = None  # None -> 1 / n_variables
    eta: float = 20.0


@dataclass
class SearchConfig:
    """Search hyperparameters; defaults give a 20-candidate, 10-generation run.

    ``genotype_bounds``, one (low, high) pair per decision variable, must lie
    inside ``default_genotype_bounds(genotype_kind)``, its default. The
    ``config.json`` echo is ``dataclasses.asdict`` of this object.
    """

    population_size: int = 20
    generations: int = 10
    seed: int = 0
    genotype_kind: MergeKind = MergeKind.TA
    genotype_bounds: tuple[tuple[float, float], ...] | None = None
    sbx: SbxParams = field(default_factory=SbxParams)
    mutation: MutationParams = field(default_factory=MutationParams)

    def __post_init__(self):
        self.genotype_kind = MergeKind(self.genotype_kind)
        if self.genotype_bounds is None:
            self.genotype_bounds = default_genotype_bounds(self.genotype_kind)
        else:
            self.genotype_bounds = tuple(
                (float(lo), float(hi)) for lo, hi in self.genotype_bounds
            )
        self.validate()

    def validate(self) -> None:
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise SearchConfigError(
                f"population_size must be even and >= 4, got {self.population_size}"
            )
        if self.generations < 1:
            raise SearchConfigError(f"generations must be >= 1, got {self.generations}")
        # Every candidate in the search box must be decodable by its merge operator.
        box = default_genotype_bounds(self.genotype_kind)
        if len(self.genotype_bounds) != len(box) or not all(
            box_lo <= lo < hi <= box_hi
            for (lo, hi), (box_lo, box_hi) in zip(self.genotype_bounds, box)
        ):
            raise SearchConfigError(
                f"{self.genotype_kind.value} genotype_bounds must be {len(box)} (low, high) "
                f"pair(s) with low < high inside {box}, got {self.genotype_bounds}"
            )
        if not 0.0 <= self.sbx.probability <= 1.0:
            raise SearchConfigError("sbx probability must lie in [0, 1]")
        if self.sbx.eta <= 0 or self.mutation.eta <= 0:
            raise SearchConfigError("distribution indices must be > 0")
        pm = self.mutation.per_variable_probability
        if pm is not None and not 0.0 <= pm <= 1.0:
            raise SearchConfigError("mutation probability must lie in [0, 1]")

    @property
    def n_variables(self) -> int:
        return len(self.genotype_bounds)

    def mutation_probability(self) -> float:
        pm = self.mutation.per_variable_probability
        return 1.0 / self.n_variables if pm is None else pm


def fast_nondominated_sort(objectives: Sequence[ObjectiveVector]) -> list[list[int]]:
    """Partition indices into successive non-dominated fronts (front 0 first).

    Two objectives only, O(N log N) time and O(N) memory: a lexicographic sort
    by (f0, f1) followed by one sweep (Kung, Luccio & Preparata 1975 for
    front 0; Jensen 2003, IEEE TEC 7(5), for all fronts). In that order a
    front's most recently added member is the only one that can dominate the
    next point, so each front keeps that member's key (f1, f0), the keys stay
    ascending across fronts, and a point joins the first front whose key is
    not below its own. Exact duplicates share a front. Each front lists its
    indices in ascending order, which crowding selection relies on to break
    ties.
    """
    if any(o is None for o in objectives):
        raise ValueError("all individuals must be evaluated before sorting")
    if not objectives:
        return []
    f = np.array([o.fitness for o in objectives], dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != 2:
        raise ValueError("non-dominated sorting needs exactly two objectives per point")
    if np.isnan(f).any():
        raise ValueError("objectives must not be NaN")
    order = np.lexsort((f[:, 1], f[:, 0]))
    keys: list[tuple[float, float]] = []
    fronts: list[list[int]] = []
    for i, f0, f1 in zip(order.tolist(), f[order, 0].tolist(), f[order, 1].tolist()):
        key = (f1, f0)
        k = bisect_left(keys, key)
        if k == len(keys):
            keys.append(key)
            fronts.append([i])
        else:
            keys[k] = key
            fronts[k].append(i)
    for front in fronts:
        front.sort()
    return fronts


def crowding_distance(front: Sequence[ObjectiveVector]) -> list[float]:
    """Range-normalized neighbor-gap density; boundary members get +inf."""
    m = len(front)
    if m == 0:
        raise ValueError("front must be non-empty")
    if m <= 2:
        return [float("inf")] * m
    f = np.array([o.fitness for o in front], dtype=np.float64)
    dist = np.zeros(m, dtype=np.float64)
    for obj in range(f.shape[1]):
        order = np.argsort(f[:, obj], kind="stable")
        lo, hi = f[order[0], obj], f[order[-1], obj]
        if hi == lo:
            continue
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        gaps = (f[order[2:], obj] - f[order[:-2], obj]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return [float(d) for d in dist]


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """N binary tournaments over N population indices; returns the N winners.

    Tournament k pits ``i`` against a different member ``j``. Lower rank
    wins, then larger crowding, then lower index.
    """
    n = len(rank)
    i = rng.integers(n, size=n)
    j = (i + rng.integers(1, n, size=n)) % n
    i_wins = (rank[i] < rank[j]) | (rank[i] == rank[j]) & (
        (crowding[i] > crowding[j]) | (crowding[i] == crowding[j]) & (i < j)
    )
    return np.where(i_wins, i, j)


def sbx_crossover(parents: np.ndarray, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    """Simulated binary crossover with distribution index eta_c over (N, d) parents.

    Pair k is rows 2k and 2k+1, and its children take the same rows. A pair
    crosses with the configured probability, else its children copy it; the
    spread factor per variable is beta = (2u)^(1/(eta+1)) for u <= 0.5 and
    (1/(2(1-u)))^(1/(eta+1)) otherwise. Children are clamped to bounds.
    """
    x1, x2 = parents[0::2], parents[1::2]
    cross = rng.random(len(x1)) <= cfg.sbx.probability
    u = rng.random(x1.shape)
    exponent = 1.0 / (cfg.sbx.eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    lo, hi = np.array(cfg.genotype_bounds).T
    y1 = np.clip(0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2), lo, hi)
    y2 = np.clip(0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2), lo, hi)
    children = np.stack((y1, y2), axis=1).reshape(parents.shape)
    return np.where(np.repeat(cross, 2)[:, None], children, parents)


def polynomial_mutation(x: np.ndarray, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    """Boundary-aware polynomial mutation with distribution index eta_m over (N, d) genotypes."""
    mutate = rng.random(x.shape) < cfg.mutation_probability()
    u = rng.random(x.shape)
    eta = cfg.mutation.eta
    exponent = 1.0 / (eta + 1.0)
    lo, hi = np.array(cfg.genotype_bounds).T
    span = hi - lo
    d1 = (x - lo) / span
    d2 = (hi - x) / span
    delta = np.where(
        u < 0.5,
        (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exponent - 1.0,
        1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exponent,
    )
    return np.where(mutate, np.clip(x + delta * span, lo, hi), x)


@dataclass(frozen=True)
class HistoryEntry:
    """One evaluated candidate; populations, fronts and the history are lists of it."""

    genotype: Genotype
    fitness: ObjectiveVector
    generation: int


def extract_pareto(history: Sequence[HistoryEntry]) -> list[HistoryEntry]:
    """Non-dominated subset of all evaluated points, by ascending fitness.

    Duplicate fitness vectors collapse to their first occurrence, so the
    result is deterministic for a deterministic history. Front 0 comes from
    ``fast_nondominated_sort``: two objectives, O(H log H) time and O(H)
    memory in the history length H.
    """
    if not history:
        raise ValueError("cannot extract a front from an empty history")
    first_seen: dict[tuple[float, float], HistoryEntry] = {}
    for entry in history:
        first_seen.setdefault(entry.fitness.fitness, entry)
    unique = list(first_seen.values())
    fronts = fast_nondominated_sort([e.fitness for e in unique])
    return sorted((unique[i] for i in fronts[0]), key=lambda e: e.fitness.fitness)


def _stream(seed: int, generation: int, op: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(generation, op)))


def _rank_and_crowding(pop: Sequence[HistoryEntry]) -> tuple[np.ndarray, np.ndarray]:
    """Per-member non-domination rank and crowding distance within its front."""
    rank = np.zeros(len(pop), dtype=int)
    crowding = np.zeros(len(pop))
    for r, front in enumerate(fast_nondominated_sort([e.fitness for e in pop])):
        rank[front] = r
        crowding[front] = crowding_distance([pop[i].fitness for i in front])
    return rank, crowding


def run_nsga2(
    cfg: SearchConfig,
    evaluate: FitnessEvaluator | Callable[[Genotype], ObjectiveVector],
    workers: int = 1,
    on_generation: Callable[[list[HistoryEntry], int], None] | None = None,
) -> tuple[list[HistoryEntry], list[HistoryEntry]]:
    """Run the elitist search and return the all-evaluations front plus history.

    Each generation is scored with one ``evaluate_population(genotypes,
    workers=workers)`` call. ``on_generation`` fires after each generation's
    evaluations (and before raising on evaluation failure) so callers can
    persist partial state.
    """
    evaluator = evaluate if isinstance(evaluate, FitnessEvaluator) else CallableFitness(evaluate)
    n = cfg.population_size
    history: list[HistoryEntry] = []

    def evaluated(gen: int, values: np.ndarray) -> list[HistoryEntry]:
        gs = [Genotype(cfg.genotype_kind, row) for row in values.tolist()]
        try:
            fits = evaluator.evaluate_population(gs, workers=workers)
        except Exception:
            if on_generation is not None:
                on_generation(history, gen)
            raise
        entries = [HistoryEntry(genotype=g, fitness=f, generation=gen) for g, f in zip(gs, fits)]
        history.extend(entries)
        return entries

    lo, hi = np.array(cfg.genotype_bounds).T
    pop = evaluated(0, _stream(cfg.seed, 0, _OP_INIT).uniform(lo, hi, size=(n, cfg.n_variables)))
    if on_generation is not None:
        on_generation(history, 0)

    for gen in range(1, cfg.generations + 1):
        winners = tournament_select(*_rank_and_crowding(pop), _stream(cfg.seed, gen, _OP_TOURNAMENT))
        parents = np.array([pop[i].genotype.values for i in winners.tolist()])
        children = sbx_crossover(parents, cfg, _stream(cfg.seed, gen, _OP_CROSSOVER))
        children = polynomial_mutation(children, cfg, _stream(cfg.seed, gen, _OP_MUTATION))

        pooled = pop + evaluated(gen, children)
        selected: list[int] = []
        for front in fast_nondominated_sort([e.fitness for e in pooled]):
            if len(selected) + len(front) <= n:
                selected.extend(front)
            else:
                dists = crowding_distance([pooled[i].fitness for i in front])
                order = sorted(range(len(front)), key=lambda j: (-dists[j], front[j]))
                selected.extend(front[j] for j in order[: n - len(selected)])
            if len(selected) == n:
                break
        pop = [pooled[i] for i in selected]
        if on_generation is not None:
            on_generation(history, gen)

    return extract_pareto(history), history
