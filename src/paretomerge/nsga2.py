"""Elitist bi-objective NSGA-II over merge genotypes.

Determinism contract: one master seed feeds named sub-streams keyed by
(generation, operator, index), so stochastic decisions never depend on
evaluation order and the search trajectory is identical for any worker
count. The returned front is computed over every evaluated individual, not
just the final population.
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
class Individual:
    genotype: Genotype
    fitness: ObjectiveVector | None = None
    rank: int | None = None
    crowding: float | None = None


@dataclass
class Population:
    individuals: list[Individual]
    generation: int = 0


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
    """Search hyperparameters; defaults give a 20-candidate, 10-generation run."""

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
        for lo, hi in self.genotype_bounds:
            if not lo < hi:
                raise SearchConfigError(f"bounds must satisfy low < high, got ({lo}, {hi})")
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

    def to_json_dict(self) -> dict:
        return {
            "population_size": self.population_size,
            "generations": self.generations,
            "seed": self.seed,
            "genotype_kind": self.genotype_kind.value,
            "genotype_bounds": [list(b) for b in self.genotype_bounds],
            "sbx": {"probability": self.sbx.probability, "eta": self.sbx.eta},
            "mutation": {
                "per_variable_probability": self.mutation.per_variable_probability,
                "eta": self.mutation.eta,
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchConfig":
        sbx = d.get("sbx", {})
        mut = d.get("mutation", {})
        return cls(
            population_size=int(d.get("population_size", 20)),
            generations=int(d.get("generations", 10)),
            seed=int(d.get("seed", 0)),
            genotype_kind=MergeKind(d.get("genotype_kind", "ta")),
            genotype_bounds=(
                tuple(tuple(b) for b in d["genotype_bounds"])
                if d.get("genotype_bounds") is not None
                else None
            ),
            sbx=SbxParams(
                probability=float(sbx.get("probability", 0.9)),
                eta=float(sbx.get("eta", 15.0)),
            ),
            mutation=MutationParams(
                per_variable_probability=(
                    None
                    if mut.get("per_variable_probability") is None
                    else float(mut["per_variable_probability"])
                ),
                eta=float(mut.get("eta", 20.0)),
            ),
        )


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Minimization dominance: a is no worse on both objectives, better on one."""
    fa, fb = a.fitness, b.fitness
    return fa[0] <= fb[0] and fa[1] <= fb[1] and (fa[0] < fb[0] or fa[1] < fb[1])


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


def tournament_select(pop: Population, rng: np.random.Generator) -> Individual:
    """Binary tournament: lower rank wins, then larger crowding, then lower index."""
    n = len(pop.individuals)
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    a, b = pop.individuals[i], pop.individuals[j]
    if a.rank is None or b.rank is None or a.crowding is None or b.crowding is None:
        raise ValueError("tournament requires rank and crowding to be assigned")
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a if i < j else b


def sbx_crossover(
    p1: Genotype,
    p2: Genotype,
    cfg: SearchConfig,
    rng: np.random.Generator,
) -> tuple[Genotype, Genotype]:
    """Simulated binary crossover with distribution index eta_c.

    Applied with the configured whole-pair probability; the spread factor per
    variable is beta = (2u)^(1/(eta+1)) for u <= 0.5 and
    (1/(2(1-u)))^(1/(eta+1)) otherwise. Children are clamped to bounds.
    """
    if p1.kind != p2.kind or len(p1.values) != len(p2.values):
        raise ValueError("parents must share kind and dimensionality")
    if rng.random() > cfg.sbx.probability:
        return Genotype(p1.kind, p1.values), Genotype(p2.kind, p2.values)
    exponent = 1.0 / (cfg.sbx.eta + 1.0)
    c1, c2 = [], []
    for (x1, x2), (lo, hi) in zip(zip(p1.values, p2.values), cfg.genotype_bounds):
        u = rng.random()
        beta = (2.0 * u) ** exponent if u <= 0.5 else (1.0 / (2.0 * (1.0 - u))) ** exponent
        y1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
        y2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
        c1.append(min(max(y1, lo), hi))
        c2.append(min(max(y2, lo), hi))
    return Genotype(p1.kind, tuple(c1)), Genotype(p2.kind, tuple(c2))


def polynomial_mutation(
    genotype: Genotype,
    cfg: SearchConfig,
    rng: np.random.Generator,
) -> Genotype:
    """Boundary-aware polynomial mutation with distribution index eta_m."""
    pm = cfg.mutation_probability()
    exponent = 1.0 / (cfg.mutation.eta + 1.0)
    values = []
    for x, (lo, hi) in zip(genotype.values, cfg.genotype_bounds):
        if rng.random() < pm:
            u = rng.random()
            span = hi - lo
            d1 = (x - lo) / span
            d2 = (hi - x) / span
            if u < 0.5:
                delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (cfg.mutation.eta + 1.0)) ** exponent - 1.0
            else:
                delta = 1.0 - (
                    2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (cfg.mutation.eta + 1.0)
                ) ** exponent
            x = min(max(x + delta * span, lo), hi)
        values.append(x)
    return Genotype(genotype.kind, tuple(values))


@dataclass(frozen=True)
class HistoryEntry:
    genotype: Genotype
    fitness: ObjectiveVector
    generation: int


@dataclass(frozen=True)
class FrontMember:
    genotype: Genotype
    objectives: ObjectiveVector


@dataclass(frozen=True)
class ParetoFront:
    """Mutually non-dominated members, sorted by ascending fitness.first."""

    members: tuple[FrontMember, ...]

    def __len__(self) -> int:
        return len(self.members)


def extract_pareto(history: Sequence[HistoryEntry]) -> ParetoFront:
    """Non-dominated subset of all evaluated points.

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
    members = [
        FrontMember(genotype=unique[i].genotype, objectives=unique[i].fitness)
        for i in fronts[0]
    ]
    members.sort(key=lambda m: m.objectives.fitness)
    return ParetoFront(members=tuple(members))


def _stream(seed: int, generation: int, op: int, idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(generation, op, idx))
    )


def _assign_ranks(pop: Population) -> None:
    fronts = fast_nondominated_sort([ind.fitness for ind in pop.individuals])
    for rank, front in enumerate(fronts):
        dists = crowding_distance([pop.individuals[i].fitness for i in front])
        for i, d in zip(front, dists):
            pop.individuals[i].rank = rank
            pop.individuals[i].crowding = d


def run_nsga2(
    cfg: SearchConfig,
    evaluate: FitnessEvaluator | Callable[[Genotype], ObjectiveVector],
    workers: int = 1,
    on_generation: Callable[[list[HistoryEntry], int, Population], None] | None = None,
) -> tuple[ParetoFront, list[HistoryEntry]]:
    """Run the elitist search and return the all-evaluations front plus history.

    Each generation is scored with one ``evaluate_population(genotypes,
    workers=workers)`` call. ``on_generation`` fires after each generation's
    evaluations (and before raising on evaluation failure) so callers can
    persist partial state.
    """
    evaluator = evaluate if isinstance(evaluate, FitnessEvaluator) else CallableFitness(evaluate)
    n = cfg.population_size
    history: list[HistoryEntry] = []

    genotypes = []
    for i in range(n):
        rng = _stream(cfg.seed, 0, _OP_INIT, i)
        values = tuple(rng.uniform(lo, hi) for lo, hi in cfg.genotype_bounds)
        genotypes.append(Genotype(cfg.genotype_kind, values))

    def evaluated(gen: int, gs: list[Genotype]) -> list[Individual]:
        try:
            fits = evaluator.evaluate_population(gs, workers=workers)
        except Exception:
            if on_generation is not None:
                on_generation(history, gen, Population([], generation=gen))
            raise
        inds = []
        for g, f in zip(gs, fits):
            history.append(HistoryEntry(genotype=g, fitness=f, generation=gen))
            inds.append(Individual(genotype=g, fitness=f))
        return inds

    pop = Population(evaluated(0, genotypes), generation=0)
    _assign_ranks(pop)
    if on_generation is not None:
        on_generation(history, 0, pop)

    for gen in range(1, cfg.generations + 1):
        offspring_genotypes: list[Genotype] = []
        for pair in range(n // 2):
            parent1 = tournament_select(pop, _stream(cfg.seed, gen, _OP_TOURNAMENT, 2 * pair))
            parent2 = tournament_select(pop, _stream(cfg.seed, gen, _OP_TOURNAMENT, 2 * pair + 1))
            child1, child2 = sbx_crossover(
                parent1.genotype, parent2.genotype, cfg, _stream(cfg.seed, gen, _OP_CROSSOVER, pair)
            )
            child1 = polynomial_mutation(child1, cfg, _stream(cfg.seed, gen, _OP_MUTATION, 2 * pair))
            child2 = polynomial_mutation(child2, cfg, _stream(cfg.seed, gen, _OP_MUTATION, 2 * pair + 1))
            offspring_genotypes.extend((child1, child2))

        offspring = evaluated(gen, offspring_genotypes)
        pooled = pop.individuals + offspring
        fronts = fast_nondominated_sort([ind.fitness for ind in pooled])

        selected: list[Individual] = []
        for front in fronts:
            if len(selected) + len(front) <= n:
                selected.extend(pooled[i] for i in front)
            else:
                dists = crowding_distance([pooled[i].fitness for i in front])
                order = sorted(
                    range(len(front)), key=lambda j: (-dists[j], front[j])
                )
                selected.extend(pooled[front[j]] for j in order[: n - len(selected)])
            if len(selected) == n:
                break

        pop = Population(
            [Individual(genotype=ind.genotype, fitness=ind.fitness) for ind in selected],
            generation=gen,
        )
        _assign_ranks(pop)
        if on_generation is not None:
            on_generation(history, gen, pop)

    return extract_pareto(history), history
