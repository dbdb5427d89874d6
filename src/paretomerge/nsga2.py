"""Elitist bi-objective NSGA-II over merge genotypes.

Determinism contract: one master seed feeds named sub-streams keyed by
(generation, operator), so stochastic decisions never depend on evaluation
order and the search trajectory is identical on every rerun. Each generation
is scored serially, in one batch that holds only the generation's rows not
scored earlier in the run, once each in order of first occurrence; it may be
empty. A repeated row takes the fitness it got the first time, so a run
scores each distinct candidate once. A run builds 1 + 3 * generations
generators. With N candidates of d variables:

- generation 0, init: an (N, d) uniform draw over the search box;
- each later generation, tournament: N first entrants, then N offsets in
  [1, N) that pick each one's distinct opponent;
- crossover: N/2 pair draws against the crossover probability, then an
  (N/2, d) draw of spread variates;
- mutation: an (N, d) draw against the per-variable probability, then an
  (N, d) draw of perturbation variates.

The population is an (N, d) genotype array and an (N, 2) fitness array. One
non-dominated sort per generation gives the survivors and their rank and
crowding (Deb et al., IEEE TEC 6(2), 2002). The history is the same two
arrays over every evaluated candidate: row i was scored in generation
i // N, in the order its generation was evaluated. The returned front is
the history's row indices of its non-dominated rows, not just the final
population's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SearchConfigError
from .evaluation import FitnessEvaluator
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
                "population_size", f"must be even and >= 4, got {self.population_size}"
            )
        if self.generations < 1:
            raise SearchConfigError("generations", f"must be >= 1, got {self.generations}")
        # Every candidate in the search box must be decodable by its merge operator.
        box = default_genotype_bounds(self.genotype_kind)
        if len(self.genotype_bounds) != len(box) or not all(
            box_lo <= lo < hi <= box_hi
            for (lo, hi), (box_lo, box_hi) in zip(self.genotype_bounds, box)
        ):
            raise SearchConfigError(
                "genotype_bounds", f"must be {len(box)} (low, high) pair(s) with low < high "
                f"inside {box}, got {self.genotype_bounds}"
            )
        sbx, mutation = self.sbx, self.mutation
        for name, p in [("sbx.probability", sbx.probability),
                        ("mutation.per_variable_probability", mutation.per_variable_probability)]:
            if p is not None and not 0.0 <= p <= 1.0:
                raise SearchConfigError(name, f"must lie in [0, 1], got {p}")
        for name, eta in [("sbx.eta", sbx.eta), ("mutation.eta", mutation.eta)]:
            if not eta > 0:
                raise SearchConfigError(name, f"must be > 0, got {eta}")

    @property
    def n_variables(self) -> int:
        return len(self.genotype_bounds)

    def mutation_probability(self) -> float:
        pm = self.mutation.per_variable_probability
        return 1.0 / self.n_variables if pm is None else pm


def fast_nondominated_sort(f: np.ndarray) -> list[list[int]]:
    """Partition the rows of an (m, 2) minimization fitness array into
    successive non-dominated fronts (front 0 first).

    Two objectives only, O(m log m) time and O(m) memory: a lexicographic sort
    by (f0, f1) followed by one sweep (Kung, Luccio & Preparata 1975 for
    front 0; Jensen 2003, IEEE TEC 7(5), for all fronts). In that order a
    front's most recently added member is the only one that can dominate the
    next point, so each front keeps that member's key (f1, f0), the keys stay
    ascending across fronts, and a point joins the first front whose key is
    not below its own. Exact duplicates share a front. Each front lists its
    indices in ascending order, which crowding selection relies on to break
    ties.
    """
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


def crowding_distance(f: np.ndarray) -> np.ndarray:
    """Range-normalized neighbor-gap density of each row of an (m, 2) front's
    fitness array; boundary members get +inf."""
    m = len(f)
    if m == 0:
        raise ValueError("front must be non-empty")
    if m <= 2:
        return np.full(m, np.inf)
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
    return dist


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


def extract_pareto(f: np.ndarray) -> np.ndarray:
    """Row indices of the non-dominated rows of an (H, 2) fitness array, by
    ascending fitness.

    A repeated fitness keeps its first row, so the result is deterministic
    for a deterministic history. Front 0 comes from
    ``fast_nondominated_sort``: two objectives, O(H log H) time and O(H)
    memory.
    """
    if len(f) == 0:
        raise ValueError("cannot extract a front from an empty history")
    # A stable sort keeps equal fitnesses in row order, so each run of equal
    # rows starts at its first occurrence, and the rows kept ascend.
    order = np.lexsort((f[:, 1], f[:, 0]))
    f = f[order]
    first = np.concatenate(([True], (f[1:] != f[:-1]).any(axis=1)))
    return order[first][fast_nondominated_sort(f[first])[0]]


def _stream(seed: int, generation: int, op: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(generation, op)))


def _survivors(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep ``n`` rows of an (m, 2) fitness array: whole fronts while they fit,
    then the most crowded of the cut front, lower row first on ties.

    Returns the kept rows in that order, and each row's rank and crowding as
    the next tournament reads them; the cut front's survivors are crowded
    among themselves. Rows past the last kept front get rank -1, crowding NaN.
    """
    rank = np.full(len(f), -1)
    crowding = np.full(len(f), np.nan)
    kept: list[int] = []
    for r, front in enumerate(fast_nondominated_sort(f)):
        rank[front] = r
        crowding[front] = crowding_distance(f[front])
        if len(kept) + len(front) > n:
            order = np.argsort(-crowding[front], kind="stable")
            front = [front[j] for j in order[: n - len(kept)].tolist()]
            crowding[front] = crowding_distance(f[front])
        kept.extend(front)
        if len(kept) == n:
            break
    return np.array(kept), rank, crowding


def run_nsga2(
    cfg: SearchConfig,
    evaluate: FitnessEvaluator,
    workers: int = 1,
    on_generation: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the elitist search; return the front's history rows and the
    history's (H, d) genotype and (H, 2) fitness arrays.

    Each generation is scored with one serial ``evaluate_population(genotypes)``
    call on its rows not scored earlier in the run, deduplicated in order of
    first occurrence; the batch may be empty. Every other row reads its
    fitness from the run's memo. ``on_generation(gen, x_new, f_new)``
    receives all of each generation's new rows, repeats included, once they
    are scored, and zero rows before an evaluation error propagates, so
    callers can persist partial state.

    ``workers`` does nothing. It stays only because the bench tracer
    (``perfbench/tracing.py``) still passes it; it goes once the tracer
    subscribes to library spans instead of rebinding this function.
    """
    n = cfg.population_size
    xs: list[np.ndarray] = []
    fs: list[np.ndarray] = []
    # The fitness of every row scored so far, by the row's bytes: -0.0 and 0.0
    # stay two candidates, as they are two candidate ids.
    memo: dict[bytes, tuple[float, float]] = {}

    def evaluated(gen: int, values: np.ndarray) -> np.ndarray:
        keys = [row.tobytes() for row in values]
        new = {k: row for k, row in zip(keys, values.tolist()) if k not in memo}
        gs = [Genotype(cfg.genotype_kind, row) for row in new.values()]
        try:
            fits = evaluate.evaluate_population(gs)
        except Exception:
            if on_generation is not None:
                on_generation(gen, values[:0], np.empty((0, 2)))
            raise
        memo.update(zip(new, (o.fitness for o in fits), strict=True))
        f = np.array([memo[k] for k in keys], dtype=np.float64)
        xs.append(values)
        fs.append(f)
        if on_generation is not None:
            on_generation(gen, values, f)
        return f

    lo, hi = np.array(cfg.genotype_bounds).T
    x = _stream(cfg.seed, 0, _OP_INIT).uniform(lo, hi, size=(n, cfg.n_variables))
    f = evaluated(0, x)
    _, rank, crowding = _survivors(f, n)  # all n rows survive, read in place

    for gen in range(1, cfg.generations + 1):
        parents = x[tournament_select(rank, crowding, _stream(cfg.seed, gen, _OP_TOURNAMENT))]
        children = sbx_crossover(parents, cfg, _stream(cfg.seed, gen, _OP_CROSSOVER))
        children = polynomial_mutation(children, cfg, _stream(cfg.seed, gen, _OP_MUTATION))
        x, f = np.vstack((x, children)), np.vstack((f, evaluated(gen, children)))
        if gen < cfg.generations:  # the last pool has no next generation to select for
            kept, rank, crowding = _survivors(f, n)
            x, f, rank, crowding = x[kept], f[kept], rank[kept], crowding[kept]

    x, f = np.vstack(xs), np.vstack(fs)
    return extract_pareto(f), x, f
