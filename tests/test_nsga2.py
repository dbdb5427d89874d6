import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import paretomerge.nsga2 as nsga2
from paretomerge.errors import SearchConfigError
from paretomerge.evaluation import FitnessEvaluator, ObjectiveVector
from paretomerge.merge import Genotype, MergeKind, default_genotype_bounds
from paretomerge.nsga2 import (
    HistoryEntry,
    MutationParams,
    SbxParams,
    SearchConfig,
    _survivors,
    crowding_distance,
    extract_pareto,
    fast_nondominated_sort,
    polynomial_mutation,
    run_nsga2,
    sbx_crossover,
    tournament_select,
)


def brute_force_fronts(points):
    """Oracle: repeatedly peel the set of points dominated by nobody remaining."""

    def dominated(p, q):  # q dominates p
        return q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])

    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominated(points[i], points[j]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def test_sort_single_front_and_two_fronts():
    assert fast_nondominated_sort(np.array([[1.0, 5.0], [2.0, 3.0], [3.0, 1.0]])) == [[0, 1, 2]]
    assert fast_nondominated_sort(np.array([[1.0, 1.0], [2.0, 2.0]])) == [[0], [1]]


def test_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        pts = np.column_stack((rng.integers(0, 12, n), rng.integers(0, 12, n))).astype(float)
        assert fast_nondominated_sort(pts) == brute_force_fronts(pts.tolist())


def test_sort_scale_free():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, size=(40, 2))
    scaled = pts * [1.0, 1000.0]
    assert fast_nondominated_sort(pts) == fast_nondominated_sort(scaled)


def test_tournament_winners_scale_free():
    # dominance partitions are order-based and crowding is range-normalized,
    # so scaling one objective leaves every tournament outcome unchanged
    rng = np.random.default_rng(13)
    raw = rng.uniform(0, 1, size=(16, 2))

    def rank_and_crowding(scale):
        _, rank, crowding = _survivors(np.column_stack((-raw[:, 0], scale * raw[:, 1])), len(raw))
        return rank, crowding

    plain, scaled = rank_and_crowding(1.0), rank_and_crowding(250.0)
    for seed in range(200):
        w1 = tournament_select(*plain, np.random.default_rng(seed))
        w2 = tournament_select(*scaled, np.random.default_rng(seed))
        assert w1.tolist() == w2.tolist()


def rank_and_crowding(pop):
    """Slow reference: each member's rank and crowding from a sort of ``pop`` alone."""
    rank = np.zeros(len(pop), dtype=int)
    crowding = np.zeros(len(pop))
    for r, front in enumerate(fast_nondominated_sort(pop)):
        rank[front] = r
        crowding[front] = crowding_distance(pop[front])
    return rank, crowding


def two_sort_selection(f, n):
    """Slow reference for ``_survivors``: survivors from a sort of the pool, then
    their rank and crowding from a second sort of the survivors."""
    selected = []
    for front in fast_nondominated_sort(f):
        if len(selected) + len(front) <= n:
            selected.extend(front)
        else:
            dists = crowding_distance(f[front])
            order = sorted(range(len(front)), key=lambda j: (-dists[j], front[j]))
            selected.extend(front[j] for j in order[: n - len(selected)])
        if len(selected) == n:
            break
    return selected, *rank_and_crowding(f[selected])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(side=st.integers(1, 6), data=st.data())
def test_survivors_match_two_sort_selection(side, data):
    # An integer grid of side + 1 values per objective forces ties and
    # duplicates; keeping every n from 1 to the pool size cuts the pool at
    # every position, and n equal to the pool size is generation 0.
    cell = st.tuples(st.integers(0, side), st.integers(0, side))
    f = np.array(data.draw(st.lists(cell, min_size=1, max_size=40)), dtype=np.float64)
    for n in range(1, len(f) + 1):
        kept, rank, crowding = _survivors(f, n)
        selected, ref_rank, ref_crowding = two_sort_selection(f, n)
        assert kept.tolist() == selected
        assert rank[kept].tobytes() == ref_rank.tobytes()
        assert crowding[kept].tobytes() == ref_crowding.tobytes()
    # The last n is the pool size, where every row survives and generation 0
    # reads rank and crowding by row, without reordering.
    ref_rank, ref_crowding = rank_and_crowding(f)
    assert rank.tobytes() == ref_rank.tobytes()
    assert crowding.tobytes() == ref_crowding.tobytes()


def test_crowding_distance_hand_example():
    dist = crowding_distance(np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]]))
    assert dist[0] == float("inf") and dist[2] == float("inf")
    assert dist[1] == pytest.approx(2.0)


def test_crowding_distance_small_fronts():
    assert crowding_distance(np.array([[1.0, 2.0]])).tolist() == [float("inf")]
    assert crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]])).tolist() == [float("inf")] * 2


def test_crowding_distance_degenerate_objective():
    # second objective constant: contributes 0, first still assigns infs
    dist = crowding_distance(np.array([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]))
    assert dist[0] == float("inf") and dist[3] == float("inf")
    assert dist[1] == pytest.approx((2 - 0) / 3)
    assert dist[2] == pytest.approx((3 - 1) / 3)


def make_pop(specs):
    """(rank, crowding) pairs -> the two per-member arrays a tournament reads."""
    return np.array([r for r, _ in specs]), np.array([c for _, c in specs])


class FixedPairsRng:
    """Deterministic stand-in whose tournament k pits ``pairs[k]`` against each other."""

    def __init__(self, *pairs):
        i, j = np.array(pairs).T
        self._draws = iter([i, (j - i) % len(pairs)])  # the first index, then the offset

    def integers(self, *bounds, size):
        return next(self._draws)


def test_tournament_rank_crowding_index_tiebreaks():
    rank, crowding = make_pop([(0, 1.0), (1, float("inf"))])
    assert rank[tournament_select(rank, crowding, FixedPairsRng((0, 1), (1, 0)))].tolist() == [0, 0]

    rank, crowding = make_pop([(0, float("inf")), (0, 2.0)])
    winners = tournament_select(rank, crowding, FixedPairsRng((0, 1), (1, 0)))
    assert crowding[winners].tolist() == [float("inf")] * 2

    rank, crowding = make_pop([(0, 2.0), (0, 2.0)])
    winners = tournament_select(rank, crowding, FixedPairsRng((1, 0), (0, 1)))
    assert winners.tolist() == [0, 0]  # lower population index wins


def test_tournament_pits_distinct_members():
    rank, crowding = make_pop([(0, 1.0)] * 4)  # every tie goes to the lower index
    for seed in range(50):
        winners = tournament_select(rank, crowding, np.random.default_rng(seed))
        assert winners.max() < 3  # member 3 can only lose, to a member below it


def genotypes(kind, rows):
    return [Genotype(kind, row) for row in rows.tolist()]


def test_sbx_probability_zero_copies_parents():
    cfg = SearchConfig(sbx=SbxParams(probability=0.0))
    parents = np.array([[0.2], [0.8], [0.7], [0.1]])
    assert sbx_crossover(parents, cfg, np.random.default_rng(0)).tolist() == parents.tolist()


def test_sbx_identical_parents_identical_children():
    cfg = SearchConfig()
    parents = np.full((20, 1), 0.4)
    for seed in range(10):
        children = sbx_crossover(parents, cfg, np.random.default_rng(seed))
        assert children == pytest.approx(parents)


def test_sbx_children_respect_bounds():
    cfg = SearchConfig(genotype_kind=MergeKind.TIES)
    lo, hi = np.array(cfg.genotype_bounds).T
    rng = np.random.default_rng(3)
    children = sbx_crossover(rng.uniform(lo, hi, size=(1000, 2)), cfg, rng)
    assert ((lo <= children) & (children <= hi)).all()
    for child in genotypes(MergeKind.TIES, children):
        child.validate()


def test_sbx_preserves_parent_mean_per_variable():
    # c1 + c2 = (1+b)x1 + (1-b)x2 + (1-b)x1 + (1+b)x2 all over 2 = x1 + x2,
    # so away from the bounds the parent mean is preserved exactly.
    cfg = SearchConfig(sbx=SbxParams(probability=1.0, eta=20.0))
    rng = np.random.default_rng(6)
    parents = rng.uniform(0.35, 0.65, size=(4000, 1))
    children = sbx_crossover(parents, cfg, rng)
    assert children[0::2] + children[1::2] == pytest.approx(parents[0::2] + parents[1::2], abs=1e-9)


def test_sbx_contracts_and_expands_evenly():
    # beta has median 1, so child spread shrinks vs the parents about half the time
    cfg = SearchConfig(sbx=SbxParams(probability=1.0, eta=10.0))
    trials = 4000
    children = sbx_crossover(np.tile([[0.3], [0.7]], (trials, 1)), cfg, np.random.default_rng(7))
    contracted = np.count_nonzero(abs(children[0::2] - children[1::2]) < abs(0.3 - 0.7))
    assert abs(contracted / trials - 0.5) < 0.03


def test_mutation_perturbs_both_directions_evenly():
    # the draw side (u < 0.5) fixes the perturbation sign, so both directions
    # appear with equal probability for an interior variable
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=1.0, eta=20.0))
    trials = 4000
    out = polynomial_mutation(np.full((trials, 1), 0.5), cfg, np.random.default_rng(8))
    neg, pos = np.count_nonzero(out < 0.5), np.count_nonzero(out > 0.5)
    assert neg + pos >= trials - 5  # exact zero moves are measure-zero
    assert abs(neg / trials - 0.5) < 0.03


def test_mutation_probability_zero_is_identity():
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=0.0))
    x = np.array([[0.3], [0.0], [1.0], [0.7]])
    assert polynomial_mutation(x, cfg, np.random.default_rng(0)).tolist() == x.tolist()


def test_mutation_keeps_bounds_in_sweep():
    cfg = SearchConfig(
        genotype_kind=MergeKind.LINEAR,
        mutation=MutationParams(per_variable_probability=1.0),
    )
    lo, hi = np.array(cfg.genotype_bounds).T
    rng = np.random.default_rng(4)
    mutated = polynomial_mutation(rng.uniform(lo, hi, size=(10_000, 2)), cfg, rng)
    assert ((lo <= mutated) & (mutated <= hi)).all()
    for child in genotypes(MergeKind.LINEAR, mutated):
        child.validate()


def test_mutation_at_lower_bound_stays_inside():
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=1.0))
    out = polynomial_mutation(np.zeros((50, 1)), cfg, np.random.default_rng(0))
    assert (out >= 0.0).all()


def test_search_config_validation():
    with pytest.raises(SearchConfigError):
        SearchConfig(population_size=5)  # odd
    with pytest.raises(SearchConfigError):
        SearchConfig(population_size=2)  # too small
    with pytest.raises(SearchConfigError):
        SearchConfig(generations=0)
    with pytest.raises(SearchConfigError):
        SearchConfig(genotype_bounds=((1.0, 1.0),))
    # the search box has the kind's arity and lies inside the kind's box
    for kind, bounds in [
        (MergeKind.TA, ((0.0, 2.0),)),
        (MergeKind.TA, ((-0.1, 1.0),)),
        (MergeKind.TA, ((0.0, 1.0), (0.0, 1.0))),
        (MergeKind.TIES, ((0.0, 1.0),)),
        (MergeKind.TIES, ((0.0, 1.0), (0.0, 1.0))),
        (MergeKind.LINEAR, ((0.0, 1.5), (0.0, 1.6))),
        (MergeKind.LINEAR, ((0.0, float("nan")), (0.0, 1.0))),
    ]:
        with pytest.raises(SearchConfigError):
            SearchConfig(genotype_kind=kind, genotype_bounds=bounds)
    assert SearchConfig(
        genotype_kind=MergeKind.LINEAR, genotype_bounds=((0.2, 1.0), (0.0, 1.5))
    ).genotype_bounds == ((0.2, 1.0), (0.0, 1.5))


@st.composite
def in_box_config(draw):
    kind = draw(st.sampled_from(list(MergeKind)))
    bounds = []
    for box_lo, box_hi in default_genotype_bounds(kind):
        a, b = (draw(st.floats(box_lo, box_hi)) for _ in range(2))
        assume(a != b)
        bounds.append((min(a, b), max(a, b)))
    return SearchConfig(
        genotype_kind=kind,
        genotype_bounds=tuple(bounds),
        mutation=MutationParams(per_variable_probability=1.0),
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cfg=in_box_config(), data=st.data())
def test_offspring_stay_in_any_in_box_search_box(cfg, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    box = cfg.genotype_bounds
    parents = np.array([[data.draw(st.floats(lo, hi)) for lo, hi in box] for _ in range(2)])
    children = sbx_crossover(parents, cfg, rng)
    for child in genotypes(cfg.genotype_kind, np.vstack(
        (children, polynomial_mutation(children, cfg, rng))
    )):
        for v, (lo, hi) in zip(child.values, cfg.genotype_bounds):
            assert lo <= v <= hi
        child.validate()


def linear_objectives(g: Genotype) -> ObjectiveVector:
    lam = g.values[0]
    return ObjectiveVector(accuracy=lam, mean_length=1000.0 * lam + 10.0)


def test_run_nsga2_budget_and_extremes():
    cfg = SearchConfig(population_size=4, generations=1, seed=0)
    front, history = run_nsga2(cfg, linear_objectives)
    assert len(history) == 8  # N * (T + 1)
    # objectives conflict affinely in lam: every evaluated point is non-dominated
    assert len(front) == len({h.fitness.fitness for h in history})
    lams = [m.genotype.values[0] for m in front]
    assert max(lams) == max(h.genotype.values[0] for h in history)
    assert min(lams) == min(h.genotype.values[0] for h in history)


def test_run_nsga2_constant_evaluator_terminates():
    cfg = SearchConfig(population_size=4, generations=2, seed=1)
    front, history = run_nsga2(cfg, lambda g: ObjectiveVector(0.5, 100.0))
    assert len(front) == 1
    assert len(history) == 12


def test_run_nsga2_deterministic_across_reruns():
    cfg = SearchConfig(population_size=8, generations=3, seed=7)
    runs = [run_nsga2(cfg, linear_objectives) for _ in range(3)]
    base_front, base_hist = runs[0]
    for front, hist in runs[1:]:
        assert [(h.genotype.values, h.fitness.fitness, h.generation) for h in hist] == [
            (h.genotype.values, h.fitness.fitness, h.generation) for h in base_hist
        ]
        assert [(m.genotype.values, m.fitness.fitness) for m in front] == [
            (m.genotype.values, m.fitness.fitness) for m in base_front
        ]


def test_run_nsga2_makes_one_batch_call_per_generation():
    class CountingFitness(FitnessEvaluator):
        def __init__(self):
            self.batches = []

        def evaluate(self, genotype):
            return linear_objectives(genotype)

        def evaluate_population(self, genotypes):
            self.batches.append(len(genotypes))
            return super().evaluate_population(genotypes)

    fit = CountingFitness()
    cfg = SearchConfig(population_size=6, generations=3, seed=2)
    front, history = run_nsga2(cfg, fit)
    assert fit.batches == [6] * 4
    assert history == run_nsga2(cfg, linear_objectives)[1]


def test_run_nsga2_sorts_once_per_generation(monkeypatch):
    """One sort of the initial population, one of each pool of parents and
    offspring that selects a next generation (the last pool selects none), one
    of the deduplicated history for the front."""
    sizes = []
    sort = nsga2.fast_nondominated_sort
    monkeypatch.setattr(nsga2, "fast_nondominated_sort", lambda f: sizes.append(len(f)) or sort(f))
    cfg = SearchConfig(population_size=8, generations=5, seed=3)
    history = run_nsga2(cfg, linear_objectives)[1]
    assert len(sizes) == cfg.generations + 1
    assert sizes == [8] + [16] * (cfg.generations - 1) + [len({h.fitness.fitness for h in history})]


def test_run_nsga2_rng_layout(monkeypatch):
    """One generator seeds the first generation, and one per (generation,
    operator) drives each later one: 1 + 3 * generations in all."""
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
    cfg = SearchConfig(population_size=6, generations=4, seed=11, genotype_kind=MergeKind.TIES)
    history = run_nsga2(cfg, lambda g: ObjectiveVector(g.values[0], 100.0 * g.values[1]))[1]
    assert len(built) == 1 + 3 * cfg.generations

    lo, hi = np.array(cfg.genotype_bounds).T
    init = default_rng(np.random.SeedSequence(entropy=11, spawn_key=(0, 0)))
    rows = init.uniform(lo, hi, size=(6, 2)).tolist()
    assert [e.genotype.values for e in history if e.generation == 0] == [tuple(r) for r in rows]


def test_run_nsga2_bounds_closure():
    cfg = SearchConfig(population_size=8, generations=5, seed=3, genotype_kind=MergeKind.TIES)

    def fake(g: Genotype) -> ObjectiveVector:
        lam, k = g.values
        return ObjectiveVector(accuracy=lam * k, mean_length=100.0 * (1.0 + lam))

    front, history = run_nsga2(cfg, fake)
    for h in history:
        h.genotype.validate()
        for v, (lo, hi) in zip(h.genotype.values, cfg.genotype_bounds):
            assert lo <= v <= hi


def test_run_nsga2_elitism_preserves_single_objective_bests():
    rng_eval = np.random.default_rng(99)
    noise = {}

    def noisy(g: Genotype) -> ObjectiveVector:
        key = g.values
        if key not in noise:
            noise[key] = (float(rng_eval.uniform(0, 1)), float(rng_eval.uniform(10, 1000)))
        return ObjectiveVector(*noise[key])

    cfg = SearchConfig(population_size=8, generations=6, seed=5)
    front, history = run_nsga2(cfg, noisy)
    best_acc = max(h.fitness.accuracy for h in history)
    best_len = min(h.fitness.mean_length for h in history)
    assert any(m.fitness.accuracy == best_acc for m in front)
    assert any(m.fitness.mean_length == best_len for m in front)


def test_run_nsga2_generation_callback_and_failure_persistence():
    calls = []

    def cb(history, gen):
        calls.append((gen, len(history)))

    cfg = SearchConfig(population_size=4, generations=2, seed=0)
    run_nsga2(cfg, linear_objectives, on_generation=cb)
    assert calls == [(0, 4), (1, 8), (2, 12)]

    calls.clear()
    budget = {"left": 6}

    def failing(g: Genotype) -> ObjectiveVector:
        if budget["left"] == 0:
            raise RuntimeError("harness unavailable")
        budget["left"] -= 1
        return linear_objectives(g)

    with pytest.raises(RuntimeError):
        run_nsga2(cfg, failing, on_generation=cb)
    # initial generation persisted, then the mid-generation failure flushed history
    assert calls[0] == (0, 4)
    assert calls[-1][1] >= 4


def test_extract_pareto_examples():
    def entry(acc, length):
        return HistoryEntry(
            genotype=Genotype(MergeKind.TA, (acc,)),
            fitness=ObjectiveVector(acc, length),
            generation=0,
        )

    hist = [entry(0.5, 100.0), entry(0.6, 120.0), entry(0.5, 130.0)]
    front = extract_pareto(hist)
    assert [(m.fitness.accuracy, m.fitness.mean_length) for m in front] == [
        (0.6, 120.0),
        (0.5, 100.0),
    ]

    single = extract_pareto([entry(0.4, 50.0)])
    assert len(single) == 1

    spread = [entry(0.1, 10.0), entry(0.2, 20.0), entry(0.3, 30.0)]
    assert len(extract_pareto(spread)) == 3

    with pytest.raises(ValueError):
        extract_pareto([])


def test_extract_pareto_duplicate_fitness_keeps_first():
    g1 = Genotype(MergeKind.TA, (0.25,))
    g2 = Genotype(MergeKind.TA, (0.75,))
    hist = [
        HistoryEntry(g1, ObjectiveVector(0.5, 100.0), 0),
        HistoryEntry(g2, ObjectiveVector(0.5, 100.0), 1),
    ]
    front = extract_pareto(hist)
    assert front == [hist[0]]


def test_front_sorted_by_first_fitness_and_mutually_nondominated():
    rng = np.random.default_rng(8)
    hist = [
        HistoryEntry(
            Genotype(MergeKind.TA, (float(i) / 300,)),
            ObjectiveVector(float(a), float(l)),
            0,
        )
        for i, (a, l) in enumerate(zip(rng.uniform(0, 1, 300), rng.uniform(10, 1000, 300)))
    ]
    front = extract_pareto(hist)
    firsts = [m.fitness.fitness[0] for m in front]
    assert firsts == sorted(firsts)
    # oracle: raw pairwise comparison on the fitness tuples
    pairs = [m.fitness.fitness for m in front]
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if i != j:
                assert not (q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]))


def tied_float_points(rng, n):
    """Float objectives with injected exact duplicates and shared-coordinate ties."""
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    if n >= 4:
        for _ in range(n // 4):
            i, j = rng.integers(0, n, 2)
            pts[i] = pts[j]  # exact duplicate
        for _ in range(n // 4):
            i, j = rng.integers(0, n, 2)
            axis = int(rng.integers(0, 2))
            pts[i, axis] = pts[j, axis]  # tie on one objective only
    return [(float(a), float(b)) for a, b in pts]


def test_sort_matches_brute_force_on_float_ties_and_duplicates():
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 5, 10, 50, 200, 1000]:
        for _ in range(20 if n <= 50 else 2):
            raw = tied_float_points(rng, n)
            assert fast_nondominated_sort(np.array(raw)) == brute_force_fronts(raw)


def test_extract_pareto_is_brute_force_front_zero_after_dedup():
    rng = np.random.default_rng(22)
    for n in [1, 7, 60, 400]:
        raw = tied_float_points(rng, n)
        hist = [
            HistoryEntry(Genotype(MergeKind.TA, (i / n,)), ObjectiveVector(a, 1000.0 * b), 0)
            for i, (a, b) in enumerate(raw)
        ]
        first_seen = {}
        for entry in hist:
            first_seen.setdefault(entry.fitness.fitness, entry)
        unique = list(first_seen.values())
        front0 = brute_force_fronts([e.fitness.fitness for e in unique])[0]
        expected = sorted((unique[i] for i in front0), key=lambda e: e.fitness.fitness)
        assert extract_pareto(hist) == expected


def test_sort_10k_points_memory_is_linear():
    import tracemalloc

    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 1, size=(10_000, 2))
    tracemalloc.start()
    try:
        fronts = fast_nondominated_sort(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(i for front in fronts for i in front) == list(range(10_000))
    assert peak < 50 * 2**20  # N x N dominance arrays would need > 190 MiB


def test_sort_rejects_other_objective_counts_and_nan():
    with pytest.raises(ValueError, match="two objectives"):
        fast_nondominated_sort(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="two objectives"):
        fast_nondominated_sort(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="NaN"):
        fast_nondominated_sort(np.array([[0.0, 1.0], [float("nan"), 0.0]]))
