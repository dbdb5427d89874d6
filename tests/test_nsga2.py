import numpy as np
import pytest

from paretomerge import (
    FitnessEvaluator,
    Genotype,
    HistoryEntry,
    Individual,
    MergeKind,
    MutationParams,
    ObjectiveVector,
    Population,
    SbxParams,
    SearchConfig,
    SearchConfigError,
    crowding_distance,
    dominates,
    extract_pareto,
    fast_nondominated_sort,
    polynomial_mutation,
    run_nsga2,
    sbx_crossover,
    tournament_select,
)


class Fit:
    """Minimal stand-in exposing a raw minimization fitness pair."""

    def __init__(self, f1, f2):
        self.fitness = (float(f1), float(f2))


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


def test_dominates_cases():
    assert dominates(ObjectiveVector(0.8, 100.0), ObjectiveVector(0.7, 200.0))
    a = ObjectiveVector(0.8, 200.0)
    b = ObjectiveVector(0.7, 100.0)
    assert not dominates(a, b) and not dominates(b, a)
    same = ObjectiveVector(0.5, 100.0)
    assert not dominates(same, ObjectiveVector(0.5, 100.0))
    # equal on one objective, better on the other
    assert dominates(ObjectiveVector(0.5, 50.0), ObjectiveVector(0.5, 100.0))


def test_sort_single_front_and_two_fronts():
    pts = [Fit(1, 5), Fit(2, 3), Fit(3, 1)]
    assert fast_nondominated_sort(pts) == [[0, 1, 2]]
    pts = [Fit(1, 1), Fit(2, 2)]
    assert fast_nondominated_sort(pts) == [[0], [1]]


def test_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        pts = [Fit(a, b) for a, b in zip(rng.integers(0, 12, n), rng.integers(0, 12, n))]
        raw = [p.fitness for p in pts]
        assert fast_nondominated_sort(pts) == brute_force_fronts(raw)


def test_sort_scale_free():
    rng = np.random.default_rng(2)
    pts = [Fit(a, b) for a, b in rng.uniform(0, 10, size=(40, 2))]
    scaled = [Fit(p.fitness[0], 1000.0 * p.fitness[1]) for p in pts]
    assert fast_nondominated_sort(pts) == fast_nondominated_sort(scaled)


def test_tournament_winners_scale_free():
    # dominance partitions are order-based and crowding is range-normalized,
    # so scaling one objective leaves every tournament outcome unchanged
    rng = np.random.default_rng(13)
    raw = rng.uniform(0, 1, size=(16, 2))

    def build_pop(scale):
        inds = []
        for i, (f1, f2) in enumerate(raw):
            ind = Individual(genotype=Genotype(MergeKind.TA, (i / 16,)))
            ind.fitness = Fit(f1, scale * f2)
            inds.append(ind)
        pop = Population(inds)
        fronts = fast_nondominated_sort([x.fitness for x in inds])
        for rank, front in enumerate(fronts):
            dists = crowding_distance([inds[i].fitness for i in front])
            for i, d in zip(front, dists):
                inds[i].rank = rank
                inds[i].crowding = d
        return pop

    plain, scaled = build_pop(1.0), build_pop(250.0)
    for seed in range(200):
        w1 = tournament_select(plain, np.random.default_rng(seed))
        w2 = tournament_select(scaled, np.random.default_rng(seed))
        assert w1.genotype.values == w2.genotype.values


def test_crowding_distance_hand_example():
    front = [Fit(0, 10), Fit(5, 5), Fit(10, 0)]
    dist = crowding_distance(front)
    assert dist[0] == float("inf") and dist[2] == float("inf")
    assert dist[1] == pytest.approx(2.0)


def test_crowding_distance_small_fronts():
    assert crowding_distance([Fit(1, 2)]) == [float("inf")]
    assert crowding_distance([Fit(1, 2), Fit(2, 1)]) == [float("inf")] * 2


def test_crowding_distance_degenerate_objective():
    # second objective constant: contributes 0, first still assigns infs
    front = [Fit(0, 7), Fit(1, 7), Fit(2, 7), Fit(3, 7)]
    dist = crowding_distance(front)
    assert dist[0] == float("inf") and dist[3] == float("inf")
    assert dist[1] == pytest.approx((2 - 0) / 3)
    assert dist[2] == pytest.approx((3 - 1) / 3)


def make_pop(specs):
    inds = []
    for i, (rank, crowd) in enumerate(specs):
        ind = Individual(genotype=Genotype(MergeKind.TA, (i / 10,)))
        ind.fitness = ObjectiveVector(0.5, 100.0)
        ind.rank = rank
        ind.crowding = crowd
        inds.append(ind)
    return Population(inds)


class FixedPairRng:
    """Deterministic stand-in drawing a fixed index pair."""

    def __init__(self, i, j):
        self._pair = np.array([i, j])

    def choice(self, n, size, replace):
        return self._pair


def test_tournament_rank_crowding_index_tiebreaks():
    pop = make_pop([(0, 1.0), (1, float("inf"))])
    assert tournament_select(pop, FixedPairRng(0, 1)).rank == 0

    pop = make_pop([(0, float("inf")), (0, 2.0)])
    assert tournament_select(pop, FixedPairRng(0, 1)).crowding == float("inf")

    pop = make_pop([(0, 2.0), (0, 2.0)])
    winner = tournament_select(pop, FixedPairRng(1, 0))
    assert winner is pop.individuals[0]  # lower population index wins


def test_sbx_probability_zero_copies_parents():
    cfg = SearchConfig(sbx=SbxParams(probability=0.0))
    p1 = Genotype(MergeKind.TA, (0.2,))
    p2 = Genotype(MergeKind.TA, (0.8,))
    c1, c2 = sbx_crossover(p1, p2, cfg, np.random.default_rng(0))
    assert c1.values == p1.values and c2.values == p2.values


def test_sbx_identical_parents_identical_children():
    cfg = SearchConfig()
    p = Genotype(MergeKind.TA, (0.4,))
    for seed in range(10):
        c1, c2 = sbx_crossover(p, p, cfg, np.random.default_rng(seed))
        assert c1.values == pytest.approx(p.values)
        assert c2.values == pytest.approx(p.values)


def test_sbx_children_respect_bounds():
    cfg = SearchConfig(genotype_kind=MergeKind.TIES)
    rng = np.random.default_rng(3)
    for _ in range(500):
        v1 = tuple(rng.uniform(lo, hi) for lo, hi in cfg.genotype_bounds)
        v2 = tuple(rng.uniform(lo, hi) for lo, hi in cfg.genotype_bounds)
        c1, c2 = sbx_crossover(
            Genotype(MergeKind.TIES, v1), Genotype(MergeKind.TIES, v2), cfg, rng
        )
        for child in (c1, c2):
            for v, (lo, hi) in zip(child.values, cfg.genotype_bounds):
                assert lo <= v <= hi
            child.validate()


def test_sbx_preserves_parent_mean_per_variable():
    # c1 + c2 = (1+b)x1 + (1-b)x2 + (1-b)x1 + (1+b)x2 all over 2 = x1 + x2,
    # so away from the bounds the parent mean is preserved exactly.
    cfg = SearchConfig(sbx=SbxParams(probability=1.0, eta=20.0))
    rng = np.random.default_rng(6)
    for _ in range(2000):
        x1, x2 = rng.uniform(0.35, 0.65, size=2)
        c1, c2 = sbx_crossover(
            Genotype(MergeKind.TA, (float(x1),)),
            Genotype(MergeKind.TA, (float(x2),)),
            cfg,
            rng,
        )
        assert c1.values[0] + c2.values[0] == pytest.approx(x1 + x2, abs=1e-9)


def test_sbx_contracts_and_expands_evenly():
    # beta has median 1, so child spread shrinks vs the parents about half the time
    cfg = SearchConfig(sbx=SbxParams(probability=1.0, eta=10.0))
    rng = np.random.default_rng(7)
    contracted = 0
    trials = 4000
    for _ in range(trials):
        x1, x2 = 0.3, 0.7
        c1, c2 = sbx_crossover(
            Genotype(MergeKind.TA, (x1,)), Genotype(MergeKind.TA, (x2,)), cfg, rng
        )
        if abs(c1.values[0] - c2.values[0]) < abs(x1 - x2):
            contracted += 1
    assert abs(contracted / trials - 0.5) < 0.03


def test_mutation_perturbs_both_directions_evenly():
    # the draw side (u < 0.5) fixes the perturbation sign, so both directions
    # appear with equal probability for an interior variable
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=1.0, eta=20.0))
    rng = np.random.default_rng(8)
    neg = pos = 0
    trials = 4000
    for _ in range(trials):
        out = polynomial_mutation(Genotype(MergeKind.TA, (0.5,)), cfg, rng).values[0]
        if out < 0.5:
            neg += 1
        elif out > 0.5:
            pos += 1
    assert neg + pos >= trials - 5  # exact zero moves are measure-zero
    assert abs(neg / trials - 0.5) < 0.03


def test_sbx_kind_mismatch():
    cfg = SearchConfig()
    with pytest.raises(ValueError, match="kind"):
        sbx_crossover(
            Genotype(MergeKind.TA, (0.5,)),
            Genotype(MergeKind.TIES, (0.5, 0.5)),
            cfg,
            np.random.default_rng(0),
        )


def test_mutation_probability_zero_is_identity():
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=0.0))
    g = Genotype(MergeKind.TA, (0.3,))
    assert polynomial_mutation(g, cfg, np.random.default_rng(0)).values == g.values


def test_mutation_keeps_bounds_in_sweep():
    cfg = SearchConfig(
        genotype_kind=MergeKind.LINEAR,
        mutation=MutationParams(per_variable_probability=1.0),
    )
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        start = tuple(rng.uniform(lo, hi) for lo, hi in cfg.genotype_bounds)
        mutated = polynomial_mutation(Genotype(MergeKind.LINEAR, start), cfg, rng)
        for v, (lo, hi) in zip(mutated.values, cfg.genotype_bounds):
            assert lo <= v <= hi
        mutated.validate()


def test_mutation_at_lower_bound_stays_inside():
    cfg = SearchConfig(mutation=MutationParams(per_variable_probability=1.0))
    for seed in range(50):
        out = polynomial_mutation(
            Genotype(MergeKind.TA, (0.0,)), cfg, np.random.default_rng(seed)
        )
        assert out.values[0] >= 0.0


def test_search_config_validation():
    with pytest.raises(SearchConfigError):
        SearchConfig(population_size=5)  # odd
    with pytest.raises(SearchConfigError):
        SearchConfig(population_size=2)  # too small
    with pytest.raises(SearchConfigError):
        SearchConfig(generations=0)
    with pytest.raises(SearchConfigError):
        SearchConfig(genotype_bounds=((1.0, 1.0),))


def linear_objectives(g: Genotype) -> ObjectiveVector:
    lam = g.values[0]
    return ObjectiveVector(accuracy=lam, mean_length=1000.0 * lam + 10.0)


def test_run_nsga2_budget_and_extremes():
    cfg = SearchConfig(population_size=4, generations=1, seed=0)
    front, history = run_nsga2(cfg, linear_objectives)
    assert len(history) == 8  # N * (T + 1)
    # objectives conflict affinely in lam: every evaluated point is non-dominated
    assert len(front) == len({h.fitness.fitness for h in history})
    lams = [m.genotype.values[0] for m in front.members]
    assert max(lams) == max(h.genotype.values[0] for h in history)
    assert min(lams) == min(h.genotype.values[0] for h in history)


def test_run_nsga2_constant_evaluator_terminates():
    cfg = SearchConfig(population_size=4, generations=2, seed=1)
    front, history = run_nsga2(cfg, lambda g: ObjectiveVector(0.5, 100.0))
    assert len(front) == 1
    assert len(history) == 12


def test_run_nsga2_deterministic_and_thread_invariant():
    cfg = SearchConfig(population_size=8, generations=3, seed=7)
    runs = [run_nsga2(cfg, linear_objectives, workers=w) for w in (1, 1, 4)]
    base_front, base_hist = runs[0]
    for front, hist in runs[1:]:
        assert [(h.genotype.values, h.fitness.fitness, h.generation) for h in hist] == [
            (h.genotype.values, h.fitness.fitness, h.generation) for h in base_hist
        ]
        assert [(m.genotype.values, m.objectives.fitness) for m in front.members] == [
            (m.genotype.values, m.objectives.fitness) for m in base_front.members
        ]


def test_run_nsga2_makes_one_batch_call_per_generation():
    class CountingFitness(FitnessEvaluator):
        def __init__(self):
            self.batches = []

        def evaluate(self, genotype):
            return linear_objectives(genotype)

        def evaluate_population(self, genotypes, workers=1):
            self.batches.append((len(genotypes), workers))
            return super().evaluate_population(genotypes, workers)

    fit = CountingFitness()
    cfg = SearchConfig(population_size=6, generations=3, seed=2)
    front, history = run_nsga2(cfg, fit, workers=2)
    assert fit.batches == [(6, 2)] * 4
    assert history == run_nsga2(cfg, linear_objectives)[1]


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
    assert any(m.objectives.accuracy == best_acc for m in front.members)
    assert any(m.objectives.mean_length == best_len for m in front.members)


def test_run_nsga2_generation_callback_and_failure_persistence():
    calls = []

    def cb(history, gen, pop):
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
    assert [(m.objectives.accuracy, m.objectives.mean_length) for m in front.members] == [
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
    assert len(front) == 1 and front.members[0].genotype == g1


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
    firsts = [m.objectives.fitness[0] for m in front.members]
    assert firsts == sorted(firsts)
    # oracle: raw pairwise comparison on the fitness tuples
    pairs = [m.objectives.fitness for m in front.members]
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
            assert fast_nondominated_sort([Fit(a, b) for a, b in raw]) == brute_force_fronts(raw)


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
        assert [(m.genotype, m.objectives) for m in extract_pareto(hist).members] == [
            (e.genotype, e.fitness) for e in expected
        ]


def test_sort_10k_points_memory_is_linear():
    import tracemalloc

    rng = np.random.default_rng(23)
    pts = [Fit(a, b) for a, b in rng.uniform(0, 1, size=(10_000, 2))]
    tracemalloc.start()
    try:
        fronts = fast_nondominated_sort(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(i for front in fronts for i in front) == list(range(10_000))
    assert peak < 50 * 2**20  # N x N dominance arrays would need > 190 MiB


def test_sort_rejects_other_objective_counts_and_nan():
    class Fit3:
        fitness = (1.0, 2.0, 3.0)

    with pytest.raises(ValueError, match="two objectives"):
        fast_nondominated_sort([Fit3(), Fit3()])
    with pytest.raises(ValueError, match="NaN"):
        fast_nondominated_sort([Fit(0.0, 1.0), Fit(float("nan"), 0.0)])
