"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from mpmath import mp, mpf

import paretomerge
from paretomerge.checkpoint import Checkpoint
from paretomerge.cli import main as cli_main
from paretomerge.evaluation import generate_benchmark, load_benchmark
from paretomerge.merge import Genotype, MergeKind, decode_genotype
from paretomerge.nsga2 import SearchConfig, fast_nondominated_sort, run_nsga2
from paretomerge.reporting import build_report
from paretomerge.sampling import (
    SubsetStrategy,
    bernoulli_entropy,
    build_calibration_matrix,
    default_lambda_grid,
    rank_fidelity_curve,
    select_subset,
)

from distinction import expected_distinction


@contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.monotonic() - start:.2f}s)")
        raise
    print(f"[PASS] {name} ({time.monotonic() - start:.2f}s)")


def test_proposition_expected_distinction():
    """Monte-Carlo pairwise-distinction rate matches 2t(1-t) within 0.01."""
    with criterion("proposition: E[D] = 2t(1-t) within 0.01, runtime < 2s"):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        n_pairs = 100_000
        lam = rng.uniform(0.0, 1.0, n_pairs)
        lam2 = rng.uniform(0.0, 1.0, n_pairs)
        for t in [0.1 * i for i in range(1, 10)]:
            estimate = float(((lam >= t) != (lam2 >= t)).mean())
            assert abs(estimate - expected_distinction(t)) <= 0.01, (t, estimate)
        assert time.monotonic() - start < 2.0


def _entropy_hp(p: float) -> float:
    """High-precision oracle for the Bernoulli entropy, 50 decimal digits."""
    if p in (0.0, 1.0):
        return 0.0
    mp.dps = 50
    q = mpf(p)
    return float(-(q * mp.log(q) + (1 - q) * mp.log(1 - q)) / mp.log(2))


def test_entropy_formula_and_ranking_equivalence():
    """Entropy exact at anchors, 1e-9 of the oracle on a grid, ranking = p(1-p)."""
    with criterion("entropy formula exact/1e-9 oracle grid/ranking equivalence"):
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(0.5) == 1.0
        assert bernoulli_entropy(1.0) == 0.0
        for i in range(1001):
            p = i / 1000
            assert abs(bernoulli_entropy(p) - _entropy_hp(p)) <= 1e-9, p

        rng = np.random.default_rng(1)
        total = 0
        while total < 10_000:
            p = rng.uniform(0.0, 1.0, 500)
            total += len(p)
            by_entropy = sorted(range(len(p)), key=lambda i: (-bernoulli_entropy(float(p[i])), i))
            by_variance = sorted(range(len(p)), key=lambda i: (-(p[i] * (1 - p[i])), i))
            assert by_entropy == by_variance


def test_rank_fidelity_entropy_high_and_above_random():
    """Entropy at |S|=50 reaches mean rho >= 0.95 and beats uniform sampling."""
    with criterion("rank fidelity: mean rho(entropy,50) >= 0.95 and > random, < 30s"):
        start = time.monotonic()
        bench = generate_benchmark(seed=0)
        assert len(bench) == 1000
        rho = rank_fidelity_curve(
            bench,
            [SubsetStrategy.ENTROPY, SubsetStrategy.RANDOM],
            sizes=[50],
            n_models=50,
            seeds=range(20),
        )
        means = {"entropy": rho[0, 0].mean(), "random": rho[1, 0].mean()}
        assert means["entropy"] >= 0.95, means
        assert means["entropy"] > means["random"], means
        assert time.monotonic() - start < 30.0
        print(f"  mean rho: entropy={means['entropy']:.4f} random={means['random']:.4f}")


def _oracle_fronts(points):
    """Textbook O(n^2) non-dominated sorting: dominance sets plus counters."""
    n = len(points)
    dominated_by_me = [[] for _ in range(n)]
    dominator_count = [0] * n
    for i in range(n):
        a = points[i]
        for j in range(n):
            if i == j:
                continue
            b = points[j]
            if a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1]):
                dominated_by_me[i].append(j)
            elif b[0] <= a[0] and b[1] <= a[1] and (b[0] < a[0] or b[1] < a[1]):
                dominator_count[i] += 1
    fronts = [[i for i in range(n) if dominator_count[i] == 0]]
    while True:
        nxt = []
        for i in fronts[-1]:
            for j in dominated_by_me[i]:
                dominator_count[j] -= 1
                if dominator_count[j] == 0:
                    nxt.append(j)
        if not nxt:
            return fronts
        fronts.append(sorted(nxt))


def test_sorting_matches_brute_force_oracle():
    """fast_nondominated_sort agrees with the pairwise oracle on 500 populations."""
    with criterion("non-dominated sorting vs O(n^2) oracle, 500 populations, < 10s"):
        start = time.monotonic()
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 201))
            # integer grid objectives force plenty of ties and duplicates
            pts = list(zip(rng.integers(0, 30, n).tolist(), rng.integers(0, 30, n).tolist()))
            got = fast_nondominated_sort(np.array(pts, dtype=np.float64))
            assert [sorted(f) for f in got] == _oracle_fronts(pts)
        assert time.monotonic() - start < 10.0


def test_merge_identities_large_random_checkpoints():
    """TA endpoint byte-exactness, TIES k=1 reduction, linear average equivalence."""
    with criterion("merge identities on randomized checkpoints up to 1e6 params, < 5s"):
        start = time.monotonic()
        rng = np.random.default_rng(3)
        tensors2, tensors1 = {}, {}
        for name, size in [("embed", 600_000), ("block", 350_000), ("head", 50_000)]:
            tensors2[name] = rng.standard_normal(size).astype(np.float32)
            tensors1[name] = rng.standard_normal(size).astype(np.float32)
        system2, system1 = Checkpoint(tensors=tensors2), Checkpoint(tensors=tensors1)
        assert system2.total_parameters == 1_000_000

        def merge(kind, *values):
            return decode_genotype(Genotype(kind, values), system2, system1)

        at0 = merge(MergeKind.TA, 0.0)
        at1 = merge(MergeKind.TA, 1.0)
        for name in tensors2:
            assert at0.tensors[name].tobytes() == tensors2[name].tobytes()
            assert at1.tensors[name].tobytes() == tensors1[name].tobytes()

        for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
            ties = merge(MergeKind.TIES, lam, 1.0)
            ta = merge(MergeKind.TA, lam)
            for name in ties.tensors:
                assert np.array_equal(ties.tensors[name], ta.tensors[name])

        avg = merge(MergeKind.LINEAR, 0.5, 0.5)
        ta_half = merge(MergeKind.TA, 0.5)
        for name in avg.tensors:
            a, b = avg.tensors[name], ta_half.tensors[name]
            ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
            assert (np.abs(a - b) <= ulp).all()
        assert time.monotonic() - start < 5.0


def _staircase_hypervolume(points, ref_len):
    """Area dominated in (accuracy up, length down) space vs ref (0, ref_len)."""
    hv = 0.0
    best_acc = 0.0
    for acc, length in sorted(points, key=lambda p: p[1]):
        if acc > best_acc:
            hv += (acc - best_acc) * (ref_len - length)
            best_acc = acc
    return hv


def _default_run_config(tmp_path, name):
    cfg = {
        "search": {"population_size": 20, "generations": 10, "seed": 0},
        "evaluator": {"simulated": {"generator_seed": 0, "n_items": 1000}},
        "subset": {"strategy": "entropy", "size": 50, "seed": 0, "calibration_k": 10},
        "output_dir": str(tmp_path / name),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / name


def test_end_to_end_search_budget_and_hypervolume(tmp_path):
    """Default evolve run: < 60s, <= 220 evaluations, >= 99% of grid-front HV."""
    with criterion("end-to-end evolve: budget <= 220, HV >= 99% of 1001-grid front, < 60s"):
        start = time.monotonic()
        cfg_path, out_dir = _default_run_config(tmp_path, "e2e")
        assert cli_main(["evolve", "--config", str(cfg_path)]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0

        history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) <= 220

        bench = load_benchmark(out_dir / "benchmark.json", noise_seed=0)
        subset = json.loads((out_dir / "subset.json").read_text())["item_ids"]
        fit = paretomerge.SimulatedFitness(bench, subset)

        grid_points = []
        for lam in np.linspace(0.0, 1.0, 1001):
            ov = fit.evaluate_at(float(lam))
            grid_points.append((ov.accuracy, ov.mean_length))
        ref_len = max(length for _, length in grid_points)
        hv_grid = _staircase_hypervolume(grid_points, ref_len)

        front = json.loads((out_dir / "pareto.json").read_text())["members"]
        hv_front = _staircase_hypervolume(
            [(m["accuracy"], m["mean_length"]) for m in front], ref_len
        )
        ratio = hv_front / hv_grid
        assert ratio >= 0.99, ratio
        print(f"  evaluations={len(history)} front={len(front)} HV ratio={ratio:.4f}")


def test_search_quality_over_search_seeds():
    """README benchmark and subset, search seeds 0-15: median HV ratio >= 1.0115
    of the 1001-grid front, and 15 of 16 seeds at 0.99 or above."""
    with criterion("search quality: median HV ratio >= 1.0115, >= 15/16 seeds >= 0.99, < 1s"):
        start = time.monotonic()
        bench = generate_benchmark(seed=0, n_items=1000)
        matrix = build_calibration_matrix(
            bench.correctness_vector, bench.item_ids, default_lambda_grid(10))
        chosen = select_subset(matrix, SubsetStrategy.ENTROPY, 50, seed=0)
        fit = paretomerge.SimulatedFitness(bench, [matrix.item_ids[i] for i in chosen])
        grid_points = [
            (ov.accuracy, ov.mean_length)
            for ov in map(fit.evaluate_at, np.linspace(0.0, 1.0, 1001).tolist())
        ]
        ref_len = max(length for _, length in grid_points)
        hv_grid = _staircase_hypervolume(grid_points, ref_len)
        ratios = []
        for seed in range(16):
            cfg = SearchConfig(population_size=20, generations=10, seed=seed)
            front, _, f = run_nsga2(cfg, fit)
            points = [(-f0, f1) for f0, f1 in f[front].tolist()]
            ratios.append(_staircase_hypervolume(points, ref_len) / hv_grid)
        median = float(np.median(ratios))
        assert median >= 1.0115, ratios
        assert sum(r >= 0.99 for r in ratios) >= 15, ratios
        assert time.monotonic() - start < 1.0
        print(f"  median HV ratio={median:.4f} seeds >= 0.99: {sum(r >= 0.99 for r in ratios)}/16")


def test_determinism_across_runs(tmp_path):
    """Identical config and seed give byte-identical history and front files."""
    with criterion("determinism: byte-identical history.jsonl/pareto.json across reruns"):
        cfg_a, out_a = _default_run_config(tmp_path, "det-a")
        cfg_b, out_b = _default_run_config(tmp_path, "det-b")
        assert cli_main(["evolve", "--config", str(cfg_a)]) == 0
        assert cli_main(["evolve", "--config", str(cfg_b)]) == 0
        assert (out_a / "history.jsonl").read_bytes() == (out_b / "history.jsonl").read_bytes()
        assert (out_a / "pareto.json").read_bytes() == (out_b / "pareto.json").read_bytes()


def test_report_arithmetic_and_sign_convention():
    """Weighted average equals pooled accuracy; longer candidate reports negative reduction."""
    with criterion("report arithmetic: pooled weighted average and negative reduction sign"):
        def group(n, n_correct, length):
            return [1] * n_correct + [0] * (n - n_correct), [length] * n

        # candidate slower than baseline on one benchmark: reduction -24.2%
        report = build_report(
            {"bench": group(10, 5, 1242.0)},
            {"bench": group(10, 6, 1000.0)},
        )
        assert report.rows[0].length_reduction_pct == pytest.approx(-24.2)
        assert report.weighted_length_reduction_pct == pytest.approx(-24.2)

        groups = {"small": group(30, 12, 100.0), "large": group(1319, 1056, 400.0)}
        base = {"small": group(30, 15, 300.0), "large": group(1319, 700, 800.0)}
        report = build_report(groups, base)
        pooled = groups["small"][0] + groups["large"][0]
        assert report.weighted_average_accuracy == pytest.approx(sum(pooled) / len(pooled))
        assert report.average_accuracy == pytest.approx(0.5 * (12 / 30 + 1056 / 1319))
