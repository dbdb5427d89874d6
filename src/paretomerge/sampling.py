"""Calibration matrices, entropy-based subset selection, and rank fidelity.

The calibration matrix records which of K interpolated candidates solved each
item. Per-item Bernoulli entropy of the empirical solve rate scores how
informative an item is for ranking candidates; subsets picked by entropy,
uniform sampling, or endpoint disagreement are integer arrays of matrix column
indices, and can be compared by the Spearman correlation between
subset-induced and full-benchmark rankings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .checkpoint import write_changed
from .errors import SubsetSelectionError
from .evaluation import SimulatedBenchmark, candidate_id, is_id_list, load_json
from .merge import Genotype, MergeKind


@dataclass
class CorrectnessMatrix:
    """K models x n items binary outcomes: ``correct[k, i]`` is 1 when model
    ``model_ids[k]`` solved item ``item_ids[i]``. Each id list holds unique
    non-empty strings. No lengths: entropy ranks items by solve rate alone."""

    model_ids: list[str]
    item_ids: list[str]
    correct: np.ndarray

    def __post_init__(self):
        for name, ids in (("model_ids", self.model_ids), ("item_ids", self.item_ids)):
            if not is_id_list(ids):
                raise ValueError(f"{name} must be a list of unique non-empty strings")
        correct = np.asarray(self.correct)
        k, n = len(self.model_ids), len(self.item_ids)
        if k < 2:
            raise ValueError(f"calibration needs at least 2 models, got {k}")
        if correct.shape != (k, n):
            raise ValueError(f"correct must have shape ({k}, {n}), got {correct.shape}")
        # Checked before the cast, which would turn 0.5 and 256 into 0.
        if correct.dtype.kind not in "iuf" or not np.isin(correct, (0, 1)).all():
            raise ValueError("correctness entries must be binary (0 or 1)")
        self.correct = correct.astype(np.int8, copy=False)


def save_matrix(matrix: CorrectnessMatrix, path) -> None:
    """Write the bytes ``json.dumps`` gives for ``matrix``'s ``model_ids``,
    ``item_ids`` and ``correct`` rows; a file that already holds them is left
    as it is. The rows are laid out from the 0/1 array as bytes, ``"d, "`` per
    entry, with no Python list of its entries."""
    ids = json.dumps({"model_ids": matrix.model_ids, "item_ids": matrix.item_ids})
    cells = np.empty(matrix.correct.shape + (3,), dtype=np.uint8)
    cells[..., 0] = matrix.correct + ord("0")
    cells[..., 1:] = np.frombuffer(b", ", dtype=np.uint8)
    rows = b", ".join(b"[" + row.tobytes() + b"]" for row in cells.reshape(len(cells), -1)[:, :-2])
    write_changed(path, ids[:-1].encode("utf-8") + b', "correct": [' + rows + b"]}")


def load_matrix(path) -> CorrectnessMatrix:
    """Read a ``save_matrix`` file, ignoring keys it does not read (an older file's ``lengths``).
    A malformed file or entry is a ``ValueError`` naming ``path``."""
    payload = load_json(path)
    try:
        # On the JSON values: numpy would cast a row like [true, 1] to integers.
        if any(type(v) is bool for row in payload["correct"] for v in row):
            raise ValueError("correct entries must be numbers, not booleans")
        return CorrectnessMatrix(payload["model_ids"], payload["item_ids"], np.array(payload["correct"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed matrix file: {exc}") from exc


class SubsetStrategy(str, Enum):
    ENTROPY = "entropy"
    RANDOM = "random"
    DISAGREEMENT = "disagreement"


def save_subset(path, strategy: SubsetStrategy | str, seed: int, item_ids: Sequence[str]) -> None:
    """Write the item ids ``select_subset`` picked, with the strategy and seed that
    picked them; a file that already holds these bytes is left as it is."""
    payload = {"strategy": SubsetStrategy(strategy).value, "seed": seed, "item_ids": list(item_ids)}
    write_changed(path, json.dumps(payload).encode("utf-8"))


def default_lambda_grid(k: int) -> list[float]:
    """K coefficients uniformly spaced over [0, 1], endpoints included."""
    if k < 2:
        raise ValueError(f"grid needs at least 2 points, got {k}")
    return [i / (k - 1) for i in range(k)]


def build_calibration_matrix(
    correct_at: Callable[[float], np.ndarray],
    item_ids: Sequence[str],
    lam_grid: Sequence[float],
) -> CorrectnessMatrix:
    """Stack ``correct_at(lam)``, one candidate's 0/1 outcome on each of ``item_ids``, per grid coefficient.

    Row k is the candidate at ``lam_grid[k]``; ``CorrectnessMatrix`` checks the
    rows' shape and values. Model ids are the deterministic candidate ids of
    the interpolation genotypes.
    """
    grid = [float(v) for v in lam_grid]
    if len(grid) < 2:
        raise ValueError("lambda grid needs at least 2 points")
    if any(not 0.0 <= v <= 1.0 for v in grid):
        raise ValueError("lambda grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    return CorrectnessMatrix(
        model_ids=[candidate_id(Genotype(MergeKind.TA, (lam,))) for lam in grid],
        item_ids=list(item_ids),
        correct=np.stack([correct_at(lam) for lam in grid]),
    )


def bernoulli_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) outcome in bits, with 0 * log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def select_subset(
    matrix: CorrectnessMatrix,
    strategy: SubsetStrategy | str,
    size: int,
    seed: int = 0,
) -> np.ndarray:
    """Pick ``size`` items by the given strategy, deterministically, and
    return their matrix column indices in selection order.

    ENTROPY takes the highest-entropy items (ties broken by ascending item
    index); RANDOM samples uniformly without replacement under ``seed``;
    DISAGREEMENT takes items whose correctness differs between the first and
    last calibration rows, in index order, and errors when fewer than
    ``size`` items qualify.
    """
    strategy = SubsetStrategy(strategy)
    n = len(matrix.item_ids)
    if size < 1:
        raise SubsetSelectionError(f"subset size must be >= 1, got {size}")
    if size > n:
        raise SubsetSelectionError(f"subset size {size} exceeds item count {n}")

    if strategy == SubsetStrategy.ENTROPY:
        # The scalar entropy keeps math.log2's bits, which decide the ties.
        entropies = np.array([bernoulli_entropy(p) for p in matrix.correct.mean(axis=0).tolist()])
        return np.argsort(-entropies, kind="stable")[:size]
    if strategy == SubsetStrategy.RANDOM:
        return np.random.default_rng(seed).choice(n, size=size, replace=False)
    eligible = np.flatnonzero(matrix.correct[0] != matrix.correct[-1])
    if len(eligible) < size:
        raise SubsetSelectionError(
            f"only {len(eligible)} items disagree at the endpoint rows, cannot select {size}"
        )
    return eligible[:size]


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties sharing their mid-rank; each NaN is its
    own value, after every number, and NaNs rank in index order."""
    # return_index makes np.unique sort stably, which fixes the NaNs' order.
    _, _, inverse, counts = np.unique(
        np.asarray(values, dtype=np.float64),
        return_index=True, return_inverse=True, return_counts=True, equal_nan=False,
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of mid-ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D sequences, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("rank correlation is undefined for constant input")
    rx = _midranks(x)
    ry = _midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def rank_fidelity_curve(
    bench: SimulatedBenchmark,
    strategies: Sequence[SubsetStrategy | str],
    sizes: Sequence[int],
    n_models: int,
    seeds: Sequence[int],
    calibration_k: int = 10,
) -> np.ndarray:
    """Measure how well subset rankings reproduce full-benchmark rankings.

    For each seed, ``n_models`` candidate coefficients are drawn uniformly
    and every candidate is scored on the full benchmark; each
    (strategy, size) subset then induces its own accuracy ranking. Its Spearman
    correlation against the full ranking is ``rho[i, j, s]`` of the returned
    C-ordered float64 array, for ``strategies[i]``, ``sizes[j]`` and ``seeds[s]``;
    a constant ranking on either side (no information) is rho = 0.
    """
    if n_models < 2:
        raise ValueError("need at least 2 candidate models to rank")
    n = len(bench)
    if any(s < 1 or s > n for s in sizes):
        raise ValueError(f"subset sizes must lie in [1, {n}]")
    strategies = [SubsetStrategy(s) for s in strategies]
    grid = default_lambda_grid(calibration_k)
    matrix = build_calibration_matrix(bench.correctness_vector, bench.item_ids, grid)

    # The matrix columns are in benchmark order, so a subset indexes ``corr``.
    # Entropy / disagreement subsets are functions of the matrix alone;
    # random subsets are drawn per seed below.
    static_indices = {
        (strategy, size): select_subset(matrix, strategy, size, seed=0)
        for strategy in strategies if strategy != SubsetStrategy.RANDOM
        for size in sizes
    }

    rho = np.empty((len(strategies), len(sizes), len(seeds)))
    for s, seed in enumerate(seeds):
        lam_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        corr = bench.correctness_vector(lam_rng.uniform(0.0, 1.0, n_models))
        full_acc = corr.mean(axis=1)
        for i, strategy in enumerate(strategies):
            for j, size in enumerate(sizes):
                if strategy == SubsetStrategy.RANDOM:
                    idx = select_subset(matrix, strategy, size, seed=seed)
                else:
                    idx = static_indices[(strategy, size)]
                rho[i, j, s] = _safe_rho(corr[:, idx].mean(axis=1), full_acc)
    return rho


def _safe_rho(x: np.ndarray, y: np.ndarray) -> float:
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    return spearman_rho(x, y)
