import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from paretomerge.errors import SubsetSelectionError
from paretomerge.evaluation import generate_benchmark
from paretomerge.sampling import (
    CorrectnessMatrix,
    SubsetStrategy,
    bernoulli_entropy,
    build_calibration_matrix,
    default_lambda_grid,
    load_matrix,
    _midranks,
    rank_fidelity_curve,
    save_matrix,
    save_subset,
    select_subset,
    spearman_rho,
)

from distinction import expected_distinction


def matrix_from_columns(p_columns, k=10):
    """Build a K-row matrix whose column means equal the requested rates."""
    cols = []
    for p in p_columns:
        ones = int(round(p * k))
        cols.append([1] * ones + [0] * (k - ones))
    return CorrectnessMatrix(
        model_ids=[f"m{i}" for i in range(k)],
        item_ids=[f"item-{j}" for j in range(len(p_columns))],
        correct=np.array(cols).T,
    )


def test_matrix_invariants():
    with pytest.raises(ValueError, match="at least 2 models"):
        CorrectnessMatrix(["m0"], ["i0"], np.array([[1]]))
    with pytest.raises(ValueError, match="binary"):
        CorrectnessMatrix(["m0", "m1"], ["i0"], np.array([[1], [2]]))
    with pytest.raises(ValueError, match=r"shape \(2, 1\)"):
        CorrectnessMatrix(["m0", "m1"], ["i0"], np.array([[1, 0], [0, 1]]))


@pytest.mark.parametrize("field", ["model_ids", "item_ids"])
@pytest.mark.parametrize("ids", ["ab", ("a", "b"), [1, 2], {"a": 1, "b": 2}, ["", "b"], ["a", "a"]],
                         ids=["str", "tuple", "ints", "dict", "empty-id", "repeated"])
def test_matrix_ids_must_be_lists_of_unique_non_empty_strings(field, ids):
    fields = {"model_ids": ["m0", "m1"], "item_ids": ["i0", "i1"], field: ids}
    with pytest.raises(ValueError, match=f"{field} must be a list of unique non-empty strings"):
        CorrectnessMatrix(**fields, correct=np.array([[1, 0], [0, 1]]))


def test_default_lambda_grid():
    grid = default_lambda_grid(10)
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 10
    assert grid == pytest.approx([k / 9 for k in range(10)])
    assert default_lambda_grid(2) == [0.0, 1.0]
    with pytest.raises(ValueError):
        default_lambda_grid(1)


def test_build_calibration_matrix_shape_and_grid_checks():
    bench = generate_benchmark(seed=1, n_items=30)
    calls = []

    def correct_at(lam):
        calls.append(lam)
        return bench.correctness_vector(lam)

    matrix = build_calibration_matrix(correct_at, bench.item_ids, default_lambda_grid(10))
    assert matrix.correct.shape == (10, 30)
    assert matrix.item_ids == bench.item_ids
    assert calls == default_lambda_grid(10)
    # row k equals the candidate evaluated at grid point k
    for row, lam in zip(matrix.correct, default_lambda_grid(10)):
        assert np.array_equal(row, bench.correctness_vector(lam))

    with pytest.raises(ValueError, match="strictly increasing"):
        build_calibration_matrix(correct_at, bench.item_ids, [0.5, 0.2])
    with pytest.raises(ValueError, match="at least 2"):
        build_calibration_matrix(correct_at, bench.item_ids, [0.5])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        build_calibration_matrix(correct_at, bench.item_ids, [0.0, 1.5])
    # a row over other items, or not 0/1, is refused by the matrix
    with pytest.raises(ValueError, match=r"shape \(2, 29\)"):
        build_calibration_matrix(correct_at, bench.item_ids[1:], [0.0, 1.0])
    with pytest.raises(ValueError, match="binary"):
        build_calibration_matrix(lambda lam: np.full(30, 2), bench.item_ids, [0.0, 1.0])


def test_empirical_solve_rate():
    m = matrix_from_columns([0.4, 1.0, 0.0])
    rates = m.correct.mean(axis=0)
    assert rates.tolist() == [0.4, 1.0, 0.0]
    # a column's mean on its own is the same exact fraction
    assert [m.correct[:, i].mean() for i in range(3)] == rates.tolist()


def test_bernoulli_entropy_values():
    assert bernoulli_entropy(0.5) == 1.0
    assert bernoulli_entropy(0.0) == 0.0
    assert bernoulli_entropy(1.0) == 0.0
    # direct high-precision evaluation of -p log2 p - (1-p) log2 (1-p) at p=0.25
    assert bernoulli_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-6)
    with pytest.raises(ValueError):
        bernoulli_entropy(1.1)


def test_entropy_symmetry():
    rng = np.random.default_rng(0)
    for p in rng.uniform(0, 1, 200):
        assert bernoulli_entropy(float(p)) == pytest.approx(bernoulli_entropy(float(1 - p)), abs=1e-15)


def test_entropy_ranking_matches_variance_ranking():
    # sorting by H and by p(1-p) induces the same item ordering
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0, 1, 100)
        by_h = sorted(range(100), key=lambda i: (-bernoulli_entropy(float(p[i])), i))
        by_v = sorted(range(100), key=lambda i: (-(p[i] * (1 - p[i])), i))
        assert by_h == by_v


def test_expected_distinction_closed_form():
    assert expected_distinction(0.5) == 0.5
    assert expected_distinction(0.0) == 0.0
    assert expected_distinction(1.0) == 0.0
    with pytest.raises(ValueError):
        expected_distinction(-0.1)


def test_expected_distinction_monte_carlo_oracle():
    # oracle: draw lambda pairs, count threshold straddles
    rng = np.random.default_rng(42)
    n = 100_000
    for t in (0.2, 0.5, 0.8):
        lam = rng.uniform(0, 1, n)
        lam2 = rng.uniform(0, 1, n)
        d = ((lam >= t) != (lam2 >= t)).mean()
        assert abs(d - expected_distinction(t)) < 0.01


def test_select_subset_entropy_example():
    m = matrix_from_columns([1.0, 0.5, 0.9, 0.4])
    chosen = select_subset(m, SubsetStrategy.ENTROPY, 2)
    assert chosen.dtype.kind == "i"
    assert chosen.tolist() == [1, 3]  # H(0.5)=1 > H(0.4)=0.971


def test_select_subset_entropy_tie_break_by_index():
    m = matrix_from_columns([0.4, 0.6, 0.5, 0.6])  # H ties between items 1 and 3
    assert select_subset(m, SubsetStrategy.ENTROPY, 3).tolist() == [2, 0, 1]


@st.composite
def integer_grid_matrices(draw):
    """K x n matrices whose solve rates are multiples of 1/K, so many columns tie."""
    k = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(0, k), min_size=1, max_size=40))
    correct = (np.arange(k)[:, None] < np.array(counts)[None, :]).astype(np.int8)
    matrix = CorrectnessMatrix([f"m{i}" for i in range(k)], [f"i{j}" for j in range(len(counts))],
                               correct)
    return matrix, draw(st.integers(1, len(counts)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=integer_grid_matrices())
def test_select_subset_entropy_order_matches_sorted_oracle(case):
    matrix, size = case
    n = len(matrix.item_ids)
    h = [bernoulli_entropy(float(p)) for p in matrix.correct.mean(axis=0)]
    expected = sorted(range(n), key=lambda i: (-h[i], i))[:size]
    assert select_subset(matrix, SubsetStrategy.ENTROPY, size).tolist() == expected


def test_select_subset_disagreement():
    correct = np.array(
        [
            [1, 0, 1],
            [1, 1, 0],
        ]
    )
    m = CorrectnessMatrix(
        ["m0", "m1"], ["i0", "i1", "i2"], correct
    )
    assert select_subset(m, SubsetStrategy.DISAGREEMENT, 2).tolist() == [1, 2]
    with pytest.raises(SubsetSelectionError, match="disagree"):
        select_subset(m, SubsetStrategy.DISAGREEMENT, 3)


def test_select_subset_random_full_and_deterministic():
    m = matrix_from_columns([0.1, 0.2, 0.3, 0.4, 0.5])
    full = select_subset(m, SubsetStrategy.RANDOM, 5, seed=123)
    assert sorted(full.tolist()) == list(range(5))
    again = select_subset(m, SubsetStrategy.RANDOM, 3, seed=9)
    assert np.array_equal(again, select_subset(m, SubsetStrategy.RANDOM, 3, seed=9))
    assert np.array_equal(
        select_subset(m, SubsetStrategy.ENTROPY, 3), select_subset(m, SubsetStrategy.ENTROPY, 3)
    )


def test_select_subset_size_errors():
    m = matrix_from_columns([0.5, 0.5])
    with pytest.raises(SubsetSelectionError):
        select_subset(m, SubsetStrategy.ENTROPY, 3)
    with pytest.raises(SubsetSelectionError):
        select_subset(m, SubsetStrategy.ENTROPY, 0)


@st.composite
def matrix_payloads(draw):
    """Ids that may need escaping and 0/1 rows of a K x n matrix, K >= 2, n >= 1."""
    k, n = draw(st.integers(2, 6)), draw(st.integers(1, 30))
    ids = [draw(st.lists(st.text(min_size=1, max_size=4), min_size=size, max_size=size, unique=True))
           for size in (k, n)]
    return *ids, draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=k, max_size=k))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(matrix_payloads())
@example((["m0", "m1"], ["only"], [[1], [0]]))
def test_save_matrix_writes_the_json_of_its_payload(tmp_path_factory, drawn):
    """save_matrix lays out the rows from the array's bytes, and the file
    holds exactly ``json.dumps`` of the payload, one-column matrices and ids
    that need escaping included."""
    model_ids, item_ids, correct = drawn
    m = CorrectnessMatrix(model_ids, item_ids, np.array(correct))
    path = tmp_path_factory.mktemp("matrix") / "m.json"
    save_matrix(m, path)
    payload = {"model_ids": model_ids, "item_ids": item_ids, "correct": correct}
    assert path.read_bytes() == json.dumps(payload).encode("utf-8")


def test_load_matrix_and_subset_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model_ids": ["m0", "m1"]}')
    with pytest.raises(ValueError, match="malformed matrix"):
        load_matrix(bad)


def test_matrix_and_subset_round_trip(tmp_path):
    m = matrix_from_columns([0.3, 0.7, 0.5])
    save_matrix(m, tmp_path / "m.json")
    loaded = load_matrix(tmp_path / "m.json")
    assert loaded.model_ids == m.model_ids
    assert loaded.item_ids == m.item_ids
    assert np.array_equal(loaded.correct, m.correct)
    assert json.loads((tmp_path / "m.json").read_text()).keys() == {"model_ids", "item_ids", "correct"}

    ids = [m.item_ids[i] for i in select_subset(m, SubsetStrategy.ENTROPY, 2)]
    save_subset(tmp_path / "s.json", SubsetStrategy.ENTROPY, 0, ids)
    saved = json.loads((tmp_path / "s.json").read_text())
    assert (saved["strategy"], saved["seed"], saved["item_ids"]) == ("entropy", 0, ["item-2", "item-0"])
    # a strategy given by its value writes the same bytes
    save_subset(tmp_path / "t.json", "entropy", 0, ids)
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "s.json").read_bytes()


def midranks_loop(values):
    """Reference mid-ranks: walk the stably sorted values one tie run at a time."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


TIED_VALUES = st.sampled_from([0.0, -0.0, math.nan, 1.0, -2.5, 1e300]) | st.integers(-3, 3).map(
    float
) | st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(values=st.lists(TIED_VALUES, max_size=60))
def test_midranks_match_the_loop_bit_for_bit(values):
    assert _midranks(values).tobytes() == midranks_loop(values).tobytes()


def test_midranks_nan_and_signed_zero_example():
    values = [math.nan, 0.0, 2.0, -0.0, math.nan, 0.0]
    # the zeros tie whatever their sign; each NaN is its own value, in index order
    assert _midranks(values).tolist() == [5.0, 2.0, 4.0, 2.0, 6.0, 2.0]


def test_spearman_examples():
    assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    # hand oracle: ranks equal values, Pearson([1,2,3,4],[2,1,4,3]) = 0.6
    assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)


def test_spearman_monotone_identities():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.1, 1.0, 30))  # strictly increasing
    assert spearman_rho(x, x) == pytest.approx(1.0)
    assert spearman_rho(x, x[::-1]) == pytest.approx(-1.0)


def test_spearman_against_scipy_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(30):
        # coarse quantization forces plenty of ties
        x = np.round(rng.uniform(0, 1, 40), 1)
        y = np.round(rng.uniform(0, 1, 40), 1)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ValueError, match="equal-length"):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 2"):
        spearman_rho([1], [2])
    with pytest.raises(ValueError, match="constant"):
        spearman_rho([1, 1, 1], [1, 2, 3])


def test_rank_fidelity_full_size_is_perfect():
    bench = generate_benchmark(seed=3, n_items=60)
    rho = rank_fidelity_curve(
        bench,
        [SubsetStrategy.ENTROPY, SubsetStrategy.RANDOM],
        sizes=[60],
        n_models=12,
        seeds=range(3),
    )
    assert rho.shape == (2, 1, 3)
    assert rho == pytest.approx(np.ones((2, 1, 3)))


def test_rank_fidelity_two_models_degenerate():
    bench = generate_benchmark(seed=4, n_items=50)
    rho = rank_fidelity_curve(
        bench, [SubsetStrategy.RANDOM], sizes=[50], n_models=2, seeds=range(5)
    )
    assert set(rho.ravel().tolist()) <= {-1.0, 0.0, 1.0}


def test_rank_fidelity_entropy_beats_random_at_default_size():
    bench = generate_benchmark(seed=0)
    rho = rank_fidelity_curve(
        bench,
        [SubsetStrategy.ENTROPY, SubsetStrategy.RANDOM],
        sizes=[50],
        n_models=20,
        seeds=range(5),
    )
    assert rho[0, 0].mean() > rho[1, 0].mean()


def test_rank_fidelity_rho_array_layout():
    """rho[i, j, s] is strategy i, size j and seed s, in a C-ordered float64
    array, and each cell's seeds are contiguous, so its mean has the bits of
    np.mean over their list."""
    bench = generate_benchmark(seed=5, n_items=150)
    strategies, sizes, seeds = [SubsetStrategy.RANDOM, SubsetStrategy.ENTROPY], [5, 40], [4, 1, 7]
    rho = rank_fidelity_curve(bench, strategies, sizes, n_models=20, seeds=seeds)
    assert rho.shape == (2, 2, 3) and rho.dtype == np.float64 and rho.flags.c_contiguous
    for i, strategy in enumerate(strategies):
        for j, size in enumerate(sizes):
            for s, seed in enumerate(seeds):
                one = rank_fidelity_curve(bench, [strategy], [size], n_models=20, seeds=[seed])
                assert one.shape == (1, 1, 1) and one[0, 0, 0] == rho[i, j, s]
            assert rho[i, j].mean().hex() == float(np.mean(rho[i, j].tolist())).hex()
