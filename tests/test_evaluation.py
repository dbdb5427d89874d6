import ast
import dataclasses
import hashlib
import json
import math
import re
import sys
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import paretomerge.evaluation as evaluation
import paretomerge.reporting as reporting
from paretomerge.errors import GenotypeError, MissingCandidatesError, RecordFormatError
from paretomerge.evaluation import (
    DOWN_BAND,
    UP_BAND,
    FitnessEvaluator,
    ObjectiveVector,
    RESPONSE_KINDS,
    RecordsFitness,
    RecordTable,
    SimulatedBenchmark,
    SimulatedFitness,
    candidate_id,
    generate_benchmark,
    left_sum,
    load_benchmark,
    load_record_evaluations,
    logistic_response,
    objectives,
    save_benchmark,
    write_manifest,
)
from paretomerge.merge import Genotype, MergeKind
from paretomerge.reporting import build_report

from manifests import read_manifest
from record_oracle import reference_load


UP, DOWN, LOGISTIC = map(RESPONSE_KINDS.index, ("THRESHOLD_UP", "THRESHOLD_DOWN", "LOGISTIC"))
COLUMNS = ("kinds", "t", "a", "len_long", "len_short")


def bench_of(*rows, noise_seed=0):
    """A benchmark from ``(item_id, kind, t, a, len_long, len_short)`` rows."""
    return SimulatedBenchmark(*zip(*rows), noise_seed=noise_seed)


def up(iid, t, ll=1000.0, ls=100.0):
    return (iid, UP, t, 1.0, ll, ls)


def down(iid, t, ll=1000.0, ls=100.0):
    return (iid, DOWN, t, 1.0, ll, ls)


def assert_same_items(got, want):
    assert got.item_ids == want.item_ids
    for name in COLUMNS:
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_threshold_up_rule():
    b = bench_of(up("q", 0.3))
    assert b.correctness_vector(0.5)[0] == 1
    assert b.correctness_vector(0.2)[0] == 0
    assert b.correctness_vector(0.3)[0] == 1  # boundary inclusive


def test_threshold_down_rule():
    b = bench_of(down("q", 0.6))
    assert b.correctness_vector(0.5)[0] == 1
    assert b.correctness_vector(0.7)[0] == 0


def test_length_linear_interpolation():
    b = bench_of(up("q", 0.0, ll=1000.0, ls=200.0))
    assert b.length_vector(0.5)[0] == 600.0
    assert b.length_vector(0.0)[0] == 1000.0
    assert b.length_vector(1.0)[0] == 200.0


def record_table(tmp_path, records) -> RecordTable:
    """The loaded table of a file of ``(candidate, item, correct, length)`` records."""
    path = tmp_path / "records.jsonl"
    path.write_text("".join(_record(*record) for record in records))
    return load_record_evaluations(path)


def items_of(table: RecordTable, rows) -> list[str]:
    return [table.item_ids[code] for code in table.item[rows].tolist()]


def test_subset_restriction_and_unknown_id(tmp_path):
    table = record_table(tmp_path, [("m0", "a", 1, 10.0), ("m1", "a", 0, 5.0),
                                    ("m0", "b", 0, 20.0), ("m0", "c", 1, 30.5)])
    rows = table["m0"]
    assert rows.tolist() == [0, 2, 3]
    assert table.codes_of(["c", "a", "nope"]).tolist() == [2, 0, -1]
    picked = table.select(rows, table.codes_of(["c", "a"]))
    assert picked.tolist() == [3, 0] and items_of(table, picked) == ["c", "a"]
    assert table.correct[picked].tolist() == [1, 1] and table.length[picked].tolist() == [30.5, 10.0]
    assert table.correct.dtype == np.int8 and table.length.dtype == np.float64
    # KeyError names the positions of the missing items in the codes
    with pytest.raises(KeyError) as info:
        table.select(rows, table.codes_of(["a", "nope", "gone"]))
    assert info.value.args[0] == [1, 2]
    # an item of another candidate is missing for this one
    with pytest.raises(KeyError) as info:
        table.select(table["m1"], table.codes_of(["b", "a", "c"]))
    assert info.value.args[0] == [0, 2]


def test_logistic_response_values():
    assert logistic_response(10.0, 0.5, 0.5) == 0.5
    assert logistic_response(10.0, 0.5, 1e9) == pytest.approx(1.0)
    # sigma(2) = 1 / (1 + e^-2), high-precision direct evaluation
    assert logistic_response(4.0, 0.25, 0.75) == pytest.approx(0.8807970779778823, abs=1e-12)
    with pytest.raises(ValueError):
        logistic_response(0.0, 0.5, 0.5)


def test_logistic_local_sensitivity_finite_difference():
    delta = 1e-4
    for a in (2.0, 5.0, 9.0):
        for b in (0.2, 0.5, 0.8):
            for lam in np.linspace(0.05, 0.95, 7):
                q = logistic_response(a, b, lam)
                q_d = logistic_response(a, b, lam + delta)
                fd = (q_d - q) / delta
                assert abs(fd - a * q * (1.0 - q)) <= 1e-3 * a


def test_logistic_draws_deterministic_and_bucketed():
    item = ("l", LOGISTIC, 0.5, 6.0, 500.0, 100.0)
    b1 = bench_of(item, noise_seed=3)
    b2 = bench_of(item, noise_seed=3)
    lams = np.random.default_rng(0).uniform(0, 1, 50)
    r1 = [b1.correctness_vector(float(l))[0] for l in lams]
    r2 = [b2.correctness_vector(float(l))[0] for l in lams]
    assert r1 == r2
    # different noise seed changes at least one draw on 50 coin-flip-ish items
    b3 = bench_of(item, noise_seed=4)
    r3 = [b3.correctness_vector(float(l))[0] for l in lams]
    assert r1 != r3


def slow_correctness(bench, lam):
    """The simulator's rules one item at a time: the oracle for ``correctness_vector``."""
    out = []
    for iid, kind, t, a in zip(bench.item_ids, bench.kinds.tolist(), bench.t.tolist(),
                               bench.a.tolist()):
        if kind == UP:
            out.append(lam >= t)
        elif kind == DOWN:
            out.append(lam <= t)
        else:
            key = f"{iid}:{round(lam * 1_000_000)}:{bench.noise_seed}".encode("utf-8")
            digest = hashlib.blake2b(key, digest_size=8).digest()
            out.append(int.from_bytes(digest, "little") / 2.0**64 < logistic_response(a, t, lam))
    return np.array(out, dtype=np.int8)


ITEM_KINDS = ((UP, DOWN, LOGISTIC), (UP, DOWN), (LOGISTIC,))  # mixed, no logistic, only logistic


@st.composite
def simulated_benchmarks(draw):
    kinds = draw(st.sampled_from(ITEM_KINDS))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=12, unique=True))
    seed = draw(st.one_of(st.integers(max_value=-1), st.just(0),
                          st.integers(min_value=2**63 + 1), st.integers()))
    return bench_of(*((iid, draw(st.sampled_from(kinds)), draw(st.floats(0.0, 1.0)),
                       draw(st.floats(0.5, 20.0)), 1000.0, 100.0) for iid in ids),
                    noise_seed=seed)


lambdas = st.one_of(st.sampled_from([0.0, 1.0]),
                    st.integers(0, 999_999).map(lambda k: (k + 0.5) / 1e6),
                    st.floats(0.0, 1.0))


def logistic_bench(ids, noise_seed, kinds=(LOGISTIC,)):
    return bench_of(*((iid, kind, 0.5, 6.0, 1000.0, 100.0)
                      for iid, kind in zip(ids, kinds * len(ids))), noise_seed=noise_seed)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(bench=simulated_benchmarks(), lams=st.lists(lambdas, min_size=1, max_size=8))
@example(bench=logistic_bench(["é", "題-2", "🙂", "q"], -7), lams=[0.0, 1.0, 0.4999995])
@example(bench=logistic_bench(["a", "b"], 2**64 + 3, (UP, DOWN)), lams=[0.0, 0.5, 1.0])
@example(bench=logistic_bench(["a", "ü", "c"], 0, (UP, LOGISTIC, DOWN)), lams=[0.1234565])
def test_correctness_vector_matches_the_item_by_item_oracle(bench, lams):
    for lam in lams:
        got = bench.correctness_vector(lam)
        assert got.dtype == np.int8
        assert np.array_equal(got, slow_correctness(bench, lam))


# Coefficients on a draw-bucket edge: lam * 1e6 lands on a half, which round()
# sends to the even bucket.
BUCKET_EDGES = [(k + 0.5) / 1e6 for k in (0, 1, 249_999, 500_000, 999_998)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(bench=simulated_benchmarks(),
       lams=st.lists(st.one_of(lambdas, st.sampled_from([0.0, 1.0, -0.0, *BUCKET_EDGES])),
                     min_size=1, max_size=12))
@example(bench=logistic_bench([f"l{i}" for i in range(40)], 9), lams=[0.0, -0.0, 1.0, *BUCKET_EDGES])
@example(bench=bench_of(("s", LOGISTIC, 0.5, 1e308, 1.0, 0.0), ("r", LOGISTIC, 0.0, 1e308, 1.0, 0.0)),
         lams=[0.0, 0.25, 0.5, 1.0, -0.0])  # a * (lam - t) past the float64 range
def test_batched_correctness_rows_are_the_scalar_calls(bench, lams):
    """``correctness_vector`` over an array gives one int8 row per coefficient,
    each the scalar call's bits and the item-by-item oracle's."""
    got = bench.correctness_vector(np.array(lams))
    assert got.dtype == np.int8 and got.shape == (len(lams), len(bench))
    for row, lam in zip(got, lams):
        assert np.array_equal(row, bench.correctness_vector(lam))
        assert np.array_equal(row, slow_correctness(bench, lam))
    assert np.array_equal(bench.correctness_vector(lams), got)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(slopes=st.lists(st.tuples(st.floats(0.5, 20.0) | st.floats(1e-300, 1e308),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=30),
       lams=st.lists(lambdas | st.just(-0.0), min_size=1, max_size=8))
def test_batched_sigmoid_is_the_bits_of_logistic_response(slopes, lams):
    """The array sigmoid behind the batched draws is ``logistic_response``
    bit for bit: numpy's own ``exp`` differs from the C library's in the last bit."""
    bench = bench_of(*((f"l{i}", LOGISTIC, t, a, 1.0, 0.0) for i, (a, t) in enumerate(slopes)))
    got = bench._sigmoid(np.array(lams)[:, None])
    want = [[logistic_response(a, t, lam) for a, t in slopes] for lam in lams]
    assert [[p.hex() for p in row] for row in got.tolist()] == [[p.hex() for p in row] for row in want]


def test_batched_correctness_refuses_the_first_coefficient_out_of_range():
    bench = logistic_bench(["a", "b"], 0)
    for lams, bad in (([0.5, 1.5, -1.0], "1.5"), ([math.nan], "nan"), ([0.0, -1e-300], "-1e-300")):
        with pytest.raises(ValueError, match=rf"^lambda must lie in \[0, 1\], got {bad}$"):
            bench.correctness_vector(np.array(lams))
    with pytest.raises(ValueError, match="1-D array"):
        bench.correctness_vector(np.zeros((2, 2)))
    assert bench.correctness_vector(np.zeros(0)).shape == (0, 2)


def test_logistic_draws_vary_with_the_lambda_bucket_and_seed():
    """The oracle property needs outcomes that a wrong key would change."""
    ids = [f"i{k}" for k in range(64)]
    outcomes = [bench.correctness_vector(lam) for bench, lam in (
        (logistic_bench(ids, 5), 0.5), (logistic_bench(ids, 5), 0.500001), (logistic_bench(ids, 6), 0.5))]
    assert len({o.tobytes() for o in outcomes}) == 3
    assert all(0 < o.sum() < 64 for o in outcomes)


def test_logistic_item_id_must_encode_as_utf8():
    # Its draws are keyed by the id's UTF-8 bytes, which a lone surrogate lacks.
    with pytest.raises(ValueError) as info:
        logistic_bench(["a", "q\ud800"], 0)
    assert str(info.value) == ("item 1 ('q\\ud800'): a logistic item's id must encode as UTF-8 "
                               "(surrogates not allowed)")
    assert isinstance(info.value.__cause__, UnicodeEncodeError)
    assert logistic_bench(["\ud800"], 0, (UP,)).correctness_vector(0.5).tolist() == [1]


def test_outcomes_objectives_examples():
    ov = objectives([1, 0, 1, 1], [100.0, 200.0, 300.0, 400.0])
    assert ov.accuracy == 0.75
    assert ov.mean_length == 250.0
    assert ov.fitness == (-0.75, 250.0)

    ov = objectives(np.array([1, 1], dtype=np.int8), np.array([0.0, 0.0]))
    assert ov.accuracy == 1.0 and ov.mean_length == 0.0

    ov = objectives([0], [1234.0])
    assert ov.accuracy == 0.0 and ov.mean_length == 1234.0

    with pytest.raises(ValueError):
        objectives([], [])


def test_outcomes_mean_length_sums_left_to_right(tmp_path):
    # The mean is the left-to-right Python sum in item order, which differs
    # from numpy's pairwise mean in the last bit for these lengths.
    lengths = np.random.default_rng(0).uniform(100.0, 5000.0, 1000)
    expected = 0.0
    for v in lengths.tolist():
        expected += v
    assert objectives(np.zeros(1000), lengths).mean_length == expected / 1000
    assert expected / 1000 != float(np.mean(lengths))
    table = record_table(tmp_path, [("m0", f"q{i}", 0, v) for i, v in enumerate(lengths.tolist())])
    rows = table.select(table["m0"], table.codes_of([f"q{i}" for i in reversed(range(1000))]))
    assert (objectives(table.correct[rows], table.length[rows]).mean_length
            == left_to_right(lengths[::-1]) / 1000)


def left_to_right(values, start=0):
    """``sum`` as it is over floats before Python 3.12."""
    total = start
    for v in values:
        total += v
    return total


def neumaier(values, start=0):
    """``sum`` as it is over floats from Python 3.12 on: compensated."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16]),
                          st.floats(-1e6, 1e6, allow_nan=False)), min_size=1, max_size=40))
def test_left_sum_matches_the_loop_bit_for_bit(values):
    assert left_sum(values).hex() == left_to_right(values, 0.0).hex()


def test_record_means_are_left_to_right_sums_whatever_sum_does(monkeypatch):
    """Record means and report fields keep their bits when ``sum`` is the
    compensated sum of Python 3.12 and later."""
    assert left_to_right([0.1] * 10 + [1e16, 1.0, -1e16]) != neumaier([0.1] * 10 + [1e16, 1.0, -1e16])
    rng = np.random.default_rng(0)
    groups, baseline = {}, {}
    for g, correct in enumerate((1, 2, 3)):
        ids = [f"b{g}/q{i}" for i in range(10)]
        groups[f"b{g}"] = [1] * correct + [0] * (10 - correct), rng.uniform(100, 6000, 10)
        baseline[f"b{g}"] = [0] * 10, rng.uniform(100, 6000, 10)

    def bits():
        report = build_report(groups, baseline)
        values = [report.average_accuracy, report.weighted_average_accuracy,
                  report.average_length_reduction_pct, report.weighted_length_reduction_pct]
        values += [row.mean_length for row in report.rows]
        return [v.hex() for v in values]

    results = []
    for total in (left_to_right, neumaier):
        for module in (evaluation, reporting):
            monkeypatch.setattr(module, "sum", total, raising=False)
        results.append(bits())
    assert results[0] == results[1]
    for correct, lengths in groups.values():
        assert objectives(correct, lengths).mean_length == left_to_right(lengths.tolist()) / 10
    # the sum starts at +0.0, so a column of -0.0 has the mean +0.0, as with sum()
    assert math.copysign(1.0, objectives([0], [-0.0]).mean_length) == 1.0


def test_fitness_orientation():
    better_acc = ObjectiveVector(accuracy=0.9, mean_length=100.0)
    worse_acc = ObjectiveVector(accuracy=0.5, mean_length=100.0)
    assert better_acc.fitness[0] < worse_acc.fitness[0]
    shorter = ObjectiveVector(accuracy=0.5, mean_length=50.0)
    assert shorter.fitness[1] < worse_acc.fitness[1]


@pytest.mark.parametrize(
    "accuracy,mean_length",
    [(0.5, float("nan")), (0.5, float("inf")), (float("nan"), 1.0), (True, 1.0), (0.5, False)],
)
def test_objective_vector_rejects_non_finite_and_boolean(accuracy, mean_length):
    with pytest.raises(ValueError):
        ObjectiveVector(accuracy, mean_length)


def test_numpy_scalars_remain_valid_inputs():
    assert ObjectiveVector(np.float64(0.5), np.int32(7)).fitness == (-0.5, 7)
    bench = bench_of(("s", np.int8(LOGISTIC), np.float64(0.5), np.float32(4), np.int64(9), 0))
    assert bench.a.tolist() == [4.0] and bench.len_long.tolist() == [9.0]
    # numpy columns of other numeric dtypes are stored as int8 codes and float64
    bench = SimulatedBenchmark(["s"], np.array([LOGISTIC], np.uint16), np.array([0.5], np.float32),
                               np.array([4], np.int64), np.array([9.0]), np.zeros(1, np.float16))
    assert bench.kinds.dtype == np.int8 and bench.kinds.tolist() == [LOGISTIC]
    assert all(getattr(bench, name).dtype == np.float64 for name in COLUMNS[1:])


@pytest.mark.parametrize(
    "fields",
    [
        {"t": 1.5},
        {"t": math.nan},
        {"t": True},
        {"a": 0.0},
        {"a": math.inf},
        {"a": math.nan},  # a NaN slope would make the logistic item never solve
        {"a": np.bool_(True)},
        {"len_long": 10.0, "len_short": 20.0},
        {"len_long": math.inf},
        {"len_short": math.nan},
        {"len_short": False},
        {"item_id": ""},
        {"item_id": 7},
    ],
)
def test_benchmark_constructor_rejects_a_bad_item_and_names_it(fields):
    row = {"item_id": "x", "kind": LOGISTIC, "t": 0.5, "a": 1.0,
           "len_long": 100.0, "len_short": 10.0, **fields}
    with pytest.raises(ValueError) as info:
        bench_of(tuple(row.values()))
    assert str(info.value).startswith("item 0: item_id" if "item_id" in fields else "item 0 ('x'): ")


@pytest.mark.parametrize("rows, message", [
    ([("a", UP, 0.1, 1.0, 9.0, 1.0), ("b", UP, 1.5, 1.0, 9.0, 1.0), ("c", UP, 0.1, 0.0, 9.0, 1.0)],
     "item 1 ('b'): t must lie in [0, 1], got 1.5"),
    ([("a", UP, 0.1, 1.0, 9.0, 1.0), ("b", DOWN, 0.1, 1.0, 1.0, 9.0), ("c", UP, 2.0, 1.0, 9.0, 1.0)],
     "item 1 ('b'): need len_long >= len_short >= 0, got 1.0 / 9.0"),
    ([("a", UP, 0.1, 1.0, 9.0, 1.0), ("b", 3, 0.1, 1.0, 9.0, 1.0)],
     "item 1 ('b'): kind must be a code into ('THRESHOLD_UP', 'THRESHOLD_DOWN', 'LOGISTIC'), got 3"),
    ([("a", -1, 0.1, 1.0, 9.0, 1.0)], "item 0 ('a'): kind must be a code into"),
    ([("a", True, 0.1, 1.0, 9.0, 1.0)], "item 0 ('a'): kind must be a code into"),
    ([("a", 0.0, 0.1, 1.0, 9.0, 1.0)], "item 0 ('a'): kind must be a code into"),
    ([("a", UP, math.nan, -1.0, 9.0, 1.0)], "item 0 ('a'): t must be a finite number, got nan"),
    ([("a", UP, "0.5", 1.0, 9.0, 1.0)], "item 0 ('a'): t must be a finite number, got '0.5'"),
    # numpy reads a bool among numbers as 0 or 1; it is refused all the same
    ([("a", UP, 0.5, 1.0, 9.0, 1.0), ("b", UP, True, 1.0, 9.0, 1.0)],
     "item 1 ('b'): t must be a finite number, got True"),
    ([("a", UP, 0.5, 1.0, 9.0, 1.0), ("b", True, 0.5, 1.0, 9.0, 1.0)],
     "item 1 ('b'): kind must be a code into ('THRESHOLD_UP', 'THRESHOLD_DOWN', 'LOGISTIC'), got True"),
    ([("a", UP, 0.5, 1.0, 9.0, 1.0), ("b", UP, 0.5, 1.0, 9.0, np.bool_(False))],
     "item 1 ('b'): len_short must be a finite number, got False"),
    ([("a", UP, 0.1, 1.0, 9.0, 1.0), ("b", UP, 0.2, 1.0, 9.0, 1.0), ("a", UP, 0.3, 1.0, 9.0, 1.0)],
     "item 2: item id 'a' repeats item 0"),
])
def test_benchmark_constructor_names_the_first_bad_item(rows, message):
    with pytest.raises(ValueError) as info:
        bench_of(*rows)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("columns, message", [
    (([0, 0], [0.5, "0.7"], [1.0, 1.0], [9.0, 9.0], [1.0, 1.0]),
     "item 1 ('b'): t must be a finite number, got '0.7'"),
    (([0, "1"], [0.5, 0.5], [1.0, 1.0], [9.0, 9.0], [1.0, 1.0]),
     "item 1 ('b'): kind must be a code into ('THRESHOLD_UP', 'THRESHOLD_DOWN', 'LOGISTIC'), got '1'"),
    (([0, 0], [0.5, 0.5], [1.0, 1.0], [9.0, 9.0], [1.0, np.str_("x")]),
     "item 1 ('b'): len_short must be a finite number, got 'x'"),
    (([0, 0], [0.5, 0.5], [1.0, b"2"], [9.0, 9.0], [1.0, 1.0]),
     "item 1 ('b'): a must be a finite number, got b'2'"),
], ids=["t", "kinds", "len_short-numpy-str", "a-bytes"])
def test_benchmark_constructor_names_the_item_that_holds_a_string(columns, message):
    # numpy reads a number among strings as a string; only the string is refused
    with pytest.raises(ValueError) as info:
        SimulatedBenchmark(["a", "b"], *columns)
    assert str(info.value) == message


@pytest.mark.parametrize("t", [[0.5, [1, 2]], [[0.5], [1, 2]]], ids=["number-and-list", "lists"])
def test_a_ragged_column_is_named_like_any_wrong_length_column(t):
    # numpy cannot give such a column a dtype of its own, so none is asked of it
    with pytest.raises(ValueError, match=r"^t must hold one number per item, got object\[2\]$"):
        SimulatedBenchmark(["a"], [UP], t, [1.0], [9.0], [1.0])


@pytest.mark.parametrize("t", [
    [np.zeros((2, 2)), np.zeros((2, 3))], [np.zeros((2, 3)), np.zeros((2, 1, 3))],
])
def test_a_column_of_unequal_arrays_is_named_like_any_wrong_length_column(t):
    # numpy cannot even lay such a column out as objects
    with pytest.raises(ValueError, match=r"^t must hold one number per item, got object\[2\]$"):
        SimulatedBenchmark(["a", "b"], [UP] * 2, t, [1.0] * 2, [9.0] * 2, [1.0] * 2)


def test_benchmark_columns_have_one_entry_per_item_and_are_read_only():
    with pytest.raises(ValueError, match="benchmark needs at least one item"):
        SimulatedBenchmark([], [], [], [], [], [])
    with pytest.raises(ValueError, match=r"^t must hold one number per item, got float64\[\]$"):
        SimulatedBenchmark(["a"], [UP], 0.5, [1.0], [9.0], [1.0])
    with pytest.raises(ValueError, match=r"^len_short must hold one number per item, got float64\[2\]$"):
        SimulatedBenchmark(["a"], [UP], [0.5], [1.0], [9.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^item 1 \('b'\): a must be a finite number, got None$"):
        SimulatedBenchmark(["a", "b"], [UP] * 2, [0.5] * 2, [1.0, None], [9.0] * 2, [1.0] * 2)
    t = np.array([0.5])
    bench = SimulatedBenchmark(["a"], [UP], t, [1.0], [9.0], [1.0])
    t[0] = 0.9  # the benchmark holds its own copy
    assert bench.t.tolist() == [0.5]
    for name in COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(bench, name)[0] = 0


@pytest.mark.parametrize("len_long, message", [
    ([9, 2**64], None),  # numpy reads this column as objects; each entry is a number
    ([9.0, 10**400], "item 1 ('b'): len_long must be a finite number, got 1" + "0" * 400),
    ([9.0, None], "item 1 ('b'): len_long must be a finite number, got None"),
    (np.array([9.0, None]), "item 1 ('b'): len_long must be a finite number, got None"),
    (np.array([9, 2**64], dtype=object), None),
])
def test_benchmark_constructor_reads_an_object_column_entry_by_entry(len_long, message):
    columns = (["a", "b"], [UP, UP], [0.5, 0.5], [1.0, 1.0], len_long, [1.0, 1.0])
    if message is None:
        assert SimulatedBenchmark(*columns).len_long.tolist() == [9.0, 1.8446744073709552e+19]
    else:
        with pytest.raises(ValueError) as info:
            SimulatedBenchmark(*columns)
        assert str(info.value) == message


NUMBER_FIELDS = COLUMNS[1:]
FLOAT_MAX = sys.float_info.max


def constructor_oracle(ids, columns):
    """The constructor's checks one item and one rule at a time: the message
    for the first rule the first bad item breaks, or the kind codes and the
    float64 columns."""
    values = [[v.item() if isinstance(v, np.generic) else v for v in col] for col in columns]
    for i, iid in enumerate(ids):
        located = f"item {i} ({iid!r}): "
        kind, *numbers = (col[i] for col in values)
        if type(kind) is not int or kind not in range(len(RESPONSE_KINDS)):
            return located + f"kind must be a code into {RESPONSE_KINDS}, got {kind!r}"
        for name, v in zip(NUMBER_FIELDS, numbers):
            if not (type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= FLOAT_MAX):
                return located + f"{name} must be a finite number, got {v!r}"
        t, a, len_long, len_short = map(float, numbers)
        if not 0.0 <= t <= 1.0:
            return located + f"t must lie in [0, 1], got {t!r}"
        if not a > 0:
            return located + f"slope a must be > 0, got {a!r}"
        if not len_long >= len_short >= 0:
            return located + f"need len_long >= len_short >= 0, got {len_long!r} / {len_short!r}"
    return [values[0], *([float(v) for v in col] for col in values[1:])]


# Entries that are numbers, some outside a column's range, of every type the
# constructor reads; and entries that are no number or have no float64 value.
NUMBERS = st.one_of(
    st.sampled_from([0, 1, 0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 9, 2**64]),
    st.floats(-0.5, 1.5), st.integers(-2, 3),
    st.floats(-1.0, 2.0).map(np.float64), st.floats(-1.0, 2.0, width=32).map(np.float32),
    st.integers(-1, 3).map(np.int8), st.integers(0, 3).map(np.uint16),
)
NON_NUMBERS = st.sampled_from([
    math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, np.bool_(True),
    np.bool_(False), np.float64("nan"), np.float32("inf"), "1", "0.5", np.str_("2"), b"1",
    np.bytes_(b"0"), None, 0.0, -1, 3,
])


def one_in_four(rare, common):
    """Entries from ``rare`` one time in four, otherwise from ``common``."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 0 else common)


# Per column: its entries, mostly in range, and the array dtypes it is given as.
COLUMN_ENTRIES = (
    (st.one_of(st.integers(0, 2), st.integers(0, 2).map(np.int8)), (None, object, np.int64, np.int8)),
    (one_in_four(NUMBERS, st.floats(0.0, 1.0)), (None, object, np.float64, np.float32)),
    (one_in_four(NUMBERS, st.floats(0.5, 20.0)), (None, object, np.float64, np.int64)),
    (one_in_four(NUMBERS, st.floats(100.0, 200.0)), (None, object, np.float64, np.int64)),
    (one_in_four(NUMBERS, st.floats(0.0, 100.0)), (None, object, np.float64, np.int64)),
)


@st.composite
def benchmark_columns(draw):
    """Five columns of one length, each a list or a numpy array of mixed entries."""
    n, columns = draw(st.integers(1, 4)), []
    for good, dtypes in COLUMN_ENTRIES:
        entries = draw(st.lists(one_in_four(NON_NUMBERS, good), min_size=n, max_size=n))
        dtype = draw(st.sampled_from([list, *dtypes]))
        if dtype is not list:
            try:
                entries = np.array(entries, dtype=dtype)
            except (TypeError, ValueError, OverflowError):  # numpy refuses to make it
                pass
        columns.append(entries)
    return columns


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(columns=benchmark_columns())
@example(columns=[[0, 0], [0.5, 0.5], [1.0, 1.0], [9, 2**64], [1.0, np.bool_(True)]])
@example(columns=[[0], [np.float64(0.25)], [np.float32(4)], [np.int64(9)], [np.uint16(0)]])
def test_benchmark_constructor_matches_the_per_item_oracle(columns):
    ids = [f"i{k}" for k in range(len(columns[0]))]
    want = constructor_oracle(ids, columns)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            SimulatedBenchmark(ids, *columns)
        assert str(info.value) == want
    else:
        bench = SimulatedBenchmark(ids, *columns)
        assert bench.kinds.dtype == np.int8 and bench.kinds.tolist() == want[0]
        for name, expected in zip(NUMBER_FIELDS, want[1:]):
            col = getattr(bench, name)
            assert col.dtype == np.float64 and [v.hex() for v in col.tolist()] == [v.hex() for v in expected]


# What applies the number rule or converts a number.
NUMBER_CONVERTERS = ("is_json_number", "float", "int", "isfinite", "asarray", "array", "astype",
                     "float64")


def references(source: str, names) -> list[tuple[str, str]]:
    """``(owner, name)`` for each reference to one of ``names``, by name or as an
    attribute, where ``owner`` is the dotted path of the classes and functions
    around it (``""`` at module level); definitions, imports and annotations are
    not references."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}".lstrip(".")
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names:
            found.append((owner, name))
        annotations = {id(getattr(node, "annotation", None)), id(getattr(node, "returns", None))}
        for child in ast.iter_child_nodes(node):
            if id(child) not in annotations:
                visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_only_the_constructor_checks_the_numbers_of_a_benchmark():
    """``SimulatedBenchmark.__init__`` is the one place in ``evaluation`` that
    applies the number rule, and ``load_benchmark`` converts no number, so each
    number of a benchmark file is checked once, by one rule."""
    # The guard fires on a rule or a conversion anywhere, annotations aside.
    sample = (
        "from .x import is_json_number\n"
        "class SimulatedBenchmark:\n"
        "    def __init__(self, t: float):\n"
        "        ok = list(map(is_json_number, t))\n"
        "def load_benchmark(path) -> int:\n"
        "    x = float(entry['t'])\n"
        "    def inner(v):\n"
        "        return evaluation.is_json_number(v) and np.isfinite(v)\n"
        "def is_json_number(v):\n"
        "    return v\n"
    )
    assert references(sample, NUMBER_CONVERTERS) == [
        ("SimulatedBenchmark.__init__", "is_json_number"),
        ("load_benchmark", "float"),
        ("load_benchmark.inner", "is_json_number"),
        ("load_benchmark.inner", "isfinite"),
    ]
    found = references(Path(evaluation.__file__).read_text(encoding="utf-8"), NUMBER_CONVERTERS)
    assert [owner for owner, name in found if name == "is_json_number"] == [
        "SimulatedBenchmark.__init__"]
    assert [(owner, name) for owner, name in found
            if owner.split(".")[0] == "load_benchmark"] == []


def test_default_generator_profile_and_endpoint_invariant():
    bench = generate_benchmark(seed=0)
    assert len(bench) == 1000
    assert np.count_nonzero(bench.kinds == LOGISTIC) == 12

    c0 = bench.correctness_vector(0.0)
    c1 = bench.correctness_vector(1.0)
    is_up = bench.kinds == UP
    is_down = bench.kinds == DOWN
    # descending items: more accurate at lam=0 than lam=1; ascending: reverse
    assert c0[is_down].mean() > c1[is_down].mean()
    assert c0[is_up].mean() < c1[is_up].mean()

    assert (bench.len_long >= bench.len_short).all() and (bench.len_short >= 0).all()


@pytest.mark.parametrize("n_items", [33, 35, 37, 39, 41])
def test_generator_keeps_every_signal_role_where_rounding_overshoots(n_items):
    """The role counts round to one item too many at these sizes; the hard
    (all-fail) role gives it up, and the descending-band item stays."""
    bench = generate_benchmark(seed=0, n_items=n_items)
    flat = bench.t == 0.0
    roles = [(bench.kinds == UP) & flat, (bench.kinds == DOWN) & flat,
             (bench.kinds == UP) & ~flat, (bench.kinds == DOWN) & ~flat, bench.kinds == LOGISTIC]
    half = (n_items - 1) // 2
    assert [int(np.count_nonzero(r)) for r in roles] == [half, half - 1, 1, 1, 0]
    assert UP_BAND[0] <= bench.t[roles[2]][0] < UP_BAND[1]
    assert DOWN_BAND[0] <= bench.t[roles[3]][0] < DOWN_BAND[1]


def test_default_generator_interior_accuracy_optimum():
    bench = generate_benchmark(seed=0)
    lams = np.linspace(0.01, 1.0, 100)
    accs = np.array([bench.correctness_vector(float(l)).mean() for l in lams])
    peak = int(np.argmax(accs))
    assert 0 < peak < len(lams) - 1
    assert accs[peak] > accs[0] and accs[peak] > accs[-1]


def test_benchmark_serialization_round_trip(tmp_path):
    bench = generate_benchmark(seed=2, n_items=40)
    path = tmp_path / "bench.json"
    save_benchmark(bench, path)
    payload = json.loads(path.read_text())
    assert isinstance(payload, list) and len(payload) == 40

    loaded = load_benchmark(path, noise_seed=bench.noise_seed)
    assert_same_items(loaded, bench)
    for lam in (0.0, 0.33, 1.0):
        assert np.array_equal(loaded.correctness_vector(lam), bench.correctness_vector(lam))


@pytest.mark.parametrize("seed, n_items, digest", [
    (0, 1000, "5a99df7aa8d85b5b"),
    (3, 40, "c07d00cf9dba3ca5"),
])
def test_saved_benchmark_bytes_are_pinned_and_survive_a_reload(tmp_path, seed, n_items, digest):
    path = tmp_path / "bench.json"
    save_benchmark(generate_benchmark(seed=seed, n_items=n_items), path)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
    save_benchmark(load_benchmark(path), path)
    assert path.read_bytes() == blob


@pytest.mark.parametrize("field, raw, message", [
    ("item_id", "7", "item 1: item_id must be a non-empty string, got 7"),
    ("item_id", '""', "item 1: item_id must be a non-empty string, got ''"),
    ("item_id", '"q0"', "item 1: item id 'q0' repeats item 0"),
    ("response_kind", '"SIGMOID"', "item 1: response_kind must be one of "
     "THRESHOLD_UP, THRESHOLD_DOWN, LOGISTIC, got 'SIGMOID'"),
    ("response_kind", "2", "item 1: response_kind must be one of"),
    ("t", "1.5", "item 1 ('q1'): t must lie in [0, 1], got 1.5"),
    ("a", "-2", "item 1 ('q1'): slope a must be > 0, got -2.0"),
    ("len_short", "600", "item 1 ('q1'): need len_long >= len_short >= 0, got 500.0 / 600.0"),
])
def test_load_benchmark_locates_a_bad_item(tmp_path, field, raw, message):
    good = {"item_id": "q0", "response_kind": "LOGISTIC", "t": 0.5, "a": 4.0,
            "len_long": 500.0, "len_short": 100.0}
    bad = json.dumps({**good, "item_id": "q1", field: "@"}).replace('"@"', raw)
    path = tmp_path / "bench.json"
    path.write_text(f"[{json.dumps(good)}, {bad}]")
    with pytest.raises(ValueError) as info:
        load_benchmark(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_benchmark_malformed_entry(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[{"item_id": "a", "response_kind": "THRESHOLD_UP"}]')
    with pytest.raises(ValueError, match="item 0"):
        load_benchmark(path)
    path.write_text('{"not": "an array"}')
    with pytest.raises(ValueError, match="array"):
        load_benchmark(path)
    path.write_text("[5]")
    with pytest.raises(ValueError, match="item 0: item must be an object"):
        load_benchmark(path)


@pytest.mark.parametrize(
    "field,raw",
    [
        ("t", "true"),
        ("t", '"0.5"'),
        ("t", "NaN"),
        ("a", "Infinity"),
        ("a", "NaN"),
        ("a", "null"),
        ("len_long", '"Infinity"'),
        ("len_long", "Infinity"),
        ("len_short", "false"),
        pytest.param("len_long", "1" + "0" * 400, id="len_long-beyond-float64"),
    ],
)
def test_load_benchmark_rejects_non_numbers_and_non_finite(tmp_path, field, raw):
    good = {"item_id": "q0", "response_kind": "LOGISTIC", "t": 0.5, "a": 4.0,
            "len_long": 500.0, "len_short": 100.0}
    bad = json.dumps({**good, "item_id": "q1", field: "@"}).replace('"@"', raw)
    path = tmp_path / "bench.json"
    path.write_text(f"[{json.dumps(good)}, {bad}]")
    with pytest.raises(ValueError, match=rf"item 1 \('q1'\): {field} must be a finite number"):
        load_benchmark(path)


@pytest.mark.parametrize("second, third, message", [
    ({"t": True}, {}, "item 1 ('q1'): t must be a finite number, got True"),
    # the constructor checks every id before any number
    ({"t": True}, {"item_id": "q0"}, "item 2: item id 'q0' repeats item 0"),
    ({"item_id": "q\ud800"}, {},
     "item 1 ('q\\ud800'): a logistic item's id must encode as UTF-8 (surrogates not allowed)"),
    ({"item_id": "q\ud800", "response_kind": "THRESHOLD_UP"}, {"a": None},
     "item 2 ('q2'): a must be a finite number, got None"),
])
def test_load_benchmark_leaves_the_values_to_the_constructor(tmp_path, second, third, message):
    good = {"item_id": "q0", "response_kind": "LOGISTIC", "t": 0.5, "a": 4.0,
            "len_long": 500.0, "len_short": 100.0}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps([good, {**good, "item_id": "q1", **second},
                                {**good, "item_id": "q2", **third}]))
    with pytest.raises(ValueError) as info:
        load_benchmark(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_records_grouping(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 120}\n'
        '{"candidate_id": "m0", "item_id": "q2", "correct": 0, "length": 80.5}\n'
    )
    recs = load_record_evaluations(path)
    assert list(recs) == ["m0"]
    rows = recs["m0"]
    assert items_of(recs, rows) == ["q1", "q2"]
    assert recs.correct[rows].tolist() == [1, 0]
    assert recs.length[rows].tolist() == [120.0, 80.5]
    assert recs == recs and recs != load_record_evaluations(path)  # tables compare by identity


@pytest.mark.parametrize(
    "line,match",
    [
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 2, "length": 1}', "0 or 1"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1}', "missing field"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": -3}', ">= 0"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": true, "length": 5}', "line 1: corr"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": NaN}', "line 1: len"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": Infinity}', "finite"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": -Infinity}', "finite"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": true}', "finite"),
        ('{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": "12"}', "finite"),
        ('{"candidate_id": "m0", "item_id": "", "correct": 1, "length": 1}', "non-empty"),
        ("{not json", "invalid JSON"),
        pytest.param(  # an integer beyond the float64 range has no column value
            '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 1' + "0" * 400 + "}",
            "line 1: length must be a finite number >= 0", id="length-beyond-float64"),
        pytest.param(  # an integer literal over the digit limit fails json.loads itself
            '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 1' + "0" * 4300 + "}",
            "line 1: invalid JSON: Exceeds the limit", id="length-over-digit-limit"),
    ],
)
def test_load_records_malformed_lines(tmp_path, line, match):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(RecordFormatError, match=match):
        load_record_evaluations(path)


_record_ids = st.text(min_size=1, max_size=5)


@st.composite
def record_lines(draw):
    """Lines of a valid record file: unique (candidate, item) pairs, varied
    number types and spacing, blank lines and an ignored extra field."""
    cands = st.one_of(st.sampled_from(["m0", "m1", "ta-0a1b"]), _record_ids)
    keys = draw(st.lists(st.tuples(cands, _record_ids), unique=True, max_size=25))
    lines = []
    for cand, iid in keys:
        record = {
            "candidate_id": cand,
            "item_id": iid,
            "correct": draw(st.sampled_from([0, 1, 0.0, 1.0])),
            "length": draw(st.one_of(
                st.integers(0, 10**6),
                st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
            )),
        }
        if draw(st.booleans()):
            record["note"] = "ignored"
        separators = draw(st.sampled_from([(", ", ": "), (",", ":")]))
        lines += [""] * draw(st.integers(0, 1))
        lines.append(" " * draw(st.integers(0, 2)) + json.dumps(record, separators=separators))
    return lines


def reference_columns(lines):
    """The oracle: one ``json.loads`` per non-blank line, grouped by candidate."""
    columns = {}
    for line in lines:
        if line.strip():
            rec = json.loads(line)
            ids, correct, lengths = columns.setdefault(rec["candidate_id"], ([], [], []))
            ids.append(rec["item_id"])
            correct.append(int(rec["correct"]))
            lengths.append(float(rec["length"]))
    return columns


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=record_lines(), newline=st.sampled_from(["\n", "\r\n"]))
def test_load_records_matches_per_line_reference_property(tmp_path, lines, newline):
    path = tmp_path / "records.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    assert_same_outcomes(load_record_evaluations(path), reference_columns(lines))


_BAD_RECORD = '{"candidate_id": "m0", "item_id": "x", "correct": %s, "length": %s}'
BAD_LINES = [
    ("{not json", None),
    ("[1, 2]", "record must be an object"),
    ('{"candidate_id": "m0", "item_id": "x"}', "missing field(s) correct, length"),
    ('{"candidate_id": "m0", "item_id": "", "correct": 1, "length": 1}',
     "candidate_id and item_id must be non-empty strings"),
    (_BAD_RECORD % ("2", "1"), "correctness must be 0 or 1, got 2"),
    (_BAD_RECORD % ("true", "1"), "correctness must be 0 or 1, got True"),
    (_BAD_RECORD % ("1", "-1"), "length must be a finite number >= 0, got -1"),
    (_BAD_RECORD % ("1", "NaN"), "length must be a finite number >= 0, got nan"),
    (_BAD_RECORD % ("1", "Infinity"), "length must be a finite number >= 0, got inf"),
    (_BAD_RECORD % ("1", '"5"'), "length must be a finite number >= 0, got '5'"),
]


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=record_lines(), data=st.data())
def test_load_records_injected_bad_line_property(tmp_path, lines, data):
    records = [i for i, line in enumerate(lines) if line.strip()]
    kinds = len(BAD_LINES) + (1 if records else 0)  # the last kind repeats a record
    kind = data.draw(st.integers(0, kinds - 1))
    if kind == len(BAD_LINES):
        copied = data.draw(st.sampled_from(records))
        pos = data.draw(st.integers(copied + 1, len(lines)))
        rec = json.loads(lines[copied])
        bad = lines[copied]
        message = (f"duplicate record for candidate {rec['candidate_id']!r}, "
                   f"item {rec['item_id']!r}")
    else:
        pos = data.draw(st.integers(0, len(lines)))
        bad, message = BAD_LINES[kind]
        if message is None:
            with pytest.raises(json.JSONDecodeError) as info:
                json.loads(bad)
            message = f"invalid JSON: {info.value}"
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines[:pos] + [bad] + lines[pos:]) + "\n", encoding="utf-8")
    with pytest.raises(RecordFormatError) as info:
        load_record_evaluations(path)
    assert str(info.value) == f"{path}: line {pos + 1}: {message}"


# Record lines that the per-line parser must treat exactly as json.loads does.
# Padding of characters str.strip removes (JSON whitespace among them) is
# valid around a record and invalid inside one; the bad values include NaN
# and integer literals past float64 and past the digit limit.
_PADDING = st.text(st.sampled_from(" \t\r\x0c\x1c\x85\u3000\u2028"), max_size=2)
_GOOD_VALUES = {
    "candidate_id": ['"m0"', '"m1"', '"m2"', '"m3"'],
    "item_id": ['"q0"', '"q1"', '"q2"', '"q3"', '"q4"', '"q5"'],
    "correct": ["0", "1", "0.0", "1.0", "1e0", "-0.0"],
    "length": ["0", "12", "3.5", "1e3", "1" + "0" * 300],
}
_BAD_VALUES = {
    "candidate_id": ['""', "7", "null"],
    "item_id": ['""', "[]"],
    "correct": ["true", "2", "NaN"],
    "length": ["-1", '"5"', "NaN", "Infinity", "-Infinity", "true",
               "1" + "0" * 400, "1" + "0" * 4300],
}
_FLAWS = [None] * 8 + ["value", "missing", "non-object", "bom", "trailing", "inner-padding"]


@st.composite
def mixed_record_lines(draw):
    """A valid record line, or (one time in four) one with a single flaw."""
    fields = {k: draw(st.sampled_from(v)) for k, v in _GOOD_VALUES.items()}
    flaw = draw(st.sampled_from(_FLAWS))
    if flaw == "value":
        field = draw(st.sampled_from(sorted(_BAD_VALUES)))
        fields[field] = draw(st.sampled_from(_BAD_VALUES[field]))
    elif flaw == "missing":
        del fields[draw(st.sampled_from(sorted(fields)))]
    if draw(st.booleans()):
        fields["note"] = '"ignored"'
    inner = draw(_PADDING.filter(lambda pad: pad.strip(" \t\r"))) if flaw == "inner-padding" else ""
    body = "{" + inner + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    if flaw == "non-object":
        body = draw(st.sampled_from(["[1, 2]", '"x"', "3", "null", "{not json"]))
    elif flaw == "bom":
        body = "\ufeff" + body
    elif flaw == "trailing":
        body += draw(st.sampled_from([" x", "{}", " 1", "}", "\x0c}"]))
    return draw(_PADDING) + body + draw(_PADDING)


def load_outcome(load, path):
    """The loaded records, or the message of the ``RecordFormatError`` raised."""
    try:
        return load(path)
    except RecordFormatError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(mixed_record_lines(), max_size=8), final_newline=st.booleans())
@example(lines=["\u3000" + _BAD_RECORD % ("1", "12"), _BAD_RECORD % ("1", "1" + "0" * 4300)],
         final_newline=True)  # over the digit limit, after a padded record
@example(lines=["\x1c" + _BAD_RECORD % ("1", "NaN") + "\x0c"], final_newline=False)
def test_load_records_matches_the_json_loads_oracle_property(tmp_path, lines, final_newline):
    path = tmp_path / "records.jsonl"
    path.write_bytes(("\n".join(lines) + ("\n" if final_newline else "")).encode("utf-8"))
    got, want = load_outcome(load_record_evaluations, path), load_outcome(reference_load, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_outcomes(got, want)


def test_load_records_duplicate_pair(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 1}\n'
        '{"candidate_id": "m0", "item_id": "q1", "correct": 0, "length": 2}\n'
    )
    with pytest.raises(RecordFormatError, match="duplicate record.*m0.*q1"):
        load_record_evaluations(path)


def assert_same_outcomes(table, expected):
    """The candidate ids of ``expected`` (``(item_ids, correct, lengths)``
    lists per candidate) in the same order, each one's rows in record order
    holding those values, in int8 and float64 columns."""
    assert table.correct.dtype == np.int8 and table.length.dtype == np.float64
    assert list(table) == list(expected)
    for cand, (ids, correct, lengths) in expected.items():
        rows = table[cand]
        assert (np.diff(rows) > 0).all()
        assert items_of(table, rows) == ids
        assert table.correct[rows].tolist() == correct
        assert table.length[rows].tolist() == lengths


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=record_lines(), newline=st.sampled_from(["\n", "\r\n"]),
       final_newline=st.booleans(), data=st.data())
def test_load_records_resume_index_matches_full_parse_property(
    tmp_path, lines, newline, final_newline, data
):
    """Cut a valid file at a newline, index the prefix, then load the whole
    file through that index: the result is the slow oracle's."""
    cut = data.draw(st.integers(0, len(lines)))
    head = "".join(line + newline for line in lines[:cut]).encode("utf-8")
    rest = newline.join(lines[cut:]) + (newline if final_newline and lines[cut:] else "")
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    index.unlink(missing_ok=True)

    path.write_bytes(head)
    assert_same_outcomes(load_record_evaluations(path), reference_load(path))
    assert index.exists() == bool(head)

    path.write_bytes(head + rest.encode("utf-8"))
    assert_same_outcomes(load_record_evaluations(path), reference_load(path))
    # The index now covers the whole file, and is the one a fresh parse writes.
    resumed = index.read_bytes() if index.exists() else None
    index.unlink(missing_ok=True)
    load_record_evaluations(path)
    assert index.exists() == path.read_bytes().endswith(b"\n")
    if index.exists():
        assert index.read_bytes() == resumed


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=record_lines(), newline=st.sampled_from(["\n", "\r\n"]), data=st.data())
def test_load_records_resume_index_bad_tail_line_property(tmp_path, lines, newline, data):
    """A bad line or a repeated record after the indexed prefix raises the
    slow oracle's exact message and line number, and leaves the index alone."""
    records = [i for i, line in enumerate(lines) if line.strip()]
    cut = data.draw(st.integers(0, len(lines)))
    kinds = len(BAD_LINES) + (1 if records else 0)  # the last kind repeats a record
    kind = data.draw(st.integers(0, kinds - 1))
    if kind == len(BAD_LINES):
        copied = data.draw(st.sampled_from(records))  # in the prefix or earlier in the tail
        pos = data.draw(st.integers(max(cut, copied + 1), len(lines)))
        rec = json.loads(lines[copied])
        bad = lines[copied]
        message = (f"duplicate record for candidate {rec['candidate_id']!r}, "
                   f"item {rec['item_id']!r}")
    else:
        pos = data.draw(st.integers(cut, len(lines)))
        bad, message = BAD_LINES[kind]
        if message is None:
            with pytest.raises(json.JSONDecodeError) as info:
                json.loads(bad)
            message = f"invalid JSON: {info.value}"
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    index.unlink(missing_ok=True)
    path.write_bytes("".join(line + newline for line in lines[:cut]).encode("utf-8"))
    load_record_evaluations(path)
    indexed = index.read_bytes() if index.exists() else None

    with_bad = lines[:pos] + [bad] + lines[pos:]
    path.write_bytes("".join(line + newline for line in with_bad).encode("utf-8"))
    with pytest.raises(RecordFormatError) as oracle:
        reference_load(path)
    with pytest.raises(RecordFormatError) as resumed:
        load_record_evaluations(path)
    assert str(resumed.value) == str(oracle.value) == f"{path}: line {pos + 1}: {message}"
    assert (index.read_bytes() if index.exists() else None) == indexed


def _record(cand, item, correct=1, length=100):
    return json.dumps({"candidate_id": cand, "item_id": item, "correct": correct,
                       "length": length}) + "\n"


GRID = "".join(_record(f"m{c}", f"q{i}", (c + i) % 2, 100 + 10 * c + i)
               for c in range(3) for i in range(4))
MORE = "".join(_record(f"m{c}", f"q{i}", 1, 7) for c in (2, 3) for i in (4, 5))


def _index_then_load(tmp_path, indexed: str, now: str, damage=None):
    """Index ``indexed``, make the file ``now`` (and apply ``damage`` to the
    index), then load with the index; returns (resumed result, oracle result)."""
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    path.write_text(indexed)
    load_record_evaluations(path)
    assert index.exists()
    path.write_text(now)
    if damage is not None:
        damage(index)
    return load_record_evaluations(path), reference_load(path)


def _flip_digit(text: str) -> str:
    pos = text.index('"length": 1') + len('"length": ')
    return text[:pos] + "9" + text[pos + 1:]


@pytest.mark.parametrize("indexed,now", [
    pytest.param(GRID, _flip_digit(GRID) + MORE, id="prefix-byte-edited"),
    pytest.param(GRID + MORE, GRID, id="truncated-at-line"),
    pytest.param(GRID + MORE, GRID.replace('"correct": 1', '"correct": 0', 1), id="truncated-and-edited"),
    pytest.param(GRID, GRID.replace('"correct": 1', '"correct": 0', 1), id="same-size-replaced"),
    pytest.param(GRID + MORE, MORE, id="index-claims-more-bytes-than-the-file"),
])
def test_load_records_stale_index_means_full_parse(tmp_path, indexed, now):
    resumed, oracle = _index_then_load(tmp_path, indexed, now)
    assert_same_outcomes(resumed, oracle)


def _flip_bit(blob: bytes, pos: int) -> bytes:
    flipped = bytearray(blob)
    flipped[pos] ^= 1
    return bytes(flipped)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda index: index.write_bytes(b"not an index\n" * 50), id="garbage"),
    pytest.param(lambda index: index.write_bytes(b""), id="empty"),
    pytest.param(lambda index: index.write_bytes(index.read_bytes()[:100]), id="cut-short"),
    pytest.param(lambda index: index.write_bytes(index.read_bytes()[:-1]), id="last-byte-cut"),
    pytest.param(lambda index: index.write_bytes(_flip_bit(index.read_bytes(), -20)),
                 id="length-bit-flipped"),  # in the last length, before the checksum
])
def test_load_records_unreadable_index_means_full_parse(tmp_path, damage):
    resumed, oracle = _index_then_load(tmp_path, GRID, GRID + MORE, damage)
    assert_same_outcomes(resumed, oracle)


@pytest.mark.parametrize("item_ids", [
    pytest.param(["q0", "q0", "q2", "q3"], id="repeated-id"),
    pytest.param(["q0", "", "q2", "q3"], id="empty-id"),
    pytest.param("q0q1q2q3", id="non-list"),
])
def test_load_records_forged_id_table_means_full_parse(tmp_path, item_ids):
    """A re-checksummed index whose item table breaks the id rule is not read."""
    def forge(index):
        columns, digest = RecordTable.from_index(index.read_bytes())
        index.write_bytes(dataclasses.replace(columns, item_ids=item_ids).to_index(digest))

    resumed, oracle = _index_then_load(tmp_path, GRID, GRID + MORE, forge)
    assert_same_outcomes(resumed, oracle)


def _covered_bytes(index) -> int:
    return RecordTable.from_index(index.read_bytes())[0].nbytes


def test_load_records_index_covers_only_newline_terminated_files(tmp_path):
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    unterminated = _record("m9", "q0").rstrip("\n")
    path.write_text(GRID + unterminated)
    load_record_evaluations(path)
    assert not index.exists()

    path.write_text(GRID)
    load_record_evaluations(path)
    assert _covered_bytes(index) == len(GRID)
    path.write_text(GRID + unterminated)
    assert_same_outcomes(load_record_evaluations(path), reference_load(path))
    assert _covered_bytes(index) == len(GRID)  # the unfinished last line is not covered

    # The harness finishes the line and appends more: the index is still reused.
    path.write_text(GRID + unterminated + "\n" + MORE)
    assert_same_outcomes(load_record_evaluations(path), reference_load(path))
    assert _covered_bytes(index) == len(GRID + unterminated + "\n" + MORE)


def test_load_records_failed_parse_writes_no_index(tmp_path):
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    path.write_text(GRID + "{not json\n")
    with pytest.raises(RecordFormatError, match="line 13: invalid JSON"):
        load_record_evaluations(path)
    assert not index.exists()

    path.write_text(GRID)
    load_record_evaluations(path)
    before = index.read_bytes()
    path.write_text(GRID + MORE + _record("m0", "q0"))  # a repeat of line 1
    with pytest.raises(RecordFormatError, match="line 17: duplicate record for candidate 'm0'"):
        load_record_evaluations(path)
    assert index.read_bytes() == before


def test_load_records_invalid_utf8_is_located_and_writes_no_index(tmp_path):
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    bad = _record("m0", "q9").encode().replace(b"q9", b"q\xff")
    located = rf"^{re.escape(str(path))}: line 13: not valid UTF-8: .* byte 0xff in position 36"
    path.write_bytes(GRID.encode() + bad)
    with pytest.raises(RecordFormatError, match=located):  # a fresh parse
        load_record_evaluations(path)
    assert not index.exists()

    path.write_text(GRID)
    load_record_evaluations(path)
    before = index.read_bytes()
    path.write_bytes(GRID.encode() + bad)
    with pytest.raises(RecordFormatError, match=located):  # resumed after line 12
        load_record_evaluations(path)
    assert index.read_bytes() == before


def test_load_records_resume_parses_only_the_tail(tmp_path, monkeypatch):
    from paretomerge import evaluation

    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    path.write_text(GRID)
    load_record_evaluations(path)
    path.write_text(GRID + MORE)
    calls = []
    decode = evaluation._decode
    monkeypatch.setattr(evaluation, "_decode", lambda line: calls.append(line) or decode(line))
    resumed = load_record_evaluations(path)
    monkeypatch.undo()
    assert calls == [line.strip() for line in MORE.splitlines()]
    assert_same_outcomes(resumed, reference_load(path))


@pytest.mark.parametrize("tail, error", [
    # GRID holds m0, m1 and m2; m3 is new to the tail
    pytest.param(_record("m3", "q0") + _record("m0", "q9"), None, id="prefix-candidate-new-item"),
    pytest.param(_record("m3", "q0") + _record("m1", "q2"),
                 "line 14: duplicate record for candidate 'm1', item 'q2'",
                 id="prefix-candidate-prefix-item"),
    pytest.param(_record("m3", "q0") + _record("m3", "q0"),
                 "line 14: duplicate record for candidate 'm3', item 'q0'",
                 id="new-candidate-repeated-in-tail"),
    pytest.param(_record("m0", "q9") + _record("m3", "q0") + _record("m2", "q3"),
                 "line 15: duplicate record for candidate 'm2', item 'q3'",
                 id="second-prefix-candidate-prefix-item"),
])
def test_load_records_resumed_duplicates_against_the_prefix(tmp_path, tail, error):
    """A tail record of a candidate first seen in the prefix is checked
    against the prefix records; the outcome is the fresh parse's."""
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    path.write_text(GRID)
    load_record_evaluations(path)
    path.write_text(GRID + tail)
    resumed = load_outcome(load_record_evaluations, path)
    fresh = load_outcome(reference_load, path)
    if error is None:
        assert_same_outcomes(resumed, fresh)
    else:
        assert resumed == fresh == f"{path}: {error}"


def _earlier_format_index(index, prefix: bytes, flip_correct=False) -> bytes:
    """The index an earlier version wrote for ``prefix``: magic ``PMRIDX1``
    and a blake2b prefix digest (or, with ``flip_correct``, a sha256 digest
    and the first record's correctness flipped, so reading it would show)."""
    from paretomerge.evaluation import _CHECKSUM_SIZE, _INDEX_HEAD

    columns, _ = RecordTable.from_index(index.read_bytes())
    if flip_correct:
        correct = columns.correct.copy()
        correct[0] ^= 1
        columns = dataclasses.replace(columns, correct=correct)
        digest = hashlib.sha256(prefix).digest()
    else:
        digest = hashlib.blake2b(prefix, digest_size=32).digest()
    blob = columns.to_index(digest)
    head = _INDEX_HEAD.unpack_from(blob)
    assert head[0] == b"PMRIDX2\n"
    body = _INDEX_HEAD.pack(b"PMRIDX1\n", *head[1:]) + blob[_INDEX_HEAD.size:-_CHECKSUM_SIZE]
    return body + hashlib.blake2b(body, digest_size=_CHECKSUM_SIZE).digest()


@pytest.mark.parametrize("flip_correct", [False, True], ids=["as-written", "sha256-forged"])
def test_load_records_earlier_index_format_is_ignored_and_rewritten(tmp_path, flip_correct):
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    path.write_text(GRID)
    load_record_evaluations(path)
    index.write_bytes(_earlier_format_index(index, GRID.encode(), flip_correct))
    path.write_text(GRID + MORE)
    assert_same_outcomes(load_record_evaluations(path), reference_load(path))
    rewritten = index.read_bytes()
    index.unlink()
    load_record_evaluations(path)  # a fresh parse
    assert index.read_bytes() == rewritten
    assert rewritten.startswith(b"PMRIDX2\n")


def test_candidate_id_stable_and_distinct():
    g1 = Genotype(MergeKind.TA, (0.5,))
    g2 = Genotype(MergeKind.TA, (0.5,))
    g3 = Genotype(MergeKind.TA, (0.5000001,))
    assert candidate_id(g1) == candidate_id(g2)
    assert candidate_id(g1) != candidate_id(g3)
    assert candidate_id(g1).startswith("ta-")


def test_manifest_round_trip(tmp_path):
    gs = [Genotype(MergeKind.TA, (0.25,)), Genotype(MergeKind.TIES, (0.5, 0.8))]
    path = tmp_path / "manifest.jsonl"
    pending = [(candidate_id(g), g) for g in gs]
    write_manifest(path, pending)
    assert read_manifest(path) == pending


def test_simulated_fitness_subset_and_kind_check():
    bench = bench_of(up("a", 0.4, ll=800, ls=200), up("b", 0.6, ll=400, ls=100), down("c", 0.5))
    fit = SimulatedFitness(bench, subset_ids=["a", "b"])
    ov = fit.evaluate(Genotype(MergeKind.TA, (0.5,)))
    assert ov.accuracy == 0.5  # a solved, b not
    assert ov.mean_length == pytest.approx((500 + 250) / 2)
    with pytest.raises(GenotypeError):
        fit.evaluate(Genotype(MergeKind.TIES, (0.5, 1.0)))


# Enough items for subsets on both sides of numpy's 8-element unrolled sum
# and its 128-element pairwise blocks, with thresholds inside (0, 1).
PAIRWISE_BENCH = generate_benchmark(seed=3, n_items=400)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    size=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 400])
    | st.integers(1, len(PAIRWISE_BENCH)),
    lam=st.sampled_from(sorted(set(PAIRWISE_BENCH.t.tolist()) | {1.0})) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_at_reductions_are_the_bits_of_mean(size, lam, seed):
    """``evaluate_at``'s count and sum reductions give ``np.mean``'s bits, at
    any subset size and at lambda exactly on an item's threshold."""
    bench = PAIRWISE_BENCH
    order = np.random.default_rng(seed).permutation(len(bench)).tolist()
    fit = SimulatedFitness(bench, [bench.item_ids[i] for i in order[:size]])
    correct = bench.correctness_vector(lam)[fit.subset_indices]
    lengths = bench.length_vector(lam)[fit.subset_indices]
    ov = fit.evaluate_at(lam)
    assert ov.accuracy.hex() == float(correct.mean()).hex()
    assert ov.mean_length.hex() == float(lengths.mean()).hex()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    size=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 257, 400]) | st.integers(1, len(PAIRWISE_BENCH)),
    lams=st.lists(st.sampled_from([0.0, 1.0, -0.0, *BUCKET_EDGES]) | st.floats(0.0, 1.0)
                  | st.sampled_from(PAIRWISE_BENCH.t.tolist()), min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulated_batch_is_its_one_row_results(size, lams, seed):
    """A ``SimulatedFitness`` batch gives, bit for bit, the objective vectors of
    its genotypes scored one at a time, and of ``evaluate_at``; one batch makes
    one ``correctness_vector`` call, and an empty batch none."""
    bench = PAIRWISE_BENCH
    order = np.random.default_rng(seed).permutation(len(bench)).tolist()
    fit = SimulatedFitness(bench, [bench.item_ids[i] for i in order[:size]])
    calls = []
    fit.bench = type("Counting", (), {"__len__": lambda _: len(bench), "correctness_vector": lambda _, lam: (
        calls.append(np.ndim(lam)), bench.correctness_vector(lam))[1]})()
    genotypes = [Genotype(MergeKind.TA, (lam,)) for lam in lams]
    batch = fit.evaluate_population(genotypes)
    assert calls == [1] and fit.evaluate_population([]) == [] and calls == [1]
    bits = [(o.accuracy.hex(), o.mean_length.hex()) for o in batch]
    assert bits == [(o.accuracy.hex(), o.mean_length.hex()) for o in map(fit.evaluate, genotypes)]
    assert bits == [(o.accuracy.hex(), o.mean_length.hex()) for o in map(fit.evaluate_at, lams)]


def test_simulated_batch_names_the_first_candidate_whose_mean_length_overflows():
    bench = bench_of(up("a", 0.5, ll=1e308, ls=0.0), up("b", 0.5, ll=1e308, ls=0.0))
    fit = SimulatedFitness(bench)
    # The two lengths, 1e308 * (1 - lam) each, sum past the float64 range at lam <= 0.1.
    genotypes = [Genotype(MergeKind.TA, (lam,)) for lam in (0.9, 0.1, 0.0)]
    with pytest.raises(ValueError) as info:
        fit.evaluate_population(genotypes)
    assert str(info.value) == (f"candidate {candidate_id(genotypes[1])!r}: "
                               "mean_length must be a finite number >= 0, got inf")
    assert fit.evaluate_population(genotypes[:1])[0].mean_length == pytest.approx(1e307)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(bench=simulated_benchmarks(), block=st.integers(1, 40),
       lams=st.lists(lambdas | st.sampled_from([-0.0, *BUCKET_EDGES]), min_size=1, max_size=30))
@example(bench=logistic_bench([f"l{i}" for i in range(12)], 5), block=13, lams=[0.5] * 7 + BUCKET_EDGES)
def test_a_batch_over_several_blocks_has_the_one_block_bits(bench, block, lams):
    """With blocks of ``block`` cells, a batch over several blocks gives the rows
    and objective vectors of the same batch scored as one block, and
    ``SimulatedFitness`` hands ``correctness_vector`` one block of rows per call."""
    assert len(lams) * len(bench) <= evaluation._BLOCK_CELLS  # the default is one block
    fit = SimulatedFitness(bench)
    rows, pairs = bench.correctness_vector(np.array(lams)), fit._objectives(lams)
    step = max(1, block // len(bench))
    calls = []
    fit.bench = type("Counting", (), {"__len__": lambda _: len(bench), "correctness_vector": lambda _, lam: (
        calls.append(len(lam)), bench.correctness_vector(lam))[1]})()
    with unittest.mock.patch.object(evaluation, "_BLOCK_CELLS", block):
        assert np.array_equal(bench.correctness_vector(np.array(lams)), rows)
        got = fit._objectives(lams)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in pairs]
    assert calls == [min(step, len(lams) - i) for i in range(0, len(lams), step)]


def test_a_batch_of_logistic_items_allocates_one_block_at_a_time():
    """A batch's peak allocation is bounded by the block, not by batch x items:
    400 coefficients on 500 logistic items is 200,000 cells, about 30 MB if
    scored at once."""
    import tracemalloc

    bench = logistic_bench([f"l{i}" for i in range(500)], 3)
    fit, lams = SimulatedFitness(bench), np.linspace(0.0, 1.0, 400).tolist()
    with unittest.mock.patch.object(evaluation, "_BLOCK_CELLS", 5_000):
        tracemalloc.start()
        try:
            fit._objectives(lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_records_fitness_resolution_and_errors(tmp_path):
    g_known = Genotype(MergeKind.TA, (0.5,))
    g_missing = Genotype(MergeKind.TA, (0.75,))
    records = record_table(tmp_path, [(candidate_id(g_known), "q1", 1, 100.0),
                                      (candidate_id(g_known), "q2", 0, 300.0)])
    fit = RecordsFitness(records, subset_ids=["q1", "q2"])
    ov = fit.evaluate(g_known)
    assert ov.accuracy == 0.5 and ov.mean_length == 200.0

    with pytest.raises(MissingCandidatesError):
        fit.evaluate(g_missing)

    batch_err = None
    try:
        fit.evaluate_population([g_known, g_missing, Genotype(MergeKind.TA, (0.9,))])
    except MissingCandidatesError as exc:
        batch_err = exc
    assert batch_err is not None and len(batch_err.pending) == 2

    # the batch names each missing candidate once
    with pytest.raises(MissingCandidatesError) as info:
        fit.evaluate_population([g_missing, g_known, g_missing])
    assert info.value.pending == [(candidate_id(g_missing), g_missing)]

    narrow = RecordsFitness(records, subset_ids=["q1", "q9"])
    with pytest.raises(RecordFormatError, match="q9"):
        narrow.evaluate(g_known)
    # the message names the first five missing items and counts the rest
    wide = RecordsFitness(records, subset_ids=["q2", *(f"x{i}" for i in range(7)), "q1"])
    with pytest.raises(RecordFormatError) as info:
        wide.evaluate(g_known)
    assert str(info.value) == (f"candidate {candidate_id(g_known)!r} has no record for item(s): "
                               "x0, x1, x2, x3, x4 (+2 more)")


def test_records_fitness_resolves_its_subset_once(tmp_path, monkeypatch):
    g = Genotype(MergeKind.TA, (0.5,))
    table = record_table(tmp_path, [(candidate_id(g), f"q{i}", i % 2, 10.0 * i) for i in range(4)])
    calls, codes_of = [], RecordTable.codes_of
    monkeypatch.setattr(RecordTable, "codes_of",
                        lambda self, ids: calls.append(list(ids)) or codes_of(self, ids))
    fit = RecordsFitness(table, ["q3", "q1"])
    assert [fit.evaluate(g) for _ in range(3)] == [ObjectiveVector(1.0, 20.0)] * 3
    assert calls == [["q3", "q1"]]


def test_records_fitness_full_outcomes_when_no_subset(tmp_path):
    g = Genotype(MergeKind.TA, (0.0,))
    records = record_table(tmp_path, [(candidate_id(g), "q1", 1, 50.0)])
    ov = RecordsFitness(records).evaluate(g)
    assert ov.accuracy == 1.0 and ov.mean_length == 50.0


# Subset sizes on both sides of numpy's 8-element unrolled sum and its
# 128-element pairwise blocks, which a reordered sum would show in the bits.
RECORD_SUBSET_SIZES = (1, 7, 8, 9, 127, 128, 129)


def oracle_objectives(oracle, cid, subset):
    """``objectives`` over the oracle's lists of ``cid`` in ``subset`` order (all
    of them with no subset), or the message ``RecordsFitness`` must raise."""
    ids, correct, lengths = oracle[cid]
    if subset is None:
        return objectives(correct, lengths)
    pos = {iid: k for k, iid in enumerate(ids)}
    missing = [iid for iid in subset if iid not in pos]
    if missing:
        return (f"candidate {cid!r} has no record for item(s): {', '.join(missing[:5])}"
                + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"))
    return objectives([correct[pos[i]] for i in subset], [lengths[pos[i]] for i in subset])


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_items=st.integers(130, 150), lams=st.lists(st.integers(0, 1000), min_size=1, max_size=3,
                                                    unique=True), seed=st.integers(0, 2**32 - 1))
def test_records_fitness_matches_objectives_over_the_oracle_lists(tmp_path, n_items, lams, seed):
    """Each candidate's objectives on shuffled subsets, and on all of its
    records with no subset, are those of ``objectives`` over the slow
    oracle's lists, bit for bit; a subset item it lacks gives the same message."""
    rng = np.random.default_rng(seed)
    genotypes = [Genotype(MergeKind.TA, (k / 1000,)) for k in lams]
    pool = [f"q{i}" for i in range(n_items)]
    records = []
    for g in genotypes:
        # Most candidates lack no item; an item every candidate lacks is unknown to the table.
        kept = rng.permutation(n_items)[rng.choice([0, 0, 1, 3]):]
        lengths = np.where(rng.random(len(kept)) < 0.2, rng.integers(0, 6000, len(kept)),
                           rng.uniform(0.0, 6000.0, len(kept)))
        records += [(candidate_id(g), pool[i], int(rng.integers(0, 2)), length)
                    for i, length in zip(kept.tolist(), lengths.tolist())]
    records = [records[i] for i in rng.permutation(len(records)).tolist()]
    table = record_table(tmp_path, records)
    oracle = reference_load(tmp_path / "records.jsonl")
    for subset in [None] + [[pool[i] for i in rng.permutation(n_items)[:size].tolist()]
                            for size in RECORD_SUBSET_SIZES]:
        fit = RecordsFitness(table, subset)
        for g in genotypes:
            want = oracle_objectives(oracle, candidate_id(g), subset)
            try:
                got = fit.evaluate(g)
            except RecordFormatError as exc:
                assert str(exc) == want
            else:
                assert (got.accuracy.hex(), got.mean_length.hex()) == (
                    want.accuracy.hex(), want.mean_length.hex())


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n_cands=st.integers(1, 3), n_items=st.integers(1, 12))
def test_codes_of_and_select_match_the_oracle_lookups(tmp_path, data, n_cands, n_items):
    """``codes_of`` then ``select`` give, for any list of ids, the rows the
    slow oracle finds id by id, or a ``KeyError`` naming the positions of the
    ids the candidate lacks, ids unknown to the table among them; and
    ``RecordsFitness`` names the first five of those ids and counts the rest."""
    pool = [f"q{i}" for i in range(n_items + 6)]  # the last six ids have no record
    genotypes = [Genotype(MergeKind.TA, (c / 4,)) for c in range(n_cands)]
    records = []
    for g in genotypes:
        kept = data.draw(st.lists(st.sampled_from(pool[:n_items]), min_size=1, unique=True))
        records += [(candidate_id(g), iid, data.draw(st.integers(0, 1)), float(k))
                    for k, iid in enumerate(kept)]
    table = record_table(tmp_path, data.draw(st.permutations(records)))
    oracle = reference_load(tmp_path / "records.jsonl")
    query = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    codes = table.codes_of(query)
    assert [table.item_ids[c] if c >= 0 else None for c in codes.tolist()] == [
        iid if iid in table.item_ids else None for iid in query]
    fit = RecordsFitness(table, query)
    for g in genotypes:
        cid = candidate_id(g)
        ids, correct, lengths = oracle[cid]
        missing = [k for k, iid in enumerate(query) if iid not in ids]
        want = oracle_objectives(oracle, cid, query)
        if missing:
            with pytest.raises(KeyError) as info:
                table.select(table[cid], codes)
            assert info.value.args[0] == missing
            with pytest.raises(RecordFormatError) as info:
                fit.evaluate(g)
            assert str(info.value) == want
            continue
        rows = table.select(table[cid], codes)
        at = [ids.index(iid) for iid in query]
        assert items_of(table, rows) == query
        assert table.correct[rows].tolist() == [correct[k] for k in at]
        assert table.length[rows].tolist() == [lengths[k] for k in at]
        assert fit.evaluate(g) == want


@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "through-the-index"])
def test_table_rows_count_every_record_in_record_order(tmp_path, resumed):
    """The bench tracer counts the records parsed as the sum of the lengths of
    the table's values; each value lists its candidate's rows in record order."""
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"
    if resumed:
        path.write_text(GRID)
        load_record_evaluations(path)
        assert RecordTable.from_index(index.read_bytes())[0].nbytes == len(GRID)
    path.write_text(GRID + "\n" + MORE)
    table = load_record_evaluations(path)
    assert sum(len(rows) for rows in table.values()) == len((GRID + MORE).splitlines()) == 16
    assert {cid: rows.tolist() for cid, rows in table.items()} == {
        "m0": [0, 1, 2, 3], "m1": [4, 5, 6, 7], "m2": [8, 9, 10, 11, 12, 13], "m3": [14, 15]}
    assert items_of(table, table["m2"]) == ["q0", "q1", "q2", "q3", "q4", "q5"]


def test_default_batch_keeps_input_order():
    class Linear(FitnessEvaluator):
        def evaluate(self, genotype):
            return ObjectiveVector(genotype.values[0], 10.0 * genotype.values[0])

    fit = Linear()
    genotypes = [Genotype(MergeKind.TA, (i / 8,)) for i in range(9)]
    batch = fit.evaluate_population(genotypes)
    assert [o.accuracy for o in batch] == [g.values[0] for g in genotypes]
    assert batch == [fit.evaluate(g) for g in genotypes]
