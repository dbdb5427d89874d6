import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paretomerge.errors import GenotypeError, MissingCandidatesError, RecordFormatError
from paretomerge.evaluation import (
    CallableFitness,
    ObjectiveVector,
    Outcomes,
    RecordsFitness,
    ResponseKind,
    SimItem,
    SimulatedBenchmark,
    SimulatedFitness,
    candidate_id,
    generate_benchmark,
    load_benchmark,
    load_manifest,
    load_record_evaluations,
    logistic_response,
    save_benchmark,
    write_manifest,
)
from paretomerge.merge import Genotype, MergeKind


def bench_of(*items, noise_seed=0):
    return SimulatedBenchmark(items, noise_seed=noise_seed)


def up(iid, t, ll=1000.0, ls=100.0):
    return SimItem(iid, ResponseKind.THRESHOLD_UP, t, len_long=ll, len_short=ls)


def down(iid, t, ll=1000.0, ls=100.0):
    return SimItem(iid, ResponseKind.THRESHOLD_DOWN, t, len_long=ll, len_short=ls)


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


def test_subset_restriction_and_unknown_id():
    out = Outcomes(["a", "b", "c"], [1, 0, 1], [10.0, 20.0, 30.5])
    picked = out.select(["c", "a"])
    assert picked.item_ids == ("c", "a")
    assert picked.correct.tolist() == [1, 1] and picked.lengths.tolist() == [30.5, 10.0]
    assert picked.correct.dtype == np.int8 and picked.lengths.dtype == np.float64
    with pytest.raises(KeyError) as info:
        out.select(["a", "nope", "gone"])
    assert info.value.args[0] == ["nope", "gone"]
    with pytest.raises(ValueError, match="same length"):
        Outcomes(["a", "b"], [1], [1.0, 2.0])


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
    item = SimItem("l", ResponseKind.LOGISTIC, 0.5, a=6.0, len_long=500.0, len_short=100.0)
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


def test_outcomes_objectives_examples():
    ov = Outcomes(["a", "b", "c", "d"], [1, 0, 1, 1], [100.0, 200.0, 300.0, 400.0]).objectives()
    assert ov.accuracy == 0.75
    assert ov.mean_length == 250.0
    assert ov.fitness == (-0.75, 250.0)

    ov = Outcomes(["a", "b"], [1, 1], [0.0, 0.0]).objectives()
    assert ov.accuracy == 1.0 and ov.mean_length == 0.0

    ov = Outcomes(["only"], [0], [1234.0]).objectives()
    assert ov.accuracy == 0.0 and ov.mean_length == 1234.0

    with pytest.raises(ValueError):
        Outcomes([], [], []).objectives()


def test_outcomes_mean_length_sums_left_to_right():
    # The mean is the left-to-right Python sum in item order, which differs
    # from numpy's pairwise mean in the last bit for these lengths.
    lengths = np.random.default_rng(0).uniform(100.0, 5000.0, 1000)
    out = Outcomes([f"q{i}" for i in range(1000)], np.zeros(1000), lengths)
    expected = 0.0
    for v in lengths.tolist():
        expected += v
    assert out.objectives().mean_length == expected / 1000
    assert expected / 1000 != float(np.mean(lengths))
    reversed_ids = list(reversed(out.item_ids))
    assert out.select(reversed_ids).objectives().mean_length == sum(lengths.tolist()[::-1]) / 1000


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
    item = SimItem("s", ResponseKind.LOGISTIC, np.float64(0.5), a=np.float32(4), len_long=np.int64(9))
    assert item.a == 4


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
def test_sim_item_validation(fields):
    kwargs = {"item_id": "x", "response_kind": ResponseKind.LOGISTIC, "t": 0.5,
              "len_long": 100.0, "len_short": 10.0, **fields}
    with pytest.raises(ValueError):
        SimItem(**kwargs)


def test_default_generator_profile_and_endpoint_invariant():
    bench = generate_benchmark(seed=0)
    assert len(bench) == 1000
    kinds = [it.response_kind for it in bench.items]
    assert kinds.count(ResponseKind.LOGISTIC) == 12

    c0 = bench.correctness_vector(0.0)
    c1 = bench.correctness_vector(1.0)
    is_up = np.array([k == ResponseKind.THRESHOLD_UP for k in kinds])
    is_down = np.array([k == ResponseKind.THRESHOLD_DOWN for k in kinds])
    # descending items: more accurate at lam=0 than lam=1; ascending: reverse
    assert c0[is_down].mean() > c1[is_down].mean()
    assert c0[is_up].mean() < c1[is_up].mean()

    for it in bench.items:
        assert it.len_long >= it.len_short >= 0


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
    assert loaded.items == bench.items
    for lam in (0.0, 0.33, 1.0):
        assert np.array_equal(loaded.correctness_vector(lam), bench.correctness_vector(lam))


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
    ],
)
def test_load_benchmark_rejects_non_numbers_and_non_finite(tmp_path, field, raw):
    good = {"item_id": "q0", "response_kind": "LOGISTIC", "t": 0.5, "a": 4.0,
            "len_long": 500.0, "len_short": 100.0}
    bad = json.dumps({**good, "item_id": "q1", field: "@"}).replace('"@"', raw)
    path = tmp_path / "bench.json"
    path.write_text(f"[{json.dumps(good)}, {bad}]")
    with pytest.raises(ValueError, match=rf"item 1: .*{field}"):
        load_benchmark(path)


def test_load_manifest_malformed_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"candidate_id": "x"}\n')
    with pytest.raises(RecordFormatError, match="line 1"):
        load_manifest(path)


def test_load_records_grouping(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 120}\n'
        '{"candidate_id": "m0", "item_id": "q2", "correct": 0, "length": 80.5}\n'
    )
    recs = load_record_evaluations(path)
    assert list(recs) == ["m0"]
    assert recs["m0"].item_ids == ("q1", "q2")
    assert recs["m0"].correct.tolist() == [1, 0]
    assert recs["m0"].lengths.tolist() == [120.0, 80.5]


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
    loaded = load_record_evaluations(path)
    expected = reference_columns(lines)
    assert list(loaded) == list(expected)
    for cand, (ids, correct, lengths) in expected.items():
        out = loaded[cand]
        assert len(out) == len(ids)
        assert out.item_ids == tuple(ids)
        assert out.correct.dtype == np.int8 and out.correct.tolist() == correct
        assert out.lengths.dtype == np.float64 and out.lengths.tolist() == lengths


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


def test_load_records_duplicate_pair(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"candidate_id": "m0", "item_id": "q1", "correct": 1, "length": 1}\n'
        '{"candidate_id": "m0", "item_id": "q1", "correct": 0, "length": 2}\n'
    )
    with pytest.raises(RecordFormatError, match="duplicate record.*m0.*q1"):
        load_record_evaluations(path)


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
    write_manifest(path, gs)
    loaded = load_manifest(path)
    assert [g for _, g in loaded] == gs
    assert [cid for cid, _ in loaded] == [candidate_id(g) for g in gs]


def test_simulated_fitness_subset_and_kind_check():
    bench = bench_of(up("a", 0.4, ll=800, ls=200), up("b", 0.6, ll=400, ls=100), down("c", 0.5))
    fit = SimulatedFitness(bench, subset_ids=["a", "b"])
    ov = fit.evaluate(Genotype(MergeKind.TA, (0.5,)))
    assert ov.accuracy == 0.5  # a solved, b not
    assert ov.mean_length == pytest.approx((500 + 250) / 2)
    with pytest.raises(GenotypeError):
        fit.evaluate(Genotype(MergeKind.TIES, (0.5, 1.0)))


def test_records_fitness_resolution_and_errors():
    g_known = Genotype(MergeKind.TA, (0.5,))
    g_missing = Genotype(MergeKind.TA, (0.75,))
    records = {candidate_id(g_known): Outcomes(["q1", "q2"], [1, 0], [100.0, 300.0])}
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

    # the batch ignores workers and still names each missing candidate once
    with pytest.raises(MissingCandidatesError) as info:
        fit.evaluate_population([g_missing, g_known, g_missing], workers=4)
    assert info.value.pending == [(candidate_id(g_missing), g_missing)]

    narrow = RecordsFitness(records, subset_ids=["q1", "q9"])
    with pytest.raises(RecordFormatError, match="q9"):
        narrow.evaluate(g_known)


def test_records_fitness_full_outcomes_when_no_subset():
    g = Genotype(MergeKind.TA, (0.0,))
    records = {candidate_id(g): Outcomes(["q1"], [1], [50.0])}
    ov = RecordsFitness(records).evaluate(g)
    assert ov.accuracy == 1.0 and ov.mean_length == 50.0


def test_default_batch_keeps_input_order_for_any_worker_count():
    fit = CallableFitness(lambda g: ObjectiveVector(g.values[0], 10.0 * g.values[0]))
    genotypes = [Genotype(MergeKind.TA, (i / 8,)) for i in range(9)]
    serial = fit.evaluate_population(genotypes)
    assert [o.accuracy for o in serial] == [g.values[0] for g in genotypes]
    for workers in (2, 4):
        assert fit.evaluate_population(genotypes, workers=workers) == serial
