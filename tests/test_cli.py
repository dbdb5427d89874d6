import ast
import contextlib
import csv
import errno
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paretomerge.cli as cli
from paretomerge.checkpoint import Checkpoint, save_checkpoint
from paretomerge.cli import main
from paretomerge.errors import RecordFormatError
from paretomerge.evaluation import (
    RecordsFitness,
    SimulatedFitness,
    candidate_id,
    generate_benchmark,
    id_of,
    load_benchmark,
    load_record_evaluations,
    save_benchmark,
)
from paretomerge.merge import Genotype, MergeKind, default_genotype_bounds
from paretomerge.nsga2 import SearchConfig

from manifests import read_manifest


def sha16(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


@pytest.fixture
def endpoints(tmp_path):
    rng = np.random.default_rng(0)
    shapes = {"layer.w": (8, 4), "head.b": (16,)}
    s2 = Checkpoint(tensors={n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()})
    s1 = Checkpoint(tensors={n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()})
    p2, p1 = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg"
    save_checkpoint(s2, p2)
    save_checkpoint(s1, p1)
    return p2, p1


def payload_bytes(path):
    blob = path.read_bytes()
    import struct

    (hlen,) = struct.unpack("<I", blob[4:8])
    return blob[8 + hlen :]


def test_merge_ta_lambda_zero_matches_system2_payload(endpoints, tmp_path, capsys):
    p2, p1 = endpoints
    out = tmp_path / "merged.pmrg"
    rc = main(["merge", "--system2", str(p2), "--system1", str(p1),
               "--op", "ta", "--params", "0.0", "--out", str(out)])
    assert rc == 0
    assert payload_bytes(out) == payload_bytes(p2)
    printed = capsys.readouterr().out
    assert "tensors: 2" in printed and "parameters: 48" in printed


def test_merge_ties_k1_equals_ta(endpoints, tmp_path):
    p2, p1 = endpoints
    out_ta = tmp_path / "ta.pmrg"
    out_ties = tmp_path / "ties.pmrg"
    assert main(["merge", "--system2", str(p2), "--system1", str(p1),
                 "--op", "ta", "--params", "0.5", "--out", str(out_ta)]) == 0
    assert main(["merge", "--system2", str(p2), "--system1", str(p1),
                 "--op", "ties", "--params", "0.5,1.0", "--out", str(out_ties)]) == 0
    assert payload_bytes(out_ta) == payload_bytes(out_ties)


def test_merge_usage_errors(endpoints, tmp_path):
    p2, p1 = endpoints
    out = tmp_path / "x.pmrg"
    base = ["merge", "--system2", str(p2), "--system1", str(p1), "--out", str(out)]
    assert main(base + ["--op", "ta", "--params", "1.5"]) == 2
    assert main(base + ["--op", "ta", "--params", "abc"]) == 2
    assert main(base + ["--op", "dare", "--params", "0.5"]) == 2  # argparse choices


@pytest.mark.parametrize("params", ["0.1_5", "1e-1_0", "\u0660.\u0665", "0.5,0.2_0"])
def test_merge_params_take_ascii_numbers_without_underscores(endpoints, tmp_path, capsys, params):
    # float() reads each of these; "0.1_5" would merge at lambda = 0.15
    p2, p1 = endpoints
    out = tmp_path / "x.pmrg"
    assert main(["merge", "--system2", str(p2), "--system1", str(p1), "--out", str(out),
                 "--op", "ties" if "," in params else "ta", "--params", params]) == 2
    assert capsys.readouterr().err == (
        f"usage error: --params must be comma-separated numbers, got {params!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("op, params, digest", [
    ("ta", "0.3", "9a78278b64edfeaa"),
    ("linear", "0.6,0.5", "5bebc1b5b4df1d44"),
    ("ties", "0.5,0.2", "e31ce4ccc7abe2dc"),
    ("ties", "0.7,0.55", "94172c8630d08bad"),
])
def test_merge_output_digests(merge_block, tmp_path, op, params, digest):
    # quantized endpoints: |system1 - system2| is exact in float32 and full of
    # magnitude ties (zeros of both signs included), so k lands inside tie runs
    rng = np.random.default_rng(3)
    shapes = {"emb": (13, 7), "bias": (29,), "w": (6, 5, 4)}
    s2 = {n: (rng.integers(-16, 17, s) / 8).astype(np.float32) for n, s in shapes.items()}
    s1 = {n: s2[n] + (rng.integers(-3, 4, s) / 4).astype(np.float32) for n, s in shapes.items()}
    s1["bias"][::3] = -0.0
    s2["bias"][::3] = 0.0
    s1["w"] = s2["w"] + rng.standard_normal(shapes["w"]).astype(np.float32)
    p2, p1, out = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", tmp_path / "out.pmrg"
    save_checkpoint(Checkpoint(tensors=s2, metadata={"name": "system2"}), p2)
    save_checkpoint(Checkpoint(tensors=s1, metadata={"name": "system1"}), p1)
    assert main(["merge", "--system2", str(p2), "--system1", str(p1),
                 "--op", op, "--params", params, "--out", str(out)]) == 0
    assert sha16(out) == digest


def test_merge_domain_error_on_missing_file(tmp_path):
    rc = main(["merge", "--system2", str(tmp_path / "none.pmrg"),
               "--system1", str(tmp_path / "none.pmrg"),
               "--op", "ta", "--params", "0.5", "--out", str(tmp_path / "o.pmrg")])
    assert rc == 1


def test_calibrate_default_k_and_k2(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "50", "--out", str(out)]) == 0
    matrix = json.loads(out.read_text())
    assert len(matrix["model_ids"]) == 10
    assert len(matrix["correct"]) == 10

    out2 = tmp_path / "m2.json"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "50", "--k", "2",
                 "--out", str(out2)]) == 0
    m2 = json.loads(out2.read_text())
    assert len(m2["model_ids"]) == 2

    bench = generate_benchmark(seed=0, n_items=50)
    assert m2["correct"][0] == [int(c) for c in bench.correctness_vector(0.0)]
    assert m2["correct"][1] == [int(c) for c in bench.correctness_vector(1.0)]


def test_calibrate_save_bench_round_trips(tmp_path):
    out = tmp_path / "m.json"
    bench_path = tmp_path / "bench.json"
    assert main(["calibrate", "--gen-seed", "3", "--n-items", "40",
                 "--save-bench", str(bench_path), "--out", str(out)]) == 0
    from paretomerge.evaluation import load_benchmark

    reloaded = load_benchmark(bench_path, noise_seed=3)
    assert len(reloaded) == 40
    expected = generate_benchmark(seed=3, n_items=40)
    assert reloaded.item_ids == expected.item_ids
    for name in ("kinds", "t", "a", "len_long", "len_short"):
        assert np.array_equal(getattr(reloaded, name), getattr(expected, name))


def test_calibrate_k1_usage_error(tmp_path):
    assert main(["calibrate", "--gen-seed", "0", "--k", "1",
                 "--out", str(tmp_path / "m.json")]) == 2


def test_calibrate_needs_exactly_one_source(tmp_path):
    out = tmp_path / "m.json"
    bench = tmp_path / "bench.json"
    assert main(["calibrate", "--out", str(out)]) == 2
    assert main(["calibrate", "--gen-seed", "0", "--bench", str(bench), "--out", str(out)]) == 2
    assert main(["calibrate", "--bench", str(bench), "--n-items", "50", "--out", str(out)]) == 2
    assert main(["calibrate", "--bench", str(bench), "--n-items", "50", "--save-bench",
                 str(bench), "--out", str(out)]) == 2

    records = tmp_path / "records.jsonl"
    records.write_text("")
    for extra in (["--gen-seed", "0"], ["--bench", str(bench)], ["--save-bench", str(bench)],
                  ["--n-items", "50"], ["--noise-seed", "0"]):
        assert main(["calibrate", "--records", str(records), *extra, "--out", str(out)]) == 2
    manifest = tmp_path / "pending.jsonl"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "50", "--manifest", str(manifest),
                 "--out", str(out)]) == 2
    assert not out.exists() and not bench.exists() and not manifest.exists()


def test_calibrate_simulated_matrix_digest(tmp_path):
    out = tmp_path / "m.json"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "200", "--out", str(out)]) == 0
    assert sha16(out) == "47aadf31ea499588"

    # the generated benchmark itself, at 200 items and at the default 1000
    bench = tmp_path / "bench.json"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "200", "--save-bench", str(bench),
                 "--out", str(out)]) == 0
    assert sha16(bench) == "f6805b532c60b49b"
    assert main(["calibrate", "--gen-seed", "7", "--save-bench", str(bench),
                 "--out", str(out)]) == 0
    assert sha16(bench) == "f8e210c7e4dbda41"
    assert sha16(out) == "191a052db2971c1e"


def test_calibrate_records_matrix_and_manifest_digests(tmp_path):
    bench = generate_benchmark(seed=0, n_items=60)
    grid = [Genotype(MergeKind.TA, (k / 4,)) for k in range(5)]
    records_path = tmp_path / "records.jsonl"
    simulated_records_for(bench, grid[::2], records_path)
    out = tmp_path / "m.json"
    base = ["calibrate", "--records", str(records_path), "--k", "5", "--out", str(out)]

    assert main(base) == 1
    assert not out.exists()
    # without --manifest the manifest sits next to --out
    assert sha16(tmp_path / "m.manifest.jsonl") == "71e0560664b0210a"

    simulated_records_for(bench, grid, records_path)
    assert main(base) == 0
    assert sha16(out) == "71f67d0c5625001f"


def test_calibrate_records_prints_the_manifest_hint_or_the_write_error(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text("")
    base = ["calibrate", "--records", str(records), "--k", "4", "--out", str(tmp_path / "m.json")]
    assert main(base) == 1
    hint, error = capsys.readouterr().err.splitlines()
    assert hint == (f"wrote manifest for 4 pending candidate(s) to {tmp_path / 'm.manifest.jsonl'}; "
                    "evaluate them externally, append the records, and rerun")
    assert error.startswith("error: 4 candidate(s) have no evaluation records: ta-")

    # a manifest that cannot be written is the error, with no traceback
    assert main(base + ["--manifest", str(tmp_path / "missing" / "pending.jsonl")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: [Errno 2] No such file or directory")


def test_calibrate_from_records_with_manifest_round_trip(tmp_path):
    bench = generate_benchmark(seed=0, n_items=40)
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("")
    out = tmp_path / "m.json"
    manifest = tmp_path / "pending.jsonl"

    rc = main(["calibrate", "--records", str(records_path), "--k", "4",
               "--out", str(out), "--manifest", str(manifest)])
    assert rc == 1
    pending = [g for _, g in read_manifest(manifest)]
    assert [g.values[0] for g in pending] == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    # records written in reverse item order
    simulated_records_for(bench, pending, records_path, subset=bench.item_ids[::-1])
    assert main(["calibrate", "--records", str(records_path), "--k", "4",
                 "--out", str(out)]) == 0
    matrix = json.loads(out.read_text())
    assert len(matrix["correct"]) == 4
    # records-mode columns are sorted by item id, each row with them
    assert matrix["item_ids"] == sorted(bench.item_ids) == bench.item_ids
    for row, g in zip(matrix["correct"], pending):
        assert row == bench.correctness_vector(g.values[0]).tolist()


def test_sample_subset_disagreement_shortfall_is_domain_error(tmp_path, capsys):
    # item i0 never flips between the endpoint rows: asking for 3 must fail
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps({
        "model_ids": ["m0", "m1"],
        "item_ids": ["i0", "i1", "i2"],
        "correct": [[1, 0, 1], [1, 1, 0]],
    }))
    assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy",
                 "disagreement", "--size", "3", "--out", str(tmp_path / "s.json")]) == 1
    assert "only 2 items disagree at the endpoint rows, cannot select 3" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "item_ids,correct",
    [
        ('["i0", "i1"]', "[[0.5, 1], [1, 0]]"),  # an int8 cast would read 0
        ('["i0", "i1"]', "[[0.9, 1], [1, 0]]"),
        ('["i0", "i1"]', "[[256, 1], [1, 0]]"),  # an int8 cast would wrap to 0
        ('["i0", "i1"]', "[[2, 1], [1, 0]]"),
        ('["i0", "i1"]', "[[true, 1], [1, 0]]"),  # mixed row: numpy reads 1
        ('["i0", "i1"]', "[[true, false], [false, true]]"),
        ('["i0", "i1"]', '[["1", 1], [1, 0]]'),
        ('["i0", "i1"]', "[[null, 1], [1, 0]]"),
        ('["i0", "i1"]', "[[NaN, 1], [1, 0]]"),
        ('["i0", "i1"]', "[[1, 0], [1]]"),  # ragged rows
        ('["i0", "i1"]', "[1, 0]"),
        ('"ab"', "[[1, 0], [0, 1]]"),  # list() would read the items a and b
        ("[1, 2]", "[[1, 0], [0, 1]]"),
        ('{"p": 1, "q": 2}', "[[1, 0], [0, 1]]"),  # list() would read the keys
        ('["", "x"]', "[[1, 0], [0, 1]]"),
    ],
    ids=["half", "0.9", "256", "2", "mixed-true", "all-bool", "string", "null", "nan-correct",
         "ragged-correct", "flat-correct", "string-ids", "int-ids", "dict-ids", "empty-id"],
)
def test_sample_subset_rejects_corrupt_matrix_entries(tmp_path, capsys, item_ids, correct):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(
        f'{{"model_ids": ["m0", "m1"], "item_ids": {item_ids}, "correct": {correct}}}'
    )
    out = tmp_path / "s.json"
    assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", "entropy",
                 "--size", "2", "--out", str(out)]) == 1
    assert f"{matrix_path}: malformed matrix file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lengths", [
    "[[812.0, 40.5, 7.0], [300.0, 12.0, 7.0]]",
    "[[NaN, 1, 1], [1, 1, 1]]",
    "[[Infinity, 1, 1], [1, 1, 1]]",
    "[[-1, 1, 1], [1, 1, 1]]",
    "[[true, 1, 1], [1, 1, 1]]",
    "[[1, 1, 1], [1, 1, 1, 1]]",
], ids=["finite", "nan", "inf", "negative", "true", "ragged"])
def test_sample_subset_ignores_the_lengths_of_an_older_matrix_file(tmp_path, lengths):
    """A matrix file written before the matrix dropped its lengths selects the
    same subset as that file without them, whatever the lengths hold."""
    body = '"model_ids": ["m0", "m1"], "item_ids": ["i0", "i1", "i2"], "correct": [[1, 0, 1], [1, 1, 0]]'
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(f"{{{body}}}")
    old.write_text(f'{{{body}, "lengths": {lengths}}}')
    for strategy in ("entropy", "random", "disagreement"):
        subsets = []
        for matrix_path in (new, old):
            out = tmp_path / f"{matrix_path.stem}-{strategy}.subset.json"
            assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", strategy,
                         "--size", "2", "--out", str(out)]) == 0
            subsets.append(out.read_bytes())
        assert subsets[0] == subsets[1]


def test_sample_subset_flow(tmp_path, capsys):
    matrix_path = tmp_path / "m.json"
    assert main(["calibrate", "--gen-seed", "0", "--out", str(matrix_path)]) == 0
    capsys.readouterr()

    sub = tmp_path / "s.json"
    assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", "entropy",
                 "--size", "50", "--out", str(sub)]) == 0
    printed = capsys.readouterr().out
    assert "entropy min/median/max" in printed
    data = json.loads(sub.read_text())
    assert len(data["item_ids"]) == 50 and data["strategy"] == "entropy"

    # determinism of the random strategy under a fixed seed
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", "random",
                     "--size", "20", "--seed", "0", "--out", str(out)]) == 0
    assert r1.read_text() == r2.read_text()

    assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", "entropy",
                 "--size", "0", "--out", str(tmp_path / "z.json")]) == 2


@pytest.mark.parametrize("strategy, digest, entropies", [
    (["entropy"], "17f26ccdf47dd9b2", "0.4690/0.9710/1.0000"),
    (["random", "--seed", "3"], "e5a790691d0486c9", "0.0000/0.0000/1.0000"),
    (["disagreement"], "fedda1a6bc0fc319", "0.4690/0.4690/1.0000"),
], ids=["entropy", "random-seed-3", "disagreement"])
def test_sample_subset_digests(tmp_path, capsys, strategy, digest, entropies):
    matrix_path, out = tmp_path / "m.json", tmp_path / "s.json"
    assert main(["calibrate", "--gen-seed", "0", "--out", str(matrix_path)]) == 0
    capsys.readouterr()
    assert main(["sample-subset", "--matrix", str(matrix_path), "--strategy", *strategy,
                 "--size", "50", "--out", str(out)]) == 0
    assert sha16(out) == digest
    assert capsys.readouterr().out.splitlines()[0] == (
        f"selected 50 items ({strategy[0]}); entropy min/median/max = {entropies}"
    )


def evolve_config(tmp_path, out_name="run", **overrides):
    cfg = {
        "search": {"population_size": 8, "generations": 3, "seed": 0},
        "evaluator": {"simulated": {"generator_seed": 0, "n_items": 200}},
        "subset": {"strategy": "entropy", "size": 20, "seed": 0},
        "output_dir": str(tmp_path / out_name),
    }
    cfg.update(overrides)
    path = tmp_path / f"{out_name}-config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / out_name


def test_evolve_simulated_run_dir(tmp_path, capsys):
    cfg_path, out_dir = evolve_config(tmp_path)
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    for name in ("config.json", "history.jsonl", "pareto.json", "subset.json",
                 "matrix.json", "benchmark.json", "front_points.csv"):
        assert (out_dir / name).exists(), name

    history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
    assert len(history) == 8 * 4
    assert {h["generation"] for h in history} == {0, 1, 2, 3}

    front = json.loads((out_dir / "pareto.json").read_text())
    accs = [m["accuracy"] for m in front["members"]]
    lens = [m["mean_length"] for m in front["members"]]
    # sorted by fitness.first ascending: accuracy non-increasing, length non-increasing
    assert accs == sorted(accs, reverse=True)
    assert lens == sorted(lens, reverse=True)
    assert "genotype" in capsys.readouterr().out

    plot_rows = (out_dir / "front_points.csv").read_text().strip().splitlines()
    assert plot_rows[0] == "length_reduction_pct,accuracy_pct"
    assert len(plot_rows) == 1 + len(front["members"])
    reductions = [float(r.split(",")[0]) for r in plot_rows[1:]]
    assert reductions == sorted(reductions)


def test_evolve_rerun_is_byte_identical(tmp_path):
    cfg1, out1 = evolve_config(tmp_path, "runA")
    cfg2, out2 = evolve_config(tmp_path, "runB")
    assert main(["evolve", "--config", str(cfg1)]) == 0
    assert main(["evolve", "--config", str(cfg2)]) == 0
    assert (out1 / "history.jsonl").read_bytes() == (out2 / "history.jsonl").read_bytes()
    assert (out1 / "pareto.json").read_bytes() == (out2 / "pareto.json").read_bytes()


def test_evolve_zero_length_baseline_skips_front_points(tmp_path):
    # Reductions are relative to the lambda = 0 mean length: with 0 there are none.
    bench_path = tmp_path / "bench.json"
    save_benchmark(generate_benchmark(seed=0, n_items=10), bench_path)
    items = json.loads(bench_path.read_text())
    bench_path.write_text(json.dumps([{**i, "len_long": 0, "len_short": 0} for i in items]))
    cfg_path, out_dir = evolve_config(
        tmp_path, search={"population_size": 4, "generations": 2, "seed": 0},
        evaluator={"simulated": {"benchmark": str(bench_path)}}, subset=None,
    )
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    assert (out_dir / "history.jsonl").exists() and (out_dir / "pareto.json").exists()
    assert not (out_dir / "front_points.csv").exists()


def test_evolve_workers_flag_is_gone(tmp_path, capsys):
    # Each generation is scored serially, so there is no worker count to set.
    cfg_path, out_dir = evolve_config(tmp_path)
    assert main(["evolve", "--config", str(cfg_path), "--workers", "1"]) == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
    assert not out_dir.exists()


def history_rows(out_dir):
    """The lines of a run's history.jsonl, and its (H, 2) fitness array as
    (-accuracy, mean_length)."""
    history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
    return history, np.array([(-h["accuracy"], h["mean_length"]) for h in history])


def member(line: dict) -> dict:
    """A history line without its generation, as pareto.json lists it."""
    return {k: v for k, v in line.items() if k != "generation"}


def test_evolve_full_item_set_front_matches_history_pareto(tmp_path):
    from paretomerge.nsga2 import extract_pareto

    cfg_path, out_dir = evolve_config(tmp_path, "full", subset=None)
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    history, f = history_rows(out_dir)
    persisted = json.loads((out_dir / "pareto.json").read_text())["members"]
    assert persisted == [member(history[i]) for i in extract_pareto(f).tolist()]


def test_evolve_history_line_is_search_row(tmp_path):
    """Line i of history.jsonl is row i of the search's genotype and fitness
    arrays, scored in generation i // population_size."""
    from paretomerge.evaluation import SimulatedFitness
    from paretomerge.nsga2 import run_nsga2

    search = {"population_size": 6, "generations": 4, "seed": 3}
    cfg_path, out_dir = evolve_config(tmp_path, search=search, subset=None)
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    bench = generate_benchmark(seed=0, n_items=200)
    _, x, f = run_nsga2(SearchConfig(**search), SimulatedFitness(bench))
    history, _ = history_rows(out_dir)
    assert len(history) == len(x) == 6 * 5
    for i, line in enumerate(history):
        assert line["generation"] == i // 6
        assert line["genotype"] == {"kind": "ta", "values": x[i].tolist()}
        assert line["fitness"] == f[i].tolist()


# SBX children past the narrow bounds are clamped onto them, so clamped
# candidates repeat a genotype, and with it a fitness, of an earlier one.
CLAMPED = {
    "population_size": 8, "generations": 3, "seed": 1,
    "genotype_bounds": [[0.45, 0.6]], "sbx": {"probability": 1.0, "eta": 5.0},
    "mutation": {"per_variable_probability": 0.0},
}


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2]


@st.composite
def history_rows_of_every_kind(draw):
    """A history row: a genotype of any kind, its values in the kind's box or
    special floats, and a fitness pair whose entries may be special too."""
    kind = draw(st.sampled_from([MergeKind.TA, MergeKind.TIES, MergeKind.LINEAR]))
    values = [draw(st.sampled_from(SPECIAL_FLOATS + [lo, hi]) | st.floats(lo, hi))
              for lo, hi in default_genotype_bounds(kind)]
    f0 = draw(st.sampled_from(SPECIAL_FLOATS + [-1.0, -0.5]) | st.floats(-1.0, 0.0))
    f1 = draw(st.sampled_from(SPECIAL_FLOATS + [1e308]) | st.floats(0.0, 1e308))
    return draw(st.integers(0, 10**6)), kind, values, f0, f1


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(history_rows_of_every_kind())
def test_history_line_is_the_json_of_its_member(row):
    """evolve formats a history line without a member dict, and it is
    ``json.dumps({"generation": g, **member}) + "\n"``; ``id_of`` on the
    values' reprs is the genotype's ``candidate_id``, and a front member is
    that member."""
    gen, kind, values, f0, f1 = row
    g = Genotype(kind, values)
    m = {"candidate_id": candidate_id(g), "genotype": g.to_dict(),
         "accuracy": -f0, "mean_length": f1, "fitness": [f0, f1]}
    assert id_of(kind.value, [repr(v) for v in values]) == candidate_id(g)
    line = cli._history_line(gen, kind.value, values, [f0, f1])
    assert line == json.dumps({"generation": gen, **m}) + "\n"
    entry, text = cli._front_entry(kind.value, values, [f0, f1])
    assert json.dumps(entry) == json.dumps(m)
    assert json.loads(f'{{"members": [\n{text}\n  ]}}') == {"members": [m]}


def test_evolve_append_error_keeps_the_earlier_generations(tmp_path, monkeypatch):
    """A history append that fails partway exits 1 and cuts history.jsonl back
    to the generations written before it."""
    import paretomerge.checkpoint as checkpoint

    n = CLAMPED["population_size"]
    cfg_path, out_dir = evolve_config(tmp_path, "whole", search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    lines = (out_dir / "history.jsonl").read_bytes().splitlines(keepends=True)

    # Generation 1 appends whole; generation 2 writes half its bytes, then fails.
    calls, write = [], os.write

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data if len(calls) == 1 else bytes(data)[: len(data) // 2])

    monkeypatch.setattr(checkpoint.os, "write", failing_write)
    cfg_path, out_dir = evolve_config(tmp_path, "cut", search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert len(calls) == 3
    assert (out_dir / "history.jsonl").read_bytes() == b"".join(lines[: 2 * n])


def test_evolve_history_deleted_mid_run_is_an_error(tmp_path, monkeypatch):
    """history.jsonl removed between generations exits 1: the next append
    does not make a new file that holds only the later generations."""
    scored = []

    class DeletingFitness(SimulatedFitness):
        def evaluate_population(self, genotypes):
            scored.append(len(genotypes))
            if len(scored) == 2:  # generation 1, after generation 0 is written
                (out_dir / "history.jsonl").unlink()
            return super().evaluate_population(genotypes)

    monkeypatch.setattr(cli, "SimulatedFitness", DeletingFitness)
    cfg_path, out_dir = evolve_config(tmp_path, "deleted", search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert len(scored) == 2
    assert not [p.name for p in out_dir.iterdir() if p.name.startswith("history")]


def test_evolve_scores_each_distinct_candidate_once(tmp_path, monkeypatch):
    """In a run that repeats candidates, each generation makes one
    ``evaluate_population`` call on its rows not scored before, once each in
    order of first occurrence; every row's fitness is a direct ``evaluate``
    of it, and its history line is ``json.dumps({"generation": g, **member})``."""
    from paretomerge.evaluation import SimulatedFitness, load_benchmark

    batches = []

    class CountingFitness(SimulatedFitness):
        def evaluate_population(self, genotypes):
            batches.append([g.values for g in genotypes])
            return super().evaluate_population(genotypes)

    monkeypatch.setattr(cli, "SimulatedFitness", CountingFitness)
    cfg_path, out_dir = evolve_config(tmp_path, "clamped", search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 0

    n = CLAMPED["population_size"]
    lines = (out_dir / "history.jsonl").read_text().splitlines(keepends=True)
    history = [json.loads(line) for line in lines]
    rows = [tuple(h["genotype"]["values"]) for h in history]
    assert len(rows) == n * (CLAMPED["generations"] + 1) and len(set(rows)) < len(rows)
    seen, expected = set(), []
    for gen in range(CLAMPED["generations"] + 1):
        new = [r for r in dict.fromkeys(rows[gen * n:(gen + 1) * n]) if r not in seen]
        seen.update(new)
        expected.append(new)
    assert batches == expected

    direct = SimulatedFitness(load_benchmark(out_dir / "benchmark.json"),
                              json.loads((out_dir / "subset.json").read_text())["item_ids"])
    for i, (line, h) in enumerate(zip(lines, history)):
        g = Genotype(MergeKind.TA, rows[i])
        f0, f1 = direct.evaluate(g).fitness
        assert h["fitness"] == [f0, f1]
        member = {"candidate_id": candidate_id(g), "genotype": g.to_dict(),
                  "accuracy": -f0, "mean_length": f1, "fitness": [f0, f1]}
        assert line == json.dumps({"generation": i // n, **member}) + "\n"


def test_simulated_evolve_scores_each_generation_with_one_simulator_call(tmp_path, monkeypatch):
    """A simulated evolve calls ``correctness_vector`` once per calibration
    grid point, once over the coefficients of each generation with new rows,
    and once for the lambda = 0 baseline: never once per candidate."""
    from paretomerge.evaluation import SimulatedBenchmark

    calls, vector = [], SimulatedBenchmark.correctness_vector
    monkeypatch.setattr(SimulatedBenchmark, "correctness_vector",
                        lambda self, lam: (calls.append(np.ndim(lam)), vector(self, lam))[1])
    k, n = 6, CLAMPED["population_size"]
    cfg_path, out_dir = evolve_config(tmp_path, "clamped", search=CLAMPED,
                                      subset={"strategy": "entropy", "size": 20, "calibration_k": k})
    assert main(["evolve", "--config", str(cfg_path)]) == 0

    rows = [json.dumps(h["genotype"]) for h in history_rows(out_dir)[0]]
    scored = [len(set(rows[gen * n:(gen + 1) * n]) - set(rows[:gen * n]))
              for gen in range(CLAMPED["generations"] + 1)]
    assert sum(scored) > len(scored)  # more candidates than generations
    assert calls == [0] * k + [1] * sum(map(bool, scored)) + [1]


def test_evolve_writes_the_front_of_each_history_prefix(tmp_path, monkeypatch):
    """pareto.json is written after a generation exactly when the front of the
    history through it differs from the last one written, and then holds that
    front as ``json.dumps(..., indent=2)`` writes it, repeated fitness values
    keeping their first occurrence; the final file is the final front. Front
    extraction runs once per generation plus once for the returned front.
    history.jsonl holds each history prefix after its generation, and the
    history bytes handed to the writers add up to the final file: each line
    is written once."""
    import paretomerge.checkpoint as checkpoint
    import paretomerge.nsga2 as nsga2

    writes, extractions = [], []  # per generation: the pareto.json bytes written, or None
    handed, prefixes = [], []  # per generation: the history bytes written, and the file after
    write, append, extract = checkpoint.write_atomic, checkpoint.append_bytes, nsga2.extract_pareto

    def recording(writer):
        def record(path, data):
            if path.name == "history.jsonl":
                writes.append(None)  # one history write per generation, first
                handed.append(bytes(data))
            elif path.name == "pareto.json":
                writes[-1] = data
            writer(path, data)
            if path.name == "history.jsonl":
                prefixes.append(path.read_bytes())
        return record

    # history.jsonl is written through cli's names, pareto.json through write_changed's.
    monkeypatch.setattr(cli, "write_atomic", recording(write))
    monkeypatch.setattr(cli, "append_bytes", recording(append))
    monkeypatch.setattr(checkpoint, "write_atomic", recording(write))
    monkeypatch.setattr(nsga2, "extract_pareto",
                        lambda f: (extractions.append(len(f)), extract(f))[1])
    n, generations = CLAMPED["population_size"], CLAMPED["generations"]
    cfg_path, out_dir = evolve_config(tmp_path, "clamped", search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 0

    history, f = history_rows(out_dir)
    prefix_fronts = [extract(f[: (gen + 1) * n]).tolist() for gen in range(generations + 1)]
    assert len(writes) == generations + 1
    assert len(extractions) == generations + 2
    for gen, (data, rows) in enumerate(zip(writes, prefix_fronts)):
        if gen > 0 and rows == prefix_fronts[gen - 1]:
            assert data is None, gen
        else:
            payload = {"members": [member(history[i]) for i in rows]}
            assert data == (json.dumps(payload, indent=2) + "\n").encode("utf-8"), gen
    assert (out_dir / "pareto.json").read_bytes() == next(d for d in reversed(writes) if d)
    lines = (out_dir / "history.jsonl").read_bytes().splitlines(keepends=True)
    assert prefixes == [b"".join(lines[: (gen + 1) * n]) for gen in range(generations + 1)]
    assert sum(map(len, handed)) == (out_dir / "history.jsonl").stat().st_size
    # The run covers a generation that leaves the front as it was, one that
    # changes it, and the case that needs first occurrences: a later candidate
    # repeats the fitness of a member of its generation's front.
    assert None in writes[1:] and any(writes[1:])
    assert [j for gen, rows in enumerate(prefix_fronts) for r in rows if r < gen * n
            for j in range(gen * n, (gen + 1) * n) if f[j].tolist() == f[r].tolist()]


def test_evolve_out_flag_overrides_config(tmp_path):
    cfg_path, _ = evolve_config(tmp_path, "ignored")
    override = tmp_path / "elsewhere"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(override)]) == 0
    assert (override / "pareto.json").exists()


def test_evolve_config_validation(tmp_path):
    cfg_path, _ = evolve_config(tmp_path, "bad", evaluator={})
    assert main(["evolve", "--config", str(cfg_path)]) == 2

    cfg_path2, _ = evolve_config(
        tmp_path, "bad2",
        search={"population_size": 7, "generations": 2, "seed": 0},
    )
    assert main(["evolve", "--config", str(cfg_path2)]) == 2  # usage error: odd N

    # a search box outside the kind's box, or of the wrong arity, fails before any output
    for name, bounds in [("box3", [[0, 2]]), ("box4", [[0, 1], [0, 1]])]:
        search = {"population_size": 4, "generations": 1, "genotype_bounds": bounds}
        cfg_path3, out_dir = evolve_config(tmp_path, name, search=search)
        assert main(["evolve", "--config", str(cfg_path3)]) == 2
        assert not out_dir.exists()


SIM = {"simulated": {"generator_seed": 0, "n_items": 20}}


@pytest.mark.parametrize(
    "config",
    [
        [],
        "run",
        {"search": 5, "evaluator": SIM},
        {"search": None, "evaluator": SIM},
        {"merge": [], "evaluator": SIM},
        {"evaluator": "simulated"},
        {"evaluator": SIM, "subset": 5},
        {"evaluator": SIM, "subset": ["item-00"]},
        {"evaluator": SIM, "subset": {"item_ids": "item-00"}},
        {"evaluator": SIM, "subset": {"item_ids": []}},
        {"evaluator": SIM, "subset": {"item_ids": ["item-00", "item-00"]}},
        {"evaluator": SIM, "subset": {"item_ids": ["item-00", ""]}},
        {"evaluator": SIM, "subset": {"item_ids": ["item-00", 3]}},
        {"evaluator": SIM, "output_dir": 5},
        {"evaluator": {"records": {"path": 5}}},
        {"search": {"population_size": None}, "evaluator": SIM},
        {"evaluator": SIM, "subset": {"size": None}},
        {"search": {"sbx": 5}, "evaluator": SIM},
        {"search": {"population_size": 5.9}, "evaluator": SIM},
        {"search": {"generations": True}, "evaluator": SIM},
        {"search": {"seed": "0"}, "evaluator": SIM},
        {"search": {"mutation": []}, "evaluator": SIM},
        {"search": {"sbx": {"eta": "15"}}, "evaluator": SIM},
        {"search": {"sbx": {"probability": None}}, "evaluator": SIM},
        {"search": {"mutation": {"eta": True}}, "evaluator": SIM},
        {"search": {"mutation": {"per_variable_probability": "0.5"}}, "evaluator": SIM},
        {"search": {"genotype_bounds": 0}, "evaluator": SIM},
        {"search": {"genotype_bounds": [0, 1]}, "evaluator": SIM},
        {"search": {"genotype_bounds": [[0, "1"]]}, "evaluator": SIM},
        {"evaluator": SIM, "subset": {"seed": 1.5}},
        {"evaluator": SIM, "subset": {"calibration_k": True}},
        {"evaluator": {"simulated": {"n_items": "20"}}},
        {"evaluator": {"simulated": {"n_items": 20, "generator_seed": 0.5}}},
        {"evaluator": {"simulated": {"n_items": 20, "noise_seed": None}}},
        {"evaluator": {"simulated": {"benchmark": 5}}},
        {"evaluator": SIM, "subset": {"strategy": "bogus"}},
        {"merge": {"kind": "dare"}, "evaluator": SIM},
        {"search": {"genotype_kind": "TA"}, "evaluator": SIM},
        {"merge": {"kind": "ties"}, "evaluator": SIM},
        {"search": {"genotype_kind": "linear"}, "evaluator": SIM},
        # Numbers must be finite float64 values and seeds non-negative.
        {"search": {"sbx": {"eta": 10**400}}, "evaluator": SIM},
        {"search": {"genotype_bounds": [[0, 10**400]]}, "evaluator": SIM},
        {"search": {"genotype_bounds": [[float("nan"), 1]]}, "evaluator": SIM},
        *(
            {"search": {block: {name: value}}, "evaluator": SIM}
            for block, name in [("sbx", "probability"), ("sbx", "eta"),
                                ("mutation", "per_variable_probability"), ("mutation", "eta")]
            for value in (float("nan"), float("inf"), -float("inf"))
        ),
        {"search": {"seed": -1}, "evaluator": SIM},
        {"evaluator": SIM, "subset": {"seed": -1}},
        {"evaluator": {"simulated": {"n_items": 20, "generator_seed": -1}}},
        {"evaluator": SIM, "subset": {"item_ids": ["item-00", ["item-01"]]}},
        # Sizes and counts must fit an index.
        {"search": {"population_size": 10**400}, "evaluator": SIM},
        {"search": {"population_size": 2**63}, "evaluator": SIM},
        {"search": {"generations": 2**63}, "evaluator": SIM},
        {"evaluator": {"simulated": {"n_items": 10**29}}},
        {"evaluator": SIM, "subset": {"size": 2**63}},
        {"evaluator": SIM, "subset": {"calibration_k": 10**23}},
        # Sizes below the least value of their command-line flag.
        {"evaluator": SIM, "subset": {"size": 0}},
        {"evaluator": SIM, "subset": {"size": -3}},
        {"evaluator": SIM, "subset": {"calibration_k": 1}},
        {"evaluator": {"simulated": {"n_items": 0}}},
    ],
)
def test_evolve_config_shape_is_usage_error(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evolve_config_type_error_names_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    for block, message in [
        ({"search": {"population_size": 5.9}}, "'search.population_size' must be an integer"),
        ({"search": {"sbx": 5}}, "'search.sbx' must be an object"),
        ({"subset": {"size": None}},
         f"'subset.size' must be an integer no larger than {sys.maxsize}, got null"),
        ({"search": {"population_size": 2**63}},
         f"'search.population_size' must be an integer no larger than {sys.maxsize}, "
         f"got {2**63}"),
        ({"evaluator": {"simulated": {"n_items": 10**29}}},
         f"'evaluator.simulated.n_items' must be an integer no larger than {sys.maxsize}, "
         f"got {10**29}"),
        ({"subset": {"calibration_k": 10**23}}, f"'subset.calibration_k' must be an integer no "
         f"larger than {sys.maxsize}, got {10**23}"),
        ({"evaluator": {"simulated": {"n_items": True}}}, "'evaluator.simulated.n_items'"),
        ({"subset": {"size": 0}}, "'subset.size' must be >= 1, got 0"),
        ({"subset": {"calibration_k": 1}}, "'subset.calibration_k' must be >= 2, got 1"),
        ({"evaluator": {"simulated": {"n_items": 0}}},
         "'evaluator.simulated.n_items' must be >= 1, got 0"),
        ({"subset": {"strategy": "bogus"}},
         "'subset.strategy' must be one of entropy, random, disagreement, got \"bogus\""),
        ({"merge": {"kind": "dare"}}, "'merge.kind' must be one of ta, ties, linear, got \"dare\""),
    ]:
        path.write_text(json.dumps({"evaluator": SIM, **block}))
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("search, message", [
    ({"population_size": 5}, "'search.population_size' must be even and >= 4, got 5"),
    ({"population_size": 2}, "'search.population_size' must be even and >= 4, got 2"),
    ({"generations": 0}, "'search.generations' must be >= 1, got 0"),
    ({"genotype_bounds": [[0, 2]]}, "'search.genotype_bounds' must be 1 (low, high) pair(s)"),
    ({"genotype_bounds": [[0.5, 0.5]]}, "'search.genotype_bounds' must be 1 (low, high) pair(s)"),
    ({"genotype_bounds": [[0, 1], [0, 1]]}, "'search.genotype_bounds' must be 1 (low, high)"),
    ({"sbx": {"probability": 2}}, "'search.sbx.probability' must lie in [0, 1], got 2.0"),
    ({"sbx": {"eta": 0}}, "'search.sbx.eta' must be > 0, got 0.0"),
    ({"mutation": {"eta": -1}}, "'search.mutation.eta' must be > 0, got -1.0"),
    ({"mutation": {"per_variable_probability": 1.5}},
     "'search.mutation.per_variable_probability' must lie in [0, 1], got 1.5"),
    ({"mutation": {"per_variable_probability": -0.25}},
     "'search.mutation.per_variable_probability' must lie in [0, 1], got -0.25"),
])
def test_evolve_search_out_of_range_is_usage_error(tmp_path, capsys, search, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"search": search, "evaluator": SIM}))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"usage error: config {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config, message", [
    ({"evaluator": {"simulated": {"n_items": 2**62}}},
     f"'evaluator.simulated.n_items' must be at most 1000000, got {2**62}"),
    ({"evaluator": SIM, "subset": {"calibration_k": 10**12}},
     "'subset.calibration_k' must be at most 10000, got 1000000000000"),
    ({"search": {"population_size": 10**12}, "evaluator": SIM},
     "'search.population_size' x ('search.generations' + 1) must be at most 1000000, "
     "got 11000000000000"),
    # each size within its own budget, the product over the shared one
    ({"evaluator": {"simulated": {"n_items": 10**6}}, "subset": {"calibration_k": 11}},
     "'subset.calibration_k' x 'evaluator.simulated.n_items' must be at most 10000000, "
     "got 11000000"),
    ({"search": {"population_size": 10**4, "generations": 100}, "evaluator": SIM},
     "'search.population_size' x ('search.generations' + 1) must be at most 1000000, "
     "got 1010000"),
], ids=["n_items", "calibration_k", "population_size", "calibration-cells", "evaluations"])
def test_evolve_size_over_machine_budget_is_usage_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"usage error: config {message}\n"
    assert not (tmp_path / "run").exists()


class _Started(Exception):
    """Raised by a stub where a run would start its work."""


def test_evolve_sizes_at_the_machine_budget_pass_the_check(tmp_path, monkeypatch):
    """The budgets are inclusive; a subset of explicit ids leaves the
    calibration cells unchecked, and a benchmark file's wait for its load.
    Each run stops where its subset would be resolved, and the generator is
    stubbed, so no 10**6-item benchmark is built."""
    generated, tiny = [], generate_benchmark(seed=0, n_items=5)
    monkeypatch.setattr(cli, "generate_benchmark",
                        lambda **kw: generated.append(kw["n_items"]) or tiny)

    def started(*args):
        raise _Started

    monkeypatch.setattr(cli, "_resolve_subset", started)
    bench, records = tmp_path / "bench.json", tmp_path / "records.jsonl"
    save_benchmark(generate_benchmark(seed=0, n_items=1000), bench)
    records.write_text("")
    search = {"population_size": 10**4, "generations": 99}  # 10**6 history rows
    for cells, evaluator, subset in [
        (10**7, {"simulated": {"n_items": 10**6}}, {"calibration_k": 10}),
        # item_ids excludes calibration_k; a cell budget of 0 shows the cells go unchecked
        (0, {"simulated": {"n_items": 10**6}}, {"item_ids": ["item-00"]}),
        (10**7, {"simulated": {"benchmark": str(bench)}}, {"calibration_k": 10**4}),
        (10**7, {"records": {"path": str(records)}}, {"calibration_k": 10**4}),
    ]:
        monkeypatch.setattr(cli, "MAX_CALIBRATION_CELLS", cells)
        cfg_path, _ = evolve_config(tmp_path, search=search, evaluator=evaluator, subset=subset)
        with pytest.raises(_Started):
            main(["evolve", "--config", str(cfg_path)])
    assert generated == [10**6, 10**6]


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--gen-seed", "0", "--n-items", str(2**62), "--save-bench", "bench.json"],
     f"--n-items must be at most 1000000, got {2**62}"),
    (["calibrate", "--gen-seed", "0", "--k", str(10**12), "--save-bench", "bench.json"],
     "--k must be at most 10000, got 1000000000000"),
    # checked before the record file is read: this one does not exist
    (["calibrate", "--records", "missing.jsonl", "--k", str(10**12)],
     "--k must be at most 10000, got 1000000000000"),
    (["calibrate", "--gen-seed", "0", "--n-items", str(10**6), "--k", "11",
      "--save-bench", "bench.json"],
     "--k x --n-items must be at most 10000000, got 11000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", str(2**62)],
     f"--n-items must be at most 1000000, got {2**62}"),
    (["fidelity", "--gen-seed", "0", "--n-items", "100", "--sizes", "10",
      "--calibration-k", str(10**12)],
     "--calibration-k must be at most 10000, got 1000000000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", str(10**6), "--calibration-k", "11"],
     "--calibration-k x --n-items must be at most 10000000, got 11000000"),
    (["fidelity", "--gen-seed", "0", "--n-models", str(10**12)],
     "--n-models x --n-items must be at most 10000000, got 1000000000000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", "100", "--n-models", "100001"],
     "--n-models x --n-items must be at most 10000000, got 10000100"),
    (["fidelity", "--gen-seed", "0", "--n-items", "100", "--seeds", str(10**12)],
     "--seeds x --n-models must be at most 1000000, got 50000000000000"),
], ids=["calibrate-n-items", "calibrate-k", "calibrate-records-k", "calibrate-cells",
        "fidelity-n-items", "fidelity-calibration-k", "fidelity-cells", "fidelity-n-models",
        "fidelity-model-cells", "fidelity-seeds"])
def test_command_size_over_machine_budget_is_usage_error(
    tmp_path, monkeypatch, capsys, argv, message
):
    """``calibrate`` and ``fidelity`` check their sizes against the budgets of
    ``evolve`` before they allocate, and write nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--gen-seed", "0", "--n-items", str(10**6), "--k", "11"],
     "--k x --n-items must be at most 10000000, got 11000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", str(10**6), "--calibration-k", "11"],
     "--calibration-k x --n-items must be at most 10000000, got 11000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", str(10**6), "--n-models", "11",
      "--calibration-k", "2"],
     "--n-models x --n-items must be at most 10000000, got 11000000"),
    (["fidelity", "--gen-seed", "0", "--n-items", str(10**6), "--n-models", "2",
      "--seeds", "500001"],
     "--seeds x --n-models must be at most 1000000, got 1000002"),
    (["evolve", "--config", "config.json"],
     "config 'subset.calibration_k' x 'evaluator.simulated.n_items' must be at most 10000000, "
     "got 11000000"),
], ids=["calibrate-k", "fidelity-calibration-k", "fidelity-n-models", "fidelity-seeds",
        "evolve-calibration-k"])
def test_budget_fails_before_a_benchmark_is_generated(
    tmp_path, monkeypatch, capsys, argv, message
):
    """Every budget on a generated benchmark is checked before the generator
    runs: here it refuses to."""
    def refuse(**kw):
        raise AssertionError(f"generate_benchmark(**{kw}) was called")

    monkeypatch.setattr(cli, "generate_benchmark", refuse)
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({
        "evaluator": {"simulated": {"n_items": 10**6}}, "subset": {"calibration_k": 11},
        "output_dir": "out",
    }))
    assert main(argv + (["--out", "out"] if argv[0] != "evolve" else [])) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


BUILDERS = ("generate_benchmark", "load_benchmark")


def references(source: str, names) -> list[tuple[int, str, str]]:
    """``(line, function, name)`` for each reference to one of ``names``, by
    name or as an attribute, in the innermost function around it (``""`` at
    module level); imports are not references."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # breadth first: an inner function overrides its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return sorted(
        (node.lineno, owner.get(id(node), ""), name)
        for node in ast.walk(tree)
        for name in [node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute) else None]
        if name in names
    )


def test_guard_finds_benchmark_builders():
    source = (
        "from .evaluation import generate_benchmark, load_benchmark\n"
        "generate_benchmark()\n"
        "def _benchmark(p):\n"
        "    return load_benchmark(p)\n"
        "def other():\n"
        "    build = evaluation.generate_benchmark\n"
        "    def inner(p):\n"
        "        return functools.partial(load_benchmark, p)\n"
    )
    assert references(source, BUILDERS) == [
        (2, "", "generate_benchmark"),
        (4, "_benchmark", "load_benchmark"),
        (6, "other", "generate_benchmark"),
        (8, "inner", "load_benchmark"),
    ]


def test_cli_builds_a_benchmark_only_in_the_resolver():
    """Only ``cli._benchmark`` loads or generates a benchmark, once each, so no
    command can build one past the machine budgets."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert sorted((fn, name) for _, fn, name in references(source, BUILDERS)) == [
        ("_benchmark", "generate_benchmark"),
        ("_benchmark", "load_benchmark"),
    ]


def test_cli_builds_a_calibration_matrix_only_in_one_function():
    """Only ``cli._calibration_matrix`` makes the grid and builds the matrix,
    so calibrate and evolve calibrate one way."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    names = ("build_calibration_matrix", "default_lambda_grid")
    assert sorted((fn, name) for _, fn, name in references(source, names)) == [
        ("_calibration_matrix", "build_calibration_matrix"),
        ("_calibration_matrix", "build_calibration_matrix"),
        ("_calibration_matrix", "default_lambda_grid"),
    ]


def test_fidelity_budgets_the_items_of_a_benchmark_file(tmp_path, capsys):
    """With --bench the model cells count the items the file holds."""
    bench = tmp_path / "bench.json"
    save_benchmark(generate_benchmark(seed=0, n_items=40), bench)
    out_dir = tmp_path / "out"
    argv = ["fidelity", "--bench", str(bench), "--sizes", "10", "--out", str(out_dir)]
    assert main(argv + ["--n-models", "250001"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --n-models x the 40 items of --bench must be at most 10000000, "
        "got 10000040\n"
    )
    assert not out_dir.exists()


def test_fidelity_sizes_at_the_machine_budget_pass_the_check(tmp_path, monkeypatch):
    """The fidelity budgets are inclusive: 10**4 models on 1,000 items are 10**7
    cells, and 100 seeds of them 10**6 evaluations. The curve is stubbed, so
    nothing that large is scored."""
    calls = []
    monkeypatch.setattr(cli, "rank_fidelity_curve",
                        lambda *a, **kw: calls.append(kw) or np.zeros((3, 5, len(kw["seeds"]))))
    assert main(["fidelity", "--gen-seed", "0", "--n-models", str(10**4), "--seeds", "100",
                 "--out", str(tmp_path / "out")]) == 0
    assert [(kw["n_models"], len(kw["seeds"])) for kw in calls] == [(10**4, 100)]


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "15,15"], "--sizes lists 15 more than once"),
    (["--sizes", "10,15,010"], "--sizes lists 10 more than once"),
    (["--strategies", "entropy,random,entropy", "--sizes", "10"],
     "--strategies lists entropy more than once"),
    (["--strategies", "random, random", "--sizes", "10"], "--strategies lists random more than once"),
], ids=["sizes", "sizes-same-number", "strategies", "strategies-spaced"])
def test_fidelity_repeated_entry_is_usage_error(tmp_path, capsys, argv, message):
    """Each listed strategy and size is one slot of the curve: a repeated entry
    is a usage error naming its flag, raised before --out exists."""
    out_dir = tmp_path / "out"
    assert main(["fidelity", "--gen-seed", "0", "--n-items", "40", "--n-models", "4",
                 "--seeds", "2", *argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["--strategies", "bogus"],
     "--strategies entry must be one of entropy, random, disagreement, got 'bogus'"),
    (["--sizes", "1_0"], "--sizes entry must be decimal digits, got '1_0'"),
    (["--sizes", "10,a"], "--sizes entry must be decimal digits, got 'a'"),
    (["--sizes", "10, -5"], "--sizes entry must be decimal digits, got '-5'"),
    (["--sizes", "+5"], "--sizes entry must be decimal digits, got '+5'"),
    (["--sizes", "\u0661\u0665"], "--sizes entry must be decimal digits, got '\u0661\u0665'"),
], ids=["strategy", "sizes-underscore", "sizes-letter", "sizes-sign",
        "sizes-plus", "sizes-arabic-indic"])
def test_fidelity_bad_entry_is_usage_error_naming_the_flag(tmp_path, capsys, argv, message):
    """A --strategies entry that names no strategy, or a --sizes entry that is
    not plain ASCII digits, is a usage error naming the flag and the entry,
    raised before --out exists."""
    out_dir = tmp_path / "out"
    assert main(["fidelity", "--gen-seed", "0", "--n-items", "40", "--n-models", "4",
                 "--seeds", "2", *argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out_dir.exists()


def test_calibration_budget_counts_the_items_of_a_benchmark_file(tmp_path, monkeypatch, capsys):
    """A loaded benchmark's calibration cells are budgeted like a generated
    one's: each command is a usage error that names its flag or field and the
    file's item count, before it writes anything."""
    monkeypatch.setattr(cli, "MAX_CALIBRATION_CELLS", 399)  # k = 10 over 40 items is 400
    bench = tmp_path / "bench.json"
    save_benchmark(generate_benchmark(seed=0, n_items=40), bench)
    cfg_path, run_dir = evolve_config(
        tmp_path, evaluator={"simulated": {"benchmark": str(bench)}},
        subset={"strategy": "entropy", "size": 5, "calibration_k": 10},
    )
    out = str(tmp_path / "out")
    for argv, message in [
        (["calibrate", "--gen-seed", "0", "--n-items", "40", "--out", out],
         "--k x --n-items must be at most 399, got 400"),
        (["calibrate", "--bench", str(bench), "--save-bench", out, "--out", out],
         "--k x the 40 items of --bench must be at most 399, got 400"),
        (["fidelity", "--bench", str(bench), "--sizes", "5", "--n-models", "2", "--out", out],
         "--calibration-k x the 40 items of --bench must be at most 399, got 400"),
        (["evolve", "--config", str(cfg_path)],
         "config 'subset.calibration_k' x the 40 items of 'evaluator.simulated.benchmark' "
         "must be at most 399, got 400"),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json", cfg_path.name]

    monkeypatch.setattr(cli, "MAX_CALIBRATION_CELLS", 400)  # inclusive
    assert main(["calibrate", "--bench", str(bench), "--out", out]) == 0
    assert main(["evolve", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("evaluator, message", [
    ({"records": {"path": "missing.jsonl"}}, "No such file or directory"),
    ({"records": {"path": "bad.jsonl"}}, "bad.jsonl: line 1: invalid JSON"),
    ({"simulated": {"benchmark": "missing.json"}}, "No such file or directory"),
], ids=["records-missing", "records-malformed", "benchmark-missing"])
def test_evolve_unreadable_input_creates_no_run_directory(
    tmp_path, monkeypatch, capsys, evaluator, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text("{not json\n")
    cfg_path, run_dir = evolve_config(tmp_path, evaluator=evaluator, subset=None)
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("config, message", [
    ({"evaluator": {"simulated": {"benchmark": "BENCH", "n_items": 7, "generator_seed": 9}}},
     "'evaluator.simulated.benchmark' excludes 'evaluator.simulated.n_items', "
     "'evaluator.simulated.generator_seed'"),
    ({"evaluator": {"simulated": {"benchmark": "BENCH", "generator_seed": 0, "noise_seed": 3}}},
     "'evaluator.simulated.benchmark' excludes 'evaluator.simulated.generator_seed'"),
    ({"subset": {"item_ids": ["item-00"], "strategy": "entropy", "size": 5, "calibration_k": 3}},
     "'subset.item_ids' excludes 'subset.strategy', 'subset.size', 'subset.calibration_k'"),
    ({"subset": {"item_ids": ["item-00"], "seed": 0}}, "'subset.item_ids' excludes 'subset.seed'"),
    ({"evaluator": {"records": {"path": "RECORDS"}}, "subset": {"item_ids": ["q1"], "size": 1}},
     "'subset.item_ids' excludes 'subset.size'"),
], ids=["benchmark-generator-fields", "benchmark-generator-seed", "item-ids-selection-fields",
        "item-ids-seed", "item-ids-records"])
def test_evolve_fields_the_source_overrides_are_usage_errors(tmp_path, capsys, config, message):
    """A benchmark file fixes the items and explicit ids fix the subset, so a
    field they would leave unused is a usage error naming it, raised before
    the run directory exists."""
    bench = tmp_path / "bench.json"
    save_benchmark(generate_benchmark(seed=0, n_items=40), bench)
    records = tmp_path / "records.jsonl"
    records.write_text("")
    text = json.dumps(config).replace("BENCH", str(bench)).replace("RECORDS", str(records))
    cfg_path, run_dir = evolve_config(tmp_path, **{"evaluator": SIM, **json.loads(text)})
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"usage error: config {message}\n"
    assert not run_dir.exists()


TINY_SEARCH = {"population_size": 4, "generations": 1, "seed": 0}


@pytest.mark.parametrize("config", [
    {"search": TINY_SEARCH, "evaluator": {"simulated": None}, "subset": None},
    {"search": TINY_SEARCH, "evaluator": SIM, "subset": {"strategy": "random", "size": 5},
     "output_dir": None},
    {"search": {**TINY_SEARCH, "seed": 10**30, "genotype_bounds": None,
                "mutation": {"per_variable_probability": None}, "sbx": {"eta": 1}},
     "evaluator": {"simulated": {"n_items": 20, "generator_seed": 0, "noise_seed": -5}}},
    {"search": {**TINY_SEARCH, "genotype_bounds": [[0, 1]], "extra": [1], "sbx": {"extra": "x"}},
     "evaluator": {**SIM, "extra": 1}, "subset": {"item_ids": ["item-00", "item-03"]},
     "extra": None},
    # Any falsy simulated block, not only null, means the default benchmark.
    {"search": TINY_SEARCH, "evaluator": {"simulated": []}, "subset": None},
])
def test_evolve_config_edge_values_are_accepted(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("merge,search,kind,field", [
    ({"kind": "ties"}, {}, "ties", "merge.kind"),
    ({"kind": "ta"}, {"genotype_kind": "linear"}, "linear", "search.genotype_kind"),
    ({"kind": "ties"}, {"genotype_kind": "ta"}, "ta", None),
    ({}, {}, "ta", None),
])
def test_evolve_merge_kind_fills_a_missing_genotype_kind(
    tmp_path, capsys, merge, search, kind, field
):
    cfg_path, out_dir = evolve_config(
        tmp_path, merge=merge, search={**TINY_SEARCH, **search}, subset=None, evaluator=SIM
    )
    if kind == "ta":
        assert main(["evolve", "--config", str(cfg_path)]) == 0
        assert json.loads((out_dir / "config.json").read_text())["search"]["genotype_kind"] == kind
        return
    # The simulated benchmark scores TA genotypes only: any other kind is a
    # usage error, named by the field that set it, before the run directory exists.
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: config '{field}' must be ta with a simulated evaluator, got \"{kind}\"\n"
    )
    assert not out_dir.exists()


def config_fields(rules, prefix=""):
    """Every field of a config schema, blocks included, as a dotted name."""
    for name, rule in rules.items():
        yield prefix + name
        if isinstance(rule, dict):
            yield from config_fields(rule, prefix + name + ".")


PATH_FIELDS = {"output_dir", "evaluator.simulated.benchmark"}
# Values at the edge of the JSON number and seed rules.
EDGE_VALUES = [10**400, -(10**400), float("nan"), float("inf"), -float("inf"), -1]
SIZE_FIELDS = {"population_size", "generations", "n_items", "size", "calibration_k"}
TINY_CONFIG = {
    "search": TINY_SEARCH,
    "evaluator": SIM,
    "subset": {"strategy": "entropy", "size": 5, "seed": 0, "calibration_k": 3},
}


def json_values(integers):
    scalars = (st.none() | st.booleans() | integers | st.floats() | st.floats(0, 1)
               | st.text(max_size=4) | st.sampled_from(["ta", "ties", "random", "item-00"]))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


@st.composite
def config_with_one_field_replaced(draw):
    field = draw(st.sampled_from(sorted(set(config_fields(cli._CONFIG)) - PATH_FIELDS)))
    *blocks, name = field.split(".")
    if name in SIZE_FIELDS:  # small enough to run, or too large for an index
        values = st.sampled_from([2**63, 10**400]) | json_values(st.integers(-2, 12))
    else:  # the edge values are drawn as often as all others together
        values = st.sampled_from(EDGE_VALUES) | json_values(st.integers())
    config = json.loads(json.dumps(TINY_CONFIG))
    block = config
    for key in blocks:
        block = block.setdefault(key, {})
    block[name] = draw(values)
    return config


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(config=config_with_one_field_replaced())
def test_evolve_any_field_value_keeps_the_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, run = Path(tmp) / "config.json", Path(tmp) / "run"
        path.write_text(json.dumps(config))
        rc = main(["evolve", "--config", str(path), "--out", str(run)])
        assert rc in (0, 1, 2)
        assert rc != 2 or not run.exists()


@pytest.mark.parametrize("argv", [
    ["calibrate", "--gen-seed", "-1", "--out", "OUT/m.json"],
    ["fidelity", "--gen-seed", "-3", "--out", "OUT"],
    ["sample-subset", "--matrix", "m.json", "--strategy", "entropy", "--size", "5",
     "--seed", "-1", "--out", "OUT/s.json"],
])
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([a.replace("OUT", str(out)) for a in argv]) == 2
    flag = next(a for a in argv if a.endswith("seed"))
    assert f"usage error: {flag} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, argv", [
    ("--n-items", "1_0", ["calibrate", "--gen-seed", "0", "--out", "OUT/m.json"]),
    ("--k", "1_0", ["calibrate", "--gen-seed", "0", "--n-items", "50", "--out", "OUT/m.json"]),
    ("--n-items", "\u0665\u0660", ["calibrate", "--gen-seed", "0", "--out", "OUT/m.json"]),
    ("--k", "+3", ["calibrate", "--gen-seed", "0", "--n-items", "50", "--out", "OUT/m.json"]),
    ("--gen-seed", " 0", ["calibrate", "--n-items", "50", "--out", "OUT/m.json"]),
    ("--gen-seed", "9" * 5000, ["calibrate", "--n-items", "50", "--out", "OUT/m.json"]),
    ("--noise-seed", "1_0", ["calibrate", "--gen-seed", "0", "--n-items", "50", "--out", "OUT/m.json"]),
    ("--n-models", "1_0", ["fidelity", "--gen-seed", "0", "--n-items", "50", "--out", "OUT"]),
    ("--seeds", "+2", ["fidelity", "--gen-seed", "0", "--n-items", "50", "--out", "OUT"]),
    ("--calibration-k", "\u0661\u0660", ["fidelity", "--gen-seed", "0", "--n-items", "50", "--out", "OUT"]),
    ("--size", "1_0", ["sample-subset", "--matrix", "m.json", "--strategy", "entropy",
                       "--out", "OUT/s.json"]),
    ("--seed", "+1", ["sample-subset", "--matrix", "m.json", "--strategy", "entropy", "--size", "5",
                      "--out", "OUT/s.json"]),
], ids=["n-items-underscore", "k-underscore", "n-items-arabic-indic", "k-plus", "gen-seed-space",
        "gen-seed-5000-digits", "noise-seed-underscore", "n-models-underscore", "seeds-plus",
        "calibration-k-arabic-indic", "size-underscore", "seed-plus"])
def test_integer_flag_takes_ascii_digits_after_an_optional_minus(tmp_path, capsys, flag, value, argv):
    # int() reads an underscore, a plus sign, spaces and other scripts' digits
    out = tmp_path / "out"
    assert main([a.replace("OUT", str(out)) for a in argv] + [flag, value]) == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integer strings of any length")
def test_fidelity_sizes_entry_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    out, limit = tmp_path / "out", sys.get_int_max_str_digits()
    assert main(["fidelity", "--gen-seed", "0", "--n-items", "50", "--sizes", "10," + "9" * (limit + 1),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: --sizes entry has more than {limit} digits\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--gen-seed", "0", "--n-items", "0", "--out", "OUT/m.json"],
     "--n-items must be >= 1"),
    (["fidelity", "--gen-seed", "0", "--n-items", "-5", "--out", "OUT"], "--n-items must be >= 1"),
    (["fidelity", "--gen-seed", "0", "--calibration-k", "1", "--out", "OUT"],
     "--calibration-k must be >= 2"),
    (["fidelity", "--gen-seed", "0", "--n-models", "1", "--out", "OUT"], "--n-models must be >= 2"),
    (["fidelity", "--gen-seed", "0", "--sizes", "10,0", "--out", "OUT"], "--sizes must be >= 1"),
    (["fidelity", "--gen-seed", "0", "--seeds", "0", "--out", "OUT"], "--seeds must be >= 1"),
])
def test_flag_below_its_least_value_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([a.replace("OUT", str(out)) for a in argv]) == 2
    assert f"usage error: {message}, got " in capsys.readouterr().err
    assert not out.exists()


def test_fidelity_size_beyond_the_benchmark_is_domain_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fidelity", "--gen-seed", "0", "--n-items", "40", "--sizes", "41",
                 "--out", str(out)]) == 1
    assert "error: subset sizes must lie in [1, 40]" in capsys.readouterr().err
    assert not out.exists()


def simulated_records_for(bench, genotypes, path, subset=None):
    """Produce a records file by replaying the simulated benchmark."""
    item_ids = bench.item_ids if subset is None else list(subset)
    rows = [bench.index_of(i) for i in item_ids]
    lines = []
    for g in genotypes:
        correct = bench.correctness_vector(g.values[0])
        lengths = bench.length_vector(g.values[0])
        for iid, i in zip(item_ids, rows):
            lines.append(json.dumps({
                "candidate_id": candidate_id(g),
                "item_id": iid,
                "correct": int(correct[i]),
                "length": float(lengths[i]),
            }))
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def test_evolve_records_manifest_round_trips(tmp_path):
    bench = generate_benchmark(seed=0, n_items=60)
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("")

    explicit_subset = bench.item_ids[:10]
    cfg = {
        "search": {"population_size": 4, "generations": 1, "seed": 0},
        "evaluator": {"records": {"path": str(records_path)}},
        "subset": {"item_ids": list(explicit_subset)},
        "output_dir": str(tmp_path / "recrun"),
    }
    cfg_path = tmp_path / "rec-config.json"
    cfg_path.write_text(json.dumps(cfg))

    known = []
    for round_no in range(4):
        rc = main(["evolve", "--config", str(cfg_path)])
        if rc == 0:
            break
        assert rc == 1
        manifest = tmp_path / "recrun" / "manifest.jsonl"
        assert manifest.exists()
        pending = [g for _, g in read_manifest(manifest)]
        assert pending, "manifest must name pending candidates"
        known.extend(pending)
        simulated_records_for(bench, known, records_path, subset=explicit_subset)
    else:
        pytest.fail("records evolve did not converge in 4 harness rounds")

    # N*(T+1) = 8 candidates evaluated over two harness rounds
    history = (tmp_path / "recrun" / "history.jsonl").read_text().splitlines()
    assert len(history) == 8


def overflowing_records(cids, items):
    """Record lines whose mean length, a left-to-right sum over 3 items, passes the float64 range."""
    return "".join(json.dumps({"candidate_id": cid, "item_id": iid, "correct": 1, "length": 1.5e308})
                   + "\n" for cid in cids for iid in items)


def test_evolve_names_the_candidate_whose_mean_length_overflows(tmp_path, capsys):
    """A records evolve refuses a record mean past the float64 range with the
    candidate's id and no numpy warning, in the search and at the lambda = 0
    baseline of front_points.csv."""
    bench = generate_benchmark(seed=0, n_items=20)
    items = bench.item_ids[:3]
    records, run = tmp_path / "records.jsonl", tmp_path / "run"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "search": {"population_size": 4, "generations": 1, "seed": 0},
        "evaluator": {"records": {"path": str(records)}},
        "subset": {"item_ids": items}, "output_dir": str(run)}))
    records.write_text("")
    assert main(["evolve", "--config", str(cfg)]) == 1
    pending = [cid for cid, _ in read_manifest(run / "manifest.jsonl")]
    records.write_text(overflowing_records(pending, items))
    capsys.readouterr()
    assert main(["evolve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: candidate {pending[0]!r}: mean_length must be a finite number >= 0, got inf\n")

    # Finite records for the whole search; then only the baseline overflows.
    records.write_text("")
    known = []
    while main(["evolve", "--config", str(cfg)]) == 1:
        known.extend(g for _, g in read_manifest(run / "manifest.jsonl"))
        simulated_records_for(bench, known, records, subset=items)
    baseline = candidate_id(Genotype(MergeKind.TA, (0.0,)))
    assert baseline not in {candidate_id(g) for g in known}
    assert not (run / "front_points.csv").exists()  # no baseline records: no reductions
    with records.open("a") as fh:
        fh.write(overflowing_records([baseline], items))
    capsys.readouterr()
    assert main(["evolve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: candidate {baseline!r}: mean_length must be a finite number >= 0, got inf\n")
    assert not (run / "front_points.csv").exists()


def test_simulated_evolve_names_the_candidate_whose_mean_length_overflows(
    tmp_path, capsys, monkeypatch
):
    """A simulated evolve refuses a mean length whose sum passes the float64
    range with the candidate's id and no numpy warning."""
    bench, cfg = tmp_path / "bench.json", tmp_path / "config.json"
    bench.write_text(json.dumps([{"item_id": f"q{i}", "response_kind": "THRESHOLD_UP", "t": 0.5,
                                  "len_long": 1e308, "len_short": 1e308} for i in range(3)]))
    cfg.write_text(json.dumps({
        "search": {"population_size": 4, "generations": 1, "seed": 0},
        "evaluator": {"simulated": {"benchmark": str(bench)}}, "output_dir": str(tmp_path / "run")}))
    batches = []

    class Recording(SimulatedFitness):
        def evaluate_batch(self, genotypes):
            batches.append(list(genotypes))
            return super().evaluate_batch(genotypes)

    monkeypatch.setattr(cli, "SimulatedFitness", Recording)
    assert main(["evolve", "--config", str(cfg)]) == 1
    # Every candidate overflows; the error names the first of the one batch.
    assert len(batches) == 1 and len(batches[0]) == 4
    assert capsys.readouterr().err == (f"error: candidate {candidate_id(batches[0][0])!r}: "
                                       "mean_length must be a finite number >= 0, got inf\n")


@pytest.mark.parametrize("lengths, message", [
    ({("cand", "gsm"): [1.5e308] * 2},
     "benchmark 'gsm': candidate mean_length must be a finite number >= 0, got inf"),
    ({("base", "math"): [1.5e308] * 2},
     "benchmark 'math': baseline mean_length must be a finite number >= 0, got inf"),
    # each mean is finite; their sum, or a ratio of them, is not
    ({("cand", "gsm"): [1e308], ("cand", "math"): [1e308]},
     "report average mean length must be a finite number, got inf"),
    ({("base", "gsm"): [1e308], ("base", "math"): [1e308]},
     "report average baseline mean length must be a finite number, got inf"),
    ({("cand", "gsm"): [8e307] * 2, ("cand", "math"): [8e307] * 2},
     "report weighted average mean length must be a finite number, got inf"),
    ({("base", "gsm"): [5e-324] * 2},
     "report benchmark 'gsm' length reduction must be a finite number, got -inf"),
])
def test_report_refuses_a_mean_past_the_float64_range(tmp_path, capsys, lengths, message):
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        json.dumps({"candidate_id": cid, "item_id": f"{name}/q{i}", "correct": 1,
                    "length": length}) + "\n"
        for cid in ("cand", "base") for name in ("gsm", "math")
        for i, length in enumerate(lengths.get((cid, name), [100.0] * 2))))
    assert main(["report", "--records", str(records), "--candidate", "cand",
                 "--baseline", "base", "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rep").exists()


def test_report_csv_quotes_names_as_the_csv_module_reads_them(tmp_path):
    names = ["math,hard", 'say "hi"', "two\nlines", "plain"]
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        json.dumps({"candidate_id": cid, "item_id": f"{name}/q{i}", "correct": i % 2,
                    "length": 100.0 + i + len(cid)}) + "\n"
        for cid in ("cand", "base") for name in names for i in range(2)))
    assert main(["report", "--records", str(records), "--candidate", "cand",
                 "--baseline", "base", "--out", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7] * 7
    assert [row[0] for row in rows[1:]] == names + ["average", "weighted_average"]
    assert rows[1][1:] == ["2", "50.0000", "104.5000", "50.0000", "104.5000", "0.0000"]
    assert rows[4][1:] == rows[1][1:]  # the plain name's figures: 1 of 2 solved on each side


CALIBRATION_GRID = [Genotype(MergeKind.TA, (k / 3,)) for k in range(4)]


def calibrated_config(tmp_path, out_name="calrun"):
    """A records-mode config whose entropy subset is calibrated on ``CALIBRATION_GRID``."""
    return evolve_config(
        tmp_path, out_name,
        search={"population_size": 4, "generations": 1, "seed": 0},
        evaluator={"records": {"path": str(tmp_path / "records.jsonl")}},
        subset={"strategy": "entropy", "size": 10, "seed": 0, "calibration_k": 4},
    )


def run_calibrated_harness(tmp_path, after_round=lambda run_dir: None):
    """The harness loop with the grid candidates recorded up front, so that
    every round builds the subset; ``after_round`` gets the run directory after
    each round, before the harness appends records. Returns the run directory."""
    bench = generate_benchmark(seed=0, n_items=80)
    records_path = tmp_path / "records.jsonl"
    simulated_records_for(bench, CALIBRATION_GRID, records_path)
    cfg_path, run_dir = calibrated_config(tmp_path)
    known = list(CALIBRATION_GRID)
    for _ in range(4):
        rc = main(["evolve", "--config", str(cfg_path)])
        after_round(run_dir)
        if rc == 0:
            return run_dir
        assert rc == 1
        known.extend(g for _, g in read_manifest(run_dir / "manifest.jsonl"))
        simulated_records_for(bench, known, records_path)
    pytest.fail("did not converge")


def run_dir_digests(tmp_path, run_dir) -> dict[str, str]:
    """Every file of the run directory; config.json echoes tmp_path, so it is
    hashed with that prefix replaced."""
    config = (run_dir / "config.json").read_text().replace(str(tmp_path), "TMP")
    digests = {p.name: sha16(p) for p in sorted(run_dir.iterdir()) if p.name != "config.json"}
    digests["config.json"] = hashlib.sha256(config.encode()).hexdigest()[:16]
    return digests


CALIBRATED_RUN_DIGESTS = {
    "config.json": "7488f13490b4eb41",
    "front_points.csv": "90493edf5be02421",
    "history.jsonl": "b30859b731f90eda",
    "manifest.jsonl": "6ffebea61575ded9",
    "matrix.json": "227c39ec37af8b31",
    "pareto.json": "411cf5c4adfc88b6",
    "subset.json": "8eb7246244d44eb5",
}
# The resume index beside the record file once the calibrated harness loop ends.
CALIBRATED_INDEX_DIGEST = "89341682f3ab1e50"


def test_evolve_records_with_strategy_subset_from_calibration(tmp_path):
    run_dir = run_calibrated_harness(tmp_path)
    subset = json.loads((run_dir / "subset.json").read_text())
    assert len(subset["item_ids"]) == 10 and subset["strategy"] == "entropy"
    front = json.loads((run_dir / "pareto.json").read_text())
    assert front["members"]
    assert run_dir_digests(tmp_path, run_dir) == CALIBRATED_RUN_DIGESTS
    index = tmp_path / "records.jsonl.index"
    assert sha16(index) == CALIBRATED_INDEX_DIGEST

    # The resume index written round by round is the one a single read of the
    # final record file writes: its bytes are a function of that file alone.
    index.unlink()
    load_record_evaluations(tmp_path / "records.jsonl")
    assert sha16(index) == CALIBRATED_INDEX_DIGEST


def assert_outputs_list_the_front(run_dir, evaluator, stdout):
    """front_points.csv and the summary after the last table header hold
    exactly the members of pareto.json, in its order."""
    members = json.loads((run_dir / "pareto.json").read_text())["members"]
    assert members
    base = evaluator.evaluate(Genotype(MergeKind.TA, (0.0,))).mean_length
    rows = [f"{100.0 * (1.0 - m['fitness'][1] / base):.4f},{-100.0 * m['fitness'][0]:.4f}" for m in members]
    assert (run_dir / "front_points.csv").read_text().splitlines() == ["length_reduction_pct,accuracy_pct"] + rows
    lines = stdout.splitlines()
    header = len(lines) - lines[::-1].index(f"{'genotype':<28} {'accuracy':>9} {'mean_length':>12}")
    assert lines[header:] == [
        f"ta[{m['genotype']['values'][0]:.4f}]".ljust(28)
        + f" {m['accuracy']:>9.4f} {m['mean_length']:>12.2f}" for m in members] + [f"run directory: {run_dir}"]


def test_evolve_simulated_outputs_list_the_front(tmp_path, capsys):
    cfg_path, run_dir = evolve_config(tmp_path, search=CLAMPED)
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    subset = json.loads((run_dir / "subset.json").read_text())["item_ids"]
    evaluator = SimulatedFitness(load_benchmark(run_dir / "benchmark.json"), subset)
    assert_outputs_list_the_front(run_dir, evaluator, capsys.readouterr().out)


def test_evolve_records_outputs_list_the_front(tmp_path, capsys):
    run_dir = run_calibrated_harness(tmp_path)
    subset = json.loads((run_dir / "subset.json").read_text())["item_ids"]
    evaluator = RecordsFitness(load_record_evaluations(tmp_path / "records.jsonl"), subset)
    assert_outputs_list_the_front(run_dir, evaluator, capsys.readouterr().out)


def _record_readers(base) -> list[list[str]]:
    """``report`` and ``calibrate --records`` over the calibrated harness's record file."""
    records = str(base / "records.jsonl")
    low, high = (candidate_id(g) for g in (CALIBRATION_GRID[0], CALIBRATION_GRID[-1]))
    return [
        ["report", "--records", records, "--candidate", high, "--baseline", low,
         "--out", str(base / "report")],
        ["calibrate", "--records", records, "--k", str(len(CALIBRATION_GRID)),
         "--out", str(base / "matrix.json")],
    ]


def test_every_record_reader_resumes_from_the_index(tmp_path, monkeypatch):
    """After a finished records evolve, evolve, report and calibrate --records
    read the unchanged record file through its index: none decodes a line."""
    from paretomerge import evaluation

    run_dir = run_calibrated_harness(tmp_path)
    calls = []
    decode = evaluation._decode
    monkeypatch.setattr(evaluation, "_decode", lambda line: calls.append(line) or decode(line))
    for argv in _record_readers(tmp_path):
        assert main(argv) == 0
    assert main(["evolve", "--config", str(calibrated_config(tmp_path)[0])]) == 0
    assert calls == []
    assert (tmp_path / "matrix.json").read_bytes() == (run_dir / "matrix.json").read_bytes()


def _fail_index_writes(monkeypatch) -> list[Path]:
    """Make each write of a resume index fail part-way with an ``OSError``
    (a full disk); returns the paths it was asked to write."""
    from paretomerge import evaluation

    write, failed = evaluation.write_atomic, []

    def write_atomic(path, data):
        if not str(path).endswith(".index"):
            return write(path, data)
        failed.append(Path(path))

        def chunks():
            yield b"PMRIDX2\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        return write(path, chunks())

    monkeypatch.setattr(evaluation, "write_atomic", write_atomic)
    return failed


def test_unwritable_index_changes_no_output(tmp_path, monkeypatch, capsys):
    """When the index cannot be written, evolve, report and calibrate --records
    exit as before and write the same bytes, and no temp file is left."""
    outputs = {}
    for name in ("writable", "unwritable"):
        base = tmp_path / name
        base.mkdir()
        with monkeypatch.context() as m:
            failed = _fail_index_writes(m) if name == "unwritable" else []
            run_dir = run_calibrated_harness(base)
            assert [main(argv) for argv in _record_readers(base)] == [0, 0]
        assert run_dir_digests(base, run_dir) == CALIBRATED_RUN_DIGESTS
        assert (base / "records.jsonl.index").exists() == (name == "writable")
        # Each load parses the whole file and tries to write the index: three
        # evolve rounds, report and calibrate.
        assert failed == [base / "records.jsonl.index"] * (5 if name == "unwritable" else 0)
        printed = capsys.readouterr()
        outputs[name] = [
            (base / "report" / "report.csv").read_bytes(),
            (base / "matrix.json").read_bytes(),
            *(text.replace(str(base), "BASE") for text in printed),
        ]
    assert outputs["unwritable"] == outputs["writable"]
    assert list(tmp_path.rglob("*.tmp")) == []


def _counted(fn, calls):
    def call(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return call


CALIBRATION_STEPS = ("build_calibration_matrix", "save_matrix", "select_subset")


def test_evolve_records_rebuilds_the_calibration_every_round(tmp_path, monkeypatch):
    """Each harness round builds, writes and selects the subset once, and its
    matrix.json and subset.json equal those of a fresh run directory over the
    record file of that round."""
    calls, rounds = [], []
    for name in CALIBRATION_STEPS:
        monkeypatch.setattr(cli, name, _counted(getattr(cli, name), calls))

    def after_round(run_dir):
        assert calls == list(CALIBRATION_STEPS)
        calls.clear()
        rounds.append(run_dir)
        cfg_path, fresh = calibrated_config(tmp_path, f"fresh{len(rounds)}")
        assert main(["evolve", "--config", str(cfg_path)]) in (0, 1)
        calls.clear()
        for name in ("matrix.json", "subset.json"):
            assert (run_dir / name).read_bytes() == (fresh / name).read_bytes(), name

    run_dir = run_calibrated_harness(tmp_path, after_round)
    assert len(rounds) == 3
    assert run_dir_digests(tmp_path, run_dir) == CALIBRATED_RUN_DIGESTS


def test_evolve_records_leaves_matrix_and_subset_files_with_unchanged_bytes_in_place(tmp_path):
    """A round that rebuilds the matrix and subset already on disk does not
    rewrite them: each file keeps its inode and mtime. The first round's files
    are held open, so a replaced file could not take back its inode number."""
    held, rounds = {}, []

    def after_round(run_dir):
        for name in ("matrix.json", "subset.json"):
            if name not in held:
                held[name] = (run_dir / name).open("rb")
        rounds.append({name: (os.fstat(fh.fileno()), (run_dir / name).stat())
                       for name, fh in held.items()})

    try:
        run_calibrated_harness(tmp_path, after_round)
    finally:
        for fh in held.values():
            fh.close()
    assert len(rounds) == 3
    for stats in rounds:
        for name, (first, now) in stats.items():
            assert (now.st_ino, now.st_mtime_ns) == (first.st_ino, first.st_mtime_ns), name


def test_evolve_records_ignores_a_calibration_key_left_by_an_earlier_version(tmp_path):
    """A calibration.key in the run directory is neither read nor rewritten:
    every output byte is the one a run without it writes."""
    run_dir = tmp_path / "calrun"
    run_dir.mkdir()
    (run_dir / "calibration.key").write_bytes(b"junk")
    run_dir = run_calibrated_harness(tmp_path)
    assert (run_dir / "calibration.key").read_bytes() == b"junk"
    (run_dir / "calibration.key").unlink()
    assert run_dir_digests(tmp_path, run_dir) == CALIBRATED_RUN_DIGESTS


def test_evolve_simulated_ignores_a_calibration_key_left_by_an_earlier_version(tmp_path):
    """A simulated run leaves a calibration.key as it is and writes the bytes
    that a run directory without it receives."""
    outputs = {}
    for name in ("keyed", "plain"):
        cfg_path, run_dir = evolve_config(tmp_path, name)
        if name == "keyed":
            run_dir.mkdir()
            (run_dir / "calibration.key").write_bytes(b"junk")
        assert main(["evolve", "--config", str(cfg_path)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "config.json"}
    assert outputs["keyed"].pop("calibration.key") == b"junk"
    assert outputs["keyed"] == outputs["plain"]


def test_evolve_records_rewrites_an_older_matrix_file_that_holds_lengths(tmp_path):
    """A run directory written when matrix.json held lengths gets today's
    matrix.json on its next run, and every other file stays as it was."""
    run_dir = run_calibrated_harness(tmp_path)
    matrix = json.loads((run_dir / "matrix.json").read_text())
    lengths = [[812.5] * len(matrix["item_ids"])] * len(matrix["model_ids"])
    (run_dir / "matrix.json").write_text(json.dumps({**matrix, "lengths": lengths}))
    assert main(["evolve", "--config", str(calibrated_config(tmp_path)[0])]) == 0
    assert run_dir_digests(tmp_path, run_dir) == CALIBRATED_RUN_DIGESTS


def _edit_subset(**change):
    def edit(cfg_path, run_dir):
        cfg = json.loads(cfg_path.read_text())
        cfg["subset"].update(change)
        cfg_path.write_text(json.dumps(cfg))
    return edit


def _edit_grid_length(cfg_path, run_dir):
    # The first record belongs to the lambda = 0 grid candidate; one digit of
    # its length changes and the file keeps its size.
    records = cfg_path.parent / "records.jsonl"
    size = records.stat().st_size
    first, rest = records.read_text().split("\n", 1)
    head, sep, length = first.rpartition('"length": ')
    records.write_text(head + sep + ("2" if length[0] == "1" else "1") + length[1:] + "\n" + rest)
    assert records.stat().st_size == size


def _edit_file(name, edit):
    return lambda cfg_path, run_dir: edit(run_dir / name)


@pytest.mark.parametrize("change", [
    pytest.param(_edit_subset(strategy="random"), id="strategy"),
    pytest.param(_edit_subset(size=12), id="size"),
    pytest.param(_edit_subset(seed=1), id="seed"),
    pytest.param(_edit_subset(calibration_k=2), id="calibration_k"),
    pytest.param(_edit_grid_length, id="record-length"),
    *(pytest.param(_edit_file(name, lambda p: p.write_bytes(p.read_bytes() + b" ")),
                   id=f"{name}-edited") for name in ("matrix.json", "subset.json")),
    *(pytest.param(_edit_file(name, Path.unlink), id=f"{name}-deleted")
      for name in ("matrix.json", "subset.json")),
])
def test_evolve_records_calibration_rebuilds_on_change(tmp_path, monkeypatch, capsys, change):
    """A change to anything the subset depends on rebuilds it, and the rebuilt
    files equal those of a fresh run directory over the same inputs."""
    simulated_records_for(generate_benchmark(seed=0, n_items=80), CALIBRATION_GRID,
                          tmp_path / "records.jsonl")
    cfg_path, run_dir = calibrated_config(tmp_path)
    builds = []
    build = cli.build_calibration_matrix
    monkeypatch.setattr(cli, "build_calibration_matrix", lambda *a: builds.append(a) or build(*a))
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    change(cfg_path, run_dir)
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert len(builds) == 2
    fresh = tmp_path / "fresh"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(fresh)]) == 1
    # Each round stops only on the search candidates that have no records yet.
    err = capsys.readouterr().err
    assert err.count("error: ") == err.count("have no evaluation records") == 3
    for name in ("matrix.json", "subset.json"):
        assert (run_dir / name).read_bytes() == (fresh / name).read_bytes(), name


def test_evolve_records_new_grid_item_still_fails_the_rebuild(tmp_path, capsys):
    """A grid candidate that gains a record for a new item fails the next
    round's rebuild, which leaves the previous round's files as they were."""
    records = tmp_path / "records.jsonl"
    simulated_records_for(generate_benchmark(seed=0, n_items=80), CALIBRATION_GRID, records)
    cfg_path, run_dir = calibrated_config(tmp_path)
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    previous = {name: (run_dir / name).read_bytes() for name in ("matrix.json", "subset.json")}
    with open(records, "a") as fh:
        fh.write(json.dumps({"candidate_id": candidate_id(CALIBRATION_GRID[0]),
                             "item_id": "extra/q0", "correct": 1, "length": 10.0}) + "\n")
    capsys.readouterr()
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert "returned a different item set" in capsys.readouterr().err
    assert {name: (run_dir / name).read_bytes() for name in previous} == previous


def _drop_last_record(records):
    records.write_text("".join(records.read_text().splitlines(keepends=True)[:-1]))


def _append_extra_record(records):
    with open(records, "a") as fh:
        fh.write(json.dumps({"candidate_id": candidate_id(CALIBRATION_GRID[-1]),
                             "item_id": "extra/q0", "correct": 1, "length": 10.0}) + "\n")


def _rename_last_item(records):
    *head, last = records.read_text().splitlines(keepends=True)
    record = json.loads(last)
    records.write_text("".join(head) + json.dumps({**record, "item_id": "extra/q0"}) + "\n")


@pytest.mark.parametrize("edit", [_drop_last_record, _append_extra_record, _rename_last_item],
                         ids=["lacks-an-item", "extra-item", "other-item"])
@pytest.mark.parametrize("command", ["evolve", "calibrate"])
def test_records_grid_row_over_other_items_fails_the_calibration(tmp_path, capsys, edit, command):
    """The last grid candidate's records lack an item the others have, hold one
    more, or swap one for another: the calibration stops with exit 1 naming
    its coefficient and writes no matrix; evolve leaves its previous round's."""
    records = tmp_path / "records.jsonl"
    simulated_records_for(generate_benchmark(seed=0, n_items=80), CALIBRATION_GRID, records)
    cfg_path, run_dir = calibrated_config(tmp_path)
    if command == "evolve":
        matrix, argv = run_dir / "matrix.json", ["evolve", "--config", str(cfg_path)]
    else:
        matrix = tmp_path / "matrix.json"
        argv = ["calibrate", "--records", str(records), "--k", "4", "--out", str(matrix)]
    assert main(argv) == (1 if command == "evolve" else 0)
    previous = matrix.read_bytes() if command == "evolve" else None
    if command == "calibrate":
        matrix.unlink()
    edit(records)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: candidate at lambda=1.0 returned a different item set\n")
    assert (matrix.read_bytes() if matrix.exists() else None) == previous


def run_records_without_subset(tmp_path, between_rounds=lambda index: None, seeds=(3,)):
    # No subset block: each candidate is scored on all of its records, summed in
    # file order. Items are written in reverse benchmark order so that file
    # order differs from item-id order. One search per seed, each with its own
    # run directory, reads the one record file; their harness rounds take
    # turns. ``between_rounds`` gets the path of the resume index after each
    # harness round. Returns each search's digests, in seed order.
    bench = generate_benchmark(seed=0, n_items=40)
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("")
    runs = [evolve_config(
        tmp_path, f"fullrun{seed}",
        search={"population_size": 6, "generations": 2, "seed": seed},
        evaluator={"records": {"path": str(records_path)}},
        subset=None,
    ) for seed in seeds]
    known, pending = {}, list(runs)
    for _ in range(5):
        for cfg_path, run_dir in list(pending):
            rc = main(["evolve", "--config", str(cfg_path)])
            if rc == 0:
                pending.remove((cfg_path, run_dir))
                continue
            assert rc == 1
            known.update(read_manifest(run_dir / "manifest.jsonl"))
            simulated_records_for(bench, known.values(), records_path, subset=bench.item_ids[::-1])
            between_rounds(tmp_path / "records.jsonl.index")
        if not pending:
            break
    else:
        pytest.fail("records evolve did not converge in 5 harness rounds")
    return [{name: sha16(run_dir / name) for name in ("history.jsonl", "pareto.json")}
            for _, run_dir in runs]


RECORDS_WITHOUT_SUBSET_DIGESTS = {
    "history.jsonl": "0c4f2ac1cfe54aee",
    "pareto.json": "5473e367422b5946",
}


def test_evolve_records_without_subset_digests(tmp_path):
    assert run_records_without_subset(tmp_path) == [RECORDS_WITHOUT_SUBSET_DIGESTS]


def test_two_evolve_runs_share_one_record_file(tmp_path):
    """Two searches with other seeds and their own run directories read one
    record file, and so share its index, with their harness rounds
    interleaved: each ends with the outputs it writes alone."""
    (tmp_path / "alone").mkdir()
    alone = run_records_without_subset(tmp_path / "alone", seeds=(4,))
    assert alone != [RECORDS_WITHOUT_SUBSET_DIGESTS]
    shared = run_records_without_subset(tmp_path, seeds=(3, 4))
    assert shared == [RECORDS_WITHOUT_SUBSET_DIGESTS, *alone]


def _roll_back_to_first_index(index):
    first = index.with_name("first.index")
    if first.exists():
        index.write_bytes(first.read_bytes())
    elif index.exists():
        first.write_bytes(index.read_bytes())


@pytest.mark.parametrize("between_rounds", [
    pytest.param(lambda index: index.unlink(missing_ok=True), id="deleted"),
    pytest.param(lambda index: index.write_bytes(b"junk"), id="junk"),
    pytest.param(lambda index: index.write_bytes(b""), id="empty"),
    pytest.param(lambda index: index.exists() and index.write_bytes(index.read_bytes()[:-1]),
                 id="cut-short"),
    pytest.param(_roll_back_to_first_index, id="stale"),  # resumes from the oldest prefix
])
def test_evolve_records_resume_index_is_disposable(tmp_path, between_rounds):
    """Deleting, damaging or rolling back the record file's index between
    harness rounds leaves every output byte unchanged."""
    found = []

    def damage(index):
        found.append(index.exists())
        between_rounds(index)

    assert run_records_without_subset(tmp_path, damage) == [RECORDS_WITHOUT_SUBSET_DIGESTS]
    # The first round read an empty file, so each later round left an index to damage.
    assert found == [False] + [True] * (len(found) - 1) and len(found) > 1


def test_evolve_records_missing_item_named(tmp_path):
    bench = generate_benchmark(seed=0, n_items=30)
    records_path = tmp_path / "records.jsonl"
    # candidate rows present but covering only one item of the subset
    g = Genotype(MergeKind.TA, (0.5,))
    records_path.write_text(json.dumps({
        "candidate_id": candidate_id(g),
        "item_id": bench.item_ids[0],
        "correct": 1,
        "length": 10.0,
    }) + "\n")

    cfg = {
        "search": {"population_size": 4, "generations": 1, "seed": 0},
        "evaluator": {"records": {"path": str(records_path)}},
        "subset": {"item_ids": [bench.item_ids[0], bench.item_ids[1]]},
        "output_dir": str(tmp_path / "recrun2"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["evolve", "--config", str(cfg_path)])
    assert rc == 1  # either missing candidates or missing item, both domain errors


@pytest.mark.parametrize("length", ["NaN", "Infinity", "true"])
def test_evolve_rejects_non_finite_record_with_line_number(tmp_path, capsys, length):
    records_path = tmp_path / "records.jsonl"
    cid = candidate_id(Genotype(MergeKind.TA, (0.5,)))
    records_path.write_text(
        f'{{"candidate_id": "{cid}", "item_id": "q1", "correct": 1, "length": 10.0}}\n'
        f'{{"candidate_id": "{cid}", "item_id": "q2", "correct": 1, "length": {length}}}\n'
    )
    cfg_path, _ = evolve_config(
        tmp_path, "nanrun",
        evaluator={"records": {"path": str(records_path)}},
        subset={"item_ids": ["q1", "q2"]},
    )
    assert main(["evolve", "--config", str(cfg_path)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "population,generations,digest,front_digest",
    [
        (20, 10, "888f024ea4424da6", "d92b4f3c4415f2b3"),  # the README default run
        (40, 20, "889becdb09a89d7c", "41b5995fe3c9e8d0"),
    ],
)
def test_evolve_golden_digest(tmp_path, population, generations, digest, front_digest):
    """history.jsonl + pareto.json bytes, and front_points.csv, are pinned for fixed seeds."""
    cfg_path, out_dir = evolve_config(
        tmp_path,
        search={"population_size": population, "generations": generations, "seed": 0},
        evaluator={"simulated": {"generator_seed": 0, "n_items": 1000}},
        subset={"strategy": "entropy", "size": 50, "seed": 0, "calibration_k": 10},
    )
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    h = hashlib.sha256()
    for name in ("history.jsonl", "pareto.json"):
        h.update((out_dir / name).read_bytes())
    assert h.hexdigest()[:16] == digest
    assert sha16(out_dir / "front_points.csv") == front_digest


@pytest.mark.parametrize("argv", [
    ["calibrate", "--bench", "BAD", "--out", "OUT"],
    ["sample-subset", "--matrix", "BAD", "--strategy", "entropy", "--size", "5", "--out", "OUT"],
    ["evolve", "--config", "BAD", "--out", "OUT"],
])
def test_non_json_input_file_is_named(tmp_path, capsys, argv):
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text("[{not json")
    assert main([{"BAD": str(bad), "OUT": str(out)}.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid JSON: Expecting property name")
    assert not out.exists()


def test_evolve_config_echo_digest(tmp_path):
    # Integer-valued sbx/mutation numbers echo as floats; null fields echo as
    # their dataclass defaults (bounds) or stay null (per-variable probability).
    search = {
        "population_size": 4,
        "generations": 1,
        "sbx": {"probability": 1, "eta": 15},
        "mutation": {"per_variable_probability": None, "eta": 20},
        "genotype_bounds": None,
    }
    cfg_path, out_dir = evolve_config(
        tmp_path, "echo", search=search,
        evaluator={"simulated": {"generator_seed": 0, "n_items": 20}}, subset=None,
    )
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    config = (out_dir / "config.json").read_text()
    assert '"probability": 1.0' in config and '"eta": 20.0' in config
    echo = config.replace(str(tmp_path), "TMP").encode()
    assert hashlib.sha256(echo).hexdigest()[:16] == "1f597e9bdb8f64bd"


def test_fidelity_csv_shapes(tmp_path, capsys):
    out_dir = tmp_path / "fid"
    assert main(["fidelity", "--gen-seed", "0", "--n-items", "300",
                 "--strategies", "entropy,random", "--sizes", "10,40",
                 "--n-models", "10", "--seeds", "3", "--out", str(out_dir)]) == 0
    rows = (out_dir / "fidelity.csv").read_text().strip().splitlines()
    assert rows[0] == "strategy,size,seed,rho"
    assert len(rows) == 1 + 2 * 2 * 3
    means = (out_dir / "fidelity_mean.csv").read_text().strip().splitlines()
    assert means[0] == "strategy,size,mean_rho"
    assert len(means) == 1 + 4


def test_fidelity_full_size_rho_one(tmp_path):
    out_dir = tmp_path / "fid2"
    assert main(["fidelity", "--gen-seed", "1", "--n-items", "80",
                 "--strategies", "random", "--sizes", "80",
                 "--n-models", "8", "--seeds", "2", "--out", str(out_dir)]) == 0
    rows = (out_dir / "fidelity.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[-1]) == pytest.approx(1.0) for r in rows)


def test_fidelity_unknown_strategy_usage_error(tmp_path):
    assert main(["fidelity", "--gen-seed", "0", "--strategies", "bogus",
                 "--sizes", "10", "--out", str(tmp_path / "x")]) == 2


def test_fidelity_bench_with_n_items_usage_error(tmp_path, capsys):
    bench = tmp_path / "bench.json"
    assert main(["calibrate", "--gen-seed", "0", "--n-items", "40", "--save-bench", str(bench),
                 "--out", str(tmp_path / "m.json")]) == 0
    out_dir = tmp_path / "fid"
    assert main(["fidelity", "--bench", str(bench), "--n-items", "40",
                 "--out", str(out_dir)]) == 2
    assert "usage error: --n-items applies only to --gen-seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_fidelity_outputs_byte_reproducible(tmp_path):
    args = ["fidelity", "--gen-seed", "2", "--n-items", "150",
            "--strategies", "entropy,random", "--sizes", "15,30",
            "--n-models", "8", "--seeds", "4"]
    assert main(args + ["--out", str(tmp_path / "f1")]) == 0
    assert main(args + ["--out", str(tmp_path / "f2")]) == 0
    for name in ("fidelity.csv", "fidelity_mean.csv"):
        assert (tmp_path / "f1" / name).read_bytes() == (tmp_path / "f2" / name).read_bytes()


def test_fidelity_csv_digests(tmp_path):
    out_dir = tmp_path / "fid"
    assert main(["fidelity", "--gen-seed", "2", "--n-items", "150",
                 "--strategies", "entropy,random", "--sizes", "15,30",
                 "--n-models", "8", "--seeds", "4", "--out", str(out_dir)]) == 0
    assert sha16(out_dir / "fidelity.csv") == "81e055e690ff0054"
    assert sha16(out_dir / "fidelity_mean.csv") == "829d36d8694230dd"
    # the same cells with the disagreement strategy after them
    assert main(["fidelity", "--gen-seed", "2", "--n-items", "150",
                 "--strategies", "entropy,random,disagreement", "--sizes", "15,30",
                 "--n-models", "8", "--seeds", "4", "--out", str(out_dir)]) == 0
    assert sha16(out_dir / "fidelity.csv") == "a42715def4b0b322"
    assert sha16(out_dir / "fidelity_mean.csv") == "059ff8c126021b86"


def test_report_six_benchmark_aggregate(tmp_path, capsys):
    # realistic benchmark sizes; candidate shortens everything except one
    # suite where it runs longer (negative reduction)
    sizes = {"gsm8k": 1319, "math500": 500, "minerva": 272,
             "olympiad": 675, "college": 2818, "aime24": 30}
    cand_spec = {"gsm8k": (0.85, 420.0), "math500": (0.80, 1360.0),
                 "minerva": (0.33, 1170.0), "olympiad": (0.39, 2430.0),
                 "college": (0.48, 950.0), "aime24": (0.13, 3590.0)}
    base_spec = {"gsm8k": (0.79, 630.0), "math500": (0.73, 2570.0),
                 "minerva": (0.20, 3010.0), "olympiad": (0.35, 5810.0),
                 "college": (0.43, 1780.0), "aime24": (0.23, 3000.0)}

    lines = []
    for cid, spec in (("cand", cand_spec), ("base", base_spec)):
        for name, n in sizes.items():
            acc, length = spec[name]
            correct = int(round(acc * n))
            for i in range(n):
                lines.append(json.dumps({
                    "candidate_id": cid,
                    "item_id": f"{name}/q{i}",
                    "correct": 1 if i < correct else 0,
                    "length": length,
                }))
    records = tmp_path / "full.jsonl"
    records.write_text("\n".join(lines) + "\n")

    out_dir = tmp_path / "rep"
    assert main(["report", "--records", str(records), "--candidate", "cand",
                 "--baseline", "base", "--out", str(out_dir)]) == 0
    rows = (out_dir / "report.csv").read_text().strip().splitlines()
    table = {r.split(",")[0]: r.split(",") for r in rows[1:]}

    total = sum(sizes.values())
    pooled_cand = sum(int(round(cand_spec[n][0] * sizes[n])) for n in sizes) / total
    assert float(table["weighted_average"][2]) == pytest.approx(100 * pooled_cand, abs=5e-4)

    # aime24 ran longer than the baseline: negative reduction in the CSV
    assert float(table["aime24"][6]) == pytest.approx(100 * (1 - 3590 / 3000), abs=5e-4)
    assert float(table["aime24"][6]) < 0
    pooled_len_c = sum(cand_spec[n][1] * sizes[n] for n in sizes) / total
    pooled_len_b = sum(base_spec[n][1] * sizes[n] for n in sizes) / total
    assert float(table["weighted_average"][6]) == pytest.approx(
        100 * (1 - pooled_len_c / pooled_len_b), abs=5e-4
    )


def test_report_command(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    lines = []
    for item, correct, length in [("gsm/q1", 1, 100.0), ("gsm/q2", 1, 200.0),
                                  ("math/q1", 0, 400.0)]:
        lines.append(json.dumps({"candidate_id": "cand", "item_id": item,
                                 "correct": correct, "length": length}))
    for item, correct, length in [("gsm/q1", 1, 300.0), ("gsm/q2", 0, 500.0),
                                  ("math/q1", 1, 800.0)]:
        lines.append(json.dumps({"candidate_id": "base", "item_id": item,
                                 "correct": correct, "length": length}))
    records.write_text("\n".join(lines) + "\n")

    out_dir = tmp_path / "rep"
    assert main(["report", "--records", str(records), "--candidate", "cand",
                 "--baseline", "base", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "weighted average" in printed
    csv = (out_dir / "report.csv").read_text()
    assert csv.splitlines()[1].startswith("gsm,2,100.0000,150.0000")

    assert main(["report", "--records", str(records), "--candidate", "nope",
                 "--baseline", "base"]) == 1


def test_report_csv_digest_with_prefixed_ids_and_fractional_lengths(tmp_path):
    # Item ids with a benchmark prefix (three suites, interleaved in file
    # order), a leading '/' (the empty benchmark name) and none at all
    # ("default"); lengths are non-integers, so the per-group sums depend on
    # record order. A third candidate is interleaved and must be ignored.
    rng = np.random.default_rng(7)
    names = ["gsm", "math", "aime", "", None]
    lines = []
    for i in range(60):
        name = names[int(rng.integers(len(names)))]
        item = f"q{i}" if name is None else f"{name}/q{i}"
        for cid in ("base", "other", "cand"):
            lines.append(json.dumps({
                "candidate_id": cid,
                "item_id": item,
                "correct": int(rng.integers(2)),
                "length": float(rng.uniform(50.0, 4000.0)),
            }))
    records = tmp_path / "records.jsonl"
    records.write_text("\n".join(lines) + "\n")

    out_dir = tmp_path / "rep"
    assert main(["report", "--records", str(records), "--candidate", "cand",
                 "--baseline", "base", "--out", str(out_dir)]) == 0
    assert sha16(out_dir / "report.csv") == "99d15553ce2cd657"


REPORT_ITEMS = [f"{suite}q{i}" for suite in ("gsm/", "math/", "/", "") for i in range(3)]
# A record file whose index is foreign to every drawn one.
FOREIGN_RECORDS = "".join(
    json.dumps({"candidate_id": cand, "item_id": f"gsm/q{i}", "correct": 1, "length": 7.25}) + "\n"
    for cand in ("base", "cand") for i in range(4)
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(items=st.lists(st.sampled_from(REPORT_ITEMS), unique=True, min_size=1, max_size=8),
       data=st.data())
def test_report_is_the_same_whatever_the_index_property(tmp_path, capsys, items, data):
    """``report`` prints and writes the same bytes, or fails with the same
    located error, with no index beside the record file, one of a prefix of
    it or of all of it, and one that is damaged, foreign or truncated."""
    # Each item has a record of both ids and of a third, in a drawn order.
    pairs = data.draw(st.permutations([(c, i) for i in items for c in ("cand", "base", "other")]))
    lines = [json.dumps({"candidate_id": cand, "item_id": item,
                         "correct": data.draw(st.integers(0, 1)),
                         "length": data.draw(st.floats(1, 5000) | st.integers(1, 5000))})
             for cand, item in pairs]
    # A bad line, if any, comes after the first ``cut`` lines.
    cut = data.draw(st.integers(1, len(lines)))
    bad = data.draw(st.sampled_from([None, None, None, "{not json", '{"candidate_id": "cand"}',
                                     "repeat"]))
    if bad == "repeat":
        copied = data.draw(st.integers(0, len(lines) - 1))
        lines.insert(data.draw(st.integers(max(cut, copied + 1), len(lines))), lines[copied])
    elif bad is not None:
        lines.insert(data.draw(st.integers(cut, len(lines))), bad)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    path, index = tmp_path / "records.jsonl", tmp_path / "records.jsonl.index"

    def index_of(content: str) -> bytes | None:
        path.write_text(content)
        index.unlink(missing_ok=True)
        with contextlib.suppress(RecordFormatError):
            load_record_evaluations(path)
        return index.read_bytes() if index.exists() else None

    matching = [b for b in (index_of("".join(line + "\n" for line in lines[:cut])),
                            index_of(text)) if b is not None]
    siblings = [None, *matching, index_of(FOREIGN_RECORDS)]
    if matching:
        blob = data.draw(st.sampled_from(matching))
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        siblings += [bytes(flipped), blob[:data.draw(st.integers(0, len(blob) - 1))]]

    def report(sibling):
        path.write_text(text)
        index.unlink(missing_ok=True)
        if sibling is not None:
            index.write_bytes(sibling)
        (tmp_path / "out" / "report.csv").unlink(missing_ok=True)
        rc = main(["report", "--records", str(path), "--candidate", "cand",
                   "--baseline", "base", "--out", str(tmp_path / "out")])
        printed = capsys.readouterr()
        csv = tmp_path / "out" / "report.csv"
        return rc, printed.out, printed.err, csv.read_bytes() if csv.exists() else None

    want = report(None)
    for sibling in siblings[1:]:
        assert report(sibling) == want
