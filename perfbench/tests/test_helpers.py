"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import importlib.util
import io
import json
import contextlib
from pathlib import Path

import numpy as np
import pytest

import paretomerge.cli as cli
from paretomerge import load_checkpoint, save_checkpoint
from stats import self_times, staircase_hypervolume, timing_summary
from tracing import Tracer, install
from workloads import checkpoint_shapes, read_pmrg, write_endpoints

REPO = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_merged_children_and_clips_to_parent():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],  # overlaps a: the covered part is [1, 6]
        ["c", 9.0, 12.0, 0],  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_staircase_hypervolume_hand_computed():
    # sorted by length: 0.5*(1000-100) + (0.8-0.5)*(1000-300) + (0.9-0.8)*(1000-500)
    front = [(0.9, 500.0), (0.5, 100.0), (0.8, 300.0), (0.7, 400.0)]
    assert staircase_hypervolume(front, 1000.0) == pytest.approx(710.0)


def test_staircase_hypervolume_matches_acceptance_suite():
    spec = importlib.util.spec_from_file_location(
        "acceptance", REPO / "tests" / "test_acceptance.py"
    )
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    rng = np.random.default_rng(7)
    points = [(float(a), float(n)) for a, n in zip(rng.random(40), rng.uniform(100, 900, 40))]
    assert staircase_hypervolume(points, 1000.0) == acceptance._staircase_hypervolume(
        points, 1000.0
    )


def test_timing_summary_reports_count_and_only_backed_percentiles():
    assert timing_summary([]) == {"n": 0}
    few = timing_summary([3.0, 1.0, 2.0])
    assert few == {"n": 3, "p50": 2.0}
    hundred = timing_summary([float(i) for i in range(1, 101)])
    assert hundred["n"] == 100 and hundred["p90"] == 90.0 and "p99" not in hundred
    thousand = timing_summary([float(i) for i in range(1, 1001)])
    assert thousand["n"] == 1000 and thousand["p99"] == 990.0 and "p90" not in thousand


def test_endpoint_writer_is_canonical_pmrg(tmp_path):
    shapes = checkpoint_shapes(d_model=8, vocab=10, blocks=1)
    write_endpoints(tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", shapes, seed=3)
    ckpt = load_checkpoint(tmp_path / "s1.pmrg")
    ours = read_pmrg(tmp_path / "s1.pmrg")
    assert list(ckpt.tensors) == list(shapes)
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(arr, ours[name])
    save_checkpoint(ckpt, tmp_path / "copy.pmrg")
    assert (tmp_path / "copy.pmrg").read_bytes() == (tmp_path / "s1.pmrg").read_bytes()


def test_tracer_records_layer_spans_and_undo_restores(tmp_path):
    original = cli.run_nsga2
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "search": {"population_size": 4, "generations": 2, "seed": 0},
        "evaluator": {"simulated": {"generator_seed": 0, "n_items": 200}},
        "subset": {"strategy": "entropy", "size": 10, "seed": 0, "calibration_k": 4},
    }))
    tracer = Tracer()
    tracer.run_dir = tmp_path / "out"
    undo = install(tracer)
    try:
        assert cli.run_nsga2 is not original
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["evolve", "--config", str(config), "--out", str(tracer.run_dir)]
            assert tracer.call("evolve", lambda: cli.main(argv)) == 0
    finally:
        undo()
    assert cli.run_nsga2 is original

    names = {span[0] for span in tracer.spans}
    assert {"cli.evolve", "nsga2.run_nsga2", "cli.persist", "nsga2.fast_nondominated_sort",
            "evaluation.evaluate_population", "sampling.build_calibration_matrix"} <= names
    assert all(span[4] == 0 for span in tracer.spans)  # one program call, one root
    metrics = tracer.layer_metrics()
    assert metrics["evaluation.candidates"] == 4 * 3
    assert metrics["evaluation.useful_item_ratio"] == pytest.approx(10 / 200)
    assert metrics["sampling.calibration_cells"] == 4 * 200
    assert metrics["nsga2.extract_pareto_calls"] == 3 + 1
    assert metrics["cli.bytes_written"] > 0
