import numpy as np
import pytest

from paretomerge.evaluation import Outcomes
from paretomerge.reporting import build_report, front_points_csv, report_to_csv


def outcomes(n, acc, length):
    correct = int(round(acc * n))
    return Outcomes([f"q{i}" for i in range(n)], [1] * correct + [0] * (n - correct), [length] * n)


def test_single_benchmark_reduction():
    report = build_report(
        {"bench": outcomes(10, 0.5, 500.0)},
        {"bench": outcomes(10, 0.5, 1000.0)},
    )
    assert report.rows[0].length_reduction_pct == pytest.approx(50.0)
    assert report.average_length_reduction_pct == pytest.approx(50.0)
    assert report.weighted_length_reduction_pct == pytest.approx(50.0)


def test_weighted_average_is_pooled_accuracy():
    groups = {"small": outcomes(30, 0.4, 100.0), "large": outcomes(1319, 0.8, 100.0)}
    base = {"small": outcomes(30, 0.5, 200.0), "large": outcomes(1319, 0.5, 200.0)}
    report = build_report(groups, base)
    acc = {r.name: r.accuracy for r in report.rows}
    assert report.weighted_average_accuracy == pytest.approx(
        (acc["small"] * 30 + acc["large"] * 1319) / 1349
    )
    # 0.8 * 1319 is not integral, so the synthetic accuracy lands one item short
    # of the ideal (0.4*30 + 0.8*1319)/1349 = 0.7911
    assert report.weighted_average_accuracy == pytest.approx(0.7911, abs=2e-3)
    # brute-force pooled accuracy over the concatenated correctness columns
    pooled = groups["small"].correct.tolist() + groups["large"].correct.tolist()
    assert report.weighted_average_accuracy == pytest.approx(sum(pooled) / len(pooled))
    assert report.average_accuracy == pytest.approx((acc["small"] + acc["large"]) / 2)


def test_negative_reduction_when_candidate_longer():
    report = build_report(
        {"bench": outcomes(10, 0.5, 1242.0)},
        {"bench": outcomes(10, 0.6, 1000.0)},
    )
    assert report.rows[0].length_reduction_pct == pytest.approx(-24.2)
    assert report.average_length_reduction_pct < 0
    csv = report_to_csv(report)
    assert "-24.2" in csv


def test_name_mismatch_and_empty_group():
    with pytest.raises(ValueError, match="names differ"):
        build_report({"a": outcomes(5, 1.0, 10.0)}, {"b": outcomes(5, 1.0, 10.0)})
    with pytest.raises(ValueError):
        build_report({"a": Outcomes([], [], [])}, {"a": outcomes(5, 1.0, 10.0)})


def test_report_csv_layout():
    report = build_report(
        {"x": outcomes(4, 0.75, 250.0)},
        {"x": outcomes(4, 0.5, 500.0)},
    )
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0].startswith("benchmark,item_count,accuracy_pct")
    assert lines[1].startswith("x,4,75.0000,250.0000,50.0000,500.0000,50.0000")
    assert lines[-2].startswith("average,")
    assert lines[-1].startswith("weighted_average,")


def test_front_points_csv_orientation():
    front = np.array([[-0.6, 200.0], [-0.9, 800.0]])  # (-accuracy, mean length) rows
    csv = front_points_csv(front, baseline_length=1000.0)
    lines = csv.strip().splitlines()
    assert lines[0] == "length_reduction_pct,accuracy_pct"
    assert lines[1] == "20.0000,90.0000"
    assert lines[2] == "80.0000,60.0000"
    with pytest.raises(ValueError):
        front_points_csv(front, baseline_length=0.0)
