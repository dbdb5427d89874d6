"""Aggregate accuracy/length reporting against a named baseline.

Mirrors the usual benchmark-table conventions: per-benchmark accuracy and
mean token length, an unweighted average, a size-weighted average (equal to
pooled accuracy over the concatenated outcomes), and length reduction
percentages relative to the baseline (negative when the candidate runs
longer than the baseline).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .evaluation import Outcomes, left_sum


@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    item_count: int
    accuracy: float
    mean_length: float
    baseline_accuracy: float
    baseline_mean_length: float

    @property
    def length_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.mean_length / self.baseline_mean_length)


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[BenchmarkRow, ...]
    average_accuracy: float
    weighted_average_accuracy: float
    average_length_reduction_pct: float
    weighted_length_reduction_pct: float


def build_report(
    groups: Mapping[str, Outcomes],
    baseline: Mapping[str, Outcomes],
) -> AggregateReport:
    """Summarize candidate outcomes per benchmark against a baseline.

    Each map holds one ``Outcomes`` per benchmark name; a row's accuracy and
    mean length are ``Outcomes.objectives`` of that group. Both maps must
    cover the same benchmark names and every group must be non-empty;
    per-benchmark item counts come from the candidate side.
    """
    if set(groups) != set(baseline):
        only_g = sorted(set(groups) - set(baseline))
        only_b = sorted(set(baseline) - set(groups))
        raise ValueError(
            f"benchmark names differ: candidate-only {only_g}, baseline-only {only_b}"
        )
    if not groups:
        raise ValueError("report needs at least one benchmark group")

    rows = []
    for name in groups:
        cand = groups[name].objectives()
        base = baseline[name].objectives()
        if base.mean_length == 0:
            raise ValueError(f"benchmark {name!r}: baseline mean length is zero")
        rows.append(
            BenchmarkRow(
                name=name,
                item_count=len(groups[name]),
                accuracy=cand.accuracy,
                mean_length=cand.mean_length,
                baseline_accuracy=base.accuracy,
                baseline_mean_length=base.mean_length,
            )
        )

    total = sum(r.item_count for r in rows)
    avg_acc = left_sum([r.accuracy for r in rows]) / len(rows)
    weighted_acc = left_sum([r.accuracy * r.item_count for r in rows]) / total
    avg_len = left_sum([r.mean_length for r in rows]) / len(rows)
    avg_base_len = left_sum([r.baseline_mean_length for r in rows]) / len(rows)
    pooled_len = left_sum([r.mean_length * r.item_count for r in rows]) / total
    pooled_base_len = left_sum([r.baseline_mean_length * r.item_count for r in rows]) / total
    return AggregateReport(
        rows=tuple(rows),
        average_accuracy=avg_acc,
        weighted_average_accuracy=weighted_acc,
        average_length_reduction_pct=100.0 * (1.0 - avg_len / avg_base_len),
        weighted_length_reduction_pct=100.0 * (1.0 - pooled_len / pooled_base_len),
    )


def report_to_csv(report: AggregateReport) -> str:
    """Machine-readable form; this CSV is the contract, the table is cosmetic."""
    buf = io.StringIO()
    buf.write("benchmark,item_count,accuracy_pct,mean_length,baseline_accuracy_pct,"
              "baseline_mean_length,length_reduction_pct\n")
    for r in report.rows:
        buf.write(
            f"{r.name},{r.item_count},{100.0 * r.accuracy:.4f},{r.mean_length:.4f},"
            f"{100.0 * r.baseline_accuracy:.4f},{r.baseline_mean_length:.4f},"
            f"{r.length_reduction_pct:.4f}\n"
        )
    total = sum(r.item_count for r in report.rows)
    buf.write(
        f"average,{total},{100.0 * report.average_accuracy:.4f},,,,"
        f"{report.average_length_reduction_pct:.4f}\n"
    )
    buf.write(
        f"weighted_average,{total},{100.0 * report.weighted_average_accuracy:.4f},,,,"
        f"{report.weighted_length_reduction_pct:.4f}\n"
    )
    return buf.getvalue()


def format_report_table(report: AggregateReport) -> str:
    """Aligned text table for terminal output."""
    header = f"{'benchmark':<20} {'items':>6} {'acc %':>8} {'len':>10} {'reduction %':>12}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.name:<20} {r.item_count:>6} {100.0 * r.accuracy:>8.2f} "
            f"{r.mean_length:>10.1f} {r.length_reduction_pct:>12.1f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'average':<20} {'':>6} {100.0 * report.average_accuracy:>8.2f} "
        f"{'':>10} {report.average_length_reduction_pct:>12.1f}"
    )
    lines.append(
        f"{'weighted average':<20} {'':>6} {100.0 * report.weighted_average_accuracy:>8.2f} "
        f"{'':>10} {report.weighted_length_reduction_pct:>12.1f}"
    )
    return "\n".join(lines)


def front_points_csv(f: np.ndarray, baseline_length: float) -> str:
    """Front members, given as the rows of their (m, 2) fitness array, as
    (length reduction %, accuracy %) rows, reduction ascending."""
    if baseline_length <= 0:
        raise ValueError("baseline length must be > 0")
    reduction = 100.0 * (1.0 - f[:, 1] / baseline_length)
    pts = sorted(zip(reduction.tolist(), (-100.0 * f[:, 0]).tolist()))
    lines = ["length_reduction_pct,accuracy_pct"]
    lines.extend(f"{red:.4f},{acc:.4f}" for red, acc in pts)
    return "\n".join(lines) + "\n"
