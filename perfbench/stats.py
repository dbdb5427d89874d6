"""Small numeric helpers of the benchmark: summaries, hypervolume, span self time."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def timing_summary(values: Sequence[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 that has ten samples beyond it.

    The sample count is always part of the summary, so a percentile is never
    read without knowing how many samples stand behind it.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    summary: dict = {"n": n}
    if n == 0:
        return summary
    summary["p50"] = float(statistics.median(xs))
    for q in (99.9, 99.0, 90.0):
        rank = max(1, math.ceil(q * n / 100.0 - 1e-9))  # nearest-rank percentile
        if n - rank >= 10:
            summary[f"p{q:g}"] = xs[rank - 1]
            break
    return summary


def staircase_hypervolume(points: Iterable[tuple[float, float]], ref_len: float) -> float:
    """Area dominated in (accuracy up, length down) space against (0, ref_len)."""
    hv = 0.0
    best_acc = 0.0
    for acc, length in sorted(points, key=lambda p: p[1]):
        if acc > best_acc:
            hv += (acc - best_acc) * (ref_len - length)
            best_acc = acc
    return hv


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Minimisation dominance on two objectives."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def mutually_nondominated(points: Sequence[tuple[float, float]]) -> bool:
    return not any(dominates(p, q) for p in points for q in points)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` rows; ``parent`` is the
    index of the enclosing span or -1. Overlapping children are merged, and
    children are clipped to their parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, *_) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
