"""Spans around paretomerge's layer-boundary functions, installed at run time.

``install`` rebinds the public functions as ``paretomerge.cli`` and
``paretomerge.nsga2`` look them up, plus the evaluators' batch method and the
simulator's per-lambda scoring, with wrappers that record a span
``(name, start, end, parent, root)``. Spans stay in memory until the
measuring process writes them out at the end. A span is recorded only inside a program call
opened with ``Tracer.call``, so the benchmark's own use of the same functions
(the simulated harness, the output checks) is never traced. No file of the
program changes.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

from stats import self_times


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, root index]
        self.counts: dict[str, float] = defaultdict(float)
        self.genotypes: set = set()
        self.resolved: set = set()
        self.run_dir: Path | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, kind: str, fn: Callable[[], int]) -> int:
        """Run one program call under a root span ``cli.<kind>``."""
        idx = self._open(f"cli.{kind}")
        try:
            return fn()
        finally:
            self._close(idx)

    def wrap(self, name, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs on success.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def run_dir_snapshot(self) -> dict[str, tuple[int, int, int]]:
        """Identity of each run-directory file: (inode, mtime, size)."""
        if self.run_dir is None or not self.run_dir.is_dir():
            return {}
        out = {}
        for entry in os.scandir(self.run_dir):
            st = entry.stat()
            out[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
        return out

    def note_run_dir_writes(self, before: dict[str, tuple[int, int, int]]) -> None:
        """Add the size of every run-directory file that is new or changed since ``before``."""
        for name, ident in self.run_dir_snapshot().items():
            if before.get(name) != ident:
                self.counts["cli.bytes_written"] += ident[2]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of this tracer's spans and counters."""
        dur: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name, start, end = span[0], span[1], span[2]
            dur[name] += end - start
            own[name] += self_s
            calls[name] += 1
        c = self.counts
        return {
            "cli.persist_s": own["cli.persist"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.replayed_evals": c["records_resolved"] - len(self.resolved),
            "nsga2.sort_s": dur["nsga2.fast_nondominated_sort"],
            "nsga2.sort_calls": calls["nsga2.fast_nondominated_sort"],
            "nsga2.sort_points": c["nsga2.sort_points"],
            "nsga2.extract_pareto_s": dur["nsga2.extract_pareto"],
            "nsga2.extract_pareto_calls": calls["nsga2.extract_pareto"],
            "nsga2.crowding_s": dur["nsga2.crowding_distance"],
            "nsga2.self_s": own["nsga2.run_nsga2"],
            "evaluation.evaluate_s": dur["evaluation.evaluate_population"],
            "evaluation.candidates": c["evaluation.candidates"],
            "evaluation.unique_ratio": _ratio(len(self.genotypes), c["evaluation.candidates"]),
            "evaluation.items_scored": c["evaluation.items_scored"],
            "evaluation.useful_item_ratio": _ratio(c["useful_items"], c["items_scored_in_eval"]),
            "evaluation.generate_benchmark_s": dur["evaluation.generate_benchmark"],
            "evaluation.save_benchmark_s": dur["evaluation.save_benchmark"],
            "evaluation.load_records_s": dur["evaluation.load_record_evaluations"],
            "evaluation.records_parsed": c["evaluation.records_parsed"],
            "evaluation.records_per_s": _ratio(
                c["evaluation.records_parsed"], dur["evaluation.load_record_evaluations"]
            ),
            "evaluation.write_manifest_s": dur["evaluation.write_manifest"],
            "sampling.calibration_s": dur["sampling.build_calibration_matrix"],
            "sampling.calibration_cells": c["sampling.calibration_cells"],
            "sampling.save_matrix_s": dur["sampling.save_matrix"],
            "sampling.matrix_bytes": c["sampling.matrix_bytes"],
            "sampling.select_subset_s": dur["sampling.select_subset"],
            "checkpoint.load_s": dur["checkpoint.load_checkpoint"],
            "checkpoint.bytes_read": c["checkpoint.bytes_read"],
            "checkpoint.save_s": dur["checkpoint.save_checkpoint"],
            "checkpoint.bytes_written": c["checkpoint.bytes_written"],
            "merge.ta_s": dur["merge.ta"],
            "merge.linear_s": dur["merge.linear"],
            "merge.ties_s": dur["merge.ties"],
            "merge.bytes_moved_computed": c["merge.bytes_moved_computed"],
            "reporting.report_s": dur["reporting.build_report"],
            "reporting.front_csv_s": dur["reporting.front_points_csv"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind the layer-boundary functions to traced wrappers; returns the undo."""
    import paretomerge.cli as cli
    import paretomerge.evaluation as evaluation
    import paretomerge.nsga2 as nsga2

    saved: list[tuple[object, str, object]] = []
    c = tracer.counts

    def patch(owner, attr: str, wrapper: Callable) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def traced(owner, attr: str, name, after: Callable | None = None) -> None:
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], after))

    def count(key: str, amount: Callable) -> Callable:
        def after(args, kwargs, result):
            c[key] += amount(args, result)
        return after

    def file_size(pos: int) -> Callable:
        return lambda args, result: os.path.getsize(args[pos])

    def after_persist(args, kwargs, result):
        for name in ("history.jsonl", "pareto.json"):
            path = tracer.run_dir / name
            if path.exists():
                c["cli.bytes_written"] += path.stat().st_size

    run_nsga2 = cli.run_nsga2

    def run_nsga2_traced(cfg, evaluate, workers=1, on_generation=None):
        if on_generation is not None:
            on_generation = tracer.wrap("cli.persist", on_generation, after_persist)
        return run_nsga2(cfg, evaluate, workers=workers, on_generation=on_generation)

    patch(cli, "run_nsga2", tracer.wrap("nsga2.run_nsga2", run_nsga2_traced))

    traced(nsga2, "fast_nondominated_sort", "nsga2.fast_nondominated_sort",
           count("nsga2.sort_points", lambda args, result: len(args[0])))
    traced(nsga2, "crowding_distance", "nsga2.crowding_distance")
    traced(nsga2, "extract_pareto", "nsga2.extract_pareto")

    traced(cli, "build_calibration_matrix", "sampling.build_calibration_matrix",
           count("sampling.calibration_cells", lambda args, result: result.correct.size))
    traced(cli, "save_matrix", "sampling.save_matrix", count("sampling.matrix_bytes", file_size(1)))
    traced(cli, "select_subset", "sampling.select_subset")

    traced(cli, "generate_benchmark", "evaluation.generate_benchmark")
    traced(cli, "save_benchmark", "evaluation.save_benchmark")
    traced(cli, "load_record_evaluations", "evaluation.load_record_evaluations",
           count("evaluation.records_parsed",
                 lambda args, result: sum(len(v) for v in result.values())))
    traced(cli, "write_manifest", "evaluation.write_manifest")

    traced(cli, "load_checkpoint", "checkpoint.load_checkpoint",
           count("checkpoint.bytes_read", file_size(0)))
    traced(cli, "save_checkpoint", "checkpoint.save_checkpoint",
           count("checkpoint.bytes_written", file_size(1)))

    # Computed, not measured: both endpoints read once, the result written once.
    traced(cli, "decode_genotype", lambda args: f"merge.{args[0].kind.value}",
           count("merge.bytes_moved_computed",
                 lambda args, result: 3 * 4 * result.total_parameters))

    traced(cli, "build_report", "reporting.build_report")
    traced(cli, "front_points_csv", "reporting.front_points_csv")

    def after_evaluate(args, kwargs, result):
        evaluator, genotypes = args[0], args[1]
        c["evaluation.candidates"] += len(genotypes)
        tracer.genotypes.update(genotypes)
        subset = getattr(evaluator, "subset_indices", None)
        if subset is not None:
            c["useful_items"] += len(subset) * len(genotypes)
        if isinstance(evaluator, evaluation.RecordsFitness):
            c["records_resolved"] += len(genotypes)
            tracer.resolved.update(genotypes)

    # Wrapping the base-class method keeps ``SimulatedFitness`` on the plain
    # (non-custom) batch path that ``nsga2._evaluate_batch`` selects untraced.
    traced(evaluation.FitnessEvaluator, "evaluate_population",
           "evaluation.evaluate_population", after_evaluate)
    traced(evaluation.RecordsFitness, "evaluate_population",
           "evaluation.evaluate_population", after_evaluate)

    def after_correctness(args, kwargs, result):
        c["evaluation.items_scored"] += result.size
        if tracer.parent_name() == "evaluation.evaluate_population":
            c["items_scored_in_eval"] += result.size

    traced(evaluation.SimulatedBenchmark, "correctness_vector",
           "evaluation.correctness_vector", after_correctness)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
