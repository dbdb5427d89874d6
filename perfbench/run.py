#!/usr/bin/env python3
"""Benchmark of paretomerge: one workload per invocation.

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the ``end_to_end`` metrics of BENCHMARK.json, timed with tracing off; with
``--trace 1`` they are its ``per_layer`` metrics, from passes run with spans
around every layer-boundary call (see tracing.py), alternated with untraced
passes so that ``trace.overhead_pct`` compares the two. Lines before the
result start with ``info`` and are for people: the per-call timing summary
with its sample count, the workload's own figures (evaluations or merged
parameters per second, median resume round, median merge per operator, front
hypervolume ratio, error rate) and the output digests.

Process layout. This process imports nothing of the program. It times
``N_SETUPS`` fresh set-up processes, each of which starts the interpreter,
imports numpy and paretomerge, writes the workload's inputs from the seed and
makes one small warm-up call; ``setup_s`` is their median. Then one measuring
process, which runs only the workload, warms up again and repeats timed
passes until ``--seconds`` have passed (at least ``MIN_PASSES``).
``peak_rss_mib`` is that process's peak RSS, read before the output checks.

Limits of the measurement:
- The default 210 ms ``evolve`` of the README is not a workload: it sits
  inside host noise (a pure-Python loop varies about 18% at 0.2 s on a
  2-CPU host). Its output digest is printed as the golden digest instead.
- Checkpoint reads are page-cache reads: the file cache is not dropped.
- ``merge.bytes_moved_computed`` is computed from array sizes, not measured
  bandwidth; the 67 MB arrays are smaller than a 300 MiB L3.

Exit status is 0 with a result line, or non-zero without one when the
benchmark itself cannot run (for example, no ``src/paretomerge`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
N_SETUPS = 3
MIN_PASSES = 2
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("drive", "setup", "measure"), default="drive",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.role == "drive":
            return _drive(args, spec)
        _import_program()
        if args.role == "setup":
            return _setup(args)
        return _measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"benchmark error: cannot read BENCHMARK.json: {exc}")


def _require_sources() -> None:
    if not (SRC / "paretomerge" / "__init__.py").is_file():
        raise BenchError(f"no paretomerge sources under {SRC}")


def _import_program() -> None:
    _require_sources()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (paid here, before any timed call)
    import paretomerge.cli

    if Path(paretomerge.cli.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"imported paretomerge from {paretomerge.cli.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# driving process
# ---------------------------------------------------------------------------


def _drive(args, spec: dict) -> int:
    _require_sources()
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    deadline = monotonic() + BUDGET_S
    try:
        setups = []
        for _ in range(1 if args.trace else N_SETUPS):
            start = perf_counter()
            _spawn("setup", args, workdir, deadline)
            setups.append(perf_counter() - start)
        lines = _spawn("measure", args, workdir, deadline).splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        child = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("measuring process printed no result") from None
    for line in lines[:-1]:
        print(line)
    values = dict(child["metrics"], setup_s=statistics.median(setups))
    print(f"info setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


def _spawn(role: str, args, workdir: Path, deadline: float) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}")
    return proc.stdout


# ---------------------------------------------------------------------------
# set-up and measuring processes
# ---------------------------------------------------------------------------


def _setup(args) -> int:
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload]()
    workload.prepare(workdir / "inputs", args.seed)
    shutil.rmtree(workdir / "warm-setup", ignore_errors=True)
    workload.warm_up(workdir / "warm-setup")
    return 0


def _measure(args) -> int:
    from tracing import Tracer, install
    from workloads import WORKLOADS
    from stats import timing_summary

    workdir = Path(args.workdir)
    inputs, pass_dir = workdir / "inputs", workdir / "pass"
    workload = WORKLOADS[args.workload]()
    golden = workload.warm_up(workdir / "warm")
    if golden:
        print(f"info golden digest of the default evolve run (README config, seed 0): {golden}")

    passes = []  # (traced, PassResult, Tracer | None)
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        tracer = Tracer() if traced else None
        undo = install(tracer) if traced else None
        try:
            result = workload.run_pass(inputs, pass_dir, tracer)
        finally:
            if undo is not None:
                undo()
        passes.append((traced, result, tracer))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for _, r, _ in passes for f in r.failures]
    digests = [r.digest for _, r, _ in passes]
    if len(set(digests)) > 1:
        failures.append(f"outputs differ between passes with the same seed: {digests}")
    try:
        check_failures, quality = workload.check(inputs, pass_dir)
    except (OSError, ValueError, KeyError) as exc:
        check_failures, quality = [f"output check could not run: {exc!r}"], {}
    failures += check_failures
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = sum(len(r.calls) for _, r, _ in passes)
    failed = min(attempted, len(failures))

    plain = [r for traced, r, _ in passes if not traced]
    run_s = statistics.median([r.seconds for r in plain])
    work_per_s = statistics.median([r.work / r.work_seconds for r in plain])
    by_kind: dict[str, list[float]] = {}
    for r in plain:
        for c in r.calls:
            by_kind.setdefault(c.kind, []).append(c.seconds)
    kind_p50 = {kind: statistics.median(v) for kind, v in by_kind.items()}

    print(f"info passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"pass seconds: {' '.join(f'{r.seconds:.4f}' for r in plain)}")
    for kind, samples in by_kind.items():
        print(f"info call {kind}: {json.dumps(timing_summary(samples))} s")
    print(f"info {workload.unit}_per_s: {work_per_s:.6g} 1/s")
    for kind, name in (("evolve-round", "round_p50_s"), ("merge-ta", "merge_ta_s"),
                       ("merge-ties", "merge_ties_s")):
        if kind in kind_p50:
            print(f"info {name}: {kind_p50[kind]:.6g} s")
    for name, value in quality.items():
        print(f"info {name}: {value:.6f} ratio")
    print(f"info error_rate: {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"info output digest (same seed, every pass): {digests[0]}")

    if args.trace:
        tracers = [t for _, _, t in passes if t is not None]
        per_pass = [t.layer_metrics() for t in tracers]
        metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
        traced_s = statistics.median([r.seconds for traced, r, _ in passes if traced])
        metrics.update({
            "cli.round_p50_s": kind_p50.get("evolve-round", 0.0),
            "cli.merge_ta_s": kind_p50.get("merge-ta", 0.0),
            "cli.merge_ties_s": kind_p50.get("merge-ties", 0.0),
            "nsga2.front_hv_ratio": quality.get("front_hv_ratio", 0.0),
            "trace.overhead_pct": 100.0 * (traced_s / run_s - 1.0),
        })
        trace_file = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
        _dump_spans(trace_file, args, tracers)
        print(f"info spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {"run_s": run_s, "work_per_s": work_per_s, "peak_rss_mib": peak_rss_mib}
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _dump_spans(path: Path, args, tracers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start", "end", "parent", "root"],
        "passes": [t.spans for t in tracers],
    }))


if __name__ == "__main__":
    sys.exit(main())
