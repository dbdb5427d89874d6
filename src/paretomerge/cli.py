"""Command-line entry points: merge, calibrate, sample-subset, evolve, fidelity, report.

Exit codes: 0 success, 1 domain error (bad files, missing records, selection
shortfalls), 2 usage error. Record-backed runs never launch inference: when
candidates lack records the command writes a candidate manifest for an
external harness and exits; rerunning with the augmented record file resumes
the identical deterministic trajectory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import MissingCandidatesError, ParetoMergeError, RecordFormatError
from .evaluation import (
    Outcomes,
    RecordsFitness,
    SimulatedBenchmark,
    SimulatedFitness,
    candidate_id,
    generate_benchmark,
    load_benchmark,
    load_json,
    load_record_evaluations,
    save_benchmark,
    write_atomic,
    write_manifest,
)
from .merge import Genotype, MergeEndpoints, MergeKind, decode_genotype
from .nsga2 import HistoryEntry, SearchConfig, run_nsga2
from .reporting import build_report, format_report_table, front_points_csv, report_to_csv
from .sampling import (
    CorrectnessMatrix,
    SubsetStrategy,
    bernoulli_entropy,
    build_calibration_matrix,
    default_lambda_grid,
    load_matrix,
    mean_fidelity,
    rank_fidelity_curve,
    save_matrix,
    save_subset,
    select_subset,
)


class UsageError(Exception):
    """Bad command-line arguments; maps to exit code 2."""


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParetoMergeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretomerge",
        description="Multi-objective evolutionary model merging at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge two checkpoints with one operator")
    p.add_argument("--system2", required=True, help="slow/verbose endpoint checkpoint")
    p.add_argument("--system1", required=True, help="fast/concise endpoint checkpoint")
    p.add_argument("--op", required=True, choices=[k.value for k in MergeKind])
    p.add_argument("--params", required=True, help="comma-separated operator parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--no-validate", action="store_true",
                   help="skip NaN/Inf checks on load; lambda 0/1 then reproduce an endpoint "
                   "exactly only where both inputs are finite (0 * inf is NaN)")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("calibrate", help="build the K-row calibration correctness matrix")
    _add_bench_args(p)
    p.add_argument("--k", type=int, default=10, help="number of calibration candidates")
    p.add_argument("--records", help="JSONL records from an external harness")
    p.add_argument("--manifest", help="manifest path for missing candidates (records mode)")
    p.add_argument("--save-bench", help="also persist the simulated benchmark JSON here")
    p.add_argument("--out", required=True, help="matrix JSON path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sample-subset", help="select an evaluation subset from a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", required=True, choices=[s.value for s in SubsetStrategy])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="subset JSON path")
    p.set_defaults(func=_cmd_sample_subset)

    p = sub.add_parser("evolve", help="run the multi-objective search from a config file")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="override the config output_dir")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("fidelity", help="measure subset ranking fidelity vs the full benchmark")
    _add_bench_args(p)
    p.add_argument("--strategies", default="entropy,random,disagreement")
    p.add_argument("--sizes", default="10,25,50,100,200")
    p.add_argument("--n-models", type=int, default=50)
    p.add_argument("--seeds", type=int, default=20, help="number of seeds (0..n-1)")
    p.add_argument("--calibration-k", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("report", help="aggregate a candidate vs a baseline from records")
    p.add_argument("--records", required=True)
    p.add_argument("--candidate", required=True, help="candidate id to report")
    p.add_argument("--baseline", required=True, help="baseline candidate id")
    p.add_argument("--out", help="directory for report.csv (prints table either way)")
    p.set_defaults(func=_cmd_report)

    return parser


def _add_bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bench", help="simulated benchmark JSON path")
    p.add_argument("--gen-seed", type=int, help="generate the default benchmark with this seed")
    p.add_argument("--n-items", type=int, help="items to generate (default 1000)")
    p.add_argument("--noise-seed", type=int, help="seed of the logistic draws (default 0)")


def _resolve_bench(args) -> SimulatedBenchmark:
    if (args.bench is None) == (args.gen_seed is None):
        raise UsageError("provide exactly one of --bench or --gen-seed")
    noise_seed = 0 if args.noise_seed is None else args.noise_seed
    if args.bench is not None:
        if args.n_items is not None:
            raise UsageError("--n-items applies only to --gen-seed")
        return load_benchmark(args.bench, noise_seed=noise_seed)
    n_items = 1000 if args.n_items is None else args.n_items
    return generate_benchmark(seed=args.gen_seed, n_items=n_items, noise_seed=noise_seed)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def _cmd_merge(args) -> int:
    try:
        values = tuple(float(v) for v in args.params.split(","))
    except ValueError:
        raise UsageError(f"--params must be comma-separated numbers, got {args.params!r}")
    genotype = Genotype(kind=MergeKind(args.op), values=values)
    try:
        genotype.validate()
    except ParetoMergeError as exc:
        raise UsageError(str(exc))

    validate = not args.no_validate
    endpoints = MergeEndpoints(
        system2=load_checkpoint(args.system2, validate=validate),
        system1=load_checkpoint(args.system1, validate=validate),
    )
    merged = decode_genotype(genotype, endpoints)
    save_checkpoint(merged, args.out)
    print(f"tensors: {len(merged.tensors)}, parameters: {merged.total_parameters}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    if args.k < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    bench, records = None, None
    if args.records is not None:
        simulated = (args.bench, args.gen_seed, args.save_bench, args.n_items, args.noise_seed)
        if any(v is not None for v in simulated):
            raise UsageError(
                "--records excludes --bench, --gen-seed, --save-bench, --n-items and --noise-seed"
            )
        records = load_record_evaluations(args.records)
    elif args.manifest is not None:
        raise UsageError("--manifest needs --records")
    else:
        bench = _resolve_bench(args)
        if args.save_bench:
            save_benchmark(bench, args.save_bench)
    try:
        matrix = _calibration_matrix(default_lambda_grid(args.k), bench, records)
    except MissingCandidatesError as exc:
        manifest = args.manifest or str(Path(args.out).with_suffix(".manifest.jsonl"))
        write_manifest(manifest, [g for _, g in exc.pending])
        print(f"wrote manifest for {len(exc.pending)} candidate(s) to {manifest}", file=sys.stderr)
        raise
    save_matrix(matrix, args.out)
    print(f"calibration matrix: {len(matrix.model_ids)} models x {len(matrix.item_ids)} items")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sample-subset
# ---------------------------------------------------------------------------


def _cmd_sample_subset(args) -> int:
    if args.size < 1:
        raise UsageError(f"--size must be >= 1, got {args.size}")
    matrix = load_matrix(args.matrix)
    subset = select_subset(matrix, args.strategy, args.size, seed=args.seed)
    save_subset(subset, args.out)
    entropies = sorted(
        bernoulli_entropy(float(matrix.column(iid).mean())) for iid in subset.item_ids
    )
    print(
        f"selected {len(subset.item_ids)} items ({subset.strategy.value}); "
        f"entropy min/median/max = {entropies[0]:.4f}/"
        f"{statistics.median(entropies):.4f}/{entropies[-1]:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def _cmd_evolve(args) -> int:
    raw = load_json(args.config)
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    search_dict, merge_block, evaluator_block = (
        _config_object(raw, key) for key in ("search", "merge", "evaluator")
    )
    _check_fields(search_dict, "search")
    _check_fields(merge_block, "merge")
    for key in ("sbx", "mutation"):
        _check_fields(_config_object(search_dict, key, "search."), f"search.{key}")
    bounds = search_dict.get("genotype_bounds")
    if bounds is not None and not (isinstance(bounds, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
        for p in bounds
    )):
        raise UsageError("config 'search.genotype_bounds' must be a list of [low, high] numbers")
    subset_block = raw.get("subset")
    _check_subset_block(subset_block)
    if not isinstance(raw.get("output_dir") or "", str):
        raise UsageError("config 'output_dir' must be a string")

    sources = [k for k in ("simulated", "records") if k in evaluator_block]
    if len(sources) != 1:
        raise UsageError("config must name exactly one evaluator source (simulated or records)")
    if sources[0] == "simulated":
        sim = evaluator_block["simulated"] or {}
        if not isinstance(sim, dict):
            raise UsageError("evaluator.simulated must be an object")
        _check_fields(sim, "evaluator.simulated")
    else:
        rec_block = evaluator_block["records"]
        if not isinstance(rec_block, dict) or not isinstance(rec_block.get("path"), str):
            raise UsageError("evaluator.records must be an object with a string 'path'")

    search_dict = dict(search_dict)
    if "genotype_kind" not in search_dict and "kind" in merge_block:
        search_dict["genotype_kind"] = merge_block["kind"]
    search = SearchConfig.from_json_dict(search_dict)

    out_dir = Path(args.out or raw.get("output_dir") or "paretomerge-run")
    out_dir.mkdir(parents=True, exist_ok=True)

    bench: SimulatedBenchmark | None = None
    records = None
    if sources[0] == "simulated":
        if sim.get("benchmark"):
            bench = load_benchmark(sim["benchmark"], noise_seed=sim.get("noise_seed", 0))
        else:
            bench = generate_benchmark(
                seed=sim.get("generator_seed", 0),
                n_items=sim.get("n_items", 1000),
                noise_seed=sim.get("noise_seed"),
            )
        save_benchmark(bench, out_dir / "benchmark.json")
    else:
        records = load_record_evaluations(rec_block["path"], index=out_dir / "records.index")

    echo = {
        "search": dataclasses.asdict(search),
        "merge": merge_block,
        "evaluator": evaluator_block,
        "subset": subset_block,
        "output_dir": str(out_dir),
    }

    # history.jsonl only grows, so each entry is encoded once and the file is
    # rewritten from the cached lines. The last call leaves the final files.
    history_lines: list[str] = []

    def on_generation(history: list[HistoryEntry], gen: int) -> None:
        history_lines.extend(_history_line(e) for e in history[len(history_lines):])
        write_atomic(out_dir / "history.jsonl", "".join(history_lines).encode("utf-8"))
        if history:
            from .nsga2 import extract_pareto

            _write_pareto_atomic(out_dir / "pareto.json", extract_pareto(history))

    try:
        subset_ids = _resolve_subset(subset_block, bench, records, out_dir)
        if bench is not None:
            evaluator = SimulatedFitness(bench, subset_ids)
        else:
            evaluator = RecordsFitness(records, subset_ids)
        _write_json_atomic(out_dir / "config.json", echo)
        front, history = run_nsga2(
            search, evaluator, workers=args.workers, on_generation=on_generation
        )
    except MissingCandidatesError as exc:
        manifest = out_dir / "manifest.jsonl"
        write_manifest(manifest, [g for _, g in exc.pending])
        print(
            f"wrote manifest for {len(exc.pending)} pending candidate(s) to {manifest}; "
            "evaluate them externally, append the records, and rerun",
            file=sys.stderr,
        )
        raise

    try:
        baseline = evaluator.evaluate(Genotype(MergeKind.TA, (0.0,)))
    except (MissingCandidatesError, RecordFormatError):
        pass  # no lambda = 0 records on the subset: no baseline to plot against
    else:
        (out_dir / "front_points.csv").write_text(
            front_points_csv(front, baseline.mean_length), encoding="utf-8"
        )

    print(f"evaluated {len(history)} candidates over {search.generations} generations")
    print(f"{'genotype':<28} {'accuracy':>9} {'mean_length':>12}")
    for entry in front:
        values = ", ".join(f"{v:.4f}" for v in entry.genotype.values)
        print(
            f"{entry.genotype.kind.value}[{values}]".ljust(28)
            + f" {entry.fitness.accuracy:>9.4f} {entry.fitness.mean_length:>12.2f}"
        )
    print(f"run directory: {out_dir}")
    return 0


def _config_object(raw: dict, key: str, prefix: str = "") -> dict:
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise UsageError(f"config '{prefix}{key}' must be an object, got {type(block).__name__}")
    return block


# Exact JSON types of the typed config fields, per block: ``true`` is no
# number and 5.9 no integer. Other fields are untyped.
_INT, _NUMBER = ((int,), "an integer"), ((int, float), "a number")
_FIELD_TYPES = {
    "search": {"population_size": _INT, "generations": _INT, "seed": _INT},
    "search.sbx": {"probability": _NUMBER, "eta": _NUMBER},
    "search.mutation": {
        "per_variable_probability": ((int, float, type(None)), "a number or null"),
        "eta": _NUMBER,
    },
    "subset": {"size": _INT, "seed": _INT, "calibration_k": _INT},
    "evaluator.simulated": {
        "benchmark": ((str,), "a string"),
        "n_items": _INT,
        "generator_seed": _INT,
        "noise_seed": _INT,
    },
}


# The config fields that name an enum member, per block.
_FIELD_CHOICES = {
    "search": {"genotype_kind": MergeKind},
    "merge": {"kind": MergeKind},
    "subset": {"strategy": SubsetStrategy},
}


def _check_fields(block: dict, where: str) -> None:
    for name, (types, what) in _FIELD_TYPES.get(where, {}).items():
        if name in block and type(block[name]) not in types:
            raise UsageError(
                f"config '{where}.{name}' must be {what}, got {json.dumps(block[name])}"
            )
    for name, choices in _FIELD_CHOICES.get(where, {}).items():
        allowed = [c.value for c in choices]
        if name in block and block[name] not in allowed:
            raise UsageError(
                f"config '{where}.{name}' must be one of {', '.join(allowed)}, "
                f"got {json.dumps(block[name])}"
            )


def _check_subset_block(block) -> None:
    """A subset block is absent (all items), a strategy spec, or explicit item ids."""
    if block is None:
        return
    if not isinstance(block, dict):
        raise UsageError(f"config 'subset' must be an object, got {type(block).__name__}")
    _check_fields(block, "subset")
    ids = block.get("item_ids")
    if "item_ids" in block and not (
        isinstance(ids, list)
        and ids
        and all(isinstance(i, str) and i for i in ids)
        and len(set(ids)) == len(ids)
    ):
        raise UsageError("subset.item_ids must be a non-empty list of unique, non-empty strings")


def _resolve_subset(subset_block, bench, records, out_dir) -> list[str] | None:
    """Turn the config subset block into explicit item ids (None = all items)."""
    if subset_block is None:
        return None
    if "item_ids" in subset_block:
        return list(subset_block["item_ids"])

    strategy = SubsetStrategy(subset_block.get("strategy", "entropy"))
    size = subset_block.get("size", 50)
    seed = subset_block.get("seed", 0)
    k = subset_block.get("calibration_k", 10)
    matrix = _calibration_matrix(default_lambda_grid(k), bench, records)
    save_matrix(matrix, out_dir / "matrix.json")
    subset = select_subset(matrix, strategy, size, seed=seed)
    save_subset(subset, out_dir / "subset.json")
    return list(subset.item_ids)


def _calibration_matrix(grid, bench, records) -> CorrectnessMatrix:
    """One matrix row per grid coefficient, simulated when ``bench`` is given, else from records.

    Record rows are sorted by item id. Raises :class:`MissingCandidatesError`
    naming every grid candidate without records.
    """
    if bench is not None:
        return build_calibration_matrix(bench.outcomes, grid)
    ids = {lam: candidate_id(Genotype(MergeKind.TA, (lam,))) for lam in grid}
    missing = [(c, Genotype(MergeKind.TA, (lam,))) for lam, c in ids.items() if c not in records]
    if missing:
        raise MissingCandidatesError(missing)
    return build_calibration_matrix(
        lambda lam: records[ids[lam]].select(sorted(records[ids[lam]].item_ids)), grid
    )


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def _cmd_fidelity(args) -> int:
    bench = _resolve_bench(args)
    try:
        strategies = [SubsetStrategy(s.strip()) for s in args.strategies.split(",") if s.strip()]
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not strategies or not sizes:
        raise UsageError("--strategies and --sizes must be non-empty")
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")

    cells = rank_fidelity_curve(
        bench,
        strategies,
        sizes,
        n_models=args.n_models,
        seeds=range(args.seeds),
        calibration_k=args.calibration_k,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["strategy,size,seed,rho"]
    lines += [f"{c.strategy.value},{c.size},{c.seed},{c.rho:.6f}" for c in cells]
    (out_dir / "fidelity.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    means = mean_fidelity(cells)
    lines = ["strategy,size,mean_rho"]
    lines += [f"{s.value},{size},{rho:.6f}" for s, size, rho in means]
    (out_dir / "fidelity_mean.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    for s, size, rho in means:
        print(f"{s.value:<13} size={size:<5} mean rho = {rho:.4f}")
    print(f"wrote {out_dir / 'fidelity.csv'} and {out_dir / 'fidelity_mean.csv'}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    records = load_record_evaluations(args.records)
    for label, cid in (("candidate", args.candidate), ("baseline", args.baseline)):
        if cid not in records:
            raise ParetoMergeError(
                f"{label} id {cid!r} not present in {args.records} "
                f"(available: {', '.join(sorted(records)[:8])})"
            )
    report = build_report(
        _group_by_benchmark(records[args.candidate]),
        _group_by_benchmark(records[args.baseline]),
    )
    print(format_report_table(report))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.csv").write_text(report_to_csv(report), encoding="utf-8")
        print(f"wrote {out_dir / 'report.csv'}")
    return 0


def _group_by_benchmark(outcomes: Outcomes) -> dict[str, Outcomes]:
    """Split items by the benchmark prefix of their id (before the first '/'), keeping order."""
    groups: dict[str, list[str]] = {}
    for iid in outcomes.item_ids:
        groups.setdefault(iid.split("/", 1)[0] if "/" in iid else "default", []).append(iid)
    return {name: outcomes.select(ids) for name, ids in groups.items()}


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------


def _write_json_atomic(path: Path, payload) -> None:
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _member_dict(entry: HistoryEntry) -> dict:
    return {
        "candidate_id": candidate_id(entry.genotype),
        "genotype": entry.genotype.to_dict(),
        "accuracy": entry.fitness.accuracy,
        "mean_length": entry.fitness.mean_length,
        "fitness": list(entry.fitness.fitness),
    }


def _history_line(entry: HistoryEntry) -> str:
    return json.dumps({"generation": entry.generation, **_member_dict(entry)}) + "\n"


def _write_pareto_atomic(path: Path, front: list[HistoryEntry]) -> None:
    _write_json_atomic(path, {"members": [_member_dict(e) for e in front]})


if __name__ == "__main__":
    sys.exit(main())
