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
import hashlib
import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .errors import MissingCandidatesError, ParetoMergeError, RecordFormatError, SearchConfigError
from .evaluation import (
    Outcomes,
    RecordsFitness,
    SimulatedBenchmark,
    SimulatedFitness,
    candidate_id,
    generate_benchmark,
    is_id_list,
    is_json_number,
    load_benchmark,
    load_json,
    load_record_evaluations,
    save_benchmark,
    write_manifest,
)
from .merge import Genotype, MergeKind, decode_genotype
from .nsga2 import HistoryEntry, MutationParams, SbxParams, SearchConfig, run_nsga2
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
                   help="skip NaN/Inf checks when a tensor is read; lambda 0/1 then reproduce "
                   "an endpoint exactly only where both inputs are finite (0 * inf is NaN)")
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


def _at_least(*checks: tuple[str, int, int]) -> None:
    """Raise a usage error for the first ``(flag, value, least)`` with value < least."""
    for flag, value, least in checks:
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")


def _at_most(*checks: tuple[str, int, int]) -> None:
    """Raise a usage error for the first ``(name, value, most)`` with value > most."""
    for name, value, most in checks:
        if value > most:
            raise UsageError(f"{name} must be at most {most}, got {value}")


def _resolve_bench(args) -> SimulatedBenchmark:
    if (args.bench is None) == (args.gen_seed is None):
        raise UsageError("provide exactly one of --bench or --gen-seed")
    n_items = 1000 if args.n_items is None else args.n_items
    _at_least(("--gen-seed", args.gen_seed or 0, 0), ("--n-items", n_items, 1))
    noise_seed = 0 if args.noise_seed is None else args.noise_seed
    if args.bench is not None:
        if args.n_items is not None:
            raise UsageError("--n-items applies only to --gen-seed")
        return load_benchmark(args.bench, noise_seed=noise_seed)
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

    # Headers first, then compatibility, then read, merge and write one
    # tensor at a time; the endpoint files close on every exit.
    validate = not args.no_validate
    with load_checkpoint(args.system2, validate=validate) as system2, \
            load_checkpoint(args.system1, validate=validate) as system1:
        merged = decode_genotype(genotype, system2, system1)
        save_checkpoint(merged, args.out)
    print(f"tensors: {len(merged.tensors)}, parameters: {merged.total_parameters}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    _at_least(("--k", args.k, 2))
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
    _at_least(("--size", args.size, 1), ("--seed", args.seed, 0))
    matrix = load_matrix(args.matrix)
    chosen = select_subset(matrix, args.strategy, args.size, seed=args.seed)
    save_subset(args.out, args.strategy, args.seed, [matrix.item_ids[i] for i in chosen])
    entropies = sorted(map(bernoulli_entropy, matrix.correct.mean(axis=0)[chosen].tolist()))
    print(
        f"selected {len(chosen)} items ({args.strategy}); "
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
    _check_config(raw, _CONFIG)
    merge_block, evaluator_block = raw.get("merge", {}), raw.get("evaluator", {})
    subset_block = raw.get("subset")
    sources = [k for k in ("simulated", "records") if k in evaluator_block]
    if len(sources) != 1:
        raise UsageError("config must name exactly one evaluator source (simulated or records)")
    if sources[0] == "simulated":
        sim = evaluator_block["simulated"] or {}
    else:
        rec_block = evaluator_block["records"]
        if not isinstance(rec_block, dict) or not isinstance(rec_block.get("path"), str):
            raise UsageError("evaluator.records must be an object with a string 'path'")
    search = _search_config(raw.get("search", {}), merge_block)
    if sources[0] == "simulated" and search.genotype_kind != MergeKind.TA:
        # The simulator models the interpolation coefficient only.
        field = "search.genotype_kind" if "genotype_kind" in raw.get("search", {}) else "merge.kind"
        raise UsageError(
            f"config '{field}' must be ta with a simulated evaluator, "
            f"got {json.dumps(search.genotype_kind.value)}"
        )
    _check_budgets(search, sim if sources[0] == "simulated" else None, subset_block)

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
    # The front of the history so far. A point left out of it stays dominated,
    # or repeats the fitness of an earlier member, so the front of this front
    # followed by the new points is the front of the whole history.
    running_front: list[HistoryEntry] = []

    def on_generation(history: list[HistoryEntry], gen: int) -> None:
        nonlocal running_front
        new = history[len(history_lines):]
        history_lines.extend(_history_line(e) for e in new)
        write_atomic(out_dir / "history.jsonl", "".join(history_lines).encode("utf-8"))
        if history:
            from .nsga2 import extract_pareto

            running_front = extract_pareto(running_front + new)
            _write_pareto_atomic(out_dir / "pareto.json", running_front)

    try:
        subset_ids = _resolve_subset(subset_block, bench, records, out_dir)
        if bench is not None:
            evaluator = SimulatedFitness(bench, subset_ids)
        else:
            evaluator = RecordsFitness(records, subset_ids)
        _write_json_atomic(out_dir / "config.json", echo)
        front, history = run_nsga2(search, evaluator, on_generation=on_generation)
    except MissingCandidatesError as exc:
        manifest = out_dir / "manifest.jsonl"
        write_manifest(manifest, [g for _, g in exc.pending])
        print(
            f"wrote manifest for {len(exc.pending)} pending candidate(s) to {manifest}; "
            "evaluate them externally, append the records, and rerun",
            file=sys.stderr,
        )
        raise

    # Length reductions are relative to the lambda = 0 baseline, so there are
    # none without its records on the subset or when its mean length is 0.
    try:
        baseline_length = evaluator.evaluate(Genotype(MergeKind.TA, (0.0,))).mean_length
    except (MissingCandidatesError, RecordFormatError):
        baseline_length = 0.0
    if baseline_length > 0:
        write_atomic(
            out_dir / "front_points.csv",
            front_points_csv(front, baseline_length).encode("utf-8"),
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


def _is_bounds(value) -> bool:
    return value is None or isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(is_json_number, pair))
        for pair in value
    )


# Predicates on a field's exact JSON value, with the phrase its error uses:
# ``true`` is no number and 5.9 no integer.
_INT = (lambda v: type(v) is int, "an integer")
_SEED = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
# A count or size must fit an index: a larger one overflows numpy or never ends.
_SIZE = (lambda v: type(v) is int and v <= sys.maxsize, f"an integer no larger than {sys.maxsize}")
_NUMBER = (is_json_number, "a finite number")
_NUMBER_OR_NULL = (lambda v: v is None or is_json_number(v), "a finite number or null")
_STRING = (lambda v: isinstance(v, str), "a string")

# Every checked field of an ``evolve`` config. A rule is an enum (the field
# holds one of its values), a nested block (a dict of rules) or a predicate
# pair; a size whose command-line flag has a least value carries it third.
# Fields that no rule names are ignored.
_CONFIG = {
    "search": {
        "population_size": _SIZE,
        "generations": _SIZE,
        "seed": _SEED,
        "genotype_kind": MergeKind,
        "genotype_bounds": (_is_bounds, "a list of [low, high] finite numbers"),
        "sbx": {"probability": _NUMBER, "eta": _NUMBER},
        "mutation": {"per_variable_probability": _NUMBER_OR_NULL, "eta": _NUMBER},
    },
    "merge": {"kind": MergeKind},
    "subset": {
        "strategy": SubsetStrategy,
        "size": (*_SIZE, 1),
        "seed": _SEED,
        "calibration_k": (*_SIZE, 2),
        "item_ids": (lambda v: is_id_list(v) and len(v) > 0, "a non-empty list of unique, non-empty strings"),
    },
    "evaluator": {"simulated": {
        "benchmark": _STRING, "n_items": (*_SIZE, 1), "generator_seed": _SEED, "noise_seed": _INT,
    }},
    # Any falsy output_dir falls back to the default directory.
    "output_dir": (lambda v: not v or isinstance(v, str), "a string"),
}

# Machine budgets of an ``evolve`` run. A size that fits an index may still not
# fit a desk machine: past these, building the benchmark, the calibration
# matrix or the search's history would run out of memory or take hours.
MAX_ITEMS = 10**6  # evaluator.simulated.n_items
MAX_CALIBRATION_K = 10**4  # subset.calibration_k
MAX_CALIBRATION_CELLS = 10**7  # calibration_k x n_items, for a generated benchmark
MAX_EVALUATIONS = 10**6  # population_size x (generations + 1), the history entries


def _check_budgets(search: SearchConfig, sim: dict | None, subset_block) -> None:
    """Refuse a config over a machine budget, naming its fields. ``sim`` is the
    simulated evaluator block, None with records."""
    n_items = sim.get("n_items", 1000) if sim is not None else 0
    k = (subset_block or {}).get("calibration_k", 10)
    generated = sim is not None and not sim.get("benchmark")
    calibrates = subset_block is not None and "item_ids" not in subset_block
    _at_most(
        ("config 'evaluator.simulated.n_items'", n_items, MAX_ITEMS),
        ("config 'subset.calibration_k'", k, MAX_CALIBRATION_K),
        ("config 'subset.calibration_k' x 'evaluator.simulated.n_items'",
         k * n_items if generated and calibrates else 0, MAX_CALIBRATION_CELLS),
        ("config 'search.population_size' x ('search.generations' + 1)",
         search.population_size * (search.generations + 1), MAX_EVALUATIONS),
    )


# Blocks with a value that stands for "no settings": a null subset selects
# every item, and a falsy simulated block generates the default benchmark.
_NO_SETTINGS = {"subset": lambda v: v is None, "evaluator.simulated": lambda v: not v}


def _check_config(block: dict, rules: dict, prefix: str = "") -> None:
    """Check each field of ``block`` that ``rules`` names, depth first."""
    for name, rule in rules.items():
        if name not in block:
            continue
        value, where = block[name], prefix + name
        if isinstance(rule, dict):
            if where in _NO_SETTINGS and _NO_SETTINGS[where](value):
                continue
            ok, phrase = isinstance(value, dict), "an object"
        elif isinstance(rule, type):
            allowed = [c.value for c in rule]
            ok, phrase = value in allowed, f"one of {', '.join(allowed)}"
        else:
            ok, phrase = rule[0](value), rule[1]
        if not ok:
            raise UsageError(f"config '{where}' must be {phrase}, got {json.dumps(value)}")
        if isinstance(rule, dict):
            _check_config(value, rule, where + ".")
        elif isinstance(rule, tuple) and len(rule) == 3:
            _at_least((f"config '{where}'", value, rule[2]))


def _search_config(search: dict, merge: dict) -> SearchConfig:
    """Build from a checked ``search`` block; absent fields keep the dataclass defaults.

    ``merge.kind`` fills a missing ``genotype_kind``. ``sbx`` and ``mutation``
    numbers become floats, so the ``config.json`` echo writes ``1.0`` for ``1``.
    A value that ``SearchConfig`` rejects is a usage error naming its field.
    """
    names = ("population_size", "generations", "seed", "genotype_kind", "genotype_bounds")
    kw = {k: search[k] for k in names if k in search}
    if "genotype_kind" not in kw and "kind" in merge:
        kw["genotype_kind"] = merge["kind"]
    for key, params in (("sbx", SbxParams), ("mutation", MutationParams)):
        block = search.get(key, {})
        fields = [f.name for f in dataclasses.fields(params) if f.name in block]
        kw[key] = params(**{f: None if block[f] is None else float(block[f]) for f in fields})
    try:
        return SearchConfig(**kw)
    except SearchConfigError as exc:
        raise UsageError(f"config 'search.{exc.field}' {exc.requirement}") from None


def _resolve_subset(subset_block, bench, records, out_dir) -> list[str] | None:
    """Turn the config subset block into explicit item ids (None = all items).

    In records mode the subset is reused when ``calibration.key`` matches the
    inputs of the matrix and the files it was written with (see
    :func:`_calibration_key_file`); anything else rebuilds both files.
    """
    if subset_block is None:
        return None
    if "item_ids" in subset_block:
        return list(subset_block["item_ids"])

    strategy = SubsetStrategy(subset_block.get("strategy", "entropy"))
    size = subset_block.get("size", 50)
    seed = subset_block.get("seed", 0)
    grid = default_lambda_grid(subset_block.get("calibration_k", 10))
    key_path = out_dir / "calibration.key"
    key = None
    if bench is None:
        key = _calibration_key(strategy, size, seed, grid, _grid_records(grid, records))
        try:
            reuse = key_path.read_bytes() == _calibration_key_file(key, out_dir)
        except OSError:
            reuse = False  # a missing file means a rebuild
        if reuse:
            return load_json(out_dir / "subset.json")["item_ids"]
    key_path.unlink(missing_ok=True)
    matrix = _calibration_matrix(grid, bench, records)
    save_matrix(matrix, out_dir / "matrix.json")
    subset_ids = [matrix.item_ids[i] for i in select_subset(matrix, strategy, size, seed=seed)]
    save_subset(out_dir / "subset.json", strategy, seed, subset_ids)
    if key is not None:
        write_atomic(key_path, _calibration_key_file(key, out_dir))
    return subset_ids


def _calibration_matrix(grid, bench, records) -> CorrectnessMatrix:
    """One matrix row per grid coefficient, simulated when ``bench`` is given, else from records.

    Record rows are sorted by item id. Raises :class:`MissingCandidatesError`
    naming every grid candidate without records.
    """
    if bench is not None:
        return build_calibration_matrix(bench.outcomes, grid)
    rows = dict(zip(grid, _grid_records(grid, records).values()))
    return build_calibration_matrix(lambda lam: rows[lam].select(sorted(rows[lam].item_ids)), grid)


def _grid_records(grid, records) -> dict[str, Outcomes]:
    """The records of each grid candidate by candidate id, in grid order.

    Raises :class:`MissingCandidatesError` naming every grid candidate without records.
    """
    genotypes = {candidate_id(g): g for g in (Genotype(MergeKind.TA, (lam,)) for lam in grid)}
    missing = [(c, g) for c, g in genotypes.items() if c not in records]
    if missing:
        raise MissingCandidatesError(missing)
    return {c: records[c] for c in genotypes}


_CALIBRATION_KEY_TAG = b"paretomerge calibration key 1"


def _calibration_key(strategy, size, seed, grid, rows: dict[str, Outcomes]) -> str:
    """blake2b over everything the matrix and the subset depend on: the
    selection parameters, the grid and each grid candidate's records in
    loader order, lengths too: the matrix holds none, so an edited length costs
    one rebuild that writes the same files. Every field is length-prefixed, so
    the encoding is unambiguous."""
    h = hashlib.blake2b(digest_size=32)

    def put(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    put(_CALIBRATION_KEY_TAG)
    put(json.dumps([strategy.value, size, seed, grid]).encode("utf-8"))
    for cid, row in rows.items():
        put(cid.encode("utf-8"))
        put(json.dumps(row.item_ids).encode("utf-8"))
        put(row.correct.astype("i1").tobytes())
        put(row.lengths.astype("<f8").tobytes())
    return h.hexdigest()


def _calibration_key_file(key: str, out_dir: Path) -> bytes:
    """The bytes of ``calibration.key``: the key and the blake2b digests of
    ``matrix.json`` and ``subset.json`` as they are now in ``out_dir``."""
    lines = [f"key {key}"] + [
        f"{name} {hashlib.blake2b((out_dir / name).read_bytes(), digest_size=32).hexdigest()}"
        for name in ("matrix.json", "subset.json")
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def _cmd_fidelity(args) -> int:
    try:
        strategies = [SubsetStrategy(s.strip()) for s in args.strategies.split(",") if s.strip()]
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not strategies or not sizes:
        raise UsageError("--strategies and --sizes must be non-empty")
    _at_least(("--sizes", min(sizes), 1), ("--n-models", args.n_models, 2),
              ("--seeds", args.seeds, 1), ("--calibration-k", args.calibration_k, 2))
    bench = _resolve_bench(args)

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
    write_atomic(out_dir / "fidelity.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    means = mean_fidelity(cells)
    lines = ["strategy,size,mean_rho"]
    lines += [f"{s.value},{size},{rho:.6f}" for s, size, rho in means]
    write_atomic(out_dir / "fidelity_mean.csv", ("\n".join(lines) + "\n").encode("utf-8"))

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
        write_atomic(out_dir / "report.csv", report_to_csv(report).encode("utf-8"))
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
