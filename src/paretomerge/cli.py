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

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic, write_changed
from .errors import MissingCandidatesError, ParetoMergeError, RecordFormatError, SearchConfigError
from .evaluation import (
    RecordsFitness,
    RecordTable,
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
from .nsga2 import MutationParams, SbxParams, SearchConfig, run_nsga2
from .reporting import build_report, format_report_table, front_points_csv, report_to_csv
from .sampling import (
    CorrectnessMatrix,
    SubsetStrategy,
    bernoulli_entropy,
    build_calibration_matrix,
    default_lambda_grid,
    load_matrix,
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
        try:
            return args.func(args)
        except MissingCandidatesError as exc:
            # A records command sets args.manifest before it can raise this.
            write_manifest(args.manifest, exc.pending)
            print(f"wrote manifest for {len(exc.pending)} pending candidate(s) to {args.manifest}; "
                  "evaluate them externally, append the records, and rerun", file=sys.stderr)
            raise
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
    p.add_argument("--k", type=_integer, default=10, help="number of calibration candidates")
    p.add_argument("--records", help="JSONL records from an external harness")
    p.add_argument("--manifest", help="manifest path for missing candidates (records mode)")
    p.add_argument("--save-bench", help="also persist the simulated benchmark JSON here")
    p.add_argument("--out", required=True, help="matrix JSON path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sample-subset", help="select an evaluation subset from a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", required=True, choices=[s.value for s in SubsetStrategy])
    p.add_argument("--size", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, default=0)
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
    p.add_argument("--n-models", type=_integer, default=50)
    p.add_argument("--seeds", type=_integer, default=20, help="number of seeds (0..n-1)")
    p.add_argument("--calibration-k", type=_integer, default=10)
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
    p.add_argument("--gen-seed", type=_integer, help="generate the default benchmark with this seed")
    p.add_argument("--n-items", type=_integer, help="items to generate (default 1000)")
    p.add_argument("--noise-seed", type=_integer, help="seed of the logistic draws (default 0)")


def _integer(text: str) -> int:
    """An integer flag's value: ASCII digits after an optional '-' (int() also reads
    "1_0", "+3" and other scripts' digits), within the interpreter's digit limit."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be ASCII digits after an optional '-', got {text!r}")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(f"has more than {sys.get_int_max_str_digits()} digits") from None


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


# Machine budgets. A size that fits an index may still not fit a desk machine:
# past these, building the benchmark, the calibration matrix, the search's
# history or a fidelity curve would run out of memory or take hours.
MAX_ITEMS = 10**6  # evaluator.simulated.n_items, --n-items
MAX_CALIBRATION_K = 10**4  # subset.calibration_k, --k, --calibration-k
MAX_CALIBRATION_CELLS = 10**7  # calibration k x benchmark items; fidelity n_models x n_items
MAX_EVALUATIONS = 10**6  # history rows, population_size x (generations + 1); fidelity seeds x n_models


def _benchmark(names, path, seed, n_items, noise_seed, per_item=(), then=()) -> SimulatedBenchmark:
    """The benchmark file at ``path``, or one generated from ``seed`` and
    ``n_items`` (default 1000); a None ``noise_seed`` is 0 for a file and the
    generator seed otherwise. ``n_items``, each ``(label, count)`` of
    ``per_item`` x the items, then the checks of ``then`` are budgeted before a
    benchmark is generated, or right after a file is loaded. ``names`` holds
    the messages' prefix and the item count's and file's labels."""
    prefix, items, source = names
    if path is None:
        n_items = 1000 if n_items is None else n_items
        _at_least((prefix + items, n_items, 1))
        _at_most((prefix + items, n_items, MAX_ITEMS))
    else:
        bench = load_benchmark(path, noise_seed=noise_seed or 0)
        n_items, items = len(bench), f"the {len(bench)} items of {source}"
    _at_most(*[(f"{prefix}{label} x {items}", count * n_items, MAX_CALIBRATION_CELLS)
               for label, count in per_item], *then)
    if path is None:
        bench = generate_benchmark(seed=seed, n_items=n_items, noise_seed=noise_seed)
    return bench


def _resolve_bench(args, per_item, then=()) -> SimulatedBenchmark:
    """The benchmark of ``--bench`` or ``--gen-seed``, by :func:`_benchmark`."""
    if (args.bench is None) == (args.gen_seed is None):
        raise UsageError("provide exactly one of --bench or --gen-seed")
    _at_least(("--gen-seed", args.gen_seed or 0, 0))
    if args.bench is not None and args.n_items is not None:
        raise UsageError("--n-items applies only to --gen-seed")
    return _benchmark(("", "--n-items", "--bench"), args.bench, args.gen_seed, args.n_items,
                      args.noise_seed or 0, per_item, then)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def _cmd_merge(args) -> int:
    try:
        # float() also reads "0.1_5" and other scripts' digits.
        if not args.params.isascii() or "_" in args.params:
            raise ValueError
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
    _at_most(("--k", args.k, MAX_CALIBRATION_K))
    bench, records = None, None
    if args.records is not None:
        simulated = (args.bench, args.gen_seed, args.save_bench, args.n_items, args.noise_seed)
        if any(v is not None for v in simulated):
            raise UsageError(
                "--records excludes --bench, --gen-seed, --save-bench, --n-items and --noise-seed"
            )
        records = load_record_evaluations(args.records)
        args.manifest = args.manifest or str(Path(args.out).with_suffix(".manifest.jsonl"))
    elif args.manifest is not None:
        raise UsageError("--manifest needs --records")
    else:
        bench = _resolve_bench(args, [("--k", args.k)])
        if args.save_bench:
            save_benchmark(bench, args.save_bench)
    matrix = _calibration_matrix(args.k, bench, records)
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
    sim = evaluator_block.get("simulated") or {}
    if sources[0] == "records":
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
    # A benchmark file fixes the items, and explicit item ids the subset.
    for where, block, owner, fields in (
        ("evaluator.simulated", sim, "benchmark", ("n_items", "generator_seed")),
        ("subset", subset_block or {}, "item_ids", ("strategy", "size", "seed", "calibration_k")),
    ):
        ignored = [f"'{where}.{name}'" for name in fields if name in block]
        if block.get(owner) and ignored:
            raise UsageError(f"config '{where}.{owner}' excludes {', '.join(ignored)}")
    k = (subset_block or {}).get("calibration_k", 10)
    _at_most(("config 'subset.calibration_k'", k, MAX_CALIBRATION_K),
             ("config 'search.population_size' x ('search.generations' + 1)",
              search.population_size * (search.generations + 1), MAX_EVALUATIONS))

    # The inputs are read, and budgeted, before the run directory exists.
    bench = records = None
    if sources[0] == "records":
        records = load_record_evaluations(rec_block["path"])
    else:
        calibrates = subset_block is not None and "item_ids" not in subset_block
        bench = _benchmark(
            ("config ", "'evaluator.simulated.n_items'", "'evaluator.simulated.benchmark'"),
            sim.get("benchmark"), sim.get("generator_seed", 0), sim.get("n_items"),
            sim.get("noise_seed"), [("'subset.calibration_k'", k)] if calibrates else [])

    out_dir = Path(args.out or raw.get("output_dir") or "paretomerge-run")
    out_dir.mkdir(parents=True, exist_ok=True)
    args.manifest = out_dir / "manifest.jsonl"
    if bench is not None:
        save_benchmark(bench, out_dir / "benchmark.json")

    echo = {
        "search": dataclasses.asdict(search),
        "merge": merge_block,
        "evaluator": evaluator_block,
        "subset": subset_block,
        "output_dir": str(out_dir),
    }

    # The search gives a repeated row the fitness of its first occurrence, so
    # each distinct row's member dict, and the JSON of its history line after
    # the generation, are built once, keyed by the row's bytes. history.jsonl
    # only grows: each generation's lines are encoded once, and the file is
    # rewritten from those chunks. The last call leaves the final files.
    encoded: dict[bytes, tuple[dict, str]] = {}
    history: list[bytes] = []
    # The front so far as (member, its indented pareto.json text) pairs and
    # their (m, 2) fitness; pareto.json, front_points.csv and the summary read
    # it. A point left out of it stays dominated, or repeats the fitness of an
    # earlier member, so the front of this front followed by the new points is
    # the front of the whole history. A member's text is encoded once, when it
    # enters the front, and pareto.json is written only when its bytes change.
    front, front_f = [], np.empty((0, 2))

    def on_generation(gen: int, x_new: np.ndarray, f_new: np.ndarray) -> None:
        nonlocal front, front_f
        new = []
        for row, values, (f0, f1) in zip(x_new, x_new.tolist(), f_new.tolist()):
            key = row.tobytes()
            if key not in encoded:
                g = Genotype(search.genotype_kind, values)
                m = {"candidate_id": candidate_id(g), "genotype": g.to_dict(),
                     "accuracy": -f0, "mean_length": f1, "fitness": [f0, f1]}
                encoded[key] = m, json.dumps(m)[1:]
            new.append(encoded[key])
        # json.dumps({"generation": gen, **member}) with the member's JSON reused.
        head = '{"generation": %d, ' % gen
        history.append("".join(head + tail + "\n" for _, tail in new).encode("utf-8"))
        write_atomic(out_dir / "history.jsonl", history)
        if new:
            # Not a top-level import: the bench tracer and
            # test_evolve_writes_the_front_of_each_history_prefix rebind nsga2.extract_pareto.
            from .nsga2 import extract_pareto

            f = np.vstack((front_f, f_new))
            keep = extract_pareto(f)
            old = len(front)
            front = [front[i] if i < old else (new[i - old][0], _pareto_member(new[i - old][0]))
                     for i in keep.tolist()]
            front_f = f[keep]
            # json.dumps({"members": members}, indent=2) + "\n", from the members' texts.
            data = ('{\n  "members": [\n' + ",\n".join(text for _, text in front)
                    + "\n  ]\n}\n").encode("utf-8")
            write_changed(out_dir / "pareto.json", data)

    subset_ids = _resolve_subset(subset_block, bench, records, out_dir)
    if bench is not None:
        evaluator = SimulatedFitness(bench, subset_ids)
    else:
        evaluator = RecordsFitness(records, subset_ids)
    _write_json_atomic(out_dir / "config.json", echo)
    _, _, f = run_nsga2(search, evaluator, on_generation=on_generation)

    # Length reductions are relative to the lambda = 0 baseline, so there are
    # none without its records on the subset or when its mean length is 0.
    try:
        baseline_length = evaluator.evaluate(Genotype(MergeKind.TA, (0.0,))).mean_length
    except (MissingCandidatesError, RecordFormatError):
        baseline_length = 0.0
    if baseline_length > 0:
        write_atomic(
            out_dir / "front_points.csv",
            front_points_csv(front_f, baseline_length).encode("utf-8"),
        )

    print(f"evaluated {len(f)} candidates over {search.generations} generations")
    print(f"{'genotype':<28} {'accuracy':>9} {'mean_length':>12}")
    for m, _ in front:
        values = ", ".join(f"{v:.4f}" for v in m["genotype"]["values"])
        print(
            f"{m['genotype']['kind']}[{values}]".ljust(28)
            + f" {m['accuracy']:>9.4f} {m['mean_length']:>12.2f}"
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

    A strategy subset is selected anew on every run, which writes
    ``matrix.json`` and ``subset.json`` and never reads them back.
    """
    if subset_block is None:
        return None
    if "item_ids" in subset_block:
        return list(subset_block["item_ids"])

    strategy = SubsetStrategy(subset_block.get("strategy", "entropy"))
    size = subset_block.get("size", 50)
    seed = subset_block.get("seed", 0)
    matrix = _calibration_matrix(subset_block.get("calibration_k", 10), bench, records)
    save_matrix(matrix, out_dir / "matrix.json")
    subset_ids = [matrix.item_ids[i] for i in select_subset(matrix, strategy, size, seed=seed)]
    save_subset(out_dir / "subset.json", strategy, seed, subset_ids)
    return subset_ids


def _calibration_matrix(k: int, bench, records: RecordTable | None) -> CorrectnessMatrix:
    """One matrix row per coefficient of the k-point grid, simulated when
    ``bench`` is given, else from the ``records`` of each grid candidate.

    A grid candidate without records raises :class:`MissingCandidatesError`
    naming every such candidate. Record columns are sorted by item id, and a
    grid candidate whose records cover other items than the first one's is a
    ``ValueError``.
    """
    grid = default_lambda_grid(k)
    if bench is not None:
        return build_calibration_matrix(bench.correctness_vector, bench.item_ids, grid)
    genotypes = {candidate_id(g): g for g in (Genotype(MergeKind.TA, (lam,)) for lam in grid)}
    missing = [(c, g) for c, g in genotypes.items() if c not in records]
    if missing:
        raise MissingCandidatesError(missing)
    by_lam = {lam: records[c] for lam, c in zip(grid, genotypes)}
    items = np.sort(records.item[by_lam[grid[0]]])
    for lam, row in by_lam.items():
        if not np.array_equal(np.sort(records.item[row]), items):
            raise ValueError(f"candidate at lambda={lam} returned a different item set")
    item_ids = sorted(records.item_ids[code] for code in items.tolist())
    codes = records.codes_of(item_ids)
    return build_calibration_matrix(
        lambda lam: records.correct[records.select(by_lam[lam], codes)], item_ids, grid)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def _cmd_fidelity(args) -> int:
    allowed = [s.value for s in SubsetStrategy]
    strategies = _entries("--strategies", args.strategies, lambda e: e if e in allowed else None,
                          "one of " + ", ".join(allowed))
    sizes = _entries("--sizes", args.sizes,
                     lambda e: _integer(e) if e.isascii() and e.isdigit() else None, "decimal digits")
    if not strategies or not sizes:
        raise UsageError("--strategies and --sizes must be non-empty")
    _at_least(("--sizes", min(sizes), 1), ("--n-models", args.n_models, 2),
              ("--seeds", args.seeds, 1), ("--calibration-k", args.calibration_k, 2))
    _at_most(("--calibration-k", args.calibration_k, MAX_CALIBRATION_K))
    # Each seed scores --n-models candidates on every item of the benchmark.
    bench = _resolve_bench(args, [("--calibration-k", args.calibration_k),
                                  ("--n-models", args.n_models)],
                           [("--seeds x --n-models", args.seeds * args.n_models, MAX_EVALUATIONS)])

    rho = rank_fidelity_curve(
        bench,
        strategies,
        sizes,
        n_models=args.n_models,
        seeds=range(args.seeds),
        calibration_k=args.calibration_k,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [(i, j, s, size) for i, s in enumerate(strategies) for j, size in enumerate(sizes)]
    lines = ["strategy,size,seed,rho"]
    lines += [f"{s},{size},{seed},{rho[i, j, seed]:.6f}"
              for seed in range(args.seeds) for i, j, s, size in cells]
    write_atomic(out_dir / "fidelity.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    # A cell's seeds are contiguous, so its mean has np.mean's bits over their list.
    lines = ["strategy,size,mean_rho"]
    lines += [f"{s},{size},{rho[i, j].mean():.6f}" for i, j, s, size in cells]
    write_atomic(out_dir / "fidelity_mean.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    for i, j, s, size in cells:
        print(f"{s:<13} size={size:<5} mean rho = {rho[i, j].mean():.4f}")
    print(f"wrote {out_dir / 'fidelity.csv'} and {out_dir / 'fidelity_mean.csv'}")
    return 0


def _entries(flag: str, text: str, parse, phrase: str) -> list:
    """The values ``parse`` gives the stripped, non-empty entries of a
    comma-separated flag. An entry it maps to None or fails with
    ``ArgumentTypeError``, or a value listed twice (each is one slot of the
    fidelity curve), is a usage error naming the flag."""
    values = []
    for entry in filter(None, map(str.strip, text.split(","))):
        try:
            value = parse(entry)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{flag} entry {exc}") from None
        if value is None:
            raise UsageError(f"{flag} entry must be {phrase}, got {entry!r}")
        if value in values:
            raise UsageError(f"{flag} lists {value} more than once")
        values.append(value)
    return values


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
        _group_by_benchmark(records, args.candidate),
        _group_by_benchmark(records, args.baseline),
    )
    print(format_report_table(report))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(out_dir / "report.csv", report_to_csv(report).encode("utf-8"))
        print(f"wrote {out_dir / 'report.csv'}")
    return 0


def _group_by_benchmark(records: RecordTable, cid: str) -> dict:
    """Split candidate ``cid``'s records by the benchmark prefix of their item
    id (before the first '/'), keeping order: one ``(correct, lengths)`` pair per benchmark."""
    groups: dict[str, list[int]] = {}
    for row in records[cid].tolist():
        iid = records.item_ids[records.item[row]]
        groups.setdefault(iid.split("/", 1)[0] if "/" in iid else "default", []).append(row)
    return {name: (records.correct[rows], records.length[rows]) for name, rows in groups.items()}


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------


def _write_json_atomic(path: Path, payload) -> None:
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _pareto_member(member: dict) -> str:
    """``member`` as ``json.dumps(..., indent=2)`` writes it inside the
    ``members`` list of a pareto.json object: each line indented 4 more."""
    return "    " + json.dumps(member, indent=2).replace("\n", "\n    ")


if __name__ == "__main__":
    sys.exit(main())
