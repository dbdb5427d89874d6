"""Candidate evaluation: simulated item-response benchmark and record files.

Two fitness backends share one contract (genotype in, accuracy/length out):

* ``SimulatedFitness`` scores candidates on a synthetic benchmark whose items
  respond to the interpolation coefficient through threshold or logistic
  rules, so the whole pipeline runs at desk scale with no model inference.
* ``RecordsFitness`` replays per-item outcomes produced by an external
  harness from a JSONL record file, keyed by deterministic candidate ids.

A record file loads as one ``RecordTable`` of columns that maps each candidate
id to its rows, and ``objectives`` reduces a candidate's correctness and lengths.

The search scores each generation with one serial
``FitnessEvaluator.evaluate_population(genotypes)`` call on the candidates
it has not scored yet in the run, which returns one objective vector per
genotype in input order; see ``FitnessEvaluator`` for the batch contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import write_atomic
from .errors import GenotypeError, MissingCandidatesError, RecordFormatError
from .merge import Genotype, MergeKind


# ``bool`` subclasses ``int`` but is never a valid count or measurement.
_BOOL_TYPES = (bool, np.bool_)
# A JSON integer beyond this compares below ``math.inf`` yet has no float64 value.
_FLOAT_MAX = sys.float_info.max


def _python_value(value):
    """A numpy scalar as its ``.item()``; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ObjectiveVector:
    """Accuracy and mean output length, with the minimization-form fitness."""

    accuracy: float
    mean_length: float

    def __post_init__(self):
        if type(self.accuracy) in _BOOL_TYPES or not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy!r}")
        if type(self.mean_length) in _BOOL_TYPES or not 0 <= self.mean_length < math.inf:
            raise ValueError(
                f"mean_length must be a finite number >= 0, got {self.mean_length!r}"
            )

    @property
    def fitness(self) -> tuple[float, float]:
        return (-self.accuracy, self.mean_length)


def left_sum(values) -> float:
    """The float64 sum of a non-empty ``values`` from +0.0, left to right: the
    bits ``sum`` gave before Python 3.12 made it a compensated sum.
    ``np.add.accumulate`` adds in order, and adding its last sum to 0.0 makes a
    sum of only -0.0 the +0.0 that a start at +0.0 gives. A sum past the
    float64 range is inf, with no warning; its callers refuse it."""
    with np.errstate(over="ignore"):
        return 0.0 + np.add.accumulate(np.asarray(values, dtype=np.float64))[-1].item()


def objectives(correct, lengths) -> ObjectiveVector:
    """Mean correctness and mean length over equal-length, non-empty columns of
    one candidate's 0/1 outcomes and lengths. The length sum is ``left_sum`` in
    item order: ``np.mean`` sums pairwise, which changes the last bit of the mean."""
    n = len(correct)
    if n == 0:
        raise ValueError("cannot compute objectives from no outcomes")
    return ObjectiveVector(np.count_nonzero(correct) / n, left_sum(lengths) / n)


# ---------------------------------------------------------------------------
# Simulated item-response benchmark
# ---------------------------------------------------------------------------


# Response rules, indexed by an item's int8 kind code: THRESHOLD_UP is solved
# iff lam >= t, THRESHOLD_DOWN iff lam <= t, LOGISTIC with probability
# sigmoid(a * (lam - t)).
RESPONSE_KINDS = ("THRESHOLD_UP", "THRESHOLD_DOWN", "LOGISTIC")
_UP, _DOWN, _LOGISTIC = range(len(RESPONSE_KINDS))
# An item's number columns; with the id and the kind name they are the keys of
# a benchmark file's item objects, in this order.
_NUMBER_FIELDS = ("t", "a", "len_long", "len_short")
_ITEM_FIELDS = ("item_id", "response_kind", *_NUMBER_FIELDS)
# A batch of coefficients is scored in blocks of rows holding about this many
# (coefficient, item) cells, so the temporaries, up to about 150 bytes a
# logistic cell, stay bounded whatever the batch; a block holds at least one row.
_BLOCK_CELLS = 1 << 18


def _row_blocks(m: int, n_items: int):
    """Slices over ``m`` rows of ``n_items`` cells, about ``_BLOCK_CELLS`` each."""
    step = max(1, _BLOCK_CELLS // max(n_items, 1))
    return [slice(i, i + step) for i in range(0, m, step)]


class SimulatedBenchmark:
    """Immutable simulated items as columns, with vectorized per-lambda evaluation.

    Entry i of ``kinds`` (int8 codes into ``RESPONSE_KINDS``) and of the
    float64 columns ``t``, ``a``, ``len_long`` and ``len_short`` belongs to
    ``item_ids[i]``; the columns are read-only. They are checked once, here,
    entry by entry: ids are unique non-empty strings, a kind is an exact
    ``int`` code, a number is what ``is_json_number`` accepts (a numpy scalar
    is read by its ``.item()``), ``t`` lies in [0, 1], ``a > 0`` and
    ``len_long >= len_short >= 0``. A logistic item's id must also encode as
    UTF-8, since its draws are keyed by those bytes. A ``ValueError`` names the
    first bad item.
    """

    def __init__(self, item_ids, kinds, t, a, len_long, len_short, noise_seed: int = 0):
        self.item_ids, self.noise_seed, self._index = list(item_ids), int(noise_seed), {}
        if not self.item_ids:
            raise ValueError("benchmark needs at least one item")
        for pos, iid in enumerate(self.item_ids):
            if not isinstance(iid, str) or not iid:
                raise ValueError(f"item {pos}: item_id must be a non-empty string, got {iid!r}")
            if self._index.setdefault(iid, pos) != pos:
                raise ValueError(f"item {pos}: item id {iid!r} repeats item {self._index[iid]}")
        given = {}  # each entry as a Python value, a numpy scalar by its .item()
        for name, col in zip(("kinds", *_NUMBER_FIELDS), (kinds, t, a, len_long, len_short)):
            try:
                entries = np.asarray(col, dtype=object)
            except ValueError as exc:  # arrays of several shapes, which numpy cannot lay out
                raise ValueError(f"{name} must hold one number per item, "
                                 f"got object[{len(col)}]") from exc
            if entries.shape != (len(self),):
                try:  # numpy's own dtype for the column; a ragged one has none
                    dtype = np.asarray(col).dtype
                except ValueError:
                    dtype = entries.dtype
                raise ValueError(f"{name} must hold one number per item, "
                                 f"got {dtype}{list(entries.shape)}")
            given[name] = list(map(_python_value, entries.tolist()))
        t, a, len_long, len_short = numbers = [  # NaN where an entry is no number
            np.array([v if is_json_number(v) else math.nan for v in given[name]], dtype=np.float64)
            for name in _NUMBER_FIELDS]
        rules = [  # (the items that pass, the message, the columns it quotes)
            ([type(k) is int and 0 <= k < len(RESPONSE_KINDS) for k in given["kinds"]],
             f"kind must be a code into {RESPONSE_KINDS}, got {{!r}}", given["kinds"]),
            *((np.isfinite(col), f"{name} must be a finite number, got {{!r}}", given[name])
              for name, col in zip(_NUMBER_FIELDS, numbers)),
            ((0.0 <= t) & (t <= 1.0), "t must lie in [0, 1], got {!r}", t),
            (a > 0, "slope a must be > 0, got {!r}", a),
            ((len_long >= len_short) & (len_short >= 0),
             "need len_long >= len_short >= 0, got {!r} / {!r}", len_long, len_short),
        ]
        bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, *_ in rules]))
        if bad.size:
            i = int(bad[0])
            message, *cols = next(rest for ok, *rest in rules if not ok[i])
            raise ValueError(f"item {i} ({self.item_ids[i]!r}): "
                             + message.format(*(_python_value(col[i]) for col in cols)))
        self.kinds = np.array(given["kinds"], dtype=np.int8)
        self.t, self.a, self.len_long, self.len_short = numbers
        # Per rule, the items it scores; threshold items also keep their t, and
        # logistic items their a and t and the UTF-8 key prefix of their draws.
        self._up, self._down, self._logistic = (
            np.flatnonzero(self.kinds == kind) for kind in (_UP, _DOWN, _LOGISTIC))
        self._t_up, self._t_down = self.t[self._up], self.t[self._down]
        self._a_log, self._t_log = self.a[self._logistic], self.t[self._logistic]
        for col in (self.kinds, *numbers, self._up, self._down, self._logistic,
                    self._t_up, self._t_down, self._a_log, self._t_log):
            col.flags.writeable = False
        try:
            self._draw_keys = tuple(f"{self.item_ids[i]}:".encode("utf-8")
                                    for i in self._logistic.tolist())
        except UnicodeEncodeError as exc:  # a lone surrogate; exc.object is "{item_id}:"
            iid = exc.object[:-1]
            raise ValueError(f"item {self._index[iid]} ({iid!r}): a logistic item's id must "
                             f"encode as UTF-8 ({exc.reason})") from exc

    def __len__(self) -> int:
        return len(self.item_ids)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise ValueError(f"unknown item id {item_id!r}") from None

    def correctness_vector(self, lam) -> np.ndarray:
        """Binary outcome per item at interpolation coefficient ``lam``; for a
        1-D array of coefficients, one such row per coefficient, each with the
        bits of the scalar call."""
        scalar = np.ndim(lam) == 0
        if np.ndim(lam) > 1:
            raise ValueError(f"lambda must be a number or a 1-D array, got shape {np.shape(lam)}")
        lams = [lam] if scalar else np.asarray(lam, dtype=np.float64).tolist()
        for value in lams:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"lambda must lie in [0, 1], got {value}")
        out = np.zeros((len(lams), len(self)), dtype=np.int8)
        for rows in _row_blocks(len(lams), len(self)):
            self._fill(lams[rows], out[rows])
        return out[0] if scalar else out

    def _fill(self, lams: list[float], out: np.ndarray) -> None:
        """Write the outcome rows of ``lams`` into the (M, items) ``out``."""
        x = np.array(lams, dtype=np.float64)[:, None]
        out[:, self._up] = x >= self._t_up
        out[:, self._down] = x <= self._t_down
        if self._draw_keys:
            # A logistic item's draw is keyed by (item, lambda bucket, seed), so
            # the same candidate always gets the same outcome within one run:
            # blake2b-64 of "{item_id}:{bucket}:{seed}", little-endian, / 2**64.
            suffixes = [f"{round(v * 1_000_000)}:{self.noise_seed}".encode("utf-8") for v in lams]
            digests = b"".join(hashlib.blake2b(key + suffix, digest_size=8).digest()
                               for suffix in suffixes for key in self._draw_keys)
            shape = (len(lams), len(self._draw_keys))
            uniform = np.frombuffer(digests, "<u8").reshape(shape) / 2.0**64
            out[:, self._logistic] = uniform < self._sigmoid(x)

    def _sigmoid(self, x: np.ndarray) -> np.ndarray:
        """``logistic_response`` of each logistic item at each coefficient of the
        (M, 1) column ``x``, with its bits: numpy's ``+``, ``-``, ``*`` and ``/``
        round as Python's do, and each ``exp`` is ``math.exp``, not numpy's SIMD one."""
        with np.errstate(over="ignore"):  # a * (lam - t) past the float64 range is ±inf
            z = self._a_log * (x - self._t_log)
        e = np.array([math.exp(v) for v in (-np.abs(z)).ravel().tolist()]).reshape(z.shape)
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def length_vector(self, lam: float) -> np.ndarray:
        """Deterministic per-item output length, linear between the endpoints."""
        return _lengths_at(self.len_long, self.len_short, lam)


def logistic_response(a: float, b: float, lam: float) -> float:
    """Standard logistic curve sigmoid(a * (lam - b)); a must be positive."""
    if a <= 0:
        raise ValueError(f"slope a must be > 0, got {a}")
    z = a * (lam - b)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _lengths_at(len_long: np.ndarray, len_short: np.ndarray, lam: float) -> np.ndarray:
    return len_long + (len_short - len_long) * lam


# ---------------------------------------------------------------------------
# Default benchmark generator
# ---------------------------------------------------------------------------


# The default difficulty profile: role fractions (logistic items take the
# rest) and the uniform ranges each role draws its parameters from.
EASY_FRAC, HARD_FRAC, UP_FRAC, DOWN_FRAC = 0.476, 0.476, 0.020, 0.016
UP_BAND = (0.25, 0.50)
DOWN_BAND = (0.50, 0.75)
LOGISTIC_B_BAND = (0.30, 0.70)
LOGISTIC_A_RANGE = (4.0, 12.0)
LEN_LONG_RANGE = (1500.0, 6000.0)
LEN_SHORT_RANGE = (100.0, 800.0)


def generate_benchmark(
    seed: int = 0, n_items: int = 1000, noise_seed: int | None = None
) -> SimulatedBenchmark:
    """Build the default simulated benchmark.

    The difficulty profile mirrors what saturated correctness matrices look
    like in practice: the bulk of the items are either solved by every
    candidate (ascending threshold at 0) or failed by every candidate
    (descending threshold at 0), and carry no ranking signal. A small
    informative core does the discriminating: ascending thresholds spread
    over ``UP_BAND`` (accuracy climbs as the coefficient grows), descending
    thresholds over ``DOWN_BAND`` (accuracy decays past the optimum, so the
    accuracy curve peaks in the interior), and a few stochastic logistic
    items. Output lengths shrink linearly from a long endpoint draw to a
    short one. ``noise_seed`` keys the logistic draws and defaults to ``seed``.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    rng = np.random.default_rng(seed)
    counts = [int(round(frac * n_items)) for frac in (EASY_FRAC, HARD_FRAC, UP_FRAC, DOWN_FRAC)]
    # Rounding can overshoot n_items (by one at 33-41 items); the hard role,
    # which carries no ranking signal, gives up the excess.
    counts[1] -= max(sum(counts) - n_items, 0)
    counts.append(n_items - sum(counts))
    # Per role (easy, hard, up, down, logistic): response kind, band of t (None: t = 0).
    roles = [(_UP, None), (_DOWN, None), (_UP, UP_BAND), (_DOWN, DOWN_BAND), (_LOGISTIC, LOGISTIC_B_BAND)]
    roles = [role for role, n in zip(roles, counts) for _ in range(n)]
    roles = [roles[i] for i in rng.permutation(n_items)]

    width = len(str(max(n_items - 1, 1)))
    t, a, len_long, len_short = np.zeros(n_items), np.ones(n_items), np.empty(n_items), np.empty(n_items)
    for i, (kind, band) in enumerate(roles):
        if band is not None:
            t[i] = rng.uniform(*band)
        if kind == _LOGISTIC:
            a[i] = rng.uniform(*LOGISTIC_A_RANGE)
        len_long[i] = rng.uniform(*LEN_LONG_RANGE)
        len_short[i] = rng.uniform(*LEN_SHORT_RANGE)
    return SimulatedBenchmark(
        [f"item-{i:0{width}d}" for i in range(n_items)], [kind for kind, _ in roles],
        t, a, len_long, len_short, noise_seed=seed if noise_seed is None else noise_seed,
    )


def save_benchmark(bench: SimulatedBenchmark, path) -> None:
    """Serialize as a JSON array of item objects with the keys ``_ITEM_FIELDS``."""
    kinds = [RESPONSE_KINDS[k] for k in bench.kinds.tolist()]
    rows = zip(bench.item_ids, kinds, *(getattr(bench, name).tolist() for name in _NUMBER_FIELDS))
    write_atomic(path, json.dumps([dict(zip(_ITEM_FIELDS, row)) for row in rows]).encode("utf-8"))


def load_json(path):
    """Parse a whole JSON file; a file that is not JSON is a ``ValueError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_benchmark(path, noise_seed: int = 0) -> SimulatedBenchmark:
    """Read a ``save_benchmark`` file; ``a`` defaults to 1. The values go to
    ``SimulatedBenchmark`` as the file holds them, and a bad item is a
    ``ValueError`` naming ``path`` and the item's position."""
    payload = load_json(path)
    if not isinstance(payload, list):
        raise ValueError(f"{path}: benchmark file must be a JSON array of items")
    columns = {name: [] for name in _ITEM_FIELDS}
    for pos, entry in enumerate(payload):
        try:
            if not isinstance(entry, dict):
                raise ValueError("item must be an object")
            entry = {"a": 1.0, **entry}
            if entry["response_kind"] not in RESPONSE_KINDS:
                raise ValueError(f"response_kind must be one of {', '.join(RESPONSE_KINDS)}, "
                                 f"got {entry['response_kind']!r}")
            entry["response_kind"] = RESPONSE_KINDS.index(entry["response_kind"])
            for name in _ITEM_FIELDS:
                columns[name].append(entry[name])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: item {pos}: {exc}") from exc
    try:
        return SimulatedBenchmark(*columns.values(), noise_seed=noise_seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def is_id_list(value) -> bool:
    """A list of unique non-empty strings (an empty list is one)."""
    # Strings are checked first: ``set`` of a list that holds a list raises.
    strings = isinstance(value, list) and all(isinstance(i, str) and i for i in value)
    return strings and len(set(value)) == len(value)


def is_json_number(value) -> bool:
    """An exact ``int`` or ``float`` (``true`` and "Infinity" are no numbers)
    with a finite float64 value: NaN, ±Infinity and integers beyond the float64
    range, where ``float`` would overflow, are not."""
    if type(value) is int:
        return abs(value) <= _FLOAT_MAX
    return type(value) is float and math.isfinite(value)


# ---------------------------------------------------------------------------
# Record files from external harnesses
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("candidate_id", "item_id", "correct", "length")
# The per-line decoder. A stripped line has no leading or trailing JSON
# whitespace, so ``raw_decode`` ending at the line's end accepts exactly the
# lines ``json.loads`` accepts, without its two whitespace scans.
_decode = json.JSONDecoder().raw_decode


def load_record_evaluations(path) -> RecordTable:
    """Parse a JSONL record file into a ``RecordTable``.

    One UTF-8 object per line (lines split at newline bytes only):
    ``{"candidate_id", "item_id", "correct", "length"}``. Candidates appear in
    order of their first record and each one's rows follow record order.
    The per-line checks here are the only validation of record values: invalid
    UTF-8, malformed lines, correctness other than 0/1, booleans, negative or
    non-finite lengths and duplicate (candidate, item) pairs are rejected with
    the line number. A line is accepted exactly when ``json.loads`` accepts
    it, and a line it refuses is reported with its message.

    The resume index ``<path>.index`` (see ``RecordTable``) serves a file
    that only grows. When it covers a byte-identical prefix of the file (same
    sha256), only the lines after that prefix are parsed, with line numbers
    and the duplicate check continuing across it. An index that is missing,
    unreadable, corrupt, of another format version or made for other bytes is
    ignored: the whole file is parsed. After a successful parse that read new
    bytes of a file that ends in a newline, the index is rewritten atomically;
    a write that fails is skipped. The result never depends on the index.
    """
    index = f"{path}.index"
    with open(path, "rb") as fh:
        resumed = _resume(index, fh)
        if resumed is None:
            fh.seek(0)
            resumed = RecordTable.empty(), hashlib.sha256()
        prefix, hasher = resumed
        cands = {cand: code for code, cand in enumerate(prefix.cand_ids)}
        items = {iid: code for code, iid in enumerate(prefix.item_ids)}
        # One integer per (candidate, item) pair: the codes are int32. A record
        # of a candidate new to the tail cannot repeat a prefix record, so the
        # prefix pairs join ``seen`` only once a tail record has a prefix candidate.
        seen = set()
        prefix_cands = len(prefix.cand_ids)
        cand_col, item_col, correct_col, length_col = [], [], [], []
        lineno, raw = prefix.nlines, b""
        for lineno, raw in enumerate(fh, start=prefix.nlines + 1):
            hasher.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise RecordFormatError(f"{path}: line {lineno}: not valid UTF-8: {exc}") from None
            if not line:
                continue
            try:
                obj, end = _decode(line)
            except ValueError:
                end = -1
            if end != len(line):  # json.loads gives json's message: BOM, extra data, digit limit
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    raise RecordFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if type(obj) is not dict:
                raise RecordFormatError(f"{path}: line {lineno}: record must be an object")
            try:
                cand, iid, correct, length = (
                    obj["candidate_id"], obj["item_id"], obj["correct"], obj["length"]
                )
            except KeyError:
                missing = [f for f in _RECORD_FIELDS if f not in obj]
                raise RecordFormatError(
                    f"{path}: line {lineno}: missing field(s) {', '.join(missing)}"
                ) from None
            if type(cand) is not str or not cand or type(iid) is not str or not iid:
                raise RecordFormatError(
                    f"{path}: line {lineno}: candidate_id and item_id must be non-empty strings"
                )
            if type(correct) not in (int, float) or correct not in (0, 1):
                raise RecordFormatError(
                    f"{path}: line {lineno}: correctness must be 0 or 1, got {correct!r}"
                )
            if type(length) not in (int, float) or not 0 <= length <= _FLOAT_MAX:
                raise RecordFormatError(
                    f"{path}: line {lineno}: length must be a finite number >= 0, got {length!r}"
                )
            c = cands.setdefault(cand, len(cands))
            if c < prefix_cands:
                seen.update((prefix.cand.astype(np.int64) << 32 | prefix.item).tolist())
                prefix_cands = 0
            i = items.setdefault(iid, len(items))
            key = c << 32 | i
            if key in seen:
                raise RecordFormatError(
                    f"{path}: line {lineno}: duplicate record for candidate "
                    f"{cand!r}, item {iid!r}"
                )
            seen.add(key)
            cand_col.append(c)
            item_col.append(i)
            correct_col.append(correct)
            length_col.append(length)
        nbytes = fh.tell()
    table = RecordTable(
        nbytes=nbytes,
        nlines=lineno,
        cand_ids=list(cands),
        item_ids=list(items),
        cand=np.concatenate([prefix.cand, np.array(cand_col, dtype=np.int32)]),
        item=np.concatenate([prefix.item, np.array(item_col, dtype=np.int32)]),
        correct=np.concatenate([prefix.correct, np.array(correct_col, dtype=np.int8)]),
        length=np.concatenate([prefix.length, np.array(length_col, dtype=np.float64)]),
    )
    if raw[-1:] == b"\n":
        with contextlib.suppress(OSError):  # read-only dir or lost race: next load parses all
            write_atomic(index, table.to_index(hasher.digest()))
    return table


# Resume index layout (the record path with ``.index`` appended), little-endian:
# ``_INDEX_HEAD`` (magic, prefix bytes, prefix lines, record count,
# candidate-table and item-table byte lengths, sha256 digest of the prefix),
# the two id tables as JSON arrays, the record columns (int32 candidate codes,
# int32 item codes, int8 correct, float64 length) and a blake2b checksum of
# everything before it. The magic names the format version: ``PMRIDX1`` held a
# blake2b prefix digest, and an index of another version is not read.
_INDEX_MAGIC = b"PMRIDX2\n"
_DIGEST_SIZE = 32  # sha256
_CHECKSUM_SIZE = 16
_INDEX_HEAD = struct.Struct(f"<8s5Q{_DIGEST_SIZE}s")
# Stored and in-memory dtype of the candidate, item, correct and length columns.
_INDEX_COLUMNS = (("<i4", np.int32), ("<i4", np.int32), ("i1", np.int8), ("<f8", np.float64))
_RECORD_BYTES = sum(np.dtype(stored).itemsize for stored, _ in _INDEX_COLUMNS)


@dataclass(frozen=True, eq=False)
class RecordTable(Mapping):
    """The records of a file's first ``nbytes`` bytes (``nlines`` lines), in
    file order: codes into the candidate and item id tables (each in order of
    first appearance), 0/1 correctness (int8) and length (float64). These, with
    the digest of those bytes, are the content of a resume index. As a mapping,
    ``table[cid]`` is the indices of ``cid``'s rows in record order, grouped on first use.
    """

    nbytes: int
    nlines: int
    cand_ids: list[str]
    item_ids: list[str]
    cand: np.ndarray
    item: np.ndarray
    correct: np.ndarray
    length: np.ndarray
    __eq__ = object.__eq__  # by identity: ``Mapping.__eq__`` would compare row arrays

    @classmethod
    def empty(cls) -> RecordTable:
        no_codes = np.zeros(0, dtype=np.int32)
        return cls(0, 0, [], [], no_codes, no_codes,
                   np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.float64))

    @cached_property
    def _rows(self) -> dict[str, np.ndarray]:
        ends = np.cumsum(np.bincount(self.cand, minlength=len(self.cand_ids)))[:-1]
        return dict(zip(self.cand_ids, np.split(np.argsort(self.cand, kind="stable"), ends)))

    @cached_property
    def _item_codes(self) -> dict[str, int]:
        return {iid: code for code, iid in enumerate(self.item_ids)}

    def __getitem__(self, cid: str) -> np.ndarray:
        return self._rows[cid]

    def __iter__(self):
        return iter(self.cand_ids)

    def __len__(self) -> int:
        return len(self.cand_ids)

    def codes_of(self, item_ids: Sequence[str]) -> np.ndarray:
        """The item code of each of ``item_ids``, -1 for an id the table lacks."""
        return np.array([self._item_codes.get(iid, -1) for iid in item_ids], dtype=np.intp)

    def select(self, rows: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The rows among one candidate's ``rows`` that hold the items of
        ``codes`` (from :meth:`codes_of`), in that order; ``KeyError(positions
        in codes)`` if any lacks one."""
        # The row of each item code, -1 for none; code -1 reads the last slot.
        at = np.full(len(self.item_ids) + 1, -1, dtype=np.intp)
        at[self.item[rows]] = rows
        picked = at[codes]
        if (picked < 0).any():
            raise KeyError(np.flatnonzero(picked < 0).tolist())
        return picked

    def to_index(self, digest: bytes) -> bytes:
        cand_table = json.dumps(self.cand_ids).encode("ascii")
        item_table = json.dumps(self.item_ids).encode("ascii")
        body = b"".join([
            _INDEX_HEAD.pack(_INDEX_MAGIC, self.nbytes, self.nlines, len(self.cand),
                             len(cand_table), len(item_table), digest),
            cand_table,
            item_table,
            *(col.astype(stored).tobytes() for col, (stored, _) in zip(
                (self.cand, self.item, self.correct, self.length), _INDEX_COLUMNS)),
        ])
        return body + hashlib.blake2b(body, digest_size=_CHECKSUM_SIZE).digest()

    @classmethod
    def from_index(cls, blob: bytes) -> tuple[RecordTable, bytes]:
        """The columns and prefix digest of an index; ``ValueError`` if it is malformed."""
        body, checksum = blob[:-_CHECKSUM_SIZE], blob[-_CHECKSUM_SIZE:]
        if (
            len(blob) < _INDEX_HEAD.size + _CHECKSUM_SIZE
            or hashlib.blake2b(body, digest_size=_CHECKSUM_SIZE).digest() != checksum
        ):
            raise ValueError("index checksum mismatch")
        magic, nbytes, nlines, n, cand_len, item_len, digest = _INDEX_HEAD.unpack_from(body)
        pos = _INDEX_HEAD.size
        if magic != _INDEX_MAGIC or len(body) != pos + cand_len + item_len + n * _RECORD_BYTES:
            raise ValueError("not a record index")
        tables = []
        for size in (cand_len, item_len):
            ids = json.loads(body[pos:pos + size])
            pos += size
            if not is_id_list(ids):
                raise ValueError("bad id table")
            tables.append(ids)
        columns = []
        for stored, native in _INDEX_COLUMNS:
            col = np.frombuffer(body, dtype=stored, count=n, offset=pos)
            pos += col.nbytes
            columns.append(col.astype(native))
        # The checksum catches damage; these keep a forged index from raising later.
        cand, item, correct, length = columns
        for codes, table in ((cand, tables[0]), (item, tables[1])):
            if n and not 0 <= codes.min() <= codes.max() < len(table):
                raise ValueError("code out of range")
        if not (np.isin(correct, (0, 1)).all() and np.isfinite(length).all()
                and (length >= 0).all()):
            raise ValueError("bad record column")
        return cls(nbytes, nlines, *tables, *columns), digest


def _resume(index, fh):
    """The indexed columns and the running digest of the prefix they cover,
    with ``fh`` positioned after it; None when the index cannot be read or
    does not match the file's first bytes."""
    try:
        prefix, digest = RecordTable.from_index(Path(index).read_bytes())
    except (OSError, ValueError):
        return None
    hasher = hashlib.sha256()
    remaining = prefix.nbytes
    while remaining:
        chunk = fh.read(min(remaining, 1 << 20))
        if not chunk:
            return None  # the file is shorter than the prefix
        hasher.update(chunk)
        remaining -= len(chunk)
    return (prefix, hasher) if hasher.digest() == digest else None


def candidate_id(genotype: Genotype) -> str:
    """Deterministic id derived from the genotype, stable across processes."""
    return id_of(genotype.kind.value, [repr(v) for v in genotype.values])


def id_of(kind: str, reprs: Sequence[str]) -> str:
    """``candidate_id`` of a genotype of kind value ``kind`` from the ``repr``
    of each of its float values, for a caller that already holds them."""
    digest = hashlib.blake2b(f"{kind}:{','.join(reprs)}".encode("utf-8"), digest_size=6).hexdigest()
    return f"{kind}-{digest}"


def write_manifest(path, pending: Sequence[tuple[str, Genotype]]) -> None:
    """Emit the candidate manifest consumed by an external evaluation harness,
    one line per ``(candidate_id, genotype)`` pair of ``MissingCandidatesError.pending``."""
    lines = (json.dumps({"candidate_id": cid, "genotype": g.to_dict()}) + "\n" for cid, g in pending)
    write_atomic(path, "".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Fitness backends
# ---------------------------------------------------------------------------


class FitnessEvaluator:
    """Maps genotypes to objective vectors.

    Batch contract: ``evaluate_population(genotypes)`` returns one objective
    vector per genotype, in input order. The search passes one batch per
    generation, holding only that generation's candidates not yet scored in
    the run, each once, in order of first occurrence; a batch may be empty.
    It returns ``evaluate_batch(genotypes)``, whose default scores each
    genotype with ``evaluate``, one after another; an evaluator that scores a
    batch at once overrides ``evaluate_batch``, and one that must see the
    whole batch before it fails overrides ``evaluate_population``.
    """

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        raise NotImplementedError

    def evaluate_population(self, genotypes: Sequence[Genotype]) -> list[ObjectiveVector]:
        # Until evaluators score arrays, perfbench/tracing.py spans this base
        # method, so a simulated batch is scored under it, by ``evaluate_batch``.
        return self.evaluate_batch(genotypes)

    def evaluate_batch(self, genotypes: Sequence[Genotype]) -> list[ObjectiveVector]:
        return [self.evaluate(g) for g in genotypes]


class SimulatedFitness(FitnessEvaluator):
    """Scores interpolation genotypes on a simulated benchmark subset.

    Only the TA kind is accepted: the simulator models responses as a
    function of the single interpolation coefficient. A batch is scored with
    one ``correctness_vector`` call over its coefficients, and one genotype,
    or one coefficient, is the batch of one.
    """

    def __init__(self, bench: SimulatedBenchmark, subset_ids: Sequence[str] | None = None):
        self.bench = bench
        if subset_ids is None:
            self.subset_indices = np.arange(len(bench))
        else:
            self.subset_indices = np.array([bench.index_of(i) for i in subset_ids])
            if len(self.subset_indices) == 0:
                raise ValueError("subset must contain at least one item")
        self._len_long = bench.len_long[self.subset_indices]
        self._len_short = bench.len_short[self.subset_indices]

    def coefficient_of(self, genotype: Genotype) -> float:
        if genotype.kind != MergeKind.TA:
            raise GenotypeError(
                f"simulated evaluation models the interpolation coefficient only; "
                f"got genotype kind {genotype.kind.value!r}"
            )
        genotype.validate()
        return genotype.values[0]

    def _objectives(self, lams: list[float]) -> list[tuple[float, float]]:
        """Accuracy and mean length on the subset at each of ``lams``, with the
        bits of ``.mean()`` at less cost: a count of 0/1 values is exact, and
        ``np.mean`` is ``np.add.reduce`` followed by this division. A row sum of
        the C-ordered (M, subset) lengths is the pairwise sum of that row alone,
        so a batch is scored one block of rows at a time with the same bits."""
        x = np.array(lams, dtype=np.float64)
        counts, totals = np.empty(len(x), dtype=np.int64), np.empty(len(x))
        for rows in _row_blocks(len(x), len(self.bench)):
            correct = self.bench.correctness_vector(x[rows])[:, self.subset_indices]
            counts[rows] = np.count_nonzero(correct, axis=1)
            lengths = _lengths_at(self._len_long, self._len_short, x[rows, None])
            with np.errstate(over="ignore"):  # a sum past the float64 range is inf, refused later
                totals[rows] = lengths.sum(axis=1)
        n = len(self.subset_indices)
        return list(zip((counts / n).tolist(), (totals / n).tolist()))

    def evaluate_at(self, lam: float) -> ObjectiveVector:
        return ObjectiveVector(*self._objectives([lam])[0])

    def evaluate_batch(self, genotypes: Sequence[Genotype]) -> list[ObjectiveVector]:
        if not genotypes:
            return []
        results, lams = [], [self.coefficient_of(g) for g in genotypes]
        for g, pair in zip(genotypes, self._objectives(lams)):
            try:
                results.append(ObjectiveVector(*pair))
            except ValueError as exc:  # a mean length past the float64 range
                raise ValueError(f"candidate {candidate_id(g)!r}: {exc}") from None
        return results

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        return self.evaluate_batch([genotype])[0]


class RecordsFitness(FitnessEvaluator):
    """Resolves genotypes against the ``RecordTable`` of a record file.

    A candidate is scored on the subset items in subset order, or on all of
    its records in record order when no subset is given.

    Unknown candidates raise :class:`MissingCandidatesError`. The batch
    method collects every missing candidate of the batch into one error, so
    one manifest round-trip per generation is enough.
    """

    def __init__(self, records: RecordTable, subset_ids: Sequence[str] | None = None):
        self.records = records
        self.subset_ids = list(subset_ids) if subset_ids is not None else None
        self.subset_codes = None if subset_ids is None else records.codes_of(self.subset_ids)

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        cid = candidate_id(genotype)
        rows = self.records.get(cid)
        if rows is None:
            raise MissingCandidatesError([(cid, genotype)])
        if self.subset_codes is not None:
            try:
                rows = self.records.select(rows, self.subset_codes)
            except KeyError as exc:
                missing = [self.subset_ids[k] for k in exc.args[0]]
                raise RecordFormatError(
                    f"candidate {cid!r} has no record for item(s): {', '.join(missing[:5])}"
                    + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)")
                ) from None
        try:
            return objectives(self.records.correct[rows], self.records.length[rows])
        except ValueError as exc:  # a mean length past the float64 range
            raise ValueError(f"candidate {cid!r}: {exc}") from None

    def evaluate_population(self, genotypes: Sequence[Genotype]) -> list[ObjectiveVector]:
        results = []
        pending: dict[str, Genotype] = {}  # first occurrence order, one entry per id
        for g in genotypes:
            try:
                results.append(self.evaluate(g))
            except MissingCandidatesError as exc:
                pending.update(exc.pending)
        if pending:
            raise MissingCandidatesError(pending.items())
        return results
