"""Candidate evaluation: simulated item-response benchmark and record files.

Two fitness backends share one contract (genotype in, accuracy/length out):

* ``SimulatedFitness`` scores candidates on a synthetic benchmark whose items
  respond to the interpolation coefficient through threshold or logistic
  rules, so the whole pipeline runs at desk scale with no model inference.
* ``RecordsFitness`` replays per-item outcomes produced by an external
  harness from a JSONL record file, keyed by deterministic candidate ids.

Per-item results are held per candidate as columns (``Outcomes``: item ids,
0/1 correctness, output lengths) and reduced by ``Outcomes.objectives``.

The search scores each generation with one
``FitnessEvaluator.evaluate_population(genotypes, workers)`` call, which
returns one objective vector per genotype in input order; see
``FitnessEvaluator`` for the batch contract.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import GenotypeError, MissingCandidatesError, RecordFormatError
from .merge import Genotype, MergeKind


# ``bool`` subclasses ``int`` but is never a valid count or measurement.
_BOOL_TYPES = (bool, np.bool_)
# A JSON integer beyond this compares below ``math.inf`` yet has no float64 value.
_FLOAT_MAX = sys.float_info.max


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


@dataclass(frozen=True, eq=False)
class Outcomes:
    """One candidate's per-item results as columns: entry i of ``correct`` (0/1,
    ``int8``) and ``lengths`` (output tokens, ``float64``) belongs to ``item_ids[i]``.

    Values are not checked here; the record loader and the benchmark produce them.
    """

    item_ids: tuple[str, ...]
    correct: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        object.__setattr__(self, "correct", np.asarray(self.correct, dtype=np.int8))
        object.__setattr__(self, "lengths", np.asarray(self.lengths, dtype=np.float64))
        if not len(self.item_ids) == len(self.correct) == len(self.lengths):
            raise ValueError("item_ids, correct and lengths must have the same length")

    def __len__(self) -> int:
        return len(self.item_ids)

    def objectives(self) -> ObjectiveVector:
        """Mean correctness and mean length over a non-empty column set."""
        n = len(self)
        if n == 0:
            raise ValueError("cannot compute objectives from no outcomes")
        # A left-to-right sum in item order: ``np.mean`` sums pairwise, which
        # changes the last bit of the mean and with it the output files.
        return ObjectiveVector(
            accuracy=np.count_nonzero(self.correct) / n,
            mean_length=sum(self.lengths.tolist()) / n,
        )

    def select(self, item_ids: Sequence[str]) -> "Outcomes":
        """The outcomes of ``item_ids`` in that order; ``KeyError(missing ids)`` if any lack one."""
        index = {iid: i for i, iid in enumerate(self.item_ids)}
        missing = [iid for iid in item_ids if iid not in index]
        if missing:
            raise KeyError(missing)
        rows = np.array([index[iid] for iid in item_ids], dtype=np.intp)
        return Outcomes(tuple(item_ids), self.correct[rows], self.lengths[rows])


# ---------------------------------------------------------------------------
# Simulated item-response benchmark
# ---------------------------------------------------------------------------


class ResponseKind(str, Enum):
    THRESHOLD_UP = "THRESHOLD_UP"      # solved iff lam >= t
    THRESHOLD_DOWN = "THRESHOLD_DOWN"  # solved iff lam <= t
    LOGISTIC = "LOGISTIC"              # solved ~ Bernoulli(sigmoid(a * (lam - t)))


@dataclass(frozen=True)
class SimItem:
    """One simulated item: response rule plus endpoint output lengths."""

    item_id: str
    response_kind: ResponseKind
    t: float
    a: float = 1.0
    len_long: float = 0.0
    len_short: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "response_kind", ResponseKind(self.response_kind))
        if not isinstance(self.item_id, str) or not self.item_id:
            raise ValueError("item_id must be a non-empty string")
        for name in ("t", "a", "len_long", "len_short"):
            value = getattr(self, name)
            if type(value) in _BOOL_TYPES or not math.isfinite(value):
                raise ValueError(f"{self.item_id}: {name} must be a finite number, got {value!r}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"{self.item_id}: t must lie in [0, 1], got {self.t}")
        if self.a <= 0:
            raise ValueError(f"{self.item_id}: slope a must be > 0, got {self.a}")
        if not self.len_long >= self.len_short >= 0:
            raise ValueError(
                f"{self.item_id}: need len_long >= len_short >= 0, "
                f"got {self.len_long} / {self.len_short}"
            )


_KIND_CODE = {ResponseKind.THRESHOLD_UP: 0, ResponseKind.THRESHOLD_DOWN: 1, ResponseKind.LOGISTIC: 2}


class SimulatedBenchmark:
    """Immutable item collection with vectorized per-lambda evaluation."""

    def __init__(self, items: Sequence[SimItem], noise_seed: int = 0):
        if not items:
            raise ValueError("benchmark needs at least one item")
        ids = [it.item_id for it in items]
        if len(set(ids)) != len(ids):
            raise ValueError("item ids must be unique")
        self.items = tuple(items)
        self.noise_seed = int(noise_seed)
        self.item_ids = ids
        self._index = {iid: i for i, iid in enumerate(ids)}
        self._kinds = np.array([_KIND_CODE[it.response_kind] for it in items], dtype=np.int8)
        self._t = np.array([it.t for it in items], dtype=np.float64)
        self._a = np.array([it.a for it in items], dtype=np.float64)
        self._len_long = np.array([it.len_long for it in items], dtype=np.float64)
        self._len_short = np.array([it.len_short for it in items], dtype=np.float64)
        self._logistic_idx = np.flatnonzero(self._kinds == 2)

    def __len__(self) -> int:
        return len(self.items)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise ValueError(f"unknown item id {item_id!r}") from None

    def correctness_vector(self, lam: float) -> np.ndarray:
        """Binary outcome per item at interpolation coefficient ``lam``."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
        out = np.zeros(len(self.items), dtype=np.int8)
        up = self._kinds == 0
        down = self._kinds == 1
        out[up] = lam >= self._t[up]
        out[down] = lam <= self._t[down]
        for i in self._logistic_idx:
            p = logistic_response(self._a[i], self._t[i], lam)
            out[i] = _keyed_uniform(self.items[i].item_id, lam, self.noise_seed) < p
        return out

    def length_vector(self, lam: float) -> np.ndarray:
        """Deterministic per-item output length, linear between the endpoints."""
        return self._len_long + (self._len_short - self._len_long) * lam

    def outcomes(self, lam: float) -> Outcomes:
        """Every item's outcome at ``lam``, in benchmark order."""
        return Outcomes(self.item_ids, self.correctness_vector(lam), self.length_vector(lam))


def logistic_response(a: float, b: float, lam: float) -> float:
    """Standard logistic curve sigmoid(a * (lam - b)); a must be positive."""
    if a <= 0:
        raise ValueError(f"slope a must be > 0, got {a}")
    z = a * (lam - b)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _keyed_uniform(item_id: str, lam: float, seed: int) -> float:
    # Deterministic draw keyed by (item, lambda bucket, seed): the same
    # candidate always receives the same stochastic outcome within one run.
    key = f"{item_id}:{round(lam * 1_000_000)}:{seed}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


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
    n_easy = int(round(EASY_FRAC * n_items))
    n_hard = int(round(HARD_FRAC * n_items))
    n_up = int(round(UP_FRAC * n_items))
    n_down = int(round(DOWN_FRAC * n_items))
    n_log = n_items - n_easy - n_hard - n_up - n_down
    roles = ["easy"] * n_easy + ["hard"] * n_hard + ["up"] * n_up + ["down"] * n_down + ["log"] * n_log
    roles = [roles[i] for i in rng.permutation(n_items)]

    width = len(str(max(n_items - 1, 1)))
    items = []
    for i, role in enumerate(roles):
        if role == "easy":
            kind, t, a = ResponseKind.THRESHOLD_UP, 0.0, 1.0
        elif role == "hard":
            kind, t, a = ResponseKind.THRESHOLD_DOWN, 0.0, 1.0
        elif role == "up":
            kind, t, a = ResponseKind.THRESHOLD_UP, float(rng.uniform(*UP_BAND)), 1.0
        elif role == "down":
            kind, t, a = ResponseKind.THRESHOLD_DOWN, float(rng.uniform(*DOWN_BAND)), 1.0
        else:
            kind = ResponseKind.LOGISTIC
            t = float(rng.uniform(*LOGISTIC_B_BAND))
            a = float(rng.uniform(*LOGISTIC_A_RANGE))
        len_long = float(rng.uniform(*LEN_LONG_RANGE))
        len_short = float(rng.uniform(*LEN_SHORT_RANGE))
        items.append(
            SimItem(
                item_id=f"item-{i:0{width}d}",
                response_kind=kind,
                t=t,
                a=a,
                len_long=len_long,
                len_short=len_short,
            )
        )
    return SimulatedBenchmark(items, noise_seed=seed if noise_seed is None else noise_seed)


def save_benchmark(bench: SimulatedBenchmark, path) -> None:
    """Serialize as a JSON array of item objects."""
    payload = [
        {
            "item_id": it.item_id,
            "response_kind": it.response_kind.value,
            "t": it.t,
            "a": it.a,
            "len_long": it.len_long,
            "len_short": it.len_short,
        }
        for it in bench.items
    ]
    write_atomic(path, json.dumps(payload).encode("utf-8"))


def load_json(path):
    """Parse a whole JSON file; a file that is not JSON is a ``ValueError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_benchmark(path, noise_seed: int = 0) -> SimulatedBenchmark:
    payload = load_json(path)
    if not isinstance(payload, list):
        raise ValueError(f"{path}: benchmark file must be a JSON array of items")
    items = []
    for pos, entry in enumerate(payload):
        try:
            if not isinstance(entry, dict):
                raise ValueError("item must be an object")
            items.append(
                SimItem(
                    item_id=entry["item_id"],
                    response_kind=ResponseKind(entry["response_kind"]),
                    t=_json_number(entry["t"], "t"),
                    a=_json_number(entry.get("a", 1.0), "a"),
                    len_long=_json_number(entry["len_long"], "len_long"),
                    len_short=_json_number(entry["len_short"], "len_short"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: item {pos}: {exc}") from exc
    return SimulatedBenchmark(items, noise_seed=noise_seed)


def _json_number(value, name: str) -> float:
    # Exact JSON types: ``true`` and numeric strings such as "Infinity" are
    # not numbers here; SimItem then rejects the non-finite floats. An integer
    # beyond the float64 range is rejected here, where ``float`` would overflow.
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    if type(value) is int and abs(value) > _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Record files from external harnesses
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("candidate_id", "item_id", "correct", "length")


def load_record_evaluations(path, index=None) -> dict[str, Outcomes]:
    """Parse a JSONL record file into one ``Outcomes`` per candidate id.

    One object per line: ``{"candidate_id", "item_id", "correct", "length"}``.
    Candidates appear in order of their first record and each one's columns
    follow record order. The per-line checks here are the only validation of
    record values: malformed lines, correctness other than 0/1, booleans,
    negative or non-finite lengths and duplicate (candidate, item) pairs are
    rejected with the offending line number.

    ``index`` names a resume index (see ``_RecordColumns``) for a file that
    only grows. When it covers a byte-identical prefix of the file, only the
    lines after that prefix are parsed, with line numbers and the duplicate
    check continuing across it. An index that is missing, unreadable, corrupt
    or made for other bytes is ignored: the whole file is parsed. After a
    successful parse that read new bytes, the index is rewritten atomically to
    cover the file, provided the file ends in a newline. The result never
    depends on the index.
    """
    with open(path, "rb", buffering=0) as fh:
        resumed = _resume(index, fh) if index is not None else None
        if resumed is None:
            fh.seek(0)
            resumed = _RecordColumns.empty(), hashlib.blake2b(digest_size=_DIGEST_SIZE)
        prefix, hasher = resumed
        tail = _DigestingReader(fh, hasher)
        cands = {cand: code for code, cand in enumerate(prefix.cand_ids)}
        items = {iid: code for code, iid in enumerate(prefix.item_ids)}
        # One integer per (candidate, item) pair: the codes are int32.
        seen = set((prefix.cand.astype(np.int64) << 32 | prefix.item).tolist())
        cand_col, item_col, correct_col, length_col = [], [], [], []
        lineno = prefix.nlines
        lines = io.TextIOWrapper(io.BufferedReader(tail), encoding="utf-8")
        for lineno, line in enumerate(lines, start=prefix.nlines + 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also an integer literal over the digit limit
                raise RecordFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise RecordFormatError(f"{path}: line {lineno}: record must be an object")
            missing = [f for f in _RECORD_FIELDS if f not in obj]
            if missing:
                raise RecordFormatError(
                    f"{path}: line {lineno}: missing field(s) {', '.join(missing)}"
                )
            cand = obj["candidate_id"]
            iid = obj["item_id"]
            if not isinstance(cand, str) or not cand or not isinstance(iid, str) or not iid:
                raise RecordFormatError(
                    f"{path}: line {lineno}: candidate_id and item_id must be non-empty strings"
                )
            correct, length = obj["correct"], obj["length"]
            if type(correct) not in (int, float) or correct not in (0, 1):
                raise RecordFormatError(
                    f"{path}: line {lineno}: correctness must be 0 or 1, got {correct!r}"
                )
            if type(length) not in (int, float) or not 0 <= length <= _FLOAT_MAX:
                raise RecordFormatError(
                    f"{path}: line {lineno}: length must be a finite number >= 0, got {length!r}"
                )
            c = cands.setdefault(cand, len(cands))
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
    columns = _RecordColumns(
        nbytes=prefix.nbytes + tail.nbytes,
        nlines=lineno,
        cand_ids=list(cands),
        item_ids=list(items),
        cand=np.concatenate([prefix.cand, np.array(cand_col, dtype=np.int32)]),
        item=np.concatenate([prefix.item, np.array(item_col, dtype=np.int32)]),
        correct=np.concatenate([prefix.correct, np.array(correct_col, dtype=np.int8)]),
        length=np.concatenate([prefix.length, np.array(length_col, dtype=np.float64)]),
    )
    if index is not None and tail.last == b"\n":
        write_atomic(index, columns.to_index(hasher.digest()))
    return columns.outcomes()


# records.index layout, little-endian: ``_INDEX_HEAD`` (magic, prefix bytes,
# prefix lines, record count, candidate-table and item-table byte lengths,
# blake2b digest of the prefix), the two id tables as JSON arrays, the record
# columns (int32 candidate codes, int32 item codes, int8 correct, float64
# length) and a blake2b checksum of everything before it.
_INDEX_MAGIC = b"PMRIDX1\n"
_DIGEST_SIZE = 32
_CHECKSUM_SIZE = 16
_INDEX_HEAD = struct.Struct(f"<8s5Q{_DIGEST_SIZE}s")
# Stored and in-memory dtype of the candidate, item, correct and length columns.
_INDEX_COLUMNS = (("<i4", np.int32), ("<i4", np.int32), ("i1", np.int8), ("<f8", np.float64))
_RECORD_BYTES = sum(np.dtype(stored).itemsize for stored, _ in _INDEX_COLUMNS)


@dataclass(frozen=True, eq=False)
class _RecordColumns:
    """The records of a file's first ``nbytes`` bytes (``nlines`` lines), in
    file order: codes into the candidate and item id tables (each in order of
    first appearance), 0/1 correctness and length. These, with the digest of
    those bytes, are the content of a resume index."""

    nbytes: int
    nlines: int
    cand_ids: list[str]
    item_ids: list[str]
    cand: np.ndarray
    item: np.ndarray
    correct: np.ndarray
    length: np.ndarray

    @classmethod
    def empty(cls) -> "_RecordColumns":
        no_codes = np.zeros(0, dtype=np.int32)
        return cls(0, 0, [], [], no_codes, no_codes,
                   np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.float64))

    def outcomes(self) -> dict[str, Outcomes]:
        order = np.argsort(self.cand, kind="stable")
        ends = np.cumsum(np.bincount(self.cand, minlength=len(self.cand_ids))).tolist()
        item_ids = np.array(self.item_ids, dtype=object)
        out, start = {}, 0
        for cand, end in zip(self.cand_ids, ends):
            rows = order[start:end]
            out[cand] = Outcomes(
                tuple(item_ids[self.item[rows]]), self.correct[rows], self.length[rows]
            )
            start = end
        return out

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
    def from_index(cls, blob: bytes) -> tuple["_RecordColumns", bytes]:
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
            if not (isinstance(ids, list) and all(isinstance(i, str) and i for i in ids)
                    and len(set(ids)) == len(ids)):
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
        prefix, digest = _RecordColumns.from_index(Path(index).read_bytes())
    except (OSError, ValueError):
        return None
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    remaining = prefix.nbytes
    while remaining:
        chunk = fh.read(min(remaining, 1 << 20))
        if not chunk:
            return None  # the file is shorter than the prefix
        hasher.update(chunk)
        remaining -= len(chunk)
    return (prefix, hasher) if hasher.digest() == digest else None


class _DigestingReader(io.RawIOBase):
    """Reads ``fh`` to its end, feeding every byte to ``hasher``; keeps the
    count and the last byte read."""

    def __init__(self, fh, hasher):
        self._fh, self._hasher = fh, hasher
        self.nbytes, self.last = 0, b""

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        if n:
            data = memoryview(buffer)[:n]
            self._hasher.update(data)
            self.nbytes += n
            self.last = bytes(data[-1:])
        return n


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a sibling ``.tmp`` file."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def candidate_id(genotype: Genotype) -> str:
    """Deterministic id derived from the genotype, stable across processes."""
    canon = genotype.kind.value + ":" + ",".join(repr(v) for v in genotype.values)
    digest = hashlib.blake2b(canon.encode("utf-8"), digest_size=6).hexdigest()
    return f"{genotype.kind.value}-{digest}"


def write_manifest(path, genotypes: Sequence[Genotype]) -> None:
    """Emit the candidate manifest consumed by an external evaluation harness."""
    lines = (
        json.dumps({"candidate_id": candidate_id(g), "genotype": g.to_dict()}) + "\n"
        for g in genotypes
    )
    write_atomic(path, "".join(lines).encode("utf-8"))


def load_manifest(path) -> list[tuple[str, Genotype]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                out.append((obj["candidate_id"], Genotype.from_dict(obj["genotype"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Fitness backends
# ---------------------------------------------------------------------------


class FitnessEvaluator:
    """Maps genotypes to objective vectors.

    Batch contract: ``evaluate_population(genotypes, workers)`` returns one
    objective vector per genotype, in input order, and the result never
    depends on ``workers``. The default scores each genotype with
    ``evaluate``, on a pool of ``workers`` threads when ``workers > 1``.
    Evaluators that must see the whole batch at once override it.
    """

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        raise NotImplementedError

    def evaluate_population(
        self, genotypes: Sequence[Genotype], workers: int = 1
    ) -> list[ObjectiveVector]:
        if workers <= 1 or len(genotypes) <= 1:
            return [self.evaluate(g) for g in genotypes]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.evaluate, genotypes))


class CallableFitness(FitnessEvaluator):
    """Adapter wrapping a plain ``genotype -> ObjectiveVector`` callable."""

    def __init__(self, fn: Callable[[Genotype], ObjectiveVector]):
        self._fn = fn

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        return self._fn(genotype)


class SimulatedFitness(FitnessEvaluator):
    """Scores interpolation genotypes on a simulated benchmark subset.

    Only the TA kind is accepted: the simulator models responses as a
    function of the single interpolation coefficient.
    """

    def __init__(self, bench: SimulatedBenchmark, subset_ids: Sequence[str] | None = None):
        self.bench = bench
        if subset_ids is None:
            self.subset_indices = np.arange(len(bench))
        else:
            self.subset_indices = np.array([bench.index_of(i) for i in subset_ids])
            if len(self.subset_indices) == 0:
                raise ValueError("subset must contain at least one item")

    def coefficient_of(self, genotype: Genotype) -> float:
        if genotype.kind != MergeKind.TA:
            raise GenotypeError(
                f"simulated evaluation models the interpolation coefficient only; "
                f"got genotype kind {genotype.kind.value!r}"
            )
        genotype.validate()
        return genotype.values[0]

    def evaluate_at(self, lam: float) -> ObjectiveVector:
        correct = self.bench.correctness_vector(lam)[self.subset_indices]
        lengths = self.bench.length_vector(lam)[self.subset_indices]
        return ObjectiveVector(accuracy=float(correct.mean()), mean_length=float(lengths.mean()))

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        return self.evaluate_at(self.coefficient_of(genotype))


class RecordsFitness(FitnessEvaluator):
    """Resolves genotypes against the per-candidate ``Outcomes`` of a record file.

    A candidate is scored on the subset items in subset order, or on all of
    its records in record order when no subset is given.

    Unknown candidates raise :class:`MissingCandidatesError`. The batch
    method ignores ``workers`` and collects every missing candidate of the
    batch into one error, so one manifest round-trip per generation is enough.
    """

    def __init__(self, records: dict[str, Outcomes], subset_ids: Sequence[str] | None = None):
        self.records = records
        self.subset_ids = list(subset_ids) if subset_ids is not None else None

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        cid = candidate_id(genotype)
        outcomes = self.records.get(cid)
        if outcomes is None:
            raise MissingCandidatesError([(cid, genotype)])
        if self.subset_ids is not None:
            try:
                outcomes = outcomes.select(self.subset_ids)
            except KeyError as exc:
                missing = exc.args[0]
                raise RecordFormatError(
                    f"candidate {cid!r} has no record for item(s): {', '.join(missing[:5])}"
                    + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)")
                ) from None
        return outcomes.objectives()

    def evaluate_population(
        self, genotypes: Sequence[Genotype], workers: int = 1
    ) -> list[ObjectiveVector]:
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
