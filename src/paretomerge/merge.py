"""One per-tensor merge kernel, mapped over two endpoints to give one checkpoint.

``merge_tensor`` holds the three operators and ``decode_genotype`` applies it
to each tensor pair when that tensor of the merged checkpoint is looked up.
All arithmetic runs in float32 with a fixed expression per operator so the
results are reproducible bit-for-bit. The kernel works over the flattened
pair in blocks of ``_BLOCK`` elements: its output is the only tensor-sized
array it allocates, and TIES takes two passes, the first partitioning the
output buffer in place to find its threshold, the second writing the merged
values. Endpoints come back exactly at lam 0/1 only for finite inputs: under
``merge --no-validate`` a non-finite entry of the other endpoint makes the
result NaN there (``0 * inf`` and ``0 * nan`` are NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checkpoint import Checkpoint, LazyTensors, check_compatible
from .errors import GenotypeError

LINEAR_BOUNDS = (0.0, 1.5)
MIN_TIES_DENSITY = 1e-3
# Elements per block of the merge kernel: its scratch is a few blocks, never a tensor.
_BLOCK = 1 << 16


class MergeKind(str, Enum):
    TA = "ta"
    TIES = "ties"
    LINEAR = "linear"


# Checkpoint metadata name of each genotype value, in header order.
_VALUE_NAMES = {
    MergeKind.TA: ("lambda",),
    MergeKind.TIES: ("lambda", "k"),
    MergeKind.LINEAR: ("w_system2", "w_system1"),
}


@dataclass(frozen=True)
class Genotype:
    """Decision variables of one merge candidate.

    Value layout per kind: TA ``[lam]``; TIES ``[lam, k]``; LINEAR
    ``[w_system2, w_system1]``.
    """

    kind: MergeKind
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", MergeKind(self.kind))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def validate(self) -> None:
        expected = len(_VALUE_NAMES[self.kind])
        if len(self.values) != expected:
            raise GenotypeError(
                f"{self.kind.value} genotype takes {expected} value(s), got {len(self.values)}"
            )
        if self.kind == MergeKind.LINEAR:
            lo, hi = LINEAR_BOUNDS
            for label, w in zip(_VALUE_NAMES[self.kind], self.values):
                if not lo <= w <= hi:
                    raise GenotypeError(f"linear: {label}={w} outside bounds [{lo}, {hi}]")
            return
        lam = self.values[0]
        if not 0.0 <= lam <= 1.0:
            raise GenotypeError(f"{self.kind.value}: lambda must lie in [0, 1], got {lam}")
        if self.kind == MergeKind.TIES and not 0.0 < self.values[1] <= 1.0:
            raise GenotypeError(f"ties: density k must lie in (0, 1], got {self.values[1]}")

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "Genotype":
        return cls(kind=MergeKind(d["kind"]), values=tuple(d["values"]))


def default_genotype_bounds(kind: MergeKind) -> tuple[tuple[float, float], ...]:
    """Search box per decision variable for each merge kind."""
    if kind == MergeKind.TA:
        return ((0.0, 1.0),)
    if kind == MergeKind.TIES:
        return ((0.0, 1.0), (MIN_TIES_DENSITY, 1.0))
    return (LINEAR_BOUNDS, LINEAR_BOUNDS)


def merge_tensor(genotype: Genotype, s2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Merge one pair of same-shaped float32 tensors under a validated genotype.

    - TA interpolates ``(1 - lam) * s2 + lam * s1``.
    - LINEAR is the weighted sum ``w_system2 * s2 + w_system1 * s1``.
    - TIES applies the TA expression only to the ceil(k*n) largest-magnitude
      entries of tau = s1 - s2 and leaves the rest exactly at s2, so a
      density of 1 reproduces TA without drift. This is TIES-Merging (Yadav
      et al., NeurIPS 2023) for a single task vector: with one vector the
      sign election and disjoint mean are trivial, so trimming to the top-k
      magnitudes is the whole operator.

    The TIES kept set is the first ceil(k*n) entries of a stable sort of
    -|tau|, found without sorting, in two passes. Pass 1 writes -|tau| into
    the output and partitions it in place: the threshold t lands in slot
    ceil(k*n) - 1, and the entries strictly before t (kept whatever their
    index) all lie in the slots ahead of it, where they are counted. Pass 2
    recomputes -|tau| block by block, keeps the entries before t, gives the
    remaining slots to the entries equal to t, lowest flat index first, and
    overwrites the output block with the merged values. NaN displacements
    (possible only when loading skipped validation) rank after every number,
    so they are kept only when ceil(k*n) exceeds the count of non-NaN
    entries, again lowest index first.

    The output is the only tensor-sized array allocated: every operator runs
    over the flattened pair in blocks of ``_BLOCK`` elements with
    block-sized scratch.
    """
    out = np.empty(s2.shape, dtype=np.float32)
    flat2, flat1, flat_out = s2.reshape(-1), s1.reshape(-1), out.reshape(-1)
    n = flat_out.size
    scratch = np.empty(min(_BLOCK, n), dtype=np.float32)
    if genotype.kind == MergeKind.LINEAR:
        w2, w1 = (np.float32(w) for w in genotype.values)
    else:
        w1 = np.float32(genotype.values[0])
        w2 = np.float32(1.0) - w1
    if genotype.kind != MergeKind.TIES:
        for b in _blocks(n):
            _weighted_sum(w2, flat2[b], w1, flat1[b], flat_out[b], scratch)
        return out

    keep_count = min(n, math.ceil(genotype.values[1] * n))
    for b in _blocks(n):  # pass 1: -|tau| into the output, partitioned in place
        _neg_abs_tau(flat2[b], flat1[b], flat_out[b])
    flat_out.partition(keep_count - 1)
    t = flat_out[keep_count - 1]
    nan_t = bool(np.isnan(t))
    keep_scratch, tie_scratch = (np.empty(scratch.size, dtype=bool) for _ in range(2))
    # every entry ranked before t now lies ahead of t's slot; the rest of the
    # keep_count slots go to entries equal to t (NaN when t is NaN)
    spare = keep_count - sum(
        np.count_nonzero(_before(flat_out[b], t, nan_t, keep_scratch))
        for b in _blocks(keep_count - 1)
    )
    for b in _blocks(n):  # pass 2: mask and merged values, block by block
        neg = _neg_abs_tau(flat2[b], flat1[b], scratch)
        keep = _before(neg, t, nan_t, keep_scratch)
        if spare:  # lowest flat index first
            tie = tie_scratch[: neg.size]
            if nan_t:
                np.isnan(neg, out=tie)
            else:
                np.equal(neg, t, out=tie)
            ties = np.count_nonzero(tie)
            if ties <= spare:
                np.logical_or(keep, tie, out=keep)
            else:
                keep[np.flatnonzero(tie)[:spare]] = True
            spare -= min(ties, spare)
        _weighted_sum(w2, flat2[b], w1, flat1[b], flat_out[b], scratch)
        np.copyto(flat_out[b], flat2[b], where=np.logical_not(keep, out=keep))
    return out


def _blocks(n: int):
    """Slices of consecutive ``_BLOCK``-element blocks covering ``range(n)``."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


def _weighted_sum(w2, s2, w1, s1, out, scratch) -> None:
    """``out = w2 * s2 + w1 * s1`` in float32; ``scratch`` holds ``w1 * s1``."""
    w1_s1 = scratch[: out.size]
    np.multiply(w2, s2, out=out)
    np.multiply(w1, s1, out=w1_s1)
    np.add(out, w1_s1, out=out)


def _neg_abs_tau(s2, s1, scratch) -> np.ndarray:
    """``-|s1 - s2|``, the TIES sort key, written into the head of ``scratch``."""
    neg = scratch[: s2.size]
    np.subtract(s1, s2, out=neg)
    np.abs(neg, out=neg)
    return np.negative(neg, out=neg)


def _before(neg, t, nan_t: bool, scratch) -> np.ndarray:
    """Mask of the entries of ``neg`` ranked strictly before the threshold ``t``.

    NaN ranks after every number, so a NaN ``t`` has every number before it.
    """
    mask = scratch[: neg.size]
    if nan_t:
        return np.logical_not(np.isnan(neg, out=mask), out=mask)
    return np.less(neg, t, out=mask)


def decode_genotype(genotype: Genotype, system2: Checkpoint, system1: Checkpoint) -> Checkpoint:
    """Merge the slow/verbose ``system2`` with the fast/concise ``system1``.

    Validates the genotype and checks the endpoints' compatibility, then
    returns the merged checkpoint without looking up a tensor. Its tensors
    follow system2's order and are merged when looked up: each lookup reads
    (for loaded endpoints) and merges that one tensor pair, so
    ``save_checkpoint`` of the result holds one pair and its merge at a time.
    """
    genotype.validate()
    check_compatible(system2, system1)
    tensors = LazyTensors(
        dict(system2.shapes),
        lambda name: merge_tensor(genotype, system2.tensors[name], system1.tensors[name]),
    )
    metadata = {"op": genotype.kind.value}
    metadata.update(zip(_VALUE_NAMES[genotype.kind], map(repr, genotype.values)))
    return Checkpoint(tensors=tensors, metadata=metadata)
