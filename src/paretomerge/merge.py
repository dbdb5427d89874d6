"""One blocked merge kernel, mapped over two endpoints to give one checkpoint.

``_merged_blocks`` holds the three operators. It draws each pass over an
endpoint tensor from that checkpoint's ``blocks`` hook, in flat blocks of
``checkpoint.BLOCK`` elements, and yields the merged tensor in blocks of the
same size. It is the ``blocks`` hook of the checkpoint ``decode_genotype``
returns, so a loaded endpoint is read straight from its file when a tensor
of the merge is saved or looked up; ``merge_tensor`` is its array form. All
arithmetic runs in float32 with a fixed expression per operator so the
results are reproducible bit-for-bit. TA and linear take one pass and hold
only blocks. TIES takes two: the first writes its sort key into one
tensor-sized array and partitions it in place to find its threshold, the
second writes the merged values. Endpoints come back exactly at lam 0/1 only
for finite inputs: under ``merge --no-validate`` a non-finite entry of the
other endpoint makes the result NaN there (``0 * inf`` and ``0 * nan`` are
NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from . import checkpoint
from .checkpoint import Checkpoint, LazyTensors, block_slices, check_compatible
from .errors import GenotypeError

LINEAR_BOUNDS = (0.0, 1.5)
MIN_TIES_DENSITY = 1e-3


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
    """Merge one pair of same-shaped float32 tensors under a genotype (validated first).

    - TA interpolates ``(1 - lam) * s2 + lam * s1``.
    - LINEAR is the weighted sum ``w_system2 * s2 + w_system1 * s1``.
    - TIES applies the TA expression only to the ceil(k*n) largest-magnitude
      entries of tau = s1 - s2 and leaves the rest exactly at s2, so a
      density of 1 reproduces TA without drift. This is TIES-Merging (Yadav
      et al., NeurIPS 2023) for a single task vector: with one vector the
      sign election and disjoint mean are trivial, so trimming to the top-k
      magnitudes is the whole operator.

    This is the array form of the blocked kernel that ``decode_genotype``
    streams (see :func:`_merged_blocks` for the TIES passes): it merges the
    pair as two one-tensor checkpoints. The output is the only tensor-sized
    array it allocates: the kernel writes its blocks straight into it, and
    TIES uses it for its sort key before that.
    """
    merged = decode_genotype(genotype, Checkpoint({"t": s2}), Checkpoint({"t": s1}))
    return merged.tensors["t"]


def _merged_blocks(genotype, n: int, src2, src1, out=None) -> Iterator[np.ndarray]:
    """Yield the merged flat tensor of ``n`` elements in consecutive blocks.

    ``src2`` and ``src1`` are zero-argument callables, each called once per
    pass for an iterator over its endpoint's flat blocks of
    ``checkpoint.BLOCK`` elements; a block of each is used before the next
    is drawn, so a source may reuse one buffer. The merged blocks come from
    one reused buffer, each valid until the next is drawn, or are views of
    ``out`` when a flat output array is given. TA and linear take one pass.

    TIES takes two passes over the sources and keeps the first ceil(k*n)
    entries of a stable sort of -|tau|, found without sorting. Pass 1 writes
    -|tau| into an n-element key (``out`` when given) and partitions it in
    place: the threshold t lands in slot ceil(k*n) - 1, and the entries
    strictly before t (kept whatever their index) all lie in the slots ahead
    of it, where they are counted. Pass 2 recomputes -|tau| block by block,
    keeps the entries before t, gives the remaining slots to the entries
    equal to t, lowest flat index first, and writes the merged values. NaN
    displacements (possible only when loading skipped validation) rank after
    every number, so they are kept only when ceil(k*n) exceeds the count of
    non-NaN entries, again lowest index first. The key is the only
    tensor-sized array; the rest of the scratch is a few blocks.
    """
    size = min(checkpoint.BLOCK, n)
    buf, scratch = (np.empty(size, dtype=np.float32) for _ in range(2))
    if genotype.kind == MergeKind.LINEAR:
        w2, w1 = (np.float32(w) for w in genotype.values)
    else:
        w1 = np.float32(genotype.values[0])
        w2 = np.float32(1.0) - w1
    ties = genotype.kind == MergeKind.TIES
    if ties:
        keep_count = min(n, math.ceil(genotype.values[1] * n))
        key = np.empty(n, dtype=np.float32) if out is None else out
        for b, b2, b1 in zip(block_slices(n), src2(), src1()):  # pass 1: -|tau| into the key
            _neg_abs_tau(b2, b1, key[b])
        key.partition(keep_count - 1)
        t = key[keep_count - 1]
        nan_t = bool(np.isnan(t))
        keep_scratch, tie_scratch = (np.empty(size, dtype=bool) for _ in range(2))
        # every entry ranked before t now lies ahead of t's slot; the rest of
        # the keep_count slots go to entries equal to t (NaN when t is NaN)
        spare = keep_count - sum(
            np.count_nonzero(_before(key[b], t, nan_t, keep_scratch))
            for b in block_slices(keep_count - 1)
        )
        del key  # pass 2 does not read it
    for b, b2, b1 in zip(block_slices(n), src2(), src1()):  # the merged values
        if ties:  # pass 2: the mask, made before the weighted sum reuses scratch
            neg = _neg_abs_tau(b2, b1, scratch)
            keep = _before(neg, t, nan_t, keep_scratch)
            if spare:  # lowest flat index first
                tie = tie_scratch[: neg.size]
                if nan_t:
                    np.isnan(neg, out=tie)
                else:
                    np.equal(neg, t, out=tie)
                n_ties = np.count_nonzero(tie)
                if n_ties <= spare:
                    np.logical_or(keep, tie, out=keep)
                else:
                    keep[np.flatnonzero(tie)[:spare]] = True
                spare -= min(n_ties, spare)
        merged = buf[: b2.size] if out is None else out[b]
        _weighted_sum(w2, b2, w1, b1, merged, scratch)
        if ties:
            np.copyto(merged, b2, where=np.logical_not(keep, out=keep))
        yield merged


# NaN from 0 * inf and inf - inf is by design (``merge --no-validate``); errstate
# holds for the whole context, so each scope ends before the kernel yields.


def _weighted_sum(w2, s2, w1, s1, out, scratch) -> None:
    """``out = w2 * s2 + w1 * s1`` in float32; ``scratch`` holds ``w1 * s1``."""
    w1_s1 = scratch[: out.size]
    with np.errstate(invalid="ignore"):
        np.multiply(w2, s2, out=out)
        np.multiply(w1, s1, out=w1_s1)
        np.add(out, w1_s1, out=out)


def _neg_abs_tau(s2, s1, scratch) -> np.ndarray:
    """``-|s1 - s2|``, the TIES sort key, written into the head of ``scratch``."""
    neg = scratch[: s2.size]
    with np.errstate(invalid="ignore"):
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
    follow system2's order. Its ``blocks`` hook is the kernel, which draws
    each of its passes from both endpoints' ``blocks`` hooks, so a loaded
    endpoint is read straight from its file, one block at a time, and
    ``save_checkpoint`` of the result holds a few blocks (plus TIES's sort
    key) and no whole tensor; a lookup merges the whole tensor into a new
    array.
    """
    genotype.validate()
    check_compatible(system2, system1)
    shapes = dict(system2.shapes)

    def blocks(name: str, out=None) -> Iterator[np.ndarray]:
        return _merged_blocks(
            genotype,
            math.prod(shapes[name]),
            lambda: system2.tensors.blocks(name),
            lambda: system1.tensors.blocks(name),
            out,
        )

    metadata = {"op": genotype.kind.value}
    metadata.update(zip(_VALUE_NAMES[genotype.kind], map(repr, genotype.values)))
    return Checkpoint(LazyTensors(shapes, blocks), metadata)
