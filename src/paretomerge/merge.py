"""One blocked merge kernel, mapped over two endpoints to give one checkpoint.

The operators, for one pair of same-shaped float32 tensors ``s2`` (system2)
and ``s1`` (system1) under a validated genotype:

- TA interpolates ``(1 - lam) * s2 + lam * s1``.
- LINEAR is the weighted sum ``w_system2 * s2 + w_system1 * s1``.
- TIES applies the TA expression only to the ceil(k*n) largest-magnitude
  entries of tau = s1 - s2 and leaves the rest exactly at s2, so a density
  of 1 reproduces TA without drift. This is TIES-Merging (Yadav et al.,
  NeurIPS 2023) for a single task vector: with one vector the sign election
  and disjoint mean are trivial, so trimming to the top-k magnitudes is the
  whole operator.

``_merged_blocks`` holds the three operators. It draws each pass over an
endpoint tensor from that checkpoint's ``blocks`` hook, in flat blocks of
``checkpoint.BLOCK`` elements, and yields the merged tensor in blocks of the
same size. It is the ``blocks`` hook of the checkpoint ``decode_genotype``
returns, so a loaded endpoint is read straight from its file when a tensor
of the merge is saved or looked up. All arithmetic runs in float32 with a
fixed expression per operator so the results are reproducible bit-for-bit.
TA and linear take one pass and hold only blocks. TIES takes two whenever
its tensor's first block represents the rest. The first pass makes a uint32
rank key per entry, block by block: the first block's keys bracket the
threshold, the pass counts the keys below the bracket and holds only those
inside it (at the default block, at most twice the first block's share,
itself at most 1.6% of the tensor), and one partition of those finds the
exact threshold. The second pass remakes the keys and selects bitwise
between the merged value and system2's. When the first block misleads the
bracket, two more passes find the same threshold from 65,536-bin histograms
of the keys' high and then low 16 bits, holding a histogram and a few
blocks. The keys held number at most about 8n/sqrt(BLOCK) for a tensor of
n entries, so only a block of 64 elements or fewer can hold one per entry.
Endpoints come back exactly at lam 0/1 only for finite inputs: under
``merge --no-validate`` a non-finite entry of the other endpoint makes the
result NaN there (``0 * inf`` and ``0 * nan`` are NaN).
"""

from __future__ import annotations

import itertools
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


def default_genotype_bounds(kind: MergeKind) -> tuple[tuple[float, float], ...]:
    """Search box per decision variable for each merge kind."""
    if kind == MergeKind.TA:
        return ((0.0, 1.0),)
    if kind == MergeKind.TIES:
        return ((0.0, 1.0), (MIN_TIES_DENSITY, 1.0))
    return (LINEAR_BOUNDS, LINEAR_BOUNDS)


def _merged_blocks(genotype, n: int, src2, src1, out=None) -> Iterator[np.ndarray]:
    """Yield the merged flat tensor of ``n`` elements in consecutive blocks.

    ``src2`` and ``src1`` are zero-argument callables, each called once per
    pass for an iterator over its endpoint's flat blocks of
    ``checkpoint.BLOCK`` elements; a block of each is used before the next
    is drawn, so a source may reuse one buffer. The merged blocks come from
    one reused buffer, each valid until the next is drawn, or are views of
    ``out`` when a flat output array is given. TA and linear take one pass.

    TIES keeps the first ceil(k*n) entries of a stable sort of -|tau| (NaN
    last), found without sorting by their uint32 ``_rank_key``. Pass 1
    finds the key t of rank ceil(k*n) - 1 and ``spare``, the kept slots
    left for keys equal to t, from a bracket that the first block's keys
    give (``_bracketed_threshold``), or, when that block misleads the
    bracket, from two more passes of histograms (``_histogram_threshold``).
    Pass 2 remakes the keys block by block, keeps those below t, gives the
    spare slots to the keys equal to t, lowest flat index first, and
    selects bitwise between the merged value and s2. The scratch is a few
    blocks, the keys inside the bracket (bounded in the module docstring)
    and, on the fallback, a histogram.
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
        keep_scratch, tie_scratch = (np.empty(size, dtype=bool) for _ in range(2))

        def keys() -> Iterator[np.ndarray]:  # one pass of rank keys, each in scratch
            for b2, b1 in zip(src2(), src1()):
                yield _rank_key(b2, b1, scratch.view(np.uint32))

        t, spare = _bracketed_threshold(
            keys, n, keep_count, keep_scratch, tie_scratch
        ) or _histogram_threshold(keys, keep_count)
    for b, b2, b1 in zip(block_slices(n), src2(), src1()):  # the merged values
        if ties:  # pass 2: the mask, made before the weighted sum reuses scratch
            k = _rank_key(b2, b1, scratch.view(np.uint32))
            keep = np.less(k, t, out=keep_scratch[: k.size])
            if spare:  # lowest flat index first
                tie = np.equal(k, t, out=tie_scratch[: k.size])
                n_ties = np.count_nonzero(tie)
                if n_ties <= spare:
                    np.logical_or(keep, tie, out=keep)
                else:
                    keep[np.flatnonzero(tie)[:spare]] = True
                spare -= min(n_ties, spare)
        merged = buf[: b2.size] if out is None else out[b]
        _weighted_sum(w2, b2, w1, b1, merged, scratch)
        if ties:  # merged where kept, else s2's bits: s2 ^ ((merged ^ s2) & mask)
            m, v2, select = (a.view(np.uint32) for a in (merged, b2, scratch[: b2.size]))
            np.multiply(keep, np.uint32(0xFFFFFFFF), out=select)
            np.bitwise_xor(m, v2, out=m)
            np.bitwise_and(m, select, out=m)
            np.bitwise_xor(m, v2, out=m)
        yield merged


# Standard errors of the first block's quantile on either side of its bracket.
_BRACKET_SE = 4.0


def _bracketed_threshold(keys, n: int, keep_count: int, x, y):
    """TIES pass 1: ``(t, spare)`` from a bracket around the key of rank
    ``keep_count - 1``, or None when the first block misleads the bracket.

    ``keys`` makes one pass of the ``n`` rank keys in blocks, and ``x`` and
    ``y`` are bool scratch of a block each. The first block's keys, a
    sample, give the bracket ``[lo, hi]``: ``_BRACKET_SE`` standard errors of
    the sample quantile on either side of the rank, exact when the first
    block is the whole tensor. The same pass counts the keys below ``lo``
    and holds those inside the bracket (or, when ``lo == hi``, counts them),
    and one partition of them, joined, gives t and ``spare = keep_count -
    #(key < t)``. The block misleads when the rank lies outside the bracket,
    or when the keys inside outnumber twice the block's own count of keys
    strictly inside, scaled to the tensor (a long run of ties at one end
    does); the pass stops there, before it holds them. This is the
    sample bracket of Floyd and Rivest (CACM 18(3), 1975) in one pass; no
    one pass in less than O(n) memory selects exactly for every order of
    the keys (Munro and Paterson, TCS 12, 1980), hence the fallback.
    """
    rank = keep_count - 1
    blocks = keys()
    first = next(blocks)  # counted like any block, so its order is free
    m = first.size
    # the sample rank of ``rank`` and its standard error, drawn without replacement
    q, at = (rank + 0.5) / n, (rank + 0.5) * m / n - 0.5
    err = _BRACKET_SE * math.sqrt(q * (1 - q) * m * (n - m) / max(n - 1, 1))
    i_lo, i_hi = math.floor(at - err), math.ceil(at + err)
    top = min(i_hi, m - 1)  # two one-index partitions: numpy's two-index one is slower
    first.partition(top)  # the keys ahead of first[top] are the smaller ones
    if 0 <= i_lo < top:
        first[:top].partition(i_lo)
    lo = first[i_lo] if i_lo >= 0 else np.uint32(0)
    hi = first[i_hi] if i_hi < m else np.uint32(0xFFFFFFFF)
    # more keys inside than twice the first block's share of them: it misleads
    budget = 2 * n * (np.count_nonzero((first > lo) & (first < hi)) + 1) // m
    below = inside = 0  # the keys below lo, and in [lo, hi]
    held = []
    for k in itertools.chain([first], blocks):
        lt, le = x[: k.size], y[: k.size]
        below += np.count_nonzero(np.less(k, lo, out=lt))
        block = np.compress(np.greater(np.less_equal(k, hi, out=le), lt, out=le), k)
        inside += block.size
        if lo < hi:  # else every key inside is lo, and counted
            if inside > budget:
                return None
            held.append(block)
    if not below <= rank < below + inside:
        return None
    if lo == hi:
        return lo, keep_count - below
    kept, i = np.concatenate(held), rank - below
    kept.partition(i)
    return kept[i], keep_count - below - np.count_nonzero(kept[:i] < kept[i])


def _histogram_threshold(keys, keep_count: int):
    """The exact ``(t, spare)`` of ``_bracketed_threshold`` in two more passes
    of ``keys``, each holding one 65,536-bin histogram: the first counts
    the keys' high 16 bits and finds t's, the second counts the low 16 bits
    of the keys that share them."""
    rank, t, n_below = keep_count - 1, 0, 0
    for shift in (16, 0):
        hist = np.zeros(1 << 16, dtype=np.int64)
        for k in keys():
            if shift == 0:
                k = k[(k >> 16) == t >> 16]
            hist += np.bincount((k >> shift) & 0xFFFF, minlength=1 << 16)
        cum = np.cumsum(hist)
        digit = int(np.searchsorted(cum, rank - n_below, side="right"))
        n_below += int(cum[digit - 1]) if digit else 0
        t |= digit << shift
    return np.uint32(t), keep_count - n_below


# NaN from 0 * inf and inf - inf is by design (``merge --no-validate``); errstate
# holds for the whole context, so each scope ends before the kernel yields.


def _weighted_sum(w2, s2, w1, s1, out, scratch) -> None:
    """``out = w2 * s2 + w1 * s1`` in float32; ``scratch`` holds ``w1 * s1``."""
    w1_s1 = scratch[: out.size]
    with np.errstate(invalid="ignore"):
        np.multiply(w2, s2, out=out)
        np.multiply(w1, s1, out=w1_s1)
        np.add(out, w1_s1, out=out)


def _rank_key(s2, s1, out) -> np.ndarray:
    """``0x7F800000 - bits(|s1 - s2|)``, the TIES rank, in the head of uint32 ``out``.

    It ascends as |tau| descends (infinity is 0, either zero ``0x7F800000``)
    and ties exactly where |tau| does; every NaN wraps past that and is
    clamped to ``0x7F800001``, after every number.
    """
    key = out[: s2.size]
    with np.errstate(invalid="ignore"):
        np.subtract(s1, s2, out=key.view(np.float32))
    np.bitwise_and(key, np.uint32(0x7FFFFFFF), out=key)
    np.subtract(np.uint32(0x7F800000), key, out=key)
    return np.minimum(key, np.uint32(0x7F800001), out=key)


def decode_genotype(genotype: Genotype, system2: Checkpoint, system1: Checkpoint) -> Checkpoint:
    """Merge the slow/verbose ``system2`` with the fast/concise ``system1``.

    Validates the genotype and checks the endpoints' compatibility, then
    returns the merged checkpoint without looking up a tensor. Its tensors
    follow system2's order. Its ``blocks`` hook is the kernel, which draws
    each of its passes from both endpoints' ``blocks`` hooks, so a loaded
    endpoint is read straight from its file, one block at a time, and
    ``save_checkpoint`` of the result holds a few blocks (plus, for TIES,
    the rank keys inside its threshold's bracket) and no whole tensor; a
    lookup merges the whole tensor into a new array.
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
