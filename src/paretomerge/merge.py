"""One per-tensor merge kernel, mapped over two endpoints to give one checkpoint.

``merge_tensor`` holds the three operators and ``decode_genotype`` applies it
to each tensor pair when that tensor of the merged checkpoint is looked up.
All arithmetic runs in float32 with a fixed expression per operator so the
results are reproducible bit-for-bit. Endpoints come back
exactly at lam 0/1 only for finite inputs: under ``merge --no-validate`` a
non-finite entry of the other endpoint makes the result NaN there
(``0 * inf`` and ``0 * nan`` are NaN).
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


@dataclass
class MergeEndpoints:
    """The two merge endpoints: slow/verbose system2 and fast/concise system1."""

    system2: Checkpoint
    system1: Checkpoint

    def __post_init__(self):
        check_compatible(self.system2, self.system1)


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
    -|tau|, found without sorting: ``np.partition`` gives the threshold t,
    every entry strictly above it in magnitude is kept, and the remaining
    slots go to the entries equal to t, lowest flat index first. NaN
    displacements (possible only when loading skipped validation) rank after
    every number, so they are kept only when ceil(k*n) exceeds the count of
    non-NaN entries, again lowest index first.
    """
    if genotype.kind == MergeKind.LINEAR:
        w2, w1 = (np.float32(w) for w in genotype.values)
        return w2 * s2 + w1 * s1
    lam32 = np.float32(genotype.values[0])
    one_minus = np.float32(1.0) - lam32
    if genotype.kind == MergeKind.TA:
        return one_minus * s2 + lam32 * s1
    neg = -np.abs(s1 - s2).ravel()
    n = neg.size
    keep_count = min(n, math.ceil(genotype.values[1] * n))
    t = np.partition(neg, keep_count - 1)[keep_count - 1]
    if np.isnan(t):  # NaNs sort last: every number is kept, then NaNs fill
        ties = np.isnan(neg)
        mask = ~ties
    else:
        mask, ties = neg < t, neg == t
    mask[np.flatnonzero(ties)[: keep_count - np.count_nonzero(mask)]] = True
    return np.where(
        mask.reshape(s2.shape), one_minus * s2 + lam32 * s1, s2
    ).astype(np.float32, copy=False)


def decode_genotype(genotype: Genotype, endpoints: MergeEndpoints) -> Checkpoint:
    """Validate the genotype once and return the merged checkpoint.

    Its tensors follow system2's order and are merged when looked up: each
    lookup reads (for lazy endpoints) and merges that one tensor pair, so
    ``save_checkpoint`` of the result holds one pair and its merge at a time.
    """
    genotype.validate()
    system2, system1 = endpoints.system2.tensors, endpoints.system1.tensors
    tensors = LazyTensors(
        dict(endpoints.system2.shapes),
        lambda name: merge_tensor(genotype, system2[name], system1[name]),
    )
    metadata = {"op": genotype.kind.value}
    metadata.update(zip(_VALUE_NAMES[genotype.kind], map(repr, genotype.values)))
    return Checkpoint(tensors=tensors, metadata=metadata)
