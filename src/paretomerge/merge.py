"""Merge operators turning a genotype and two endpoints into one checkpoint.

All arithmetic runs in float32 with a fixed expression per operator so the
results are reproducible bit-for-bit: task arithmetic evaluates
``(1 - lam) * s2 + lam * s1`` (endpoints come back exactly at lam 0/1), and
trimmed merging applies the same interpolation form to the kept entries so a
density of 1 reproduces task arithmetic without drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checkpoint import Checkpoint, check_compatible
from .errors import CompatibilityError, GenotypeError

LINEAR_BOUNDS = (0.0, 1.5)
MIN_TIES_DENSITY = 1e-3


class MergeKind(str, Enum):
    TA = "ta"
    TIES = "ties"
    LINEAR = "linear"


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
        expected = len(default_genotype_bounds(self.kind))
        if len(self.values) != expected:
            raise GenotypeError(
                f"{self.kind.value} genotype takes {expected} value(s), got {len(self.values)}"
            )
        if self.kind == MergeKind.TA:
            (lam,) = self.values
            if not 0.0 <= lam <= 1.0:
                raise GenotypeError(f"ta: lambda must lie in [0, 1], got {lam}")
        elif self.kind == MergeKind.TIES:
            lam, k = self.values
            if not 0.0 <= lam <= 1.0:
                raise GenotypeError(f"ties: lambda must lie in [0, 1], got {lam}")
            if not 0.0 < k <= 1.0:
                raise GenotypeError(f"ties: density k must lie in (0, 1], got {k}")
        else:
            _check_linear_weights(*self.values)

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
        report = check_compatible(self.system2, self.system1)
        if not report.compatible:
            raise CompatibilityError(report)


def merge_task_arithmetic(endpoints: MergeEndpoints, lam: float) -> Checkpoint:
    """Interpolate the endpoints: (1 - lam) * system2 + lam * system1."""
    if not 0.0 <= lam <= 1.0:
        raise GenotypeError(f"ta: lambda must lie in [0, 1], got {lam}")
    lam32 = np.float32(lam)
    one_minus = np.float32(1.0) - lam32
    tensors = {
        name: one_minus * s2 + lam32 * endpoints.system1.tensors[name]
        for name, s2 in endpoints.system2.tensors.items()
    }
    return Checkpoint(tensors=tensors, metadata={"op": "ta", "lambda": repr(float(lam))})


def merge_ties(endpoints: MergeEndpoints, lam: float, k: float) -> Checkpoint:
    """Interpolate only the ceil(k*n) largest-magnitude displacement entries per tensor.

    This is TIES-Merging (Yadav et al., NeurIPS 2023) for a single task vector
    tau = system1 - system2: with one vector the sign election and disjoint mean
    are trivial, so trimming to the top-k magnitudes is the whole operator.
    Entries outside the kept set stay exactly at system2.

    The kept set is the first ceil(k*n) entries of a stable sort of -|tau|,
    found without sorting: ``np.partition`` gives the threshold t, every
    entry strictly above it in magnitude is kept, and the remaining slots go
    to the entries equal to t, lowest flat index first. NaN displacements
    (possible only when loading skipped validation) rank after every number,
    so they are kept only when ceil(k*n) exceeds the count of non-NaN entries,
    again lowest index first.
    """
    if not 0.0 <= lam <= 1.0:
        raise GenotypeError(f"ties: lambda must lie in [0, 1], got {lam}")
    if not 0.0 < k <= 1.0:
        raise GenotypeError(f"ties: density k must lie in (0, 1], got {k}")
    lam32 = np.float32(lam)
    one_minus = np.float32(1.0) - lam32
    tensors = {}
    for name, s2 in endpoints.system2.tensors.items():
        s1 = endpoints.system1.tensors[name]
        neg = -np.abs(s1 - s2).ravel()
        n = neg.size
        keep_count = min(n, math.ceil(k * n))
        t = np.partition(neg, keep_count - 1)[keep_count - 1]
        if np.isnan(t):  # NaNs sort last: every number is kept, then NaNs fill
            ties = np.isnan(neg)
            mask = ~ties
        else:
            mask, ties = neg < t, neg == t
        mask[np.flatnonzero(ties)[: keep_count - np.count_nonzero(mask)]] = True
        merged = np.where(
            mask.reshape(s2.shape), one_minus * s2 + lam32 * s1, s2
        ).astype(np.float32, copy=False)
        tensors[name] = merged
    return Checkpoint(
        tensors=tensors,
        metadata={"op": "ties", "lambda": repr(float(lam)), "k": repr(float(k))},
    )


def _check_linear_weights(w_system2: float, w_system1: float) -> None:
    lo, hi = LINEAR_BOUNDS
    for label, w in (("w_system2", w_system2), ("w_system1", w_system1)):
        if not lo <= w <= hi:
            raise GenotypeError(f"linear: {label}={w} outside bounds [{lo}, {hi}]")


def merge_linear(endpoints: MergeEndpoints, w_system2: float, w_system1: float) -> Checkpoint:
    """Weighted sum w_system2 * system2 + w_system1 * system1, each weight in LINEAR_BOUNDS."""
    _check_linear_weights(w_system2, w_system1)
    w2 = np.float32(w_system2)
    w1 = np.float32(w_system1)
    tensors = {
        name: w2 * s2 + w1 * endpoints.system1.tensors[name]
        for name, s2 in endpoints.system2.tensors.items()
    }
    return Checkpoint(
        tensors=tensors,
        metadata={
            "op": "linear",
            "w_system2": repr(float(w_system2)),
            "w_system1": repr(float(w_system1)),
        },
    )


def decode_genotype(genotype: Genotype, endpoints: MergeEndpoints) -> Checkpoint:
    """Dispatch a genotype to its merge operator."""
    genotype.validate()
    if genotype.kind == MergeKind.TA:
        return merge_task_arithmetic(endpoints, genotype.values[0])
    if genotype.kind == MergeKind.TIES:
        return merge_ties(endpoints, genotype.values[0], genotype.values[1])
    return merge_linear(endpoints, genotype.values[0], genotype.values[1])
