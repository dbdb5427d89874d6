"""The array form of the blocked merge kernel, the stable-argsort oracle of
TIES, and tensor layouts that mislead its first-block bracket, which the
merge tests compare and bound in memory."""

import math

import numpy as np

from paretomerge.checkpoint import Checkpoint
from paretomerge.merge import Genotype, decode_genotype


def merge_tensor(genotype: Genotype, s2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Merge one pair of same-shaped float32 tensors under a genotype (validated first).

    The operators are defined in the ``paretomerge.merge`` docstring. This
    merges the pair as two one-tensor checkpoints through ``decode_genotype``.
    The output is the only tensor-sized array it allocates: the kernel writes
    its blocks straight into it.
    """
    merged = decode_genotype(genotype, Checkpoint({"t": s2}), Checkpoint({"t": s1}))
    return merged.tensors["t"]


def argsort_mask(tau, k):
    """Slow oracle: the first ceil(k*n) entries of a stable argsort of -|tau|, NaN last."""
    flat = tau.ravel()
    mask = np.zeros(flat.size, dtype=bool)
    mask[np.argsort(-np.abs(flat), kind="stable")[: min(flat.size, math.ceil(k * flat.size))]] = True
    return mask.reshape(tau.shape)


# Layouts of tau = s1 - s2 over a flat tensor of many blocks. TIES brackets
# its threshold from the first block's keys. "random" resolves in two passes,
# and so does "all-equal" when its bracket is one value, whose keys are
# counted, not held. The others can mislead the bracket: the rank falls
# outside it, or runs of ties ("tied": five values in random order; "held")
# put more keys inside it than the first block predicts.
LAYOUTS = ("random", "tied", "all-equal", "ascending", "zero-first", "nan-first", "held")


def layout_pair(layout: str, n: int, block: int, k: float, seed: int):
    """``(s2, s1)``, flat float32 arrays of ``n`` elements whose exact
    difference has the named layout at block size ``block`` and density ``k``."""
    rng = np.random.default_rng(seed)
    s2 = (rng.integers(-8, 9, n) / 4).astype(np.float32)
    # multiples of 2**-12 below 8 in magnitude, so s2 + tau - s2 is tau exactly
    tau = np.round(np.clip(rng.standard_normal(n), -6, 6) * 4096) / 4096
    if layout == "tied":
        tau = rng.choice([1.0, -1.0, 0.5, 0.25, -0.25], n, p=[0.15, 0.15, 0.05, 0.35, 0.3])
    elif layout == "all-equal":
        tau[:] = 0.5
    elif layout == "ascending":  # |tau| ascends with the flat index
        tau = np.sort(np.abs(tau)) * rng.choice([-1.0, 1.0], n)
    elif layout == "zero-first":  # a first block left as it was
        tau[:block] = 0.0
    elif layout == "nan-first":
        tau[:block] = np.nan
    elif layout == "held":  # the rest ties at the first block's estimate of the threshold
        first = np.sort(np.abs(tau[:block]))[::-1]
        tau[block:] = first[min(block - 1, math.ceil(k * block) - 1)]
    return s2, s2 + tau.astype(np.float32)
