"""The array form of the blocked merge kernel, which the merge tests compare
against oracles and bound in memory."""

import numpy as np

from paretomerge.checkpoint import Checkpoint
from paretomerge.merge import Genotype, decode_genotype


def merge_tensor(genotype: Genotype, s2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Merge one pair of same-shaped float32 tensors under a genotype (validated first).

    The operators are defined in the ``paretomerge.merge`` docstring. This
    merges the pair as two one-tensor checkpoints through ``decode_genotype``.
    The output is the only tensor-sized array it allocates: the kernel writes
    its blocks straight into it, and TIES holds its uint32 rank keys there
    before that.
    """
    merged = decode_genotype(genotype, Checkpoint({"t": s2}), Checkpoint({"t": s1}))
    return merged.tensors["t"]
