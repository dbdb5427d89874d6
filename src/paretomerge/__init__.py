"""Training-free multi-objective model merging with cheap subset fitness.

Searches the accuracy-vs-output-length trade-off over merge coefficients
with an elitist evolutionary algorithm, scoring candidates either on a
simulated item-response benchmark or on record files produced by an external
evaluation harness. Entropy-based subset selection keeps fitness estimation
cheap while preserving candidate rankings.

The library is imported from its modules (``paretomerge.merge``,
``paretomerge.nsga2``, ...); the package re-exports only the names below.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import SimulatedFitness, candidate_id, generate_benchmark
from .merge import Genotype, MergeKind
